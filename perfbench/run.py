"""lungseg3d benchmark: one workload per process.

    python3 perfbench/run.py --workload nodule-train --seed 0 --seconds 10 --trace 0

Run from the repository root. The package is imported from ./src only. With
--trace 0 the result line carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 every public callable is wrapped in a span recorder and the
result line carries the per-layer metrics. `--workload all` runs every
workload in its own process and prints every metric by name with its unit.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every check passes and no operation failed, 1 otherwise,
2 when the package or BENCHMARK.json cannot be found (no result is printed).
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MATMUL_N = 2048          # f32 square matmul for the BLAS ceiling
CEILING_REPS = 5
COPY_LLC_MULTIPLE = 4    # copy buffer size in last-level caches


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import numpy and lungseg3d from ./src; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "lungseg3d", "__init__.py")):
        die(f"lungseg3d sources not found under {SRC}")
    sys.path.insert(0, SRC)
    t = perf_counter()
    import numpy  # noqa: F401
    import lungseg3d
    for name in ("tensor", "ops", "autograd", "blocks", "networks", "losses",
                 "data", "train", "gradcheck"):
        __import__(f"lungseg3d.{name}")
    took = perf_counter() - t
    if not os.path.abspath(lungseg3d.__file__).startswith(SRC + os.sep):
        die(f"lungseg3d imported from {lungseg3d.__file__}, not {SRC}")
    return took


# ---------------------------------------------------------------------------
# Machine facts and ceilings
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_bytes():
    """{level: bytes} of cpu0's unified/data caches, read from /sys."""
    sizes = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        if _read(os.path.join(d, "type")) == "Instruction":
            continue
        level, size = _read(os.path.join(d, "level")), _read(
            os.path.join(d, "size"))
        if level and size:
            mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
            sizes[int(level)] = int(size.rstrip("KMG")) * mult
    return sizes


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "lungseg3d", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine_facts():
    import numpy as np
    model = "unknown"
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get(
            "OPENBLAS_NUM_THREADS", "unset (OpenBLAS default: one per CPU)"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "pinning": "none: no CPU pinning or frequency control; one process",
    }


def ceilings(facts):
    """BLAS and memory-copy ceilings, best of CEILING_REPS."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    b = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    best = float("inf")
    for _ in range(CEILING_REPS):
        t = perf_counter()
        np.matmul(a, b)
        best = min(best, perf_counter() - t)
    gflops = 2.0 * MATMUL_N ** 3 / best / 1e9
    del a, b
    llc = facts["l3_bytes"] or facts["l2_bytes"] or 32 * 1024 ** 2
    buf = np.ones(COPY_LLC_MULTIPLE * llc // 8, dtype=np.float64)
    half = buf.size // 2
    best = float("inf")
    for _ in range(CEILING_REPS):
        t = perf_counter()
        np.copyto(buf[half:2 * half], buf[:half])
        best = min(best, perf_counter() - t)
    copy_gbs = 2.0 * half * 8 / best / 1e9   # bytes read plus bytes written
    del buf
    sizes = {"matmul": f"f32 {MATMUL_N}x{MATMUL_N} @ {MATMUL_N}x{MATMUL_N}, "
                       f"best of {CEILING_REPS}",
             "copy": f"{COPY_LLC_MULTIPLE * llc / 2 ** 20:.0f} MiB f64 buffer "
                     f"({COPY_LLC_MULTIPLE}x the {llc / 2 ** 20:.0f} MiB "
                     f"last-level cache), first half copied onto second, "
                     f"read+write bytes, best of {CEILING_REPS}"}
    return ({"ceiling.matmul_gflop_per_s": gflops,
             "ceiling.copy_gb_per_s": copy_gbs}, sizes)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_one(args, spec):
    import_s = import_package()
    import numpy as np

    import tracing      # the script's own directory is on sys.path
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs()
    facts = machine_facts()
    extra = {}
    ceiling_sizes = None
    tracer = None
    if args.trace:
        ceil, ceiling_sizes = ceilings(facts)
        extra.update(ceil)
        tracer = tracing.Tracer().install()

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = cls(work, args.seed, tracer)
        setup_times = wl.setup()
        setup_s = import_s + float(np.median(setup_times))
        nodes0 = tracer.counters["autograd.from_op"] if tracer else 0
        wall = wl.measure(args.seconds)
        nodes = tracer.counters["autograd.from_op"] - nodes0 if tracer else 0
        try:
            wl.verify(refs)
        except Exception as exc:  # a check that cannot run is a failed check
            wl.check("verify completed", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = wl.named(wall)
    e2e = {
        "setup_s": setup_s,
        "op_s.p50": wl.op_s(),
        "ops_per_s": wl.ops_per_s(wall),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {}
    if tracer is not None:
        table = tracing.SpanTable(tracer, wl.window)
        extra["trace.op_s.p50"] = e2e["op_s.p50"]
        extra["autograd.from_op"] = nodes
        extra["gradcheck.targets_failed"] = (wl.failed
                                             if wl.name == "gradcheck" else 0)
        values = tracing.per_layer(table, wl.attempted, wl.window, extra)
        for name, want in wl.expected().items():
            got = table.calls(name, in_loop=True)
            counts[name] = [got, want]
            wl.check(f"trace count {name}", got == want, f"{got} vs {want}")
        wl.check("trace coverage >= 0.95", values["trace.coverage"] >= 0.95,
                 f"{values['trace.coverage']:.4f}")
        tracer.save(os.path.join(WORK_ROOT, f"trace-{wl.name}.npz"))
        defs = spec["per_layer"]
    else:
        values = e2e
        defs = spec["end_to_end"]

    names = [d["name"] for d in defs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        unknown = sorted(set(values) - set(names))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {missing}, unknown {unknown}")
    metrics = {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
               for d in defs}

    for c in wl.check.items:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f"  ({c['detail']})" if c["detail"] else ""))
    for err in wl.errors:
        print(f"error {err}")
    for key, val in facts.items():
        print(f"machine {key} = {val}")
    if ceiling_sizes:
        for key, val in ceiling_sizes.items():
            print(f"ceiling {key}: {val}")
    print(f"workload {wl.name} seed {args.seed} (catalogue entry {wl.k}) "
          f"trace {args.trace}: {wl.attempted} ops, {wl.failed} failed, "
          f"error_rate {wl.failed / max(wl.attempted, 1):.4f}, "
          f"measured {wall:.3f} s")
    for name, (val, unit) in named.items():
        print(f"named {name} = {json.dumps(val)} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    detail = {"workload": wl.name, "seed": args.seed, "k": wl.k,
              "trace": args.trace, "facts": facts, "setup_times": setup_times,
              "import_s": import_s,
              "op_times": wl.op_times,
              "named": {k: v[0] for k, v in named.items()},
              "checks": wl.check.items, "errors": wl.errors,
              "trace_counts": counts, "ceiling_sizes": ceiling_sizes,
              "digest": getattr(wl, "digest", None)}
    if args.trace:
        detail["e2e_traced"] = e2e
    print("detail " + json.dumps(detail))
    correct = wl.check.ok
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct and wl.failed == 0 else 1


def run_all(args, spec):
    """Every workload, each in its own process (so peak RSS is its own)."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            if line.startswith(("metric ", "named ", "check FAIL", "error ")):
                print(f"{w['name']}: {line}")
        if proc.returncode != 0:
            print(f"{w['name']}: exit code {proc.returncode}")
            status = 1
    return status


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
