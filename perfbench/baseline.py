"""Repeat the benchmark over seeds and write a baseline file.

    python3 perfbench/baseline.py

For each workload: RUNS untraced runs on seeds 0 to RUNS - 1, then one
traced run on seed 0, each for `run_seconds` of BENCHMARK.json. Records, per end-to-end metric, the median, the quartiles and
the spread (interquartile range over median) against the bound in
BENCHMARK.json; the workload-specific named metrics; the traced per-layer
metrics, the five slowest conv layers from the saved trace, and the tracing
overhead (traced op_s.p50 over the untraced median). Every run is a separate
process, one at a time. The result goes to perfbench/BENCH_baseline.json.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "BENCH_baseline.json")
RUNS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def summary(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] < bound / 3
    return out


def top_layers(workload, n=5):
    """Slowest conv layers (forward + backward seconds) in the saved trace."""
    path = os.path.join(ROOT, ".bench_work", f"trace-{workload}.npz")
    if not os.path.exists(path):
        return []
    z = np.load(path)
    names = list(z["names"])
    dur = z["t1"] - z["t0"]
    totals = np.bincount(z["name_id"], weights=dur, minlength=len(names))
    layers = {}
    for i, name in enumerate(names):
        if name.startswith("layer."):
            base = name[len("layer."):].removesuffix(".bwd")
            layers[base] = layers.get(base, 0.0) + float(totals[i])
    wall = float(z["t1"].max() - z["t0"].min())
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])[:n]
    return [{"layer": k, "fwd_plus_bwd_s": v, "share_of_trace": v / wall}
            for k, v in ranked]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"runs": RUNS, "seeds": [0, RUNS], "seconds": seconds,
              "workloads": {}}
    for w in (wl["name"] for wl in spec["workloads"]):
        e2e, named, facts = {}, {}, None
        for seed in range(RUNS):
            out, detail = bench(w, seed, seconds, 0)
            if not out["correct"] or out["failed"]:
                raise RuntimeError(f"{w} seed {seed} failed: "
                                   f"{detail['checks']} {detail['errors']}")
            facts = detail["facts"]
            for name, m in out["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            for name, v in detail["named"].items():
                v = v["value"] if isinstance(v, dict) else v
                named.setdefault(name, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                flush=True)
        entry = {
            "end_to_end": {k: summary(v, bounds[k]) for k, v in e2e.items()},
            "named": {k: summary(v) for k, v in named.items()},
            "facts": facts,
        }
        out, detail = bench(w, 0, seconds, 1)
        per_layer = {k: m["value"] for k, m in out["metrics"].items()}
        entry["traced"] = {
            "correct": out["correct"],
            "per_layer": per_layer,
            "top_layers": top_layers(w),
            "tracing_overhead": (per_layer["trace.op_s.p50"] /
                                 entry["end_to_end"]["op_s.p50"]["median"]),
            "ceiling_sizes": detail["ceiling_sizes"],
        }
        print(f"{w} traced: overhead "
              f"{entry['traced']['tracing_overhead']:.3f}, coverage "
              f"{per_layer['trace.coverage']:.4f}", flush=True)
        result["workloads"][w] = entry
        for k, s in entry["end_to_end"].items():
            print(f"{w} {k}: median {s['median']:.4g} spread {s['spread']:.4f}"
                  f" bound {s['bound']} steady {s['steady']}", flush=True)
        with open(OUT, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
