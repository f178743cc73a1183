"""Compare two revisions of the repository: byte identity of every artifact,
and alternating benchmark pairs.

Usage, from the repository root:

    python3 tools/ab.py identity PARENT_REV [CHANGE_REV] [--root DIR]
    python3 tools/ab.py bench PARENT_REV [CHANGE_REV] --workload W --pairs N
                        [--seed S] [--trace 0|1] [--root DIR]

CHANGE_REV defaults to HEAD. Both revisions are exported with `git archive`
into DIR/parent and DIR/change (DIR defaults to `lungseg3d-ab` in the
temporary directory): sibling directories whose paths have equal length,
since the length of a path can move a run's heap layout and so its peak
RSS. A directory is re-exported on every call; one that this script did not
make is never removed.

`identity` runs the same set in each tree at OPENBLAS_NUM_THREADS=1 (byte
identity holds at one thread count), with relative paths, so the artifacts
hold nothing of the tree:
- a 2-epoch nodule CLI run: 8 phantoms at 32^3, the split, `train` at widths
  8,16,32,64 (samples, split, `log.csv`, `best/`, `last/`);
- the `eval --out` report, a `predict` `.mhd`/`.raw` and the gray and color
  heatmaps, all from `best/`;
- `gradcheck --target all` at seeds 0, 1 and 2, each of which must exit 0;
- acceptance criterion 6's 10-step replays: the lung net on a 16x64x64
  phantom and the nodule net, dropout 0, on a 32^3 one; and 2 steps of the
  lung net on a 16x128x128 phantom, large enough that the conv forwards of
  both conv3d and tconv3d_backward run in slabs (losses as repr);
- the probability volume of a desk-width (8,16,32,64) lung net on a
  23x300x300 phantom.
It prints each artifact's sha256 prefix in both trees and names every file
that differs or exists in one tree only. Exit code 1 if any artifact
differs or any command failed.

`bench` runs `perfbench/run.py --workload W --trace T` (T defaults to 0) in
the two trees for N pairs, at seeds S, S+1, ..., and alternates which tree
runs first. Each run's line gives its exit code and failed operations, and
is followed by every `check FAIL` and `error` line it printed. Untraced, it
then prints, for each end-to-end metric of the parent's BENCHMARK.json,
every reading, both medians and ranges, and the number of pairs the change
won. A metric is "unresolved" when the parent's own spread, (max - min) /
median, exceeds the metric's bound: its runs cannot then tell a change of
that size from noise. Traced (`--trace 1`), a run reports per-layer metrics
instead, so each run's line also gives its `trace.coverage`, the share of
the operation's time its spans cover, and the table is skipped. Exit code 1
if a run failed a check or an operation.

It needs git and the standard library only. It is a reading aid, not a
gate, and it changes nothing in either tree's sources.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

TREES = ("parent", "change")  # equal lengths: equal path lengths
MARKER = ".ab-tree"
THREADS = "1"  # OPENBLAS_NUM_THREADS of the identity set

# criterion 6's replays, a larger lung replay and the desk lung probability
# volume, run in a tree with its src/ first on the path; writes into the
# working directory
_SNIPPET = """
import json
import numpy as np
from lungseg3d import autograd as ag
from lungseg3d.autograd import Var
from lungseg3d.data import make_phantom
from lungseg3d.networks import NetworkConfig, build_network
from lungseg3d.train import AdamState, train_step

DESK = [8, 16, 32, 64]
replays = {}
for name, config, sample, steps in (
        ("lung", NetworkConfig(DESK, (1, 16, 64, 64)),
         make_phantom("lung", (16, 64, 64), 0), 10),
        ("lung-16x128x128", NetworkConfig(DESK, (1, 16, 128, 128)),
         make_phantom("lung", (16, 128, 128), 0), 2),
        ("nodule", NetworkConfig(DESK, (1, 32, 32, 32), dropout_rate=0.0),
         make_phantom("nodule", 32, 0), 10)):
    net = build_network(name.split("-")[0], config, seed=0)
    params, adam = list(net.params()), AdamState(lr=1e-4)
    replays[name] = [repr(train_step(
        net, params, sample, adam, np.random.default_rng([0, 0xD409, 0, s])))
        for s in range(steps)]
with open("replays.json", "w") as fh:
    json.dump(replays, fh, indent=1, sort_keys=True)

net = build_network("lung", NetworkConfig(DESK, (1, 23, 300, 300)), 0)
image = make_phantom("lung", (23, 300, 300), 0).image.data
with ag.no_grad():
    net.forward(Var(image), "eval").data.tofile("lung-prob.f32")
"""


def _git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """Extract `git archive REV` into a fresh `dest`; returns the commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if os.path.exists(dest):
        if not os.path.isfile(os.path.join(dest, MARKER)):
            sys.exit(f"error: {dest} exists and was not made by tools/ab.py")
        shutil.rmtree(dest)
    tar = subprocess.run(["git", "archive", commit], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)
    with open(os.path.join(dest, MARKER), "w") as fh:
        fh.write(commit + "\n")
    return commit


def export_both(args) -> list:
    os.makedirs(args.root, exist_ok=True)
    revs = (args.parent_rev, args.change_rev)
    trees = [os.path.join(args.root, name) for name in TREES]
    for name, rev, tree in zip(TREES, revs, trees):
        print(f"{name}: {rev} = {export(rev, tree)[:12]} in {tree}")
    return trees


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

CLI = [sys.executable, "-m", "lungseg3d"]
IDENTITY_STEPS = [
    ("phantom-gen", CLI + ["phantom-gen", "--kind", "nodule", "--count", "8",
                           "--dims", "32", "--out", "samples", "--seed", "0"]),
    ("split", CLI + ["split", "--sample-dir", "samples", "--out",
                     "split.json", "--seed", "0"]),
    ("train", CLI + ["train", "--net", "nodule", "--manifest", "split.json",
                     "--sample-dir", "samples", "--out", "run", "--epochs",
                     "2", "--stage-channels", "8,16,32,64",
                     "--input-geometry", "1,32,32,32"]),
    ("eval", CLI + ["eval", "--checkpoint", "run/best", "--manifest",
                    "split.json", "--split", "test", "--sample-dir",
                    "samples", "--out", "report.json"]),
    ("predict", CLI + ["predict", "--checkpoint", "run/best", "--id",
                       "nodule-0007", "--sample-dir", "samples", "--out",
                       "pred.mhd"]),
    *[(f"heatmap{suffix}", CLI + ["heatmap", "--checkpoint", "run/best",
                                  "--id", "nodule-0007", "--sample-dir",
                                  "samples", "--slice", "16", "--out",
                                  f"mid{suffix}.pgm", *flag])
      for suffix, flag in (("", []), ("-color", ["--color"]))],
    *[(f"gradcheck-seed{s}", CLI + ["gradcheck", "--target", "all",
                                    "--seed", str(s)]) for s in (0, 1, 2)],
    ("replays+lung-prob", [sys.executable, "-c", _SNIPPET]),
]


def run_identity_set(tree: str) -> tuple:
    """Run IDENTITY_STEPS in `tree`/ab-out; returns (failed steps, seconds).
    A gradcheck step's stdout becomes its artifact."""
    out = os.path.join(tree, "ab-out")
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS=THREADS)
    failed, t0 = [], time.monotonic()
    for name, cmd in IDENTITY_STEPS:
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True)
        if name.startswith("gradcheck"):
            with open(os.path.join(out, f"{name}.json"), "wb") as fh:
                fh.write(proc.stdout)
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace')[-200:]!r})")
    return failed, time.monotonic() - t0


def digests(root: str) -> dict:
    """relative path -> sha256 hex of every file under `root`."""
    found = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return found


def cmd_identity(args) -> int:
    trees = export_both(args)
    status = 0
    for name, tree in zip(TREES, trees):
        failed, took = run_identity_set(tree)
        print(f"{name}: identity set ran in {took:.1f} s")
        for step in failed:
            print(f"{name}: FAILED {step}")
            status = 1
    parent, change = (digests(os.path.join(t, "ab-out")) for t in trees)
    differ = 0
    for path in sorted(set(parent) | set(change)):
        a, b = parent.get(path, "absent"), change.get(path, "absent")
        same = a == b
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {a[:8]:8}  {b[:8]:8}  {path}")
    print(f"{len(set(parent) | set(change))} artifacts, {differ} differ")
    return 1 if differ or status else 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_once(tree: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"metrics": {}}
    result["exit"] = proc.returncode
    result["fails"] = [line for line in lines
                       if line.startswith(("check FAIL", "error "))]
    return result


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def cmd_bench(args) -> int:
    trees = export_both(args)
    with open(os.path.join(trees[0], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = {name: [] for name in TREES}
    status, t0 = 0, time.monotonic()
    for i in range(args.pairs):
        seed = args.seed + i
        order = [0, 1] if i % 2 == 0 else [1, 0]
        for k in order:
            result = bench_once(trees[k], args.workload, seed, args.trace)
            runs[TREES[k]].append(result)
            coverage = result["metrics"].get("trace.coverage")
            print(f"pair {i + 1} seed {seed} {TREES[k]}: exit "
                  f"{result['exit']}, failed {result.get('failed')}"
                  + ("" if not args.trace else ", trace.coverage "
                     + (f"{coverage['value']:.4f}" if coverage else "missing"))
                  + "".join(f"\n  {line}" for line in result["fails"]))
            status |= result["exit"] != 0
    print(f"{args.pairs} pairs of {args.workload} (trace {args.trace}) in "
          f"{time.monotonic() - t0:.0f} s")
    if args.trace:  # a traced run reports no end-to-end metric
        return status
    for m in metrics:
        name, bound = m["name"], m["bound"]
        vals = {t: [r["metrics"].get(name, {}).get("value") for r in runs[t]]
                for t in TREES}
        if any(v is None for t in TREES for v in vals[t]):
            print(f"{name}: missing from a run")
            continue
        p, c = vals["parent"], vals["change"]
        lower = m["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        med_p, med_c = statistics.median(p), statistics.median(c)
        spread = (max(p) - min(p)) / med_p if med_p else float("inf")
        verdict = ("unresolved: parent spread "
                   f"{spread:.0%} > bound {bound:.0%}" if spread > bound
                   else f"parent spread {spread:.0%} <= bound {bound:.0%}")
        print(f"{name} ({m['unit']}, {m['better']} is better): median "
              f"{_fmt(med_p)} -> {_fmt(med_c)}, parent {_fmt(min(p))}-"
              f"{_fmt(max(p))}, change {_fmt(min(c))}-{_fmt(max(c))}; "
              f"change better in {wins}/{len(p)} pairs; {verdict}")
        print(f"  parent {' '.join(map(_fmt, p))}")
        print(f"  change {' '.join(map(_fmt, c))}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("identity", "bench"):
        p = sub.add_parser(name)
        p.add_argument("parent_rev")
        p.add_argument("change_rev", nargs="?", default="HEAD")
        p.add_argument("--root", default=os.path.join(tempfile.gettempdir(),
                                                      "lungseg3d-ab"))
    bench = sub.choices["bench"]
    bench.add_argument("--workload", required=True)
    bench.add_argument("--pairs", type=int, required=True)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return cmd_identity(args) if args.command == "identity" else cmd_bench(
        args)


if __name__ == "__main__":
    sys.exit(main())
