"""Regenerate the stored references in perfbench/refs/.

    python3 perfbench/make_refs.py

Runs one operation of each workload for every catalogue entry k and records
what the correctness checks compare against. Run it only on a commit whose
outputs are known to be right; the benchmark then checks later commits
against these values within the tolerances stated in workloads.py.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (imports the package from ./src)

run.import_package()
import workloads  # noqa: E402


def nodule_train(work, k):
    wl = workloads.NoduleTrain(work, k)
    wl.make_inputs()
    wl.one_op()
    out, ok = wl.rounds[0]
    if not ok or wl.failed:
        raise RuntimeError(wl.errors)
    with open(os.path.join(out, "log.csv"), encoding="ascii") as fh:
        row = fh.read().strip().splitlines()[-1].split(",")
    return {"train_loss": float(row[1])}


def lung_eval(work, k):
    wl = workloads.LungEval(work, k)
    wl.make_inputs()
    wl.one_op()
    if wl.failed:
        raise RuntimeError(wl.errors)
    mask = wl.masks[0][0, 0] > 0.5
    np.savez_compressed(os.path.join(workloads.REF_DIR, f"lung-eval-k{k}.npz"),
                        mask_bits=np.packbits(mask.reshape(-1)),
                        shape=np.array(mask.shape))
    row = wl.rows[0]
    return {"metrics": {key: row[key] for key in
                        ("dice", "iou", "precision", "recall")},
            "mask_voxels": int(mask.sum())}


def ct_preprocess(work, k):
    wl = workloads.CtPreprocess(work, k)
    wl.make_inputs()
    wl.one_op()
    if wl.failed:
        raise RuntimeError(wl.errors)
    lung, nod = wl.last
    return {"lung": workloads.sample_fingerprint(lung),
            "nodule": workloads.sample_fingerprint(nod)}


def gradcheck(work, k):
    wl = workloads.Gradcheck(work, k)
    wl.make_inputs()
    wl.measure(0)
    if wl.failed:
        raise RuntimeError(f"gradcheck failed at k={k}: {wl.errors}")
    return {"reports": sorted(workloads.report_key(r)
                              for rs in wl.reports.values() for r in rs)}


MAKERS = {"nodule-train": nodule_train, "lung-eval": lung_eval,
          "ct-preprocess": ct_preprocess, "gradcheck": gradcheck}


def main():
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    path = os.path.join(workloads.REF_DIR, "refs.json")
    refs = {}
    work = os.path.join(run.WORK_ROOT, f"refs-{os.getpid()}")
    try:
        for name in sorted(MAKERS):
            entries = ([workloads.GRADCHECK_SEED] if name == "gradcheck"
                       else range(workloads.K))
            refs[name] = {}
            for k in entries:
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                refs[name][str(k)] = MAKERS[name](work, k)
                print(f"{name} k={k}: done", flush=True)
            with open(path, "w", encoding="ascii") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
