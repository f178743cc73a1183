"""The four benchmark workloads.

Each workload builds its inputs from the catalogue entry `k = seed % K`,
drives lungseg3d only through public functions looked up on the package
modules at call time (so the tracer's rebinding is honoured), measures whole
operations until `seconds` have passed, and checks its outputs against the
references stored in `refs/`.

An operation is one train step (nodule-train), one eval volume (lung-eval),
one preprocess pair (ct-preprocess) or one gradcheck target (gradcheck).
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from contextlib import nullcontext
from time import perf_counter

import numpy as np

K = 4                                    # catalogue size; k = seed % K
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
SETUP_REPEATS = 4

# Stated tolerances; a faster kernel may reorder f32 sums.
LOSS_RTOL = 1e-3
MASK_DICE_MIN = 0.99
METRIC_ATOL = 1e-3
FINGERPRINT_RTOL = 1e-5
FINGERPRINT_ATOL = 1e-6


def mod(name):
    return importlib.import_module(f"lungseg3d.{name}")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_refs():
    with open(os.path.join(REF_DIR, "refs.json"), encoding="ascii") as fh:
        return json.load(fh)


def layer_census(net):
    """Count Conv3d, TConv3d and BatchNorm3d instances by walking the net's
    attributes, independently of any call path."""
    blocks = mod("blocks")
    counts = {"Conv3d": 0, "TConv3d": 0, "BatchNorm3d": 0,
              "ResidualBlock3d": 0, "DoubleConvBlock3d": 0,
              "AttentionGate3d": 0, "WindowAttention3d": 0}
    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
            return
        cls = type(obj).__name__
        if cls in counts and type(obj) is getattr(blocks, cls):
            counts[cls] += 1
        if hasattr(obj, "__dict__") and type(obj).__module__.startswith(
                "lungseg3d."):
            for v in vars(obj).values():
                walk(v)

    walk(net)
    return counts


class Check:
    """Collects named correctness checks."""

    def __init__(self):
        self.items = []

    def __call__(self, name: str, ok: bool, detail: str = ""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.items)


def p50(values):
    return float(np.median(values))


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return {"value": xs[-1], "percentile": 100.0, "n": n,
                "note": "fewer than 11 samples: reporting the maximum"}
    return {"value": xs[n - 11], "percentile": round(100.0 * (n - 10) / n, 1),
            "n": n}


class Workload:
    """Shared runner: setup repeats, the timed loop, and the result record.

    Subclasses implement `make_inputs` (one set-up), `one_op` (advances
    `attempted`, `failed` and `op_times`), `verify`, `expected` (call counts
    inside the measured loop that the traced run must reproduce), `named`
    and `ops_per_s`; `warm_up` runs after each set-up, before the loop.
    """

    name = ""
    min_ops = 1

    def __init__(self, work_dir, seed, tracer=None):
        self.work = work_dir
        self.k = seed % K
        self.tracer = tracer
        self.check = Check()
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def region(self, name):
        return self.tracer.region(name) if self.tracer else nullcontext()

    def setup(self):
        """Seconds of each of SETUP_REPEATS set-ups (inputs plus warm-up).
        The first pays first-call costs and a single one is noisy, so
        setup_s takes their median."""
        times = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            self.make_inputs()
            self.warm_up()
            times.append(perf_counter() - t)
        return times

    def warm_up(self):
        pass

    def op_s(self):
        """The workload's latency figure: median seconds per operation."""
        return p50(self.op_times)

    def measure(self, seconds):
        t_start = perf_counter()
        while True:
            elapsed = perf_counter() - t_start
            if self.attempted >= self.min_ops and elapsed >= seconds:
                break
            self.one_op()
        self.window = (t_start, perf_counter())
        return self.window[1] - self.window[0]

    def set_op(self, i):
        if self.tracer:
            self.tracer.op_id = i

    def fail(self, n_ops, exc):
        self.failed += n_ops
        self.errors.append(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# nodule-train
# ---------------------------------------------------------------------------

class NoduleTrain(Workload):
    """train() on ten 32^3 nodule phantoms, split 60-20-20; one epoch per
    round, every round from scratch with the same seed."""

    name = "nodule-train"
    min_ops = 12  # two rounds, for the in-process repeat check
    N_PHANTOMS = 10

    def make_inputs(self):
        data = mod("data")
        self.samples = os.path.join(self.work, "samples")
        ids = []
        for i in range(self.N_PHANTOMS):
            s = data.make_phantom("nodule", 32, 10 * self.k + i)
            data.save_sample(s, self.samples)
            ids.append(s.id)
        self.manifest = data.split_dataset(ids, self.k)
        self.config = mod("networks").NetworkConfig(
            stage_channels=[8, 16, 32, 64], input_geometry=(1, 32, 32, 32),
            attn_window=(2, 2, 2), dropout_rate=0.2)
        self.rounds = []         # (output dir, completed)
        self.round_times = []
        self.first_state = None  # only round 0's state is kept in memory

    def warm_up(self):
        """One step, one validation volume and two checkpoints through
        train(), so first-call costs stay out of the measured rounds."""
        data = mod("data")
        m = self.manifest
        small = data.SplitManifest(train=m.train[:1], val=m.val[:1], test=[],
                                   seed=m.seed)
        mod("train").train("nodule", small, self.samples,
                           os.path.join(self.work, "warmup"), self.config,
                           epochs=1, lr=1e-4, seed=self.k)

    def one_op(self):
        train_mod = mod("train")
        r = len(self.rounds)
        out = os.path.join(self.work, f"run{r}")
        inner = train_mod.train_step
        step_times = []
        first = self.attempted

        def timed_step(*args, **kwargs):
            self.set_op(first + len(step_times))
            t = perf_counter()
            loss = inner(*args, **kwargs)
            step_times.append(perf_counter() - t)
            return loss

        train_mod.train_step = timed_step
        t = perf_counter()
        try:
            state = train_mod.train("nodule", self.manifest, self.samples,
                                    out, self.config, epochs=1, lr=1e-4,
                                    seed=self.k)
        except Exception as exc:  # counted, reported, and the run fails
            self.fail(len(self.manifest.train), exc)
            state = None
        finally:
            train_mod.train_step = inner
        self.round_times.append(perf_counter() - t)
        self.attempted += len(self.manifest.train)
        self.op_times.extend(step_times)
        self.rounds.append((out, state is not None))
        if r == 0:
            self.first_state = state

    def verify(self, refs):
        train_mod = mod("train")
        check = self.check
        if not check("rounds completed", all(ok for _, ok in self.rounds)):
            return
        outs = [out for out, _ in self.rounds]
        logs = []
        for out in outs:
            with open(os.path.join(out, "log.csv"), encoding="ascii") as fh:
                logs.append(fh.read())
        # log.csv's val_dice column is 0.0 at every catalogue entry (one
        # epoch from scratch), so it is not compared: that check would pass
        # for any forward pass.
        loss = float(logs[0].strip().splitlines()[-1].split(",")[1])
        check("loss finite", math.isfinite(loss), f"train_loss={loss!r}")
        ref = refs["nodule-train"][str(self.k)]
        check("loss vs reference",
              abs(loss - ref["train_loss"]) <= LOSS_RTOL * abs(ref["train_loss"]),
              f"{loss!r} vs {ref['train_loss']!r} (rtol {LOSS_RTOL})")
        self.digest = dir_digest(os.path.join(outs[0], "last"))
        same = all(log == logs[0] and
                   dir_digest(os.path.join(o, "last")) == self.digest
                   for o, log in zip(outs, logs))
        check("repeat rounds bit-exact", same, f"last/ sha256 {self.digest[:16]}")

        state = self.first_state
        loaded = train_mod.load_checkpoint(os.path.join(outs[0], "last"))
        self.loaded_tensors = self.ckpt_tensors(outs[0])
        mem = {v.name: v.data for v in state.net.params()}
        exact = all(v.data.dtype == mem[v.name].dtype and
                    v.data.tobytes() == mem[v.name].tobytes()
                    for v in loaded.net.params())
        for bn_l, bn_m in zip(loaded.net.batchnorms(), state.net.batchnorms()):
            exact &= (bn_l.state.running_mean.tobytes()
                      == bn_m.state.running_mean.tobytes())
            exact &= (bn_l.state.running_var.tobytes()
                      == bn_m.state.running_var.tobytes())
        for name, m in state.adam.m.items():
            exact &= loaded.adam.m[name].tobytes() == m.tobytes()
            exact &= loaded.adam.v[name].tobytes() == state.adam.v[name].tobytes()
        check("load_checkpoint(last/) bit-exact", exact)
        self.census = layer_census(state.net)

    @staticmethod
    def ckpt_tensors(out):
        with open(os.path.join(out, "last", "manifest.json"),
                  encoding="ascii") as fh:
            return len(json.load(fh)["tensors"])

    def expected(self):
        rounds = len(self.rounds)
        steps = rounds * len(self.manifest.train)
        evals = rounds * len(self.manifest.val)
        fwd = steps + evals
        c = self.census
        n_t = self.loaded_tensors
        return {
            "train.train": rounds, "train.train_step": steps,
            "train.adam_step": steps, "losses.combined_term": steps,
            "autograd.run_backward": steps,
            "train.evaluate": rounds, "networks.predict_volume": evals,
            "losses.seg_metrics": evals, "data.load_sample": steps + evals,
            "networks.build_network": rounds,
            "train.save_checkpoint": 2 * rounds,
            "train.load_checkpoint": 0,
            "tensor.save_array": 2 * rounds * n_t,
            "tensor.load_array": 2 * (steps + evals),
            "ops.conv3d": c["Conv3d"] * fwd,
            "ops.conv3d_backward": c["Conv3d"] * steps,
            "ops.tconv3d": c["TConv3d"] * fwd,
            "ops.tconv3d_backward": c["TConv3d"] * steps,
            "ops.batchnorm3d": c["BatchNorm3d"] * fwd,
            "ops.batchnorm3d_backward": c["BatchNorm3d"] * steps,
            "blocks.DoubleConvBlock3d.forward": c["DoubleConvBlock3d"] * fwd,
            "blocks.WindowAttention3d.forward": c["WindowAttention3d"] * fwd,
            "layer.dec1.conv1": fwd, "layer.dec1.conv1.bwd": steps,
            "layer.enc1.conv2": fwd, "layer.head": fwd,
        }

    def named(self, wall):
        return {
            "train_samples_per_s": (self.ops_per_s(wall), "1/s"),
            "train_step_s.p50": (p50(self.op_times), "s"),
            "train_step_s.tail": (tail(self.op_times), "s"),
            "train_rounds": (len(self.rounds), "count"),
        }

    def ops_per_s(self, wall):
        # training samples over the wall time of whole epochs
        return (len(self.manifest.train) * len(self.round_times)
                / sum(self.round_times))


# ---------------------------------------------------------------------------
# lung-eval
# ---------------------------------------------------------------------------

LUNG_GEOMETRY = (23, 300, 300)
# Net seed per catalogue entry. Entry 1 uses seed 5: at seed 1 the untrained
# net marks only 296 voxels, too few for the Dice check to mean anything.
LUNG_NET_SEEDS = (0, 5, 2, 3)
WARMUP_GEOMETRY = (23, 64, 64)   # same code path (odd depth, pad, crop), ~1 s


class LungEval(Workload):
    """evaluate() of a fresh lung net (8,16,32,64; f32) on one 23x300x300
    lung phantom, forward only under no_grad."""

    name = "lung-eval"
    min_ops = 1

    def __init__(self, work_dir, seed, tracer=None):
        super().__init__(work_dir, seed, tracer)
        self.warm_digests = []   # one per set-up, each from a fresh net

    def make_inputs(self):
        data, networks = mod("data"), mod("networks")
        self.samples = os.path.join(self.work, "samples")
        sample = data.make_phantom("lung", LUNG_GEOMETRY, self.k)
        data.save_sample(sample, self.samples)
        self.sample_id = sample.id
        self.input_shape = sample.image.shape
        self.small = data.make_phantom("lung", WARMUP_GEOMETRY, 100 + self.k)
        config = networks.NetworkConfig(stage_channels=[8, 16, 32, 64],
                                        input_geometry=(1,) + LUNG_GEOMETRY)
        self.net = networks.build_network("lung", config,
                                          LUNG_NET_SEEDS[self.k])
        self.masks = []
        self.rows = []

    def warm_up(self):
        mask = mod("networks").predict_volume(self.net, self.small.image)
        self.warm_digests.append(digest(mask.data))

    def one_op(self):
        train_mod = mod("train")
        inner = train_mod.predict_volume
        masks = self.masks

        def capture(*args, **kwargs):
            m = inner(*args, **kwargs)
            masks.append(m.data)
            return m

        self.set_op(self.attempted)
        train_mod.predict_volume = capture
        t = perf_counter()
        try:
            _, rows = train_mod.evaluate(self.net, [self.sample_id],
                                         self.samples)
            self.rows.append(rows[0])
        except Exception as exc:
            self.fail(1, exc)
        finally:
            train_mod.predict_volume = inner
        self.op_times.append(perf_counter() - t)
        self.attempted += 1

    def verify(self, refs):
        check = self.check
        if not check("volumes evaluated", len(self.rows) == self.attempted):
            return
        ref = refs["lung-eval"][str(self.k)]
        with np.load(os.path.join(REF_DIR, f"lung-eval-k{self.k}.npz")) as z:
            ref_mask = np.unpackbits(z["mask_bits"])[: int(np.prod(
                z["shape"]))].reshape(tuple(z["shape"]))
        for i, mask in enumerate(self.masks):
            check(f"mask {i} binary, input shape",
                  mask.shape == self.input_shape
                  and bool(np.isin(mask, (0.0, 1.0)).all()), str(mask.shape))
            m = mask[0, 0] > 0.5
            r = ref_mask.astype(bool)
            denom = m.sum() + r.sum()
            dice = 1.0 if denom == 0 else 2.0 * (m & r).sum() / denom
            check(f"mask {i} dice vs reference", dice >= MASK_DICE_MIN,
                  f"dice {dice:.6f} (min {MASK_DICE_MIN})")
        for i, row in enumerate(self.rows):
            worst = max(abs(row[key] - ref["metrics"][key])
                        for key in ("dice", "iou", "precision", "recall"))
            check(f"eval metrics {i} vs reference", worst <= METRIC_ATOL,
                  f"max abs diff {worst:.2e} (atol {METRIC_ATOL})")
        self.digest = self.warm_digests[0]
        check("repeat forward bit-exact",
              all(d == self.digest for d in self.warm_digests),
              f"{len(self.warm_digests)} warm-ups at {WARMUP_GEOMETRY}, "
              f"sha256 {self.digest[:16]}")
        self.census = layer_census(self.net)

    def expected(self):
        vols = self.attempted
        c = self.census
        return {
            "train.evaluate": vols, "data.load_sample": vols,
            "losses.seg_metrics": vols, "networks.predict_volume": vols,
            "networks.GatedResidualUNet3d.forward": vols,
            "ops.conv3d": c["Conv3d"] * vols,
            "ops.tconv3d": c["TConv3d"] * vols,
            "ops.batchnorm3d": c["BatchNorm3d"] * vols,
            "blocks.ResidualBlock3d.forward": c["ResidualBlock3d"] * vols,
            "blocks.AttentionGate3d.forward": c["AttentionGate3d"] * vols,
            "ops.conv3d_backward": 0, "autograd.run_backward": 0,
            "layer.dec1.conv1": vols, "layer.mix1": vols, "layer.head": vols,
            "layer.dec1.conv2": vols,
        }

    def named(self, wall):
        mvox = float(np.prod(LUNG_GEOMETRY)) / 1e6
        return {
            "eval_volume_s.p50": (p50(self.op_times), "s"),
            "eval_mvox_per_s": (mvox / p50(self.op_times), "Mvox/s"),
        }

    def ops_per_s(self, wall):
        return len(self.op_times) / sum(self.op_times)


# ---------------------------------------------------------------------------
# ct-preprocess
# ---------------------------------------------------------------------------

CT_SHAPE = (120, 512, 512)


def synthetic_ct(k):
    """int16 HU volume with body, two lungs and a nodule, plus a uint8 mask
    of lungs and nodule. Deterministic in k."""
    rng = np.random.default_rng([k, 0xC7])
    d, h, w = CT_SHAPE
    z = np.arange(d, dtype=np.float32)[:, None, None]
    y = np.arange(h, dtype=np.float32)[None, :, None]
    x = np.arange(w, dtype=np.float32)[None, None, :]
    vol = np.full(CT_SHAPE, -1000, dtype=np.int16)
    body = ((y - h / 2) / (0.43 * h)) ** 2 + ((x - w / 2) / (0.40 * w)) ** 2 <= 1
    vol[np.broadcast_to(body, CT_SHAPE)] = 40
    mask = np.zeros(CT_SHAPE, dtype=np.uint8)
    for side in (-1, 1):
        j = rng.uniform(-0.03, 0.03, size=3)
        cz, cy, cx = (0.5 + j[0]) * d, (0.48 + j[1]) * h, (0.5 + side * 0.18 + j[2]) * w
        inside = (((z - cz) / (0.42 * d)) ** 2 + ((y - cy) / (0.26 * h)) ** 2
                  + ((x - cx) / (0.13 * w)) ** 2) <= 1
        mask[inside] = 1
    vol[mask.astype(bool)] = -850
    r = int(rng.integers(4, 11))
    nz = int(rng.integers(30, d - 30))
    ny = int(rng.integers(int(0.4 * h), int(0.56 * h)))
    nx = int(0.5 * w + rng.choice([-1, 1]) * 0.18 * w)
    sphere = ((z - nz) ** 2 + (y - ny) ** 2 + (x - nx) ** 2) <= r * r
    vol[sphere] = 30
    mask[sphere] = 1
    vol += rng.integers(-30, 31, size=CT_SHAPE, dtype=np.int16)
    return vol[None, None], mask[None, None]


def sample_fingerprint(sample):
    """Per-slice mean and std of the image (f64) and exact mask counts."""
    img = sample.image.data[0, 0].astype(np.float64)
    msk = sample.mask.data[0, 0]
    return {
        "shape": list(sample.image.shape),
        "slice_mean": img.mean(axis=(1, 2)).tolist(),
        "slice_std": img.std(axis=(1, 2)).tolist(),
        "mask_count": [int(v) for v in msk.sum(axis=(1, 2))],
    }


def fingerprints_match(a, b):
    if a["shape"] != b["shape"] or a["mask_count"] != b["mask_count"]:
        return False
    return all(np.allclose(a[key], b[key], rtol=FINGERPRINT_RTOL,
                           atol=FINGERPRINT_ATOL)
               for key in ("slice_mean", "slice_std"))


class CtPreprocess(Workload):
    """preprocess_lung and preprocess_nodule on a 120x512x512 int16
    MetaImage CT with a uint8 mask. No convolution."""

    name = "ct-preprocess"
    min_ops = 2

    def make_inputs(self):
        data = mod("data")
        ct_dir = os.path.join(self.work, "ct")
        os.makedirs(ct_dir, exist_ok=True)
        vol, mask = synthetic_ct(self.k)
        self.image_mhd = os.path.join(ct_dir, "ct.mhd")
        self.mask_mhd = os.path.join(ct_dir, "ct_mask.mhd")
        data.write_mhd(self.image_mhd, vol, element_type="MET_SHORT")
        data.write_mhd(self.mask_mhd, mask, element_type="MET_UCHAR")
        self.raw_mb = (vol.nbytes + mask.nbytes) / 1e6
        self.out = os.path.join(self.work, "samples")
        self.digests = []

    def warm_up(self):
        data = mod("data")
        data.preprocess_lung(self.image_mhd, self.mask_mhd, self.out, "warm")
        data.preprocess_nodule(self.image_mhd, self.mask_mhd, self.out, "warm")

    def one_op(self):
        data = mod("data")
        self.set_op(self.attempted)
        t = perf_counter()
        try:
            lung = data.preprocess_lung(self.image_mhd, self.mask_mhd,
                                        self.out, "lung-ct")
            nod = data.preprocess_nodule(self.image_mhd, self.mask_mhd,
                                         self.out, "nodule-ct")
        except Exception as exc:
            self.fail(1, exc)
            lung = None
        self.op_times.append(perf_counter() - t)
        self.attempted += 1
        if lung is not None:
            self.last = (lung, nod)
            self.digests.append(digest(lung.image.data, lung.mask.data,
                                       nod.image.data, nod.mask.data))

    def verify(self, refs):
        check = self.check
        if not check("pairs completed", len(self.digests) == self.attempted):
            return
        ref = refs["ct-preprocess"][str(self.k)]
        lung, nod = self.last
        check("lung sample vs reference",
              fingerprints_match(sample_fingerprint(lung), ref["lung"]))
        check("nodule sample vs reference",
              fingerprints_match(sample_fingerprint(nod), ref["nodule"]))
        self.digest = self.digests[0]
        check("repeat pairs bit-exact",
              all(d == self.digest for d in self.digests),
              f"sha256 {self.digest[:16]}")
        data = mod("data")
        back = [data.load_sample(self.out, s.id) for s in (lung, nod)]
        check("written samples round-trip",
              digest(back[0].image.data, back[0].mask.data,
                     back[1].image.data, back[1].mask.data) == self.digest)

    def expected(self):
        p = self.attempted
        return {
            "data.preprocess_lung": p, "data.preprocess_nodule": p,
            "data.load_mhd": 4 * p, "data.resize_inplane": 2 * p,
            "data.crop_about_median": 2 * p, "data.crop_nodule_block": 2 * p,
            "data.window_intensity": 2 * p, "data.save_sample": 2 * p,
            "tensor.save_array": 4 * p, "data.load_sample": 0,
            "tensor.load_array": 0, "ops.conv3d": 0,
            "networks.build_network": 0,
        }

    def named(self, wall):
        pair_mb = 2 * self.raw_mb   # each call reads image and mask once
        return {
            "preprocess_pair_s.p50": (p50(self.op_times), "s"),
            "preprocess_mb_per_s": (pair_mb * len(self.op_times)
                                    / sum(self.op_times), "MB/s"),
        }

    def ops_per_s(self, wall):
        return len(self.op_times) / sum(self.op_times)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

# The sampled lung-network check alone takes ~33 s, 42% of the full sweep;
# with it the benchmark's 92 runs would not fit their time budget.
EXCLUDED_TARGETS = ("lung_net",)
# The cheapest conv-family target (about 0.7 s); the warm-ups' reports are
# also the in-process repeat of the sweep's. Without a warm-up, set-up
# is the import alone: a few tenths of a second spent mostly mapping files,
# which drifted twofold over half an hour, the sweep by under a fifth.
WARMUP_TARGET = "tconv3d"


def target_groups():
    gc = mod("gradcheck")
    groups = {}
    for t in gc.all_targets():
        if t in EXCLUDED_TARGETS:
            continue
        if t in gc.NETWORK_TARGETS:
            groups[t] = "nets"
        elif t in gc.BLOCK_TARGETS:
            groups[t] = "blocks"
        else:
            groups[t] = "ops"
    return groups


def report_key(r):
    return f"{r.op_name}/{r.tensor}"


# check_gradients at seeds 1 and 2 reports residual_block (and, at seed 2,
# attention_gate) failures, so the sweep uses seed 0 like the CLI's
# `lungseg3d gradcheck --target all`; the benchmark seed does not vary it.
GRADCHECK_SEED = 0


class Gradcheck(Workload):
    """check_gradients (f64) for every registered target except the sampled
    lung-network check, one sweep per run."""

    name = "gradcheck"

    def __init__(self, work_dir, seed, tracer=None):
        super().__init__(work_dir, seed, tracer)
        self.k = GRADCHECK_SEED
        self.warm_reports = []

    def make_inputs(self):
        self.groups = target_groups()
        self.reports = {}

    def warm_up(self):
        reports = mod("gradcheck").check_gradients(WARMUP_TARGET, seed=self.k)
        self.warm_reports.append(json.dumps([r.as_dict() for r in reports]))

    def measure(self, seconds):
        # Fixed work: one sweep, whatever `seconds` says.
        gc = mod("gradcheck")
        t_start = perf_counter()
        for i, (target, group) in enumerate(self.groups.items()):
            self.set_op(i)
            t = perf_counter()
            with self.region(f"gradcheck.{group}"):
                try:
                    reports = gc.check_gradients(target, seed=self.k)
                    self.reports[target] = reports
                    if not all(r.passed for r in reports):
                        self.failed += 1
                except Exception as exc:
                    self.fail(1, exc)
            self.op_times.append(perf_counter() - t)
            self.attempted += 1
        self.window = (t_start, perf_counter())
        return self.window[1] - self.window[0]

    def verify(self, refs):
        check = self.check
        ref = refs["gradcheck"][str(self.k)]
        bad = [report_key(r) for rs in self.reports.values() for r in rs
               if not r.passed]
        check("every GradReport passes", not bad and
              len(self.reports) == len(self.groups), ", ".join(bad[:5]))
        keys = sorted(report_key(r) for rs in self.reports.values()
                      for r in rs)
        check("report set vs reference", keys == ref["reports"],
              f"{len(keys)} reports vs {len(ref['reports'])}")
        first = json.dumps([r.as_dict() for r in self.reports[WARMUP_TARGET]])
        self.digest = hashlib.sha256(first.encode()).hexdigest()
        check("repeat target bit-exact",
              all(w == first for w in self.warm_reports),
              f"{WARMUP_TARGET} in the sweep and {len(self.warm_reports)} "
              f"warm-ups, sha256 {self.digest[:16]}")

    def expected(self):
        return {"gradcheck.check_gradients": len(self.groups)}

    def op_s(self):
        # The targets differ in cost by four orders of magnitude, so their
        # median says little; the latency a user sees is the whole sweep.
        return self.window[1] - self.window[0]

    def named(self, wall):
        return {
            "gradcheck_s": (wall, "s"),
            "gradcheck_target_s.p50": (p50(self.op_times), "s"),
            "gradcheck_targets": (len(self.groups), "count"),
        }

    def ops_per_s(self, wall):
        return len(self.op_times) / wall


WORKLOADS = {w.name: w for w in (NoduleTrain, LungEval, CtPreprocess,
                                 Gradcheck)}
