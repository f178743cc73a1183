"""Adam optimizer, the sequential training loop, checkpointing, evaluation.

Training iterates samples one at a time, reshuffling order each epoch from
the run seed. After every epoch the validation split is scored at threshold
0.5 and the best-by-validation-Dice checkpoint is retained alongside the
rolling last checkpoint. Everything downstream of (seed, manifest, config)
is deterministic, so logs and checkpoints are byte-identical across reruns.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Var
from .data import SplitManifest, load_sample
from .losses import SegMetrics, combined_term, seg_metrics
from .networks import (NetworkConfig, build_network, check_threshold,
                       predict_volume)
from .tensor import (INTEGER, INTEGERS, NUMBER, OBJECT, STRING, check_keys,
                     load_array, read_json, save_array)

LOG_HEADER = "epoch,train_loss,val_dice,val_iou"
_ADAM_CHUNK = 16384  # elements per cache-resident chunk of an Adam update


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update over parallel lists of parameter Vars and gradients."""
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params vs {len(grads)} grads")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for var, g in zip(params, grads):
        if g is None:
            g = np.zeros_like(var.data)
        g = np.asarray(g)
        if g.shape != var.data.shape:
            raise ValueError(f"grad shape {g.shape} != param shape "
                             f"{var.data.shape} for {var.name!r}")
        m = state.m.get(var.name)
        if m is None:
            m = state.m[var.name] = np.zeros_like(var.data)
            state.v[var.name] = np.zeros_like(var.data)
        v = state.v[var.name]
        if not var.data.flags.c_contiguous:
            raise ValueError(f"parameter {var.name!r} is not contiguous")
        # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in place, in two work
        # buffers, over chunks of the flattened arrays that stay in cache
        # across the 13 passes; the operations and their order are those of
        # the expressions, so for a gradient of the parameter's dtype the
        # bytes are too
        flat = [a.reshape(-1) for a in (var.data, g, m, v)]
        t, u = np.empty((2, min(m.size, _ADAM_CHUNK)), dtype=m.dtype)
        for a in range(0, m.size, _ADAM_CHUNK):
            pc, gc, mc, vc = (f[a:a + _ADAM_CHUNK] for f in flat)
            tc, uc = t[:pc.size], u[:pc.size]
            mc *= state.beta1
            mc += np.multiply(1.0 - state.beta1, gc, out=tc)
            vc *= state.beta2
            np.multiply(1.0 - state.beta2, gc, out=tc)
            vc += np.multiply(tc, gc, out=tc)
            np.divide(mc, bc1, out=uc)
            uc *= state.lr
            np.divide(vc, bc2, out=tc)
            np.sqrt(tc, out=tc)
            tc += state.eps
            pc -= np.divide(uc, tc, out=uc)


@dataclass
class TrainState:
    net: object
    kind: str
    config: NetworkConfig
    adam: AdamState
    epoch: int
    seed: int
    best_val_dice: float


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _named_tensors(net):
    for var in net.params():
        yield var.name, var.data, "parameter"
    for bn in net.batchnorms():
        yield f"{bn.name}.running_mean", bn.state.running_mean, "running_stat"
        yield f"{bn.name}.running_var", bn.state.running_var, "running_stat"


def save_checkpoint(ckpt_dir, state: TrainState) -> None:
    """Manifest JSON plus one raw/json tensor pair per named buffer."""
    os.makedirs(ckpt_dir, exist_ok=True)
    tensors = {}
    for name, arr, role in _named_tensors(state.net):
        save_array(arr, os.path.join(ckpt_dir, name))
        tensors[name] = {"file": name, "role": role}
    for key, role in (("m", "adam_moment1"), ("v", "adam_moment2")):
        for name, buf in getattr(state.adam, key).items():
            fname = f"adam.{key}.{name}"
            save_array(buf, os.path.join(ckpt_dir, fname))
            tensors[fname] = {"file": fname, "role": role}
    manifest = {
        "kind": state.kind,
        "config": {
            "stage_channels": state.config.stage_channels,
            "input_geometry": list(state.config.input_geometry),
            "attn_window": list(state.config.attn_window),
            "dropout_rate": state.config.dropout_rate,
            "output_channels": state.config.output_channels,
        },
        "adam": {"lr": state.adam.lr, "beta1": state.adam.beta1,
                 "beta2": state.adam.beta2, "eps": state.adam.eps,
                 "t": state.adam.t},
        "epoch": state.epoch,
        "seed": state.seed,
        "best_val_dice": state.best_val_dice,
        "tensors": tensors,
    }
    with open(os.path.join(ckpt_dir, "manifest.json"), "w",
              encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(ckpt_dir) -> TrainState:
    """Rebuild the network and optimizer state from a checkpoint directory."""
    path = os.path.join(ckpt_dir, "manifest.json")
    manifest = read_json(path, "checkpoint manifest", {
        "kind": STRING, "seed": INTEGER, "epoch": INTEGER,
        "best_val_dice": NUMBER, "config": OBJECT, "adam": OBJECT,
        "tensors": OBJECT})
    where = f"checkpoint manifest {path}"
    cfg = check_keys(manifest["config"], f"{where} 'config'", {
        "stage_channels": INTEGERS, "input_geometry": INTEGERS,
        "attn_window": INTEGERS, "dropout_rate": NUMBER,
        "output_channels": INTEGER})
    a = check_keys(manifest["adam"], f"{where} 'adam'", {
        "lr": NUMBER, "beta1": NUMBER, "beta2": NUMBER, "eps": NUMBER,
        "t": INTEGER})
    tensors = {}
    for name, entry in manifest["tensors"].items():
        check_keys(entry, f"{where} tensor {name!r}",
                   {"file": STRING, "role": STRING})
        tensors[name] = (entry["file"], entry["role"])
    config = NetworkConfig(stage_channels=cfg["stage_channels"],
                           input_geometry=tuple(cfg["input_geometry"]),
                           attn_window=tuple(cfg["attn_window"]),
                           dropout_rate=cfg["dropout_rate"],
                           output_channels=cfg["output_channels"])
    adam = AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                     eps=a["eps"], t=a["t"])
    kind, seed = manifest["kind"], manifest["seed"]
    epoch, best_val_dice = manifest["epoch"], manifest["best_val_dice"]
    net = build_network(kind, config, seed)

    def load(name, like):
        """Tensor `name`, checked against the fresh net's array it replaces."""
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        arr = load_array(os.path.join(ckpt_dir, tensors[name][0]))
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise ValueError(f"checkpoint tensor {name!r} is {arr.dtype} "
                             f"{arr.shape}, expected {like.dtype} {like.shape}")
        return arr

    params = {var.name: var for var in net.params()}
    for var in params.values():
        var.data = load(var.name, var.data)
    for bn in net.batchnorms():
        st = bn.state
        st.running_mean = load(f"{bn.name}.running_mean", st.running_mean)
        st.running_var = load(f"{bn.name}.running_var", st.running_var)
    for name, (_, role) in tensors.items():
        moments = {"adam_moment1": adam.m, "adam_moment2": adam.v}.get(role)
        if moments is not None:
            pname = name[len("adam.m."):]  # "adam.v." has the same length
            if pname not in params:
                raise ValueError(f"checkpoint Adam moment {name!r} names no "
                                 f"parameter")
            moments[pname] = load(name, params[pname].data)
    return TrainState(net=net, kind=kind, config=config, adam=adam,
                      epoch=epoch, seed=seed, best_val_dice=best_val_dice)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(net, ids, sample_dir, threshold: float = 0.5):
    """Score each sample at the threshold; returns (mean SegMetrics, rows)."""
    rows = []
    for sid in ids:
        sample = load_sample(sample_dir, sid)
        pred = predict_volume(net, sample.image, threshold)
        metrics = seg_metrics(pred, sample.mask)
        row = {"id": sid}
        row.update(metrics.as_dict())
        rows.append(row)
    if not rows:
        return SegMetrics(0.0, 0.0, 0.0, 0.0), rows
    return SegMetrics(*(float(np.mean([r[k] for r in rows])) for k in
                        ("dice", "iou", "precision", "recall"))), rows


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _epoch_order(train_ids, seed: int, epoch: int):
    rng = np.random.default_rng([int(seed), 0xE70C, int(epoch)])
    return [train_ids[i] for i in rng.permutation(len(train_ids))]


def _truncate_log(log_path, last_epoch: int) -> None:
    """Keep only the log rows of epochs up to last_epoch, the ones a resumed
    checkpoint has seen; later rows would be written again."""
    rows = []
    if os.path.exists(log_path):
        with open(log_path, "r", encoding="ascii") as fh:
            rows = [line for line in fh.read().splitlines()[1:]
                    if int(line.split(",", 1)[0]) <= last_epoch]
    with open(log_path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in [LOG_HEADER] + rows))


class NonFiniteError(RuntimeError):
    """A training step produced a NaN or infinite loss or gradient."""


def train_step(net, params, sample, adam: AdamState, drop_rng) -> float:
    """Forward, combined loss, backward, one Adam update. Returns the loss.

    A non-finite loss or parameter gradient raises NonFiniteError before the
    update, so the parameters, the Adam moments and the batchnorm running
    stats stay as they were.
    """
    # the train forward replaces the running-stat arrays rather than writing
    # into them, so these references are the state before the step
    stats = [(bn.state, bn.state.running_mean, bn.state.running_var)
             for bn in net.batchnorms()]
    try:
        x = Var(sample.image.data)
        p = net.forward(x, "train", drop_rng)
        loss = combined_term(p, sample.mask.data)
        if not np.isfinite(loss.data).all():
            raise NonFiniteError(f"non-finite loss {float(loss.data)!r}")
        ag.zero_grads(params)
        ag.run_backward(loss)
        grads = [v.grad for v in params]
        for var, g in zip(params, grads):
            if g is not None and not np.isfinite(g).all():
                raise NonFiniteError(f"non-finite gradient of {var.name!r}")
    except NonFiniteError:
        for st, mean, variance in stats:
            st.running_mean, st.running_var = mean, variance
        raise
    adam_step(params, grads, adam)
    return float(loss.data)


def train(kind: str, manifest: SplitManifest, sample_dir, out_dir,
          config: NetworkConfig, epochs: int = 100, lr: float = 1e-4,
          seed: int = 0, threshold: float = 0.5,
          resume_from=None) -> TrainState:
    """Run the full loop; writes log.csv, best/ and last/ checkpoints."""
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    check_threshold(threshold)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "log.csv")

    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state.kind != kind:
            raise ValueError(f"checkpoint is for {state.kind!r}, not {kind!r}")
        start_epoch = state.epoch + 1
        _truncate_log(log_path, state.epoch)
    else:
        net = build_network(kind, config, seed)
        state = TrainState(net=net, kind=kind, config=config,
                           adam=AdamState(lr=lr), epoch=-1, seed=seed,
                           best_val_dice=-1.0)
        start_epoch = 0
        with open(log_path, "w", encoding="ascii") as fh:
            fh.write(LOG_HEADER + "\n")

    params = list(state.net.params())
    for epoch in range(start_epoch, epochs):
        order = _epoch_order(manifest.train, state.seed, epoch)
        losses = []
        for step, sid in enumerate(order):
            try:
                sample = load_sample(sample_dir, sid)
            except OSError as exc:  # exit code 2, an I/O error
                raise RuntimeError(f"failed to load sample {sid!r}: {exc}") from exc
            except ValueError as exc:  # exit code 1, a malformed sample
                raise ValueError(f"failed to load sample {sid!r}: {exc}") from exc
            drop_rng = np.random.default_rng(
                [state.seed, 0xD409, epoch, step])
            try:
                losses.append(train_step(state.net, params, sample,
                                         state.adam, drop_rng))
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch} step {step} sample "
                                     f"{sid!r}: {exc}") from None
        train_loss = float(np.mean(losses)) if losses else 0.0

        agg, _ = evaluate(state.net, manifest.val, sample_dir, threshold)
        state.epoch = epoch
        if agg.dice_score > state.best_val_dice:
            state.best_val_dice = agg.dice_score
            save_checkpoint(os.path.join(out_dir, "best"), state)
        save_checkpoint(os.path.join(out_dir, "last"), state)
        with open(log_path, "a", encoding="ascii") as fh:
            fh.write(f"{epoch},{train_loss!r},{agg.dice_score!r},"
                     f"{agg.iou!r}\n")
    return state
