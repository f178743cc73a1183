"""Adam optimizer, the sequential training loop, checkpointing, evaluation.

Training iterates samples one at a time, reshuffling order each epoch from
the run seed. After every epoch the validation split is scored at threshold
0.5 and the best-by-validation-Dice checkpoint is retained alongside the
rolling last checkpoint. Everything downstream of (seed, manifest, config)
is deterministic, so logs and checkpoints are byte-identical across reruns.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Var
from .data import SplitManifest, load_sample
from .losses import SegMetrics, combined_term, seg_metrics
from .networks import (NetworkConfig, build_network, check_threshold,
                       predict_volume)
from .tensor import (INTEGER, NUMBER, OBJECT, SIZES, STRING, check_keys,
                     load_array, read_json, save_array, write_json)

LOG_HEADER = "epoch,train_loss,val_dice,val_iou"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _usable_lr(lr) -> bool:
    """Whether Adam can train at `lr`: a finite number > 0."""
    return math.isfinite(lr) and lr > 0


@dataclass
class AdamState:
    lr: float = 1e-4
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update over parallel lists of parameter Vars and gradients."""
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params vs {len(grads)} grads")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for var, g in zip(params, grads):
        g = np.zeros_like(var.data) if g is None else np.asarray(g)
        if g.shape != var.data.shape:
            raise ValueError(f"grad shape {g.shape} != param shape "
                             f"{var.data.shape} for {var.name!r}")
        m = state.m.get(var.name)
        if m is None:
            m = state.m[var.name] = np.zeros_like(var.data)
            state.v[var.name] = np.zeros_like(var.data)
        v = state.v[var.name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        var.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class TrainState:
    net: object  # its config is the one build_network was given
    kind: str
    adam: AdamState
    epoch: int
    seed: int
    best_val_dice: float


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _named_tensors(state: TrainState):
    """(name, array) of each tensor a checkpoint holds, in save order; Adam's
    moments follow the parameters' order, whatever order they were read in."""
    for var in state.net.params():
        yield var.name, var.data
    for bn in state.net.batchnorms():
        yield f"{bn.name}.running_mean", bn.state.running_mean
        yield f"{bn.name}.running_var", bn.state.running_var
    for key in ("m", "v"):
        moments = getattr(state.adam, key)
        for var in state.net.params():
            if var.name in moments:
                yield f"adam.{key}.{var.name}", moments[var.name]


def save_checkpoint(ckpt_dir, state: TrainState) -> None:
    """Manifest JSON listing the tensor names, plus one raw/json pair each."""
    os.makedirs(ckpt_dir, exist_ok=True)
    tensors = []
    for name, arr in _named_tensors(state):
        save_array(arr, os.path.join(ckpt_dir, name))
        tensors.append(name)
    manifest = {
        "kind": state.kind,
        "config": asdict(state.net.config),
        "adam": {"lr": state.adam.lr, "t": state.adam.t},
        "epoch": state.epoch,
        "seed": state.seed,
        "best_val_dice": state.best_val_dice,
        "tensors": tensors,
    }
    write_json(os.path.join(ckpt_dir, "manifest.json"), manifest, indent=1)


def load_checkpoint(ckpt_dir) -> TrainState:
    """Rebuild the network and optimizer state from a checkpoint directory,
    reading each tensor the manifest names from `<ckpt_dir>/<name>`."""
    path = os.path.join(ckpt_dir, "manifest.json")
    manifest = read_json(path, "checkpoint manifest", {
        "kind": STRING, "seed": INTEGER, "epoch": INTEGER, "config": OBJECT,
        "adam": OBJECT, "best_val_dice": (
            lambda v: NUMBER[0](v) and -1 <= v <= 1, "a number in [-1, 1]"),
        "tensors": (lambda v: isinstance(v, (list, dict)) and all(
            isinstance(name, str) for name in v), "a list of tensor names")})
    where = f"checkpoint manifest {path}"
    config_keys = {"stage_channels": SIZES, "input_geometry": SIZES,
                   "attn_window": SIZES, "dropout_rate": NUMBER}
    cfg = check_keys(manifest["config"], f"{where} 'config'", config_keys)
    a = check_keys(manifest["adam"], f"{where} 'adam'", {
        "lr": (lambda v: NUMBER[0](v) and _usable_lr(v),
               "a finite number > 0"),
        "t": (lambda v: INTEGER[0](v) and v >= 0, "a non-negative integer")})
    # a list of names, or an older manifest's {name: {"file", "role"}}
    tensors = dict.fromkeys(manifest["tensors"])
    config = NetworkConfig(**{key: cfg[key] for key in config_keys})
    adam = AdamState(lr=a["lr"], t=a["t"])
    net = build_network(manifest["kind"], config, manifest["seed"])

    def load(name, like):
        """Tensor `name`, checked against the fresh net's array it replaces."""
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        arr = load_array(os.path.join(ckpt_dir, name))
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
    for name in tensors:
        if name.startswith(("adam.m.", "adam.v.")):
            key, pname = name[5], name[7:]  # adam.<m or v>.<parameter>
            if pname not in params:
                raise ValueError(f"checkpoint Adam moment {name!r} names no "
                                 f"parameter")
            getattr(adam, key)[pname] = load(name, params[pname].data)
    return TrainState(net=net, adam=adam, **{key: manifest[key] for key in (
        "kind", "epoch", "seed", "best_val_dice")})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(net, ids, sample_dir, threshold: float = 0.5):
    """Score each sample at the threshold; returns (mean SegMetrics, rows)."""
    check_threshold(threshold)
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
    """Start log.csv over with its rows of the epochs up to last_epoch, which
    a resumed checkpoint has seen: none for a fresh run, at -1."""
    rows = []
    if last_epoch >= 0 and os.path.exists(log_path):
        with open(log_path, "r", encoding="ascii") as fh:
            for line in fh.read().splitlines()[1:]:
                epoch, *values = line.split(",")
                try:  # an int and three floats, checked before the rewrite
                    values = [float(v) for v in values]
                except ValueError:
                    values = []
                if not epoch.isdigit() or len(values) != 3:
                    raise ValueError(f"malformed row {line!r} in {log_path}")
                if int(epoch) <= last_epoch:
                    rows.append(line)
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
    """Run the full loop; writes log.csv, best/ and last/ checkpoints.

    `resume_from` continues a checkpoint trained with this kind, config, lr
    and seed; any other value of these is refused.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not _usable_lr(lr):
        raise ValueError(f"lr must be a finite number > 0, got {lr!r}")
    check_threshold(threshold)
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        saved = {"kind": state.kind, "lr": state.adam.lr,
                 "seed": state.seed, **asdict(state.net.config)}
        given = {"kind": kind, "lr": lr, "seed": seed, **asdict(config)}
        differ = [key for key in given if saved[key] != given[key]]
        if differ:
            raise ValueError(
                f"checkpoint {resume_from} was trained with "
                + ", ".join(f"{k} {saved[k]!r}" for k in differ) + ", not "
                + ", ".join(f"{k} {given[k]!r}" for k in differ))
    else:
        state = TrainState(net=build_network(kind, config, seed), kind=kind,
                           adam=AdamState(lr=lr), epoch=-1, seed=seed,
                           best_val_dice=-1.0)
    # the run directory is made only once the run can start
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "log.csv")
    _truncate_log(log_path, state.epoch)

    params = list(state.net.params())
    for epoch in range(state.epoch + 1, epochs):
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
