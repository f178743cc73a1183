"""Span recorder that wraps lungseg3d's public callables from the outside.

Nothing in the package is edited. `install` rebinds every traced function in
every lungseg3d module that holds it (train.py and data.py import several by
name), wraps the layer classes' `__call__` and the blocks' `forward`, and
wraps the `Var._backward` closures that the autograd entry points return, so
backward time is attributed to the op and layer that recorded it.

A span is (name, start, end, parent span, operation id), plus the bytes and
FLOPs its arguments imply. Spans live in flat `array` buffers while the
workload runs and are written out once at the end.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# ops kernels grouped the way the per-layer metrics report them.
CONV_KERNELS = ("conv3d", "conv3d_backward", "tconv3d", "tconv3d_backward")
BN_KERNELS = ("batchnorm3d", "batchnorm3d_backward")
POINTWISE_KERNELS = ("relu", "relu_backward", "sigmoid", "sigmoid_backward",
                     "softmax_lastdim", "softmax_lastdim_backward", "dropout",
                     "dropout_backward", "channel_scale",
                     "channel_scale_backward")
LAYOUT_KERNELS = ("pad3d", "pad3d_backward", "center_crop3d",
                  "center_crop3d_backward", "concat_channels",
                  "concat_channels_backward", "maxpool3d",
                  "maxpool3d_backward", "unfold_windows", "fold_windows")
OPS_KERNELS = CONV_KERNELS + BN_KERNELS + POINTWISE_KERNELS + LAYOUT_KERNELS

# Plain module functions: (module, attribute).
FUNCTIONS = (
    [("tensor", n) for n in ("save_array", "load_array")]
    + [("ops", n) for n in OPS_KERNELS]
    + [("autograd", "run_backward")]
    + [("networks", n) for n in ("build_network", "predict_volume")]
    + [("losses", n) for n in ("combined_term", "bce_term", "dice_term",
                               "seg_metrics")]
    + [("data", n) for n in ("load_mhd", "resize_inplane",
                             "crop_about_median", "crop_nodule_block",
                             "window_intensity", "save_sample", "load_sample",
                             "preprocess_lung", "preprocess_nodule")]
    + [("train", n) for n in ("train", "train_step", "adam_step", "evaluate",
                              "save_checkpoint", "load_checkpoint")]
    + [("gradcheck", "check_gradients")]
)

# Methods traced as `<module>.<Class>.forward`.
FORWARD_METHODS = (
    [("blocks", c) for c in ("ResidualBlock3d", "DoubleConvBlock3d",
                             "AttentionGate3d", "WindowAttention3d")]
    + [("networks", c) for c in ("GatedResidualUNet3d",
                                 "WindowAttentionUNet3d")]
)

LAYER_CLASSES = ("Conv3d", "TConv3d")


def _module(name):
    return importlib.import_module(f"lungseg3d.{name}")


def conv_flops(spec, in_shape) -> float:
    """Multiply-adds x2 of one conv3d forward, from ConvSpec and shapes."""
    out = spec.out_dims(in_shape[2:])
    return (2.0 * in_shape[0] * spec.out_channels * float(np.prod(out))
            * spec.in_channels * float(np.prod(spec.kernel)))


def tconv_flops(spec, in_shape) -> float:
    """Same count for the transposed conv: every input voxel scatters."""
    return (2.0 * in_shape[0] * spec.in_channels * float(np.prod(in_shape[2:]))
            * spec.out_channels * float(np.prod(spec.kernel)))


def _conv_work(args, result):
    x, p = args[0], args[1]
    return (x.nbytes + p.weight.nbytes + result.nbytes,
            conv_flops(p.spec, x.shape))


def _conv_bwd_work(args, result):
    # input gradient plus weight gradient: two forward-sized contractions
    x, p, g = args[0], args[1], args[2]
    return (x.nbytes + p.weight.nbytes + g.nbytes + result[0].nbytes
            + result[1].nbytes, 2.0 * conv_flops(p.spec, x.shape))


def _tconv_work(args, result):
    x, p = args[0], args[1]
    return (x.nbytes + p.weight.nbytes + result.nbytes,
            tconv_flops(p.spec, x.shape))


def _tconv_bwd_work(args, result):
    x, p, g = args[0], args[1], args[2]
    return (x.nbytes + p.weight.nbytes + g.nbytes + result[0].nbytes
            + result[1].nbytes, 2.0 * tconv_flops(p.spec, x.shape))


def _saved_bytes(args, result):
    return np.asarray(args[0]).nbytes, 0.0


def _loaded_bytes(args, result):
    return result.nbytes, 0.0


def _mhd_bytes(args, result):
    # raw bytes read: the f32 volume holds one element per stored element
    volume, meta = result
    itemsize = _module("data").MET_TYPES[meta.element_type].itemsize
    return volume.data.size * itemsize, 0.0


WORK = {
    "ops.conv3d": _conv_work, "ops.conv3d_backward": _conv_bwd_work,
    "ops.tconv3d": _tconv_work, "ops.tconv3d_backward": _tconv_bwd_work,
    "tensor.save_array": _saved_bytes, "tensor.load_array": _loaded_bytes,
    "data.load_mhd": _mhd_bytes,
}


class Tracer:
    """In-memory span store. One instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.nbytes = array("d")
        self.flops = array("d")
        self._stack = [-1]
        self.op_id = -1          # -1 while setting up and checking
        self.counters = {}
        self.originals = {}      # qualified name -> unwrapped callable

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int) -> int:
        i = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.nbytes.append(0.0)
        self.flops.append(0.0)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(perf_counter())
        return i

    def _close(self, i: int):
        self.t1[i] = perf_counter()
        self._stack.pop()

    def span_fn(self, name: str, fn, work=None, backward=False):
        """Wrap fn in a span; optionally wrap the returned Var._backward."""
        nid = self.nid(name)
        bwd_name = name + ".bwd"
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.nbytes[i], tracer.flops[i] = work(args, result)
            if backward and result._backward is not None:
                result._backward = tracer.span_fn(bwd_name, result._backward)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself (e.g. a gradcheck group)."""
        i = self._open(self.nid(name))
        try:
            yield
        finally:
            self._close(i)

    def count_fn(self, name: str, fn):
        """Count calls without a span (for the hottest tiny helper)."""
        counters = self.counters
        counters[name] = 0

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def layer_call(self, kind: str, fn):
        """Wrap Conv3d/TConv3d.__call__ as `layer.<dotted name>` spans."""
        tracer = self
        flops_of = conv_flops if kind == "Conv3d" else tconv_flops

        def traced(layer, x):
            name = "layer." + layer.name
            i = tracer._open(tracer.nid(name))
            try:
                out = fn(layer, x)
            finally:
                tracer._close(i)
            tracer.flops[i] = flops_of(layer.spec, x.data.shape)
            if out._backward is not None:
                out._backward = tracer.span_fn(name + ".bwd", out._backward)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, qual: str, orig, wrapped):
        """Replace orig with wrapped in every lungseg3d module holding it."""
        self.originals[qual] = orig
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lungseg3d"
                                   or mod_name.startswith("lungseg3d.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every traced callable. Returns self for chaining."""
        for mod_name, attr in FUNCTIONS:
            qual = f"{mod_name}.{attr}"
            orig = getattr(_module(mod_name), attr)
            self._rebind(qual, orig, self.span_fn(qual, orig,
                                                  work=WORK.get(qual)))
        # Autograd entry points: one per tape op, the same list the
        # gradcheck coverage gate uses; loss terms are traced above.
        ag = _module("autograd")
        losses = _module("losses")
        for attr in sorted(_module("gradcheck").TAPE_OP_TARGETS):
            if hasattr(losses, attr):
                continue
            qual = f"autograd.{attr}"
            orig = getattr(ag, attr)
            self._rebind(qual, orig,
                         self.span_fn(qual, orig, backward=True))
        orig = ag.from_op
        self._rebind("autograd.from_op", orig,
                     self.count_fn("autograd.from_op", orig))
        for mod_name, cls_name in FORWARD_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            qual = f"{mod_name}.{cls_name}.forward"
            self.originals[qual] = cls.forward
            cls.forward = self.span_fn(qual, cls.forward)
        blocks = _module("blocks")
        for cls_name in LAYER_CLASSES:
            cls = getattr(blocks, cls_name)
            qual = f"blocks.{cls_name}.__call__"
            self.originals[qual] = cls.__call__
            cls.__call__ = self.layer_call(cls_name, cls.__call__)
        self.check_bindings()
        return self

    def check_bindings(self):
        """Fail loudly if any lungseg3d module still holds an unwrapped
        original, so a missed by-name import cannot read as 0 s."""
        orig_ids = {id(f): q for q, f in self.originals.items()}
        missed = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lungseg3d"
                                   or mod_name.startswith("lungseg3d.")):
                continue
            for attr, val in vars(mod).items():
                if id(val) in orig_ids:
                    missed.append(f"{mod_name}.{attr} -> {orig_ids[id(val)]}")
                if isinstance(val, type):
                    for meth in ("forward", "__call__"):
                        f = vars(val).get(meth)
                        if f is not None and id(f) in orig_ids:
                            missed.append(f"{mod_name}.{attr}.{meth}")
        if missed:
            raise RuntimeError("untraced bindings: " + ", ".join(missed))

    # -- readout -------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (open spans are not expected at readout)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
            "flops": np.frombuffer(self.flops, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Aggregates over a finished trace: totals, self time, ancestry."""

    def __init__(self, tracer: Tracer, window):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.t0, self.t1 = a["t0"], a["t1"]
        self.dur = a["t1"] - a["t0"]
        self.nbytes = a["nbytes"]
        self.flops = a["flops"]
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        self.is_ops = self.where(lambda s: s.startswith("ops."))
        # Outermost kernel spans, so nested kernels are not counted twice.
        self.top_ops = self.is_ops & ~self.under(self.is_ops)
        # Spans inside the measured loop: per-operation figures and the
        # call-count checks use only these.
        self.win = (self.t0 >= window[0]) & (self.t1 <= window[1])

    def where(self, pred):
        ids = [i for i, s in enumerate(self.names) if pred(s)]
        return np.isin(self.name_id, ids)

    def named(self, name: str):
        return self.where(lambda s: s == name)

    def under(self, anc):
        """Spans with an ancestor in the boolean mask `anc`. Parents open
        before their children, so one pass in index order suffices."""
        parent = self.parent.tolist()
        anc_l = anc.tolist()
        out = [False] * len(parent)
        for i, p in enumerate(parent):
            if p >= 0:
                out[i] = out[p] or anc_l[p]
        return np.array(out, dtype=bool)

    def calls(self, name: str, in_loop=False) -> int:
        m = self.named(name)
        return int((m & self.win).sum() if in_loop else m.sum())

    def total(self, mask) -> float:
        return float(self.dur[mask].sum())


def _calls_of(table, name):
    """Spans of `name` in the measured loop, or, for a function that runs
    only in set-up or checks (build_network on lung-eval, load_checkpoint),
    all of its spans."""
    m = table.named(name)
    in_loop = m & table.win
    return in_loop if in_loop.any() else m


def _per_call(table, name):
    m = _calls_of(table, name)
    n = int(m.sum())
    return table.total(m) / n if n else 0.0


def per_layer(table: SpanTable, n_ops: int, window, extra):
    """Every per-layer metric as {name: value}. Kernel, tape and tensor I/O
    figures are per operation of the measured loop; single functions and
    layers are per call (see _calls_of)."""
    ops = max(n_ops, 1)
    wall = window[1] - window[0]
    win = table.win
    out = {}

    def kernel(name):
        m = table.named("ops." + name) & win
        return m, table.total(m)

    for name in ("conv3d", "conv3d_backward"):
        m, t = kernel(name)
        flops = float(table.flops[m].sum())
        out[f"ops.{name}.calls"] = int(m.sum()) / ops
        out[f"ops.{name}.s"] = t / ops
        out[f"ops.{name}.gflop"] = flops / 1e9 / ops
        out[f"ops.{name}.gflop_per_s"] = flops / 1e9 / t if t else 0.0
    out["ops.conv3d.gb_moved"] = float(
        table.nbytes[kernel("conv3d")[0]].sum()) / 1e9 / ops
    for name in ("tconv3d", "tconv3d_backward", "batchnorm3d",
                 "batchnorm3d_backward"):
        out[f"ops.{name}.s"] = kernel(name)[1] / ops
    for group, kernels in (("pointwise", POINTWISE_KERNELS),
                           ("layout", LAYOUT_KERNELS)):
        m = table.where(lambda s: s.startswith("ops.") and s[4:] in kernels)
        out[f"ops.{group}.s"] = table.total(m & win) / ops
    conv_family = win & table.where(lambda s: s.startswith("ops.")
                                    and s[4:] in CONV_KERNELS)
    out["ops.conv_share"] = table.total(conv_family) / wall if wall else 0.0

    for layer in REPORTED_LAYERS:
        fwd = _calls_of(table, f"layer.{layer}")
        t = table.total(fwd)
        n = int(fwd.sum())
        out[f"layer.{layer}.fwd_s"] = t / n if n else 0.0
        out[f"layer.{layer}.bwd_s"] = _per_call(table, f"layer.{layer}.bwd")
        out[f"layer.{layer}.gflop_per_s"] = (
            float(table.flops[fwd].sum()) / 1e9 / t if t else 0.0)

    out["autograd.nodes"] = extra.pop("autograd.from_op") / ops
    rb = table.named("autograd.run_backward") & win
    kernels_in_rb = table.top_ops & table.under(rb)
    out["autograd.run_backward.s"] = table.total(rb) / ops
    out["autograd.tape_self_s"] = (table.total(rb)
                                   - table.total(kernels_in_rb)) / ops
    dispatch = table.where(lambda s: s.startswith("autograd.")
                           and s != "autograd.run_backward"
                           and not s.endswith(".bwd")) & win
    out["autograd.dispatch_self_s"] = float(
        table.self_time[dispatch].sum()) / ops

    for cls in ("ResidualBlock3d", "DoubleConvBlock3d", "AttentionGate3d",
                "WindowAttention3d"):
        out[f"blocks.{cls}.fwd_s"] = _per_call(table, f"blocks.{cls}.forward")
    for qual in ("networks.build_network", "networks.predict_volume",
                 "losses.combined_term", "losses.seg_metrics",
                 "train.adam_step", "train.evaluate", "train.save_checkpoint",
                 "train.load_checkpoint", "data.load_mhd",
                 "data.resize_inplane", "data.crop_about_median",
                 "data.crop_nodule_block", "data.window_intensity",
                 "data.save_sample", "data.load_sample"):
        out[f"{qual}.s"] = _per_call(table, qual)

    ckpt = _calls_of(table, "train.save_checkpoint")
    saves = table.named("tensor.save_array")
    n_ckpt = int(ckpt.sum())
    out["train.save_checkpoint.mb"] = (
        float(table.nbytes[saves & table.under(ckpt)].sum()) / 1e6 / n_ckpt
        if n_ckpt else 0.0)
    mhd = _calls_of(table, "data.load_mhd")
    t = table.total(mhd)
    out["data.load_mhd.mb_per_s"] = (float(table.nbytes[mhd].sum()) / 1e6 / t
                                     if t else 0.0)
    for name in ("save_array", "load_array"):
        m = table.named(f"tensor.{name}") & win
        out[f"tensor.{name}.calls"] = int(m.sum()) / ops
        out[f"tensor.{name}.s"] = table.total(m) / ops
        out[f"tensor.{name}.mb"] = float(table.nbytes[m].sum()) / 1e6 / ops

    for group in ("ops", "blocks", "nets"):
        out[f"gradcheck.{group}.s"] = table.total(
            table.named(f"gradcheck.{group}"))
    top = (table.parent < 0) & win
    out["trace.coverage"] = table.total(top) / wall if wall else 0.0
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(table.dur)
    out.update(extra)
    return out


# Conv layers reported by dotted name: the hottest on nodule-train
# (dec1.conv1, dec1.conv2, enc1.conv2) and lung-eval (dec1.conv1, mix1,
# dec1.conv2, head). A layer the workload's net lacks reads 0.
REPORTED_LAYERS = ("dec1.conv1", "dec1.conv2", "enc1.conv2", "mix1", "head")
