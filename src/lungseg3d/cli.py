"""Command-line entry point.

Subcommands map one-to-one onto the package stages: gradcheck, phantom-gen,
preprocess, split, train, eval, predict, heatmap. Options come from an
optional JSON config file with command-line flags taking precedence; the
effective configuration is echoed as JSON before any work starts.

Exit codes: 0 success, 1 validation or usage error, a non-finite training
step or gradcheck probe, or a failed gradient check, 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields

from . import data, gradcheck
from .losses import export_heatmap
from .networks import (NetworkConfig, lung_default_config,
                       nodule_default_config, predict_volume)
from .tensor import INTEGER, INTEGERS, NUMBER, STRING, read_json
from .train import NonFiniteError, evaluate, load_checkpoint, train


@dataclass
class RunConfig:
    """Defaults for every tunable knob; JSON file then flags override."""

    net: str = "nodule"
    stage_channels: list = None
    input_geometry: list = None
    attn_window: list = None
    dropout_rate: float = 0.2
    epochs: int = 100
    lr: float = 1e-4
    seed: int = 0
    threshold: float = 0.5
    sample_dir: str = "."
    out_dir: str = "run"
    manifest: str = ""
    checkpoint: str = ""
    resume: str = ""

    def network_config(self) -> NetworkConfig:
        base = (lung_default_config() if self.net == "lung"
                else nodule_default_config())
        return NetworkConfig(
            stage_channels=(self.stage_channels if self.stage_channels
                            else base.stage_channels),
            input_geometry=tuple(self.input_geometry if self.input_geometry
                                 else base.input_geometry),
            attn_window=tuple(self.attn_window if self.attn_window
                              else base.attn_window),
            dropout_rate=self.dropout_rate,
        )


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in str(text).split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated ints, got {text!r}")


NETS = ("lung", "nodule")
# RunConfig field name or type -> (test of a JSON value, what the error asks
# for); a JSON true or false is never a number here
_CONFIG_TYPES = {
    "int": INTEGER, "float": NUMBER, "str": STRING,
    "list": (lambda v: v is None or INTEGERS[0](v), INTEGERS[1]),
    "net": (lambda v: v in NETS, " or ".join(map(json.dumps, NETS))),
}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        payload = read_json(path, "config file", {})
        types = {f.name: f.type for f in fields(RunConfig)}
        for key, val in payload.items():
            if key not in types:
                raise UsageError(f"config file {path}: unknown key {key!r}")
            test, what = _CONFIG_TYPES.get(key, _CONFIG_TYPES[types[key]])
            if not test(val):
                raise UsageError(f"config file {path}: {key!r} must be "
                                 f"{what}, got {json.dumps(val)}")
            setattr(cfg, key, val)
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            setattr(cfg, f.name, flag_val)
    if cfg.seed < 0:
        raise UsageError(f"'seed' must be non-negative, got {cfg.seed}")
    return cfg


def _echo(cfg: RunConfig, command: str) -> None:
    payload = {"command": command}
    payload.update(asdict(cfg))
    try:
        nc = cfg.network_config()
        payload["stage_channels"] = nc.stage_channels
        payload["input_geometry"] = list(nc.input_geometry)
        payload["attn_window"] = list(nc.attn_window)
    except ValueError:
        pass  # invalid overrides will be reported by the subcommand
    print(json.dumps(payload, sort_keys=True))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="lungseg3d",
                     description="3D lung/nodule segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", parents=[], help="finite-difference checks")
    _add_common(p)
    p.add_argument("--target", default="all",
                   help="op/block/network name or 'all'")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("phantom-gen", help="generate synthetic samples")
    _add_common(p)
    p.add_argument("--kind", choices=("nodule", "lung"), required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dims", type=_int_list, default=[32, 32, 32])
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="MetaImage pair to training sample")
    _add_common(p)
    p.add_argument("--net", choices=NETS, default=None)
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--center", type=_int_list, default=None,
                   help="nodule block center d,h,w (default: mask centroid)")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--target", type=_int_list, default=[300, 300])

    p = sub.add_parser("split", help="60-20-20 manifest from sample ids")
    _add_common(p)
    p.add_argument("--sample-dir", default=None)
    p.add_argument("--ids", default=None, help="comma-separated ids")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a network")
    _add_common(p)
    p.add_argument("--net", choices=NETS, default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--sample-dir", default=None, dest="sample_dir")
    p.add_argument("--out", default=None, dest="out_dir")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--stage-channels", type=_int_list, default=None,
                   dest="stage_channels")
    p.add_argument("--input-geometry", type=_int_list, default=None,
                   dest="input_geometry")
    p.add_argument("--attn-window", type=_int_list, default=None,
                   dest="attn_window")
    p.add_argument("--dropout-rate", type=float, default=None,
                   dest="dropout_rate")
    p.add_argument("--resume", default=None)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--sample-dir", default=None, dest="sample_dir")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("predict", help="binary mask for one sample")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--sample-dir", default=None, dest="sample_dir")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="output .mhd path")

    p = sub.add_parser("heatmap", help="probability slice as PGM/PPM")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--sample-dir", default=None, dest="sample_dir")
    p.add_argument("--slice", type=int, required=True, dest="slice_index")
    p.add_argument("--color", action="store_true")
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_gradcheck(args, cfg: RunConfig) -> int:
    reports = gradcheck.oracle_selftest(cfg.seed)
    for rep in reports:
        if not rep.passed:
            raise ValueError(f"oracle self-test failed: {rep.as_dict()}")
    reports = gradcheck.check_gradients(args.target, seed=cfg.seed,
                                        tol=args.tol)
    print(json.dumps([r.as_dict() for r in reports], indent=1))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_phantom_gen(args, cfg: RunConfig) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    dims = args.dims if len(args.dims) > 1 else args.dims[0]
    ids = []
    for i in range(args.count):
        sample = data.make_phantom(args.kind, dims, cfg.seed + i)
        data.save_sample(sample, args.out)
        ids.append(sample.id)
    print(json.dumps({"ids": ids}, sort_keys=True))
    return 0


def _cmd_preprocess(args, cfg: RunConfig) -> int:
    if cfg.net == "lung":
        data.preprocess_lung(args.image, args.mask, args.out, args.sample_id,
                             target=tuple(args.target))
    else:
        data.preprocess_nodule(args.image, args.mask, args.out,
                               args.sample_id,
                               center=args.center, size=args.size)
    print(json.dumps({"id": args.sample_id, "out": args.out}, sort_keys=True))
    return 0


def _cmd_split(args, cfg: RunConfig) -> int:
    if args.ids:
        ids = [s for s in args.ids.split(",") if s]
    else:
        ids = data.list_sample_ids(cfg.sample_dir)
    manifest = data.split_dataset(ids, cfg.seed)
    data.save_manifest(manifest, args.out)
    print(json.dumps({"train": len(manifest.train), "val": len(manifest.val),
                      "test": len(manifest.test)}, sort_keys=True))
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    if not cfg.manifest:
        raise ValueError("train needs --manifest")
    manifest = data.load_manifest(cfg.manifest)
    state = train(cfg.net, manifest, cfg.sample_dir, cfg.out_dir,
                  cfg.network_config(), epochs=cfg.epochs, lr=cfg.lr,
                  seed=cfg.seed, threshold=cfg.threshold,
                  resume_from=cfg.resume or None)
    print(json.dumps({"epochs": cfg.epochs,
                      "best_val_dice": state.best_val_dice,
                      "out": cfg.out_dir}, sort_keys=True))
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ValueError("eval needs --checkpoint")
    if not cfg.manifest:
        raise ValueError("eval needs --manifest")
    state = load_checkpoint(cfg.checkpoint)
    manifest = data.load_manifest(cfg.manifest)
    ids = getattr(manifest, args.split)
    agg, rows = evaluate(state.net, ids, cfg.sample_dir, cfg.threshold)
    report = {"aggregate": agg.as_dict(), "per_sample": rows,
              "split": args.split}
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_predict(args, cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ValueError("predict needs --checkpoint")
    state = load_checkpoint(cfg.checkpoint)
    sample = data.load_sample(cfg.sample_dir, args.sample_id)
    mask = predict_volume(state.net, sample.image, cfg.threshold)
    data.write_mhd(args.out, mask.data, spacing=sample.spacing,
                   origin=sample.origin, element_type="MET_UCHAR")
    print(json.dumps({"id": args.sample_id, "out": args.out,
                      "foreground_voxels": int(mask.data.sum())},
                     sort_keys=True))
    return 0


def _cmd_heatmap(args, cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ValueError("heatmap needs --checkpoint")
    from .autograd import Var, no_grad
    state = load_checkpoint(cfg.checkpoint)
    sample = data.load_sample(cfg.sample_dir, args.sample_id)
    with no_grad():
        prob = state.net.forward(Var(sample.image.data), "eval")
    export_heatmap(prob.data, args.slice_index, args.out, color=args.color)
    print(json.dumps({"id": args.sample_id, "slice": args.slice_index,
                      "out": args.out}, sort_keys=True))
    return 0


_COMMANDS = {
    "gradcheck": _cmd_gradcheck,
    "phantom-gen": _cmd_phantom_gen,
    "preprocess": _cmd_preprocess,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "heatmap": _cmd_heatmap,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        _echo(cfg, args.command)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NonFiniteError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
