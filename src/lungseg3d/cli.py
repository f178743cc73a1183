"""Command-line entry point.

Subcommands map one-to-one onto the package stages: gradcheck, phantom-gen,
preprocess, split, train, eval, predict, heatmap. Each option is one
argparse flag that holds its default. A JSON config file (`--config`) maps
the dest of a value-taking flag that is not required (`out_dir`,
`stage_channels`, ...) to a value: the keys the running command declares
become its defaults, so flags still win, and keys that only other commands
take are ignored. The parsed arguments, with `train`'s net-default widths,
geometry and window filled in, are echoed as one JSON line before any work
starts.

Exit codes: 0 success; 1 a validation or usage error, a non-finite training
step or gradcheck probe, or a failed gradient check; 2 I/O or out of memory.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import data, gradcheck
from .losses import export_heatmap
from .networks import (NetworkConfig, lung_default_config,
                       nodule_default_config, predict_volume)
from .tensor import INTEGER, INTEGERS, STRING, read_json, write_json
from .train import NonFiniteError, evaluate, load_checkpoint, train


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
# a flag's type -> (test of a JSON config value, what the error asks for);
# true or false is never a number; NaN is a float, as on the command line
_JSON_TYPES = {None: STRING, int: INTEGER, _int_list: INTEGERS, float: (
    lambda v: isinstance(v, float) or INTEGER[0](v), "a number")}
# command -> the settings it cannot run without
_NEEDS = {"train": ("manifest",), "eval": ("checkpoint", "manifest"),
          "predict": ("checkpoint",), "heatmap": ("checkpoint",)}


def build_parser() -> _Parser:
    parser = _Parser(prog="lungseg3d",
                     description="3D lung/nodule segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> parser, for the config file

    def command(name, text, seed=False):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("gradcheck", "finite-difference checks", seed=True)
    p.add_argument("--target", default="all",
                   help="op/block/network name or 'all'")

    p = command("phantom-gen", "generate synthetic samples", seed=True)
    p.add_argument("--kind", choices=("nodule", "lung"), required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dims", type=_int_list, default=[32, 32, 32])
    p.add_argument("--out", required=True)

    p = command("preprocess", "MetaImage pair to training sample")
    p.add_argument("--net", choices=NETS, default="nodule")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--center", type=_int_list, default=None,
                   help="nodule block center d,h,w (default: mask centroid)")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--target", type=_int_list, default=[300, 300])

    p = command("split", "60-20-20 manifest from sample ids", seed=True)
    p.add_argument("--sample-dir", default=".")
    p.add_argument("--ids", default=None, help="comma-separated ids")
    p.add_argument("--out", required=True)

    p = command("train", "train a network", seed=True)
    p.add_argument("--net", choices=NETS, default="nodule")
    p.add_argument("--manifest", default=None)
    p.add_argument("--sample-dir", default=".")
    p.add_argument("--out", default="run", dest="out_dir")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--threshold", type=float, default=0.5)
    # None: the net's default widths, geometry and window
    p.add_argument("--stage-channels", type=_int_list, default=None)
    p.add_argument("--input-geometry", type=_int_list, default=None)
    p.add_argument("--attn-window", type=_int_list, default=None)
    p.add_argument("--dropout-rate", type=float, default=0.2)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue, trained with this run's "
                        "net, network settings, lr and seed")

    p = command("eval", "score a checkpoint on a split")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--sample-dir", default=".")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = command("predict", "binary mask for one sample")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--sample-dir", default=".")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output .mhd path")

    p = command("heatmap", "probability slice as PGM/PPM")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--id", required=True, dest="sample_id")
    p.add_argument("--sample-dir", default=".")
    p.add_argument("--slice", type=int, required=True, dest="slice_index")
    p.add_argument("--color", action="store_true")
    p.add_argument("--out", required=True)
    return parser


def _flags(parser) -> dict:
    """dest -> action of each flag of a command's parser that takes a value
    and has a default, --config aside: the keys a config file may set."""
    return {a.dest: a for a in parser._actions if a.option_strings
            and a.nargs != 0 and not a.required and a.dest != "config"}


def _parse(argv) -> argparse.Namespace:
    """The command line, parsed again with the config file's keys for the
    running command as its defaults; checked for a negative seed, a
    non-finite float and missing settings, and with train's net defaults
    filled in."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        path, sub = args.config, parser.commands[args.command]
        payload = read_json(path, "config file", {})
        known = {key for p in parser.commands.values() for key in _flags(p)}
        own = _flags(sub)
        for key, val in payload.items():
            if key not in known:
                raise UsageError(f"config file {path}: unknown key {key!r}")
            flag = own.get(key)
            if flag is None or val is None and flag.default is None:
                continue
            test, what = ((lambda v: v in flag.choices,
                           " or ".join(map(json.dumps, flag.choices)))
                          if flag.choices else _JSON_TYPES[flag.type])
            if not test(val):
                raise UsageError(f"config file {path}: {key!r} must be "
                                 f"{what}, got {json.dumps(val)}")
        sub.set_defaults(**{k: v for k, v in payload.items() if k in own})
        args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        raise UsageError(f"'seed' must be non-negative, got {args.seed}")
    for key, flag in _flags(parser.commands[args.command]).items():
        val = getattr(args, key)
        if flag.type is float and not abs(val) < math.inf:
            raise UsageError(f"{key} must be a finite number, got {val}")
    for key in _NEEDS.get(args.command, ()):
        if not getattr(args, key):
            raise ValueError(f"{args.command} needs --{key}")
    if args.command == "train":
        base = (lung_default_config() if args.net == "lung"
                else nodule_default_config())
        for key in ("stage_channels", "input_geometry", "attn_window"):
            if not getattr(args, key):
                setattr(args, key, list(getattr(base, key)))
    return args


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_gradcheck(args) -> int:
    reports = gradcheck.oracle_selftest(args.seed)
    for rep in reports:
        if not rep.passed:
            raise ValueError(f"oracle self-test failed: {rep.as_dict()}")
    reports = gradcheck.check_gradients(args.target, seed=args.seed)
    print(json.dumps([r.as_dict() for r in reports], indent=1))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_phantom_gen(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    dims = args.dims if len(args.dims) > 1 else args.dims[0]
    ids = []
    for i in range(args.count):
        sample = data.make_phantom(args.kind, dims, args.seed + i)
        data.save_sample(sample, args.out)
        ids.append(sample.id)
    print(json.dumps({"ids": ids}, sort_keys=True))
    return 0


def _cmd_preprocess(args) -> int:
    if len(args.target) != 2 or min(args.target) < 1:
        raise UsageError(f"--target must be 2 positive ints h,w, got "
                         f"{','.join(map(str, args.target))}")
    if args.center is not None and len(args.center) != 3:
        raise UsageError(f"--center must be 3 ints d,h,w, got "
                         f"{','.join(map(str, args.center))}")
    if args.size < 1:
        raise UsageError(f"--size must be a positive int, got {args.size}")
    if args.net == "lung":
        data.preprocess_lung(args.image, args.mask, args.out, args.sample_id,
                             target=tuple(args.target))
    else:
        data.preprocess_nodule(args.image, args.mask, args.out,
                               args.sample_id,
                               center=args.center, size=args.size)
    print(json.dumps({"id": args.sample_id, "out": args.out}, sort_keys=True))
    return 0


def _cmd_split(args) -> int:
    if args.ids:
        ids = [s for s in args.ids.split(",") if s]
    else:
        ids = data.list_sample_ids(args.sample_dir)
    manifest = data.split_dataset(ids, args.seed)
    data.save_manifest(manifest, args.out)
    print(json.dumps({"train": len(manifest.train), "val": len(manifest.val),
                      "test": len(manifest.test)}, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    manifest = data.load_manifest(args.manifest)
    config = NetworkConfig(args.stage_channels, args.input_geometry,
                           args.attn_window, args.dropout_rate)
    state = train(args.net, manifest, args.sample_dir, args.out_dir, config,
                  epochs=args.epochs, lr=args.lr, seed=args.seed,
                  threshold=args.threshold, resume_from=args.resume or None)
    print(json.dumps({"epochs": args.epochs,
                      "best_val_dice": state.best_val_dice,
                      "out": args.out_dir}, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    manifest = data.load_manifest(args.manifest)
    ids = getattr(manifest, args.split)
    agg, rows = evaluate(state.net, ids, args.sample_dir, args.threshold)
    report = {"aggregate": agg.as_dict(), "per_sample": rows,
              "split": args.split}
    if args.out:
        write_json(args.out, report, indent=1)
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0


def _cmd_predict(args) -> int:
    state = load_checkpoint(args.checkpoint)
    sample = data.load_sample(args.sample_dir, args.sample_id)
    mask = predict_volume(state.net, sample.image, args.threshold)
    data.write_mhd(args.out, mask.data, spacing=sample.spacing,
                   origin=sample.origin, element_type="MET_UCHAR")
    print(json.dumps({"id": args.sample_id, "out": args.out,
                      "foreground_voxels": int(mask.data.sum())},
                     sort_keys=True))
    return 0


def _cmd_heatmap(args) -> int:
    from .autograd import Var, no_grad
    state = load_checkpoint(args.checkpoint)
    sample = data.load_sample(args.sample_dir, args.sample_id)
    depth = sample.image.shape[2]  # the output's too; checked before the net
    if not 0 <= args.slice_index < depth:
        raise ValueError(f"slice index {args.slice_index} outside [0, {depth})")
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
        args = _parse(argv)
        print(json.dumps({k: v for k, v in vars(args).items()
                          if k != "config"}, sort_keys=True))
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, NonFiniteError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
