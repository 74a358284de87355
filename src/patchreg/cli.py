"""Command-line entry points: train, register, evaluate, synth, gradcheck.

Batch-oriented: ``train`` reads a JSON config (its ``--seed`` flag wins)
and persists its fully resolved configuration; ``synth``, ``train``,
``register`` and ``evaluate`` write files and CSV/JSON reports, and
``gradcheck`` prints one line per family. Exit codes: 0 success,
1 verification failure, 2 usage or config error, 3 data integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio, models, svf, training
from .files import write_file
from .gradcore import grad_check, no_grad
from .metrics import JacobianStats, evaluate_pairs
from .models import CheckpointError, ConfigError, init_model, load_checkpoint, preset
from .svf import compose_displacements, mean_interior_magnitude
from .training import TrainConfig, TrainingDiverged


def _require(ok: bool, message: str) -> None:
    """A usage check: raise ConfigError (exit 2) with ``message`` unless ``ok``."""
    if not ok:
        raise ConfigError(message)


@dataclass
class DataConfig:
    """The ``data`` section: manifest path (relative to the config file) and split names."""

    manifest: str
    train_split: str = "train"
    val_split: str = "val"


def _resolve_model_config(section) -> models.ModelConfig:
    """``section["preset"]`` (default: ``ModelConfig()``) with the section's
    other keys overriding its fields."""
    _require(isinstance(section, dict), f"model must be a JSON object, got {type(section).__name__}")
    overrides = dict(section)
    base = preset(overrides.pop("preset")) if "preset" in overrides else models.ModelConfig()
    cfg = models.config_from_dict(models.ModelConfig, {**models.config_to_dict(base), **overrides}, "model")
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    _require(args.seed is None or args.seed >= 0, f"--seed must be a non-negative integer, got {args.seed}")
    try:
        raw = json.loads(Path(args.config).read_text())
    except RecursionError as e:
        raise ConfigError(f"{args.config}: JSON nested too deeply to read") from e
    _require(isinstance(raw, dict), "config must be a JSON object with model/train/data sections")
    for key in raw:
        _require(key in ("model", "train", "data"), f"config has unknown section {key!r}")
    model_cfg = _resolve_model_config(raw.get("model", {}))
    train_cfg = models.config_from_dict(TrainConfig, raw.get("train", {}), "train")
    data = models.config_from_dict(DataConfig, raw.get("data", {}), "data")
    data.manifest = str((Path(args.config).parent / data.manifest).resolve())
    if args.seed is not None:
        model_cfg.seed = args.seed
        train_cfg.seed = args.seed
    train_cfg.validate()

    # the data and the model are checked before anything is written, so a
    # run that fails on them leaves --out as it was
    train_pairs = dataio.load_image_pairs(data.manifest, data.train_split, model_cfg.image_size)
    val_pairs = dataio.load_image_pairs(data.manifest, data.val_split, model_cfg.image_size)
    _require(bool(train_pairs), f"no '{data.train_split}' pairs in {data.manifest}")
    _require(bool(val_pairs), f"no '{data.val_split}' pairs in {data.manifest}")
    model = init_model(model_cfg)  # float32, the dtype checkpoints store

    out = Path(args.out)
    resolved = {
        "model": models.config_to_dict(model_cfg),
        "train": models.config_to_dict(train_cfg),
        "data": models.config_to_dict(data),
    }
    write_file(out / "resolved_config.json", json.dumps(resolved, indent=2, sort_keys=True).encode())
    result = training.train(model, train_pairs, val_pairs, train_cfg, out_dir=out)
    print(
        f"trained {model_cfg.family} for {len(result.log)} epochs "
        f"(best val {result.best_val_loss:.6g} at epoch {result.best_epoch})"
    )
    return 0


def cmd_register(args) -> int:
    model = load_checkpoint(args.checkpoint)
    size = model.config.image_size
    fix = dataio.resize_image(dataio.read_pgm(args.fix), size)
    mov = dataio.resize_image(dataio.read_pgm(args.mov), size)
    with no_grad():
        result = model.register(fix, mov)
    out = Path(args.out)
    svf.write_field(result.disp_forward, out / "disp_forward.prgf")
    svf.write_field(result.disp_inverse, out / "disp_inverse.prgf")
    warped = svf.warp_image(mov, result.disp_forward).data
    dataio.write_pgm(warped, out / "warped.pgm")
    margin = max(1, size // 32)
    residual = mean_interior_magnitude(
        compose_displacements(result.disp_inverse, result.disp_forward), margin=margin
    )
    stats = JacobianStats.of(svf.jacobian_determinant(result.disp_forward).ravel())
    summary = {
        "inverse_consistency_residual_px": residual,
        "jacobian": asdict(stats),
        "mse_warped": float(((warped - fix) ** 2).mean()),
        "mse_identity": float(((mov - fix) ** 2).mean()),
    }
    write_file(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True).encode())
    return 0


def cmd_evaluate(args) -> int:
    _require(args.threads is None or args.threads >= 1,
             f"--threads must be a positive integer, got {args.threads}")
    model = load_checkpoint(args.checkpoint)
    pairs = dataio.load_eval_pairs(args.manifest, args.split, model.config.image_size)
    _require(bool(pairs), f"split '{args.split}' of {args.manifest} is empty")
    report = evaluate_pairs(model, pairs, threads=args.threads)
    report.write(args.out)
    n_rows = len({r.pair_id for r in report.rows})
    print(f"evaluated {n_rows} pairs, skipped {len(report.skipped)}")
    return 0


def cmd_synth(args) -> int:
    # every flag is checked before the output directory exists
    _require(args.n >= 1, f"--n must be at least 1, got {args.n}")
    _require(args.seed >= 0, f"--seed must be a non-negative integer, got {args.seed}")
    _require(args.size >= 16, f"--size must be at least 16, got {args.size}")
    _require(0 <= args.max_disp < args.size / 8, f"--max-disp must lie in [0, size/8), got {args.max_disp}")
    out = Path(args.out)
    rows = []
    for i in range(args.n):
        pair = dataio.synth_pair(args.seed + i, size=args.size, max_disp=args.max_disp)
        rows.append(dataio.export_synth_pair(pair, out, f"synth{i:04d}", split=args.split))
    dataio.write_manifest(rows, out / "manifest.csv")
    print(f"wrote {args.n} synthetic pairs to {out}")
    return 0


_GRADCHECK_THRESHOLD = 1e-4  # a family passes below this max relative error


def cmd_gradcheck(args) -> int:
    # the shipped desk presets at 32 px, through the loss training runs,
    # at grad_check's probes, step and seed
    pair = dataio.synth_pair(0, size=32, max_disp=2.0)
    ok = True
    for family in models.FAMILIES:
        cfg = replace(preset(f"{family}_desk"), image_size=32)
        model = init_model(cfg, dtype=np.float64, head_init="random")
        report = grad_check(
            lambda _params: training._pair_loss(model, pair.fix, pair.mov, TrainConfig()), model.params
        )
        passed = report.max_rel_err < _GRADCHECK_THRESHOLD  # False for NaN
        print(
            f"{family}: max rel err {report.max_rel_err:.3e} "
            f"(mean {report.mean_rel_err:.3e}, {report.n_probes} probes) "
            f"{'ok' if passed else 'FAIL'}"
        )
        ok = ok and passed
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, which :func:`main` prints as
    one ``error:`` line with exit 2, instead of printing usage and exiting."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patchreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config and manifest")
    p.add_argument("--config", required=True, help="JSON with model/train/data sections")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--seed", type=int, default=None, help="override model and train seeds")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("register", help="register one image pair with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fix", required=True, help="fixed image (PGM)")
    p.add_argument("--mov", required=True, help="moving image (PGM)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_register)

    p = sub.add_parser("evaluate", help="metric report over a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None, help="cap worker threads")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic pairs plus a manifest")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--max-disp", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="train", choices=dataio.SPLITS)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss gradient")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as e:  # MemoryError: an allocation the machine cannot make
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
