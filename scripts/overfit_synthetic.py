#!/usr/bin/env python3
"""Desk-scale comparison of the three families on one synthetic pair.

Trains each family's desk preset to overfit a single known deformation
and reports warped-image MSE (relative to identity), per-structure Dice,
endpoint error against the generating flow, and folding statistics.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from patchreg import dataio, metrics, models, training
from patchreg.dataio import ImagePair
from patchreg.svf import jacobian_determinant, warp_image


def run_family(family: str, pair, lr: float, iterations: int, seed: int):
    """Train the family's desk preset on ``pair`` for ``iterations`` steps;
    return its row of results and the trained model."""
    model = models.init_model(models.preset(f"{family}_desk"))
    cfg = training.TrainConfig(
        lr=lr,
        max_epochs=iterations,
        patience=iterations,
        lam=0.01,
        batch_size=1,
        seed=seed,
        augment=False,
    )
    record = ImagePair("synth", pair.fix, pair.mov)
    t0 = time.perf_counter()
    result = training.train(model, [record], [record], cfg)
    seconds = time.perf_counter() - t0

    out = model.register(pair.fix, pair.mov)
    warped = warp_image(pair.mov.astype(np.float32), out.disp_forward).data
    identity_mse = float(((pair.fix - pair.mov) ** 2).mean())
    warped_mask = metrics.warp_mask(pair.mov_mask, out.disp_forward)
    jac = jacobian_determinant(out.disp_forward)
    row = {
        "family": family,
        "steps": result.steps,
        "seconds": round(seconds, 1),
        "final_loss": result.log[-1].train_loss,
        "mse_ratio": float(((warped - pair.fix) ** 2).mean()) / identity_mse,
        "dice_lv": metrics.dice(pair.fix_mask, warped_mask, 1),
        "dice_myo": metrics.dice(pair.fix_mask, warped_mask, 2),
        "dice_la": metrics.dice(pair.fix_mask, warped_mask, 3),
        "epe_px": metrics.endpoint_error(out.disp_inverse, pair.gt_disp, mask=pair.fix_mask),
        "jac_neg_frac": float((~(jac > 0)).mean()),
    }
    return row, model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--max-disp", type=float, default=3.0)
    parser.add_argument("--iterations", type=int, default=1500)
    parser.add_argument("--lr", type=float, default=2e-3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--families", nargs="*", default=list(models.FAMILIES))
    parser.add_argument("--csv", type=Path, default=None, help="optional results CSV")
    args = parser.parse_args()

    pair = dataio.synth_pair(args.seed, size=args.size, max_disp=args.max_disp)
    print(
        f"pair: {args.size}x{args.size}, peak displacement "
        f"{np.sqrt((pair.gt_disp.array ** 2).sum(0)).max():.2f}px, "
        f"identity MSE {((pair.fix - pair.mov) ** 2).mean():.5f}"
    )

    rows = [run_family(f, pair, args.lr, args.iterations, args.seed)[0] for f in args.families]
    cols = list(rows[0].keys())
    widths = {c: max(len(c), 10) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for row in rows:
        print(
            "  ".join(
                (f"{v:.4f}" if isinstance(v, float) else str(v)).ljust(widths[c])
                for c, v in row.items()
            )
        )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
