#!/usr/bin/env python3
"""Statistical properties of the velocity-field integrator.

Reports, over N random smooth fields: step-count self-convergence,
inverse-consistency residual, and the folding rate after integration.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from patchreg.svf import (
    SQUARING_STEPS,
    VELOCITY,
    VectorField,
    compose_displacements,
    integrate_svf,
    jacobian_determinant,
    mean_interior_magnitude,
    random_smooth_velocity,
)


def field_statistics(n, size, max_velocity, sigma=None, steps=SQUARING_STEPS) -> dict:
    """Integrator statistics over the random smooth fields of seeds 0..n-1.

    Per field: ``convergence``, the largest change from ``steps`` to
    ``steps + 2`` squarings, and ``inverse``, the interior residual of the
    backward field composed with the forward one (both in px). Over all
    fields: ``folded`` of ``pixels`` interior pixels have a Jacobian
    determinant that is not positive (a NaN counts as folded).
    """
    conv, inv, folded, pixels = [], [], 0, 0
    for seed in range(n):
        v = random_smooth_velocity(seed, size, size, max_velocity, sigma=sigma)
        fwd = integrate_svf(v, steps)
        fine = integrate_svf(v, steps + 2)
        conv.append(np.abs(fwd.array - fine.array).max())
        bwd = integrate_svf(VectorField(-v.array, VELOCITY), steps)
        inv.append(mean_interior_magnitude(compose_displacements(bwd, fwd), margin=4))
        jac = jacobian_determinant(fwd)[1:-1, 1:-1]
        folded += int((~(jac > 0)).sum())
        pixels += jac.size
    return {"convergence": conv, "inverse": inv, "folded": folded, "pixels": pixels}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--max-velocity", type=float, default=2.0)
    parser.add_argument("--sigma", type=float, default=None, help="smoothing scale (default size/8)")
    parser.add_argument("--steps", type=int, default=SQUARING_STEPS, help="squaring steps (default: the model's)")
    args = parser.parse_args()

    stats = field_statistics(args.n, args.size, args.max_velocity, args.sigma, args.steps)
    conv, inv = stats["convergence"], stats["inverse"]
    print(f"fields: {args.n} at {args.size}x{args.size}, |v|max {args.max_velocity}px, {args.steps} steps")
    print(f"self-convergence vs +2 steps: mean {np.mean(conv):.2e}  worst {max(conv):.2e} px")
    print(f"inverse-consistency residual: mean {np.mean(inv):.2e}  worst {max(inv):.2e} px")
    print(f"folded interior pixels: {stats['folded']} / {stats['pixels']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
