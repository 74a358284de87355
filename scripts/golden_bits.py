#!/usr/bin/env python3
"""Record the bits of one seeded training pair of each shipped preset.

For the nine ``_desk``, ``_s`` and ``_m`` presets in float32 and
float64, with a random head (the zero head makes a trivial field): the
``_pair_loss`` of one synthetic pair, every parameter gradient after its
``backward``, and the velocity and both displacements of ``register``
under ``no_grad``. Each array is stored as a sha256 of its dtype, shape
and bytes plus float64 summaries: sum, sum of squares and four fixed
entries.

The file is keyed by the numpy version and the OpenBLAS version and
kernel, because BLAS kernels round their products differently.
``tests/test_golden_bits.py`` asserts equal hashes on the recorded key
and the summaries to a rounding bound on any other. A change that alters
these bits on purpose reruns this script and says so:

    python3 scripts/golden_bits.py [--out tests/data/golden_bits.json]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from patchreg import training
from patchreg.dataio import synth_pair
from patchreg.gradcore import backward, no_grad
from patchreg.metrics import openblas_build
from patchreg.models import RegistrationModel, preset
from patchreg.training import TrainConfig

PRESETS = (
    "pure_mlp_desk", "mlp_mixer_desk", "swin_trans_desk",
    "pure_mlp_s", "mlp_mixer_s", "swin_trans_s",
    "pure_mlp_m", "mlp_mixer_m", "swin_trans_m",
)
DTYPES = ("float32", "float64")
CASES = tuple(f"{name}/{dtype}" for name in PRESETS for dtype in DTYPES)
PAIR_SEED = 0
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_bits.json"


def blas_key() -> dict:
    """What the recorded bits depend on besides the code."""
    version, core = openblas_build() or ("unknown", "unknown")
    return {"numpy": np.__version__, "openblas": version, "core": core}


def case_arrays(case: str) -> list[tuple[str, np.ndarray]]:
    """(label, array) of one ``preset/dtype`` case, in a fixed order."""
    name, dtype = case.split("/")
    model = RegistrationModel(preset(name), dtype=np.dtype(dtype), head_init="random")
    pair = synth_pair(PAIR_SEED, size=model.config.image_size)
    loss = training._pair_loss(model, pair.fix, pair.mov, TrainConfig())
    grads = backward(loss)
    arrays = [("loss", loss.data)]
    arrays += [(f"grad:{n}", grads[t]) for n, t in model.params.items()]
    with no_grad():
        result = model.register(pair.fix, pair.mov)
    arrays += [
        ("register:velocity", result.velocity.array),
        ("register:disp_forward", result.disp_forward.array),
        ("register:disp_inverse", result.disp_inverse.array),
    ]
    return arrays


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def summary(a: np.ndarray) -> dict:
    """float64 sum, sum of squares and the entries at four fixed flat indices."""
    flat = np.asarray(a, dtype=np.float64).ravel()
    picks = sorted({0, flat.size // 3, 2 * flat.size // 3, flat.size - 1})
    return {
        "size": int(flat.size),
        "sum": float(flat.sum()),
        "sumsq": float((flat * flat).sum()),
        "entries": [[i, float(flat[i])] for i in picks],
    }


def record(case: str) -> list[dict]:
    return [{"label": label, "sha256": digest(a), **summary(a)} for label, a in case_arrays(case)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    key = blas_key()
    cases = [f"  {json.dumps(case)}: [\n" + ",\n".join(f"   {json.dumps(r)}" for r in record(case)) + "\n  ]" for case in CASES]
    head = f'{{\n "key": {json.dumps(key)},\n "pair_seed": {PAIR_SEED},\n "cases": {{\n'
    args.out.write_text(head + ",\n".join(cases) + "\n }\n}\n")
    print(f"wrote {len(CASES)} cases to {args.out} for {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
