"""Oracles and helpers that more than one test module uses, one copy each.
Not a test module: pytest collects ``test_*.py`` only."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from patchreg import gradcore as gc
from patchreg.models import RegistrationResult
from patchreg.svf import DISPLACEMENT, VELOCITY, VectorField

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    """The module ``scripts/<name>.py``, so tests run the scripts' own code."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def central_difference(f, data: np.ndarray, idx: int, step: float) -> float:
    """d f() / d data.flat[idx] by central differences; ``data`` is restored."""
    orig = data.flat[idx]
    data.flat[idx] = orig + step
    fp = f().item()
    data.flat[idx] = orig - step
    fm = f().item()
    data.flat[idx] = orig
    return (fp - fm) / (2 * step)


def scalar_readout(t: gc.Tensor, seed=0) -> gc.Tensor:
    """Project a tensor to a scalar with a fixed random weighting."""
    r = np.random.default_rng(seed).normal(size=t.shape)
    return gc.sum_all(gc.mul(t, gc.Tensor(r)))


def make_result(u: np.ndarray, w: np.ndarray) -> RegistrationResult:
    """A registration result with forward displacement ``u``, inverse ``w``."""
    return RegistrationResult(
        velocity=VectorField(u.copy(), VELOCITY),
        disp_forward=VectorField(u, DISPLACEMENT),
        disp_inverse=VectorField(w, DISPLACEMENT),
    )


def random_mask(seed, size=24, blobs=3, radius=6) -> np.ndarray:
    """A size x size label-1 mask: 1 to ``blobs`` ellipses, centres at least
    4 px inside, semi-axes drawn from [2, ``radius``)."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((size, size), dtype=np.int64)
    for _ in range(int(rng.integers(1, blobs + 1))):
        cy, cx = rng.uniform(4, size - 4, size=2)
        ry, rx = rng.uniform(2, radius, size=2)
        gy, gx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        mask[((gy - cy) / ry) ** 2 + ((gx - cx) / rx) ** 2 <= 1.0] = 1
    return mask


def brute_force_surface(a, b, label):
    """(Hausdorff, mean surface distance) by all-pairs distances over
    independently extracted boundaries."""

    def boundary(mask):
        h, w = mask.shape
        out = []
        for i in range(h):
            for j in range(w):
                if mask[i, j] != label:
                    continue
                edge = i == 0 or i == h - 1 or j == 0 or j == w - 1
                if not edge:
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        if mask[i + di, j + dj] != label:
                            edge = True
                            break
                if edge:
                    out.append((i, j))
        return out

    pa, pb = boundary(a), boundary(b)
    d_ab = [min(math.dist(p, q) for q in pb) for p in pa]
    d_ba = [min(math.dist(p, q) for q in pa) for p in pb]
    hd = max(max(d_ab), max(d_ba))
    msd = 0.5 * (sum(d_ab) / len(d_ab) + sum(d_ba) / len(d_ba))
    return hd, msd


def loop_resample_and_scale(arr, th, tw):
    """Corner-aligned bilinear upsample with unit conversion, explicit loops."""
    _, h, w = arr.shape
    out = np.zeros((2, th, tw))
    for c in range(2):
        unit = tw / w if c == 0 else th / h
        for i in range(th):
            for j in range(tw):
                sy = i * (h - 1) / (th - 1)
                sx = j * (w - 1) / (tw - 1)
                y0 = min(int(np.floor(sy)), h - 2)
                x0 = min(int(np.floor(sx)), w - 2)
                fy, fx = sy - y0, sx - x0
                val = (1 - fy) * ((1 - fx) * arr[c, y0, x0] + fx * arr[c, y0, x0 + 1]) + fy * (
                    (1 - fx) * arr[c, y0 + 1, x0] + fx * arr[c, y0 + 1, x0 + 1]
                )
                out[c, i, j] = val * unit
    return out
