"""Training machinery: symmetric similarity loss with a smoothness
penalty, Adam, paired data augmentation, and the epoch loop with early
stopping on validation loss.

Augmentation follows one fixed protocol, the paper's: seven paired
transforms at the ranges of the module constants below. A
:class:`TrainConfig` switches it on or off as a whole.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gradcore
from .files import write_csv
from .filters import gaussian_blur
from .gradcore import (
    ContractError,
    ParamSet,
    Tensor,
    add,
    backward,
    cmul,
    mean_all,
    mul,
    no_grad,
    slice_tensor,
    sub,
)
from .models import ConfigError, RegistrationModel, RegistrationResult, save_checkpoint
from .svf import VectorField, aligned_grid, identity_grid, sample, warp_image

# The paper's augmentation protocol: each of the seven transforms is applied
# with probability AUGMENT_PROB, its parameter drawn uniformly from its range.
AUGMENT_PROB = 0.5
ROTATE_DEG = 15.0  # angle in [-ROTATE_DEG, ROTATE_DEG]
CROP_MIN_SCALE = 0.8  # crop side in [CROP_MIN_SCALE, 1] of the image side
BRIGHTNESS_DELTA = 0.2  # offset in [-BRIGHTNESS_DELTA, BRIGHTNESS_DELTA]
CONTRAST_RANGE = (0.8, 1.25)
SHARPEN_AMOUNT = (0.5, 1.0)
BLUR_SIGMA = (0.5, 1.5)
SPECKLE_VAR = 0.01  # variance of the multiplicative Gaussian noise, not drawn


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 500
    patience: int = 30
    lam: float = 0.01
    batch_size: int = 8
    seed: int = 0
    augment: bool = True

    def validate(self) -> None:
        if not (math.isfinite(self.lr) and math.isfinite(self.lam)):
            raise ConfigError("lr and lam must be finite")
        if self.lr <= 0 or self.lam <= 0:
            raise ConfigError("lr and lam must be positive")
        if not 0 <= self.patience <= self.max_epochs:
            raise ConfigError(f"patience must lie in 0..max_epochs, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be a non-negative integer, got {self.seed}")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, pair_id: str, value: float):
        super().__init__(f"non-finite loss at epoch {epoch}, pair '{pair_id}' (value {value})")
        self.epoch = epoch
        self.pair_id = pair_id


# ---------------------------------------------------------------------------
# loss


def mse(a, b) -> Tensor:
    """Mean squared difference over all pixels; a numpy operand is a constant."""
    d = sub(a, b)
    return mean_all(mul(d, d))


def diffusion_regularizer(disp: VectorField) -> Tensor:
    """Smoothness penalty on a displacement field.

    Forward differences per channel, zero beyond the last row/column
    (clamped edge), averaged over all pixels: the squared x and y
    difference images, summed.
    """
    u = disp.data
    _, h, w = u.shape
    every = slice(None)
    sx = mse(slice_tensor(u, (every, every, slice(1, None))), slice_tensor(u, (every, every, slice(0, w - 1))))
    sy = mse(slice_tensor(u, (every, slice(1, None), every)), slice_tensor(u, (every, slice(0, h - 1), every)))
    return add(cmul(sx, 2.0 * h * (w - 1) / (h * w)), cmul(sy, 2.0 * (h - 1) * w / (h * w)))


def symmetric_loss(fix, mov, result: RegistrationResult, lam: float) -> Tensor:
    """Two-way similarity plus smoothness:
    mse(forward-warped moving, fixed) + mse(inverse-warped fixed, moving)
    + lam * regularizer(forward displacement)."""
    warped_mov = warp_image(mov, result.disp_forward)
    warped_fix = warp_image(fix, result.disp_inverse)
    data_term = add(mse(warped_mov, fix), mse(warped_fix, mov))
    reg = diffusion_regularizer(result.disp_forward)
    return add(data_term, cmul(reg, lam))


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction (:data:`ADAM_BETAS`, :data:`ADAM_EPS`).

    :meth:`step` takes the gradients that :func:`gradcore.backward`
    returns; a parameter with no entry keeps its value and its moments.
    It updates each other parameter and its moments ``m`` and ``v`` in
    place, over flat blocks of ``gradcore._ROW_BLOCK`` values with two
    block-sized scratch buffers. Per block it runs the ufuncs of
    ``m = b1·m + (1-b1)·g``, ``v = b2·v + ((1-b2)·g)·g`` and
    ``p -= (lr/bc1)·m / (sqrt(v/bc2) + eps)`` in that order, so every value
    has the bits of the same update written as whole-array expressions.
    """

    def __init__(self, params: ParamSet, lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        # flat, as step() walks them; each parameter is C-contiguous (ParamSet)
        self.m = {n: np.zeros(t.size, t.dtype) for n, t in params.items()}
        self.v = {n: np.zeros(t.size, t.dtype) for n, t in params.items()}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        block = gradcore._ROW_BLOCK
        for name, p in self.params.items():
            if p not in grads:
                continue
            if not p.data.flags.c_contiguous:  # its flat form would be a copy
                raise ContractError(f"Adam: parameter {name} is not C-contiguous")
            data, g = p.data.reshape(-1), grads[p].reshape(-1)
            m, v = self.m[name], self.v[name]
            scratch = np.empty((2, min(data.size, block)), data.dtype)
            for i in range(0, data.size, block):
                s = slice(i, i + block)
                gb, mb, vb = g[s], m[s], v[s]
                a, b = scratch[:, : gb.size]
                mb *= b1
                mb += np.multiply(1 - b1, gb, out=a)
                vb *= b2
                np.multiply(1 - b2, gb, out=a)
                a *= gb
                vb += a
                np.multiply(self.lr / bc1, mb, out=a)
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                a /= b
                data[s] -= a


# ---------------------------------------------------------------------------
# augmentation (numpy only, applied before any graph is built)


def _rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(degrees)
    gx, gy = identity_grid(h, w)
    # inverse map: rotate output coords by -theta about the center
    xs = math.cos(th) * (gx - cx) + math.sin(th) * (gy - cy) + cx
    ys = -math.sin(th) * (gx - cx) + math.cos(th) * (gy - cy) + cy
    return sample(img, np.stack([xs, ys])).data


def _crop_resize(img: np.ndarray, oy: int, ox: int, ch: int, cw: int) -> np.ndarray:
    h, w = img.shape
    grid = aligned_grid(ch, cw, h, w) + np.array([ox, oy], dtype=np.float64).reshape(2, 1, 1)
    return sample(img, grid).data


def augment_pair(fix: np.ndarray, mov: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Apply each of the seven transforms with probability
    :data:`AUGMENT_PROB`, sampling its parameters once and applying them
    identically to both images, speckle noise field included. Intensities
    are re-clamped to [0, 1] after every transform."""
    imgs = [np.asarray(fix, dtype=np.float64), np.asarray(mov, dtype=np.float64)]
    h, w = imgs[0].shape

    def clamp(ims):
        return [np.clip(im, 0.0, 1.0) for im in ims]

    if rng.random() < AUGMENT_PROB:
        deg = rng.uniform(-ROTATE_DEG, ROTATE_DEG)
        imgs = clamp([_rotate(im, deg) for im in imgs])
    if rng.random() < AUGMENT_PROB:
        s = rng.uniform(CROP_MIN_SCALE, 1.0)
        ch = max(2, round(s * h))
        cw = max(2, round(s * w))
        oy = int(rng.integers(0, h - ch + 1))
        ox = int(rng.integers(0, w - cw + 1))
        imgs = clamp([_crop_resize(im, oy, ox, ch, cw) for im in imgs])
    if rng.random() < AUGMENT_PROB:
        delta = rng.uniform(-BRIGHTNESS_DELTA, BRIGHTNESS_DELTA)
        imgs = clamp([im + delta for im in imgs])
    if rng.random() < AUGMENT_PROB:
        f = rng.uniform(*CONTRAST_RANGE)
        imgs = clamp([(im - 0.5) * f + 0.5 for im in imgs])
    if rng.random() < AUGMENT_PROB:
        amount = rng.uniform(*SHARPEN_AMOUNT)
        imgs = clamp([im + amount * (im - gaussian_blur(im, 1.0)) for im in imgs])
    if rng.random() < AUGMENT_PROB:
        sigma = rng.uniform(*BLUR_SIGMA)
        imgs = clamp([gaussian_blur(im, sigma) for im in imgs])
    if rng.random() < AUGMENT_PROB:
        noise = rng.normal(0.0, math.sqrt(SPECKLE_VAR), size=(h, w))
        imgs = clamp([im * (1.0 + noise) for im in imgs])
    return imgs[0], imgs[1]


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainResult:
    """The epoch log and the best epoch; the model itself holds the
    final parameters. With an ``out_dir``, ``best_checkpoint.prck`` holds
    the best epoch's."""

    log: list[EpochLog]
    best_epoch: int
    best_val_loss: float
    steps: int
    stopped_early: bool


def _pair_loss(model: RegistrationModel, fix, mov, cfg: TrainConfig) -> Tensor:
    """The pair's symmetric loss, images cast once to the model dtype."""
    fix, mov = model.check_images(fix, mov)
    result = model.register(fix, mov)
    return symmetric_loss(fix, mov, result, cfg.lam)


def evaluate_loss(model: RegistrationModel, pairs, cfg: TrainConfig) -> float:
    """Mean symmetric loss over pairs, no augmentation, no updates, no graph."""
    total = 0.0
    with no_grad():
        for pair in pairs:
            total += _pair_loss(model, pair.fix, pair.mov, cfg).item()
    return total / len(pairs)


def train(
    model: RegistrationModel,
    train_pairs,
    val_pairs,
    cfg: TrainConfig,
    out_dir: Path | str | None = None,
) -> TrainResult:
    """Epoch loop with shuffled batches, paired augmentation (when
    ``cfg.augment``) on the training split only, and early stopping on
    validation loss.

    Each pair's loss, scaled by 1/batch, is backpropagated on its own
    into one gradient dict per batch, which so sums to the gradient of the
    batch mean for :meth:`Adam.step`, and :func:`backward` frees its graph
    as it walks it: at most one pair's graph is alive, so memory does not
    grow with the batch size. The logged batch loss is the mean of the
    pair losses.

    Training and validation run in the model dtype. The model ends with
    the last epoch's parameters and no copy of them is kept. With an
    ``out_dir``, ``log.csv`` is rewritten at the end of every epoch,
    ``best_checkpoint.prck`` each time the validation loss improves and
    ``checkpoint.prck`` (the last epoch) when training ends, each replaced
    whole: a run that diverges keeps its log and its best checkpoint.
    Before epoch 1 those three files of an earlier run are removed.
    """
    cfg.validate()
    if not train_pairs or not val_pairs:
        raise ConfigError("training and validation splits must be non-empty")
    if out_dir is not None:
        out_dir = Path(out_dir)
        for name in ("log.csv", "best_checkpoint.prck", "checkpoint.prck"):
            (out_dir / name).unlink(missing_ok=True)
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, lr=cfg.lr)
    log: list[EpochLog] = []
    best_val = math.inf
    best_epoch = 0
    since_improve = 0
    steps = 0
    stopped_early = False

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_pairs))
        epoch_losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_pairs[i] for i in order[start : start + cfg.batch_size]]
            grads = {}
            pair_losses: list[float] = []
            for pair in batch:
                fix, mov = pair.fix, pair.mov
                if cfg.augment:
                    fix, mov = augment_pair(fix, mov, rng)
                loss = _pair_loss(model, fix, mov, cfg)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(epoch, getattr(pair, "pair_id", "?"), value)
                backward(cmul(loss, 1.0 / len(batch)), grads)
                pair_losses.append(value)
            optimizer.step(grads)
            steps += 1
            epoch_losses.append(float(np.mean(pair_losses)))
        val_loss = evaluate_loss(model, val_pairs, cfg)
        if not math.isfinite(val_loss):
            raise TrainingDiverged(epoch, "<validation>", val_loss)
        log.append(
            EpochLog(epoch, float(np.mean(epoch_losses)), val_loss, time.perf_counter() - t0)
        )
        if out_dir is not None:
            write_csv(out_dir / "log.csv", ["epoch", "train_loss", "val_loss", "seconds"],
                      ([r.epoch, f"{r.train_loss:.9g}", f"{r.val_loss:.9g}", f"{r.seconds:.3f}"] for r in log))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            since_improve = 0
            if out_dir is not None:
                save_checkpoint(model, out_dir / "best_checkpoint.prck")
        else:
            since_improve += 1
            if since_improve > cfg.patience:
                stopped_early = True
                break

    if out_dir is not None:
        save_checkpoint(model, out_dir / "checkpoint.prck")
    return TrainResult(log, best_epoch, best_val, steps, stopped_early)
