"""Training machinery: symmetric similarity loss with a smoothness
penalty, Adam, paired data augmentation, and the epoch loop with early
stopping on validation loss.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .filters import gaussian_blur
from .gradcore import (
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

AUGMENT_PROB = 0.5  # per-transform apply probability, fixed


@dataclass
class AugmentationSpec:
    """Toggles and ranges for the seven paired augmentations.

    The same sampled transform is applied to both images of a pair,
    including the speckle noise field.
    """

    rotate: bool = True
    rotate_deg: float = 15.0
    crop: bool = True
    crop_min_scale: float = 0.8
    brightness: bool = True
    brightness_delta: float = 0.2
    contrast: bool = True
    contrast_range: tuple[float, float] = (0.8, 1.25)
    sharpen: bool = True
    sharpen_amount: tuple[float, float] = (0.5, 1.0)
    blur: bool = True
    blur_sigma: tuple[float, float] = (0.5, 1.5)
    speckle: bool = True
    speckle_var: float = 0.01

    @classmethod
    def none(cls) -> "AugmentationSpec":
        return cls(
            rotate=False,
            crop=False,
            brightness=False,
            contrast=False,
            sharpen=False,
            blur=False,
            speckle=False,
        )

    def validate(self) -> None:
        """Each value must give ``augment_pair`` a range it can draw from:
        finite, low <= high and of finite width."""
        d, b = self.rotate_deg, self.brightness_delta
        ranges = {
            "rotate_deg": ((-d, d), "finite and >= 0"),
            "crop_min_scale": ((self.crop_min_scale, 1.0), "in (0, 1]"),
            "brightness_delta": ((-b, b), "finite and >= 0"),
            "contrast_range": (self.contrast_range, "finite with low <= high"),
            "sharpen_amount": (self.sharpen_amount, "finite with low <= high"),
            "blur_sigma": (self.blur_sigma, "finite with low <= high"),
            "speckle_var": ((0.0, self.speckle_var), "finite and >= 0"),
        }
        for key, ((low, high), rule) in ranges.items():
            if not (math.isfinite(high - low) and low <= high) or (key == "crop_min_scale" and low <= 0):
                raise ConfigError(f"train.augment.{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 500
    patience: int = 30
    lam: float = 0.01
    batch_size: int = 8
    seed: int = 0
    literal_regularizer: bool = False
    augment: AugmentationSpec = field(default_factory=AugmentationSpec)

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
        self.augment.validate()


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


def diffusion_regularizer(disp: VectorField, literal: bool = False) -> Tensor:
    """Smoothness penalty on a displacement field.

    Forward differences per channel, zero beyond the last row/column
    (clamped edge), averaged over all pixels. The default sums the
    squared x and y difference images; ``literal=True`` instead adds the
    x and y differences per channel before squaring.
    """
    u = disp.data
    _, h, w = u.shape
    dx = sub(slice_tensor(u, (slice(None), slice(None), slice(1, None))),
             slice_tensor(u, (slice(None), slice(None), slice(0, w - 1))))
    dy = sub(slice_tensor(u, (slice(None), slice(1, None), slice(None))),
             slice_tensor(u, (slice(None), slice(0, h - 1), slice(None))))
    if literal:
        core_x = slice_tensor(dx, (slice(None), slice(0, h - 1), slice(None)))
        core_y = slice_tensor(dy, (slice(None), slice(None), slice(0, w - 1)))
        s = add(core_x, core_y)
        total = cmul(mean_all(mul(s, s)), 2.0 * (h - 1) * (w - 1) / (h * w))
        return total
    sx = cmul(mean_all(mul(dx, dx)), 2.0 * h * (w - 1) / (h * w))
    sy = cmul(mean_all(mul(dy, dy)), 2.0 * (h - 1) * w / (h * w))
    return add(sx, sy)


def symmetric_loss(fix, mov, result: RegistrationResult, lam: float, literal_regularizer: bool = False) -> Tensor:
    """Two-way similarity plus smoothness:
    mse(forward-warped moving, fixed) + mse(inverse-warped fixed, moving)
    + lam * regularizer(forward displacement)."""
    warped_mov = warp_image(mov, result.disp_forward)
    warped_fix = warp_image(fix, result.disp_inverse)
    data_term = add(mse(warped_mov, fix), mse(warped_fix, mov))
    reg = diffusion_regularizer(result.disp_forward, literal=literal_regularizer)
    return add(data_term, cmul(reg, lam))


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction (:data:`ADAM_BETAS`, :data:`ADAM_EPS`);
    gradients must be zeroed by the caller between steps."""

    def __init__(self, params: ParamSet, lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        for t in params.tensors():
            if t.grad is None:  # step() may run before any backward reaches it
                t.grad = np.zeros_like(t.data)
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= (self.lr / bc1) * m / (np.sqrt(v / bc2) + ADAM_EPS)


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


def augment_pair(
    fix: np.ndarray, mov: np.ndarray, spec: AugmentationSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Apply each enabled transform with probability 0.5, sampling its
    parameters once and applying them identically to both images.
    Intensities are re-clamped to [0, 1] after every transform."""
    imgs = [np.asarray(fix, dtype=np.float64), np.asarray(mov, dtype=np.float64)]
    h, w = imgs[0].shape

    def clamp(ims):
        return [np.clip(im, 0.0, 1.0) for im in ims]

    if spec.rotate and rng.random() < AUGMENT_PROB:
        deg = rng.uniform(-spec.rotate_deg, spec.rotate_deg)
        imgs = clamp([_rotate(im, deg) for im in imgs])
    if spec.crop and rng.random() < AUGMENT_PROB:
        s = rng.uniform(spec.crop_min_scale, 1.0)
        ch = max(2, round(s * h))
        cw = max(2, round(s * w))
        oy = int(rng.integers(0, h - ch + 1))
        ox = int(rng.integers(0, w - cw + 1))
        imgs = clamp([_crop_resize(im, oy, ox, ch, cw) for im in imgs])
    if spec.brightness and rng.random() < AUGMENT_PROB:
        delta = rng.uniform(-spec.brightness_delta, spec.brightness_delta)
        imgs = clamp([im + delta for im in imgs])
    if spec.contrast and rng.random() < AUGMENT_PROB:
        f = rng.uniform(*spec.contrast_range)
        imgs = clamp([(im - 0.5) * f + 0.5 for im in imgs])
    if spec.sharpen and rng.random() < AUGMENT_PROB:
        amount = rng.uniform(*spec.sharpen_amount)
        imgs = clamp([im + amount * (im - gaussian_blur(im, 1.0)) for im in imgs])
    if spec.blur and rng.random() < AUGMENT_PROB:
        sigma = rng.uniform(*spec.blur_sigma)
        imgs = clamp([gaussian_blur(im, sigma) for im in imgs])
    if spec.speckle and rng.random() < AUGMENT_PROB:
        noise = rng.normal(0.0, math.sqrt(spec.speckle_var), size=(h, w))
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
    return symmetric_loss(fix, mov, result, cfg.lam, cfg.literal_regularizer)


def evaluate_loss(model: RegistrationModel, pairs, cfg: TrainConfig) -> float:
    """Mean symmetric loss over pairs, no augmentation, no updates, no graph."""
    total = 0.0
    with no_grad():
        for pair in pairs:
            total += _pair_loss(model, pair.fix, pair.mov, cfg).item()
    return total / len(pairs)


def write_log_csv(log: list[EpochLog], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "seconds"])
        for row in log:
            writer.writerow([row.epoch, f"{row.train_loss:.9g}", f"{row.val_loss:.9g}", f"{row.seconds:.3f}"])


def train(
    model: RegistrationModel,
    train_pairs,
    val_pairs,
    cfg: TrainConfig,
    out_dir: Path | str | None = None,
) -> TrainResult:
    """Epoch loop with shuffled batches, paired augmentation on the
    training split only, and early stopping on validation loss.

    Each pair's loss, scaled by 1/batch, is backpropagated on its own
    and its graph freed before the next pair's forward, so the parameter
    grads sum to the gradient of the batch mean while at most one pair's
    graph is alive: memory does not grow with the batch size. The logged
    batch loss is the mean of the pair losses.

    Training and validation run in the model dtype. The model ends with
    the last epoch's parameters and no copy of them is kept. When
    ``out_dir`` is given it is created first; ``best_checkpoint.prck``
    is written each time the validation loss improves, and ``log.csv``
    and ``checkpoint.prck`` (the last epoch) when training ends.
    """
    cfg.validate()
    if not train_pairs or not val_pairs:
        raise ConfigError("training and validation splits must be non-empty")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
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
            model.params.zero_grads()
            pair_losses: list[float] = []
            for pair in batch:
                fix, mov = augment_pair(pair.fix, pair.mov, cfg.augment, rng)
                loss = _pair_loss(model, fix, mov, cfg)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(epoch, getattr(pair, "pair_id", "?"), value)
                backward(cmul(loss, 1.0 / len(batch)))
                del loss  # free this pair's graph before the next forward
                pair_losses.append(value)
            optimizer.step()
            steps += 1
            epoch_losses.append(float(np.mean(pair_losses)))
        val_loss = evaluate_loss(model, val_pairs, cfg)
        if not math.isfinite(val_loss):
            raise TrainingDiverged(epoch, "<validation>", val_loss)
        log.append(
            EpochLog(epoch, float(np.mean(epoch_losses)), val_loss, time.perf_counter() - t0)
        )
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
        write_log_csv(log, out_dir / "log.csv")
        save_checkpoint(model, out_dir / "checkpoint.prck")
    return TrainResult(log, best_epoch, best_val, steps, stopped_early)
