"""Registration networks: three patch-token families, single or multi
scale, mapping an image pair to a stationary velocity field and the
displacement fields derived from it.

Each child network embeds both images with one shared patch embedding,
extracts features per stream through shared-weight blocks, fuses the two
streams (sum + blocks, or windowed cross attention), and reads out a
2-channel velocity on the token grid through a small head whose final
layer starts at zero so an untrained model is the identity transform.
Child velocities are resampled to the finest grid and combined by fixed
weights; the fused velocity is exponentiated forward and backward and
upsampled to image resolution.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import struct
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .blocks import MixerBlock, MlpBlock, PatchEmbed, SwinCrossBlock
from .gradcore import (
    ContractError,
    DimensionError,
    ParamSet,
    Tensor,
    add,
    cmul,
    gelu,
    linear,
    neg,
    reshape,
    transpose,
)
from .svf import VELOCITY, VectorField, integrate_svf, resample_field

FAMILIES = ("pure_mlp", "mlp_mixer", "swin_trans")


class ConfigError(ValueError):
    """A model or training configuration is invalid."""


def config_from_dict(cls, d, where: str):
    """Read JSON object ``d`` into config dataclass ``cls``.

    Each value is checked against its field's annotation: int, float,
    bool, str, ``X | None``, ``tuple[...]``, ``list[...]`` or a nested
    config dataclass, read the same way. Unknown keys, wrong types and
    missing fields that have no default raise a one-line
    :class:`ConfigError` that names the key path from ``where``; other
    missing keys take the field's default.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    hints = get_type_hints(cls)
    for key in d:
        if key not in hints:
            raise ConfigError(f"{where} has unknown key {key!r}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs key {f.name!r}")
    return cls(**{key: _from_json(hints[key], v, f"{where}.{key}") for key, v in d.items()})


def _from_json(tp, value, where: str):
    """JSON ``value`` read as annotation ``tp``; ``where`` is its key path."""
    if is_dataclass(tp):
        return config_from_dict(tp, value, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _from_json(tp, value, where)
    if origin is list and isinstance(value, list):
        return [_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_from_json(args[i], v, f"{where}[{i}]") for i, v in enumerate(value))
    # scalars match exactly (a bool is no int), except that an int is a float too
    if origin is None and (type(value) is tp or tp is float and type(value) is int):
        return value
    expected = {list: "a list", tuple: f"a list of {len(args)}"}.get(origin, tp.__name__)
    raise ConfigError(f"{where} must be {expected}, got {type(value).__name__}")


def config_to_dict(obj):
    """JSON form of config dataclass ``obj``, the inverse of
    :func:`config_from_dict`: nested dataclasses become objects, tuples
    become lists, and fields holding None are left out."""
    if is_dataclass(obj):
        values = {f.name: getattr(obj, f.name) for f in fields(obj)}
        return {key: config_to_dict(v) for key, v in values.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [config_to_dict(v) for v in obj]
    return obj


@dataclass
class ScaleConfig:
    """One child network: patch size, attention geometry (swin only), fusion weight."""

    patch: int
    window: int | None = None
    heads: int | None = None
    weight: float = 1.0


@dataclass
class ModelConfig:
    family: str = "pure_mlp"
    scales: list[ScaleConfig] = field(default_factory=lambda: [ScaleConfig(patch=4)])
    dim: int = 128
    depth_extract: int = 4
    depth_cross: int = 4
    image_size: int = 128
    integration_steps: int = 7
    hidden_ratio: int = 4
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = config_from_dict(cls, d, "model")
        if "scales" not in d:
            raise ConfigError("model needs key 'scales'")
        return cfg

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family '{self.family}' (expected one of {FAMILIES})")
        if not self.scales:
            raise ConfigError("a model needs at least one scale")
        if min(self.dim, self.depth_cross, self.image_size, self.hidden_ratio, self.integration_steps) < 1:
            raise ConfigError(
                "dim, depth_cross, image_size, hidden_ratio and integration_steps must be >= 1"
            )
        if self.depth_extract < 0:
            raise ConfigError("depth_extract must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"model.seed must be a non-negative integer, got {self.seed}")
        for s in self.scales:
            if s.patch < 1:
                raise ConfigError(f"patch {s.patch} must be >= 1")
            if self.image_size % s.patch:
                raise ConfigError(f"patch {s.patch} does not divide image size {self.image_size}")
            grid = self.image_size // s.patch
            if self.family == "swin_trans":
                if s.window is None or s.heads is None or min(s.window, s.heads) < 1:
                    raise ConfigError("swin scales need window and heads >= 1")
                if grid % s.window:
                    raise ConfigError(
                        f"window {s.window} does not divide token grid {grid} "
                        f"(image {self.image_size}, patch {s.patch})"
                    )
                if self.dim % s.heads:
                    raise ConfigError(f"dim {self.dim} not divisible by {s.heads} heads")
            if not (math.isfinite(s.weight) and s.weight >= 0):
                raise ConfigError(f"scale weights must be finite and non-negative, got {s.weight!r}")


@dataclass
class RegistrationResult:
    """Fused velocity plus image-resolution forward/inverse displacements.

    ``disp_forward`` warps the moving image toward the fixed one;
    ``disp_inverse`` is the exponential of the negated velocity, so the
    two compose to near identity.
    """

    velocity: VectorField
    disp_forward: VectorField
    disp_inverse: VectorField


class ChildModel:
    """Single-scale network producing a velocity on its token grid."""

    def __init__(
        self,
        pset: ParamSet,
        prefix: str,
        cfg: ModelConfig,
        scale: ScaleConfig,
        head_init: str,
    ):
        self.patch = scale.patch
        self.grid = cfg.image_size // scale.patch
        self.embed = PatchEmbed(pset, f"{prefix}.embed", scale.patch, cfg.dim)
        n_tokens = self.grid * self.grid

        def block(name: str):
            if cfg.family == "mlp_mixer":
                return MixerBlock(pset, name, cfg.dim, n_tokens, cfg.hidden_ratio)
            return MlpBlock(pset, name, cfg.dim, cfg.hidden_ratio)

        self.extract = [block(f"{prefix}.extract{i}") for i in range(cfg.depth_extract)]

        self.family = cfg.family
        if cfg.family == "swin_trans":
            self.cross = [
                SwinCrossBlock(
                    pset,
                    f"{prefix}.cross{i}",
                    cfg.dim,
                    self.grid,
                    scale.window,
                    scale.heads,
                    cfg.hidden_ratio,
                )
                for i in range(cfg.depth_cross)
            ]
        else:
            self.cross = [block(f"{prefix}.cross{i}") for i in range(cfg.depth_cross)]

        self.head_w1 = pset.add(f"{prefix}.head.fc1.w", (cfg.dim, cfg.dim))
        self.head_b1 = pset.add(f"{prefix}.head.fc1.b", (cfg.dim,), init="zeros")
        head_w2_init = "zeros" if head_init == "zeros" else "trunc_normal"
        self.head_w2 = pset.add(f"{prefix}.head.fc2.w", (cfg.dim, 2), init=head_w2_init)
        self.head_b2 = pset.add(f"{prefix}.head.fc2.b", (2,), init="zeros")

    def extract_features(self, img) -> Tensor:
        """Shared-weight feature extractor; both streams call this. Returns
        [grid * grid, dim] row-major tokens."""
        t = self.embed(img)
        for block in self.extract:
            t = block(t)
        return t

    def velocity(self, fix, mov) -> VectorField:
        fix_feat = self.extract_features(fix)
        mov_feat = self.extract_features(mov)
        if self.family == "swin_trans":
            t = mov_feat
            for block in self.cross:
                t = block(fix_feat, t)
        else:
            t = add(fix_feat, mov_feat)
            for block in self.cross:
                t = block(t)
        h = linear(t, self.head_w1, self.head_b1)
        h = gelu(h)
        h = linear(h, self.head_w2, self.head_b2)
        v = reshape(h, (self.grid, self.grid, 2))
        v = transpose(v, (2, 0, 1))
        return VectorField(v, VELOCITY)


def fuse_multiscale(fields: list[VectorField], weights: list[float]) -> VectorField:
    """Weighted sum of child velocities on the finest child grid.

    Coarser fields are resampled up (with unit conversion) before the sum.
    """
    if not fields:
        raise ContractError("fuse_multiscale needs at least one field")
    if len(fields) != len(weights):
        raise ContractError("one weight per field required")
    finest = max(fields, key=lambda f: f.height * f.width)
    th, tw = finest.height, finest.width
    acc: Tensor | None = None
    for f, w in zip(fields, weights):
        resampled = resample_field(f, th, tw) if (f.height, f.width) != (th, tw) else f
        term = cmul(resampled.data, float(w))
        acc = term if acc is None else add(acc, term)
    return VectorField(acc, fields[0].kind)


class RegistrationModel:
    """A configured family with its parameters; maps image pairs to fields.

    ``head_init='zeros'`` (default) starts at the identity transform;
    ``'random'`` is used by the gradient checker, which must evaluate at
    a generic point (at exactly zero displacement the bilinear warp sits
    on an interpolation-cell corner where central differences straddle a
    derivative kink). ``values`` (parameter name -> array) replaces the
    seeded init, as when a checkpoint is loaded.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32, head_init: str = "zeros", values=None):
        config.validate()
        if head_init not in ("zeros", "random"):
            raise ConfigError(f"unknown head_init '{head_init}'")
        self.config = config
        self.params = ParamSet(config.seed, dtype=dtype, values=values)
        self.children = [
            ChildModel(self.params, f"child{i}", config, scale, head_init)
            for i, scale in enumerate(config.scales)
        ]
        self.weights = [s.weight for s in config.scales]

    @property
    def dtype(self):
        return self.params.dtype

    def check_images(self, fix, mov) -> tuple[np.ndarray, np.ndarray]:
        """The images as constants: numpy arrays in the model dtype."""
        s = self.config.image_size
        fix, mov = np.asarray(fix, dtype=self.dtype), np.asarray(mov, dtype=self.dtype)
        for a in (fix, mov):
            if a.shape != (s, s):
                raise DimensionError(f"expected {s}x{s} images, got {a.shape}")
        return fix, mov

    def child_velocities(self, fix, mov) -> list[VectorField]:
        fix, mov = self.check_images(fix, mov)
        return [c.velocity(fix, mov) for c in self.children]

    def fused_velocity(self, fix, mov) -> VectorField:
        return fuse_multiscale(self.child_velocities(fix, mov), self.weights)

    def displacement(self, v: VectorField) -> VectorField:
        """exp(v) by scaling and squaring, resampled to image resolution."""
        s = self.config.image_size
        return resample_field(integrate_svf(v, self.config.integration_steps), s, s)

    def register(self, fix, mov) -> RegistrationResult:
        """Full pipeline: fused velocity, forward and inverse displacement
        at image resolution. Differentiable end to end."""
        v = self.fused_velocity(fix, mov)
        return RegistrationResult(
            velocity=v,
            disp_forward=self.displacement(v),
            disp_inverse=self.displacement(VectorField(neg(v.data), v.kind)),
        )


def init_model(config: ModelConfig, dtype=np.float32, head_init: str = "zeros") -> RegistrationModel:
    """Build a model with deterministic seeded parameters (see
    :class:`RegistrationModel` for ``head_init``)."""
    return RegistrationModel(config, dtype=dtype, head_init=head_init)


# ---------------------------------------------------------------------------
# shipped presets


_PLAIN_SCALES = [
    ScaleConfig(patch=4, weight=0.5),
    ScaleConfig(patch=8, weight=0.3),
    ScaleConfig(patch=16, weight=0.2),
]
_SWIN_SCALES = [
    ScaleConfig(patch=4, window=8, heads=32, weight=0.5),
    ScaleConfig(patch=8, window=4, heads=16, weight=0.3),
    ScaleConfig(patch=16, window=2, heads=8, weight=0.2),
]


def _desk(family: str, scale: ScaleConfig) -> ModelConfig:
    return ModelConfig(family=family, scales=[scale], dim=16, depth_extract=1, depth_cross=1, image_size=64)


# ``*_s`` are single-scale (patch 4), ``*_m`` multi-scale with patches
# 4/8/16 and fusion weights 0.5/0.3/0.2; swin variants use windows 8/4/2
# with 32/16/8 heads. ``*_desk`` are small CPU test presets.
_PRESETS = {
    "pure_mlp_s": ModelConfig(family="pure_mlp", scales=[ScaleConfig(patch=4)]),
    "mlp_mixer_s": ModelConfig(family="mlp_mixer", scales=[ScaleConfig(patch=4)]),
    "swin_trans_s": ModelConfig(family="swin_trans", scales=[ScaleConfig(patch=4, window=8, heads=32)]),
    "pure_mlp_m": ModelConfig(family="pure_mlp", scales=_PLAIN_SCALES),
    "mlp_mixer_m": ModelConfig(family="mlp_mixer", scales=_PLAIN_SCALES),
    "swin_trans_m": ModelConfig(family="swin_trans", scales=_SWIN_SCALES),
    "pure_mlp_desk": _desk("pure_mlp", ScaleConfig(patch=4)),
    "mlp_mixer_desk": _desk("mlp_mixer", ScaleConfig(patch=4)),
    "swin_trans_desk": _desk("swin_trans", ScaleConfig(patch=4, window=4, heads=4)),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ModelConfig:
    """A fresh copy of the named shipped model configuration (see ``PRESET_NAMES``)."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r} (available: {sorted(_PRESETS)})")
    return copy.deepcopy(_PRESETS[name])


# ---------------------------------------------------------------------------
# checkpoints ("PRCK": magic, u32 header length, JSON header, f32 LE payload)

_CKPT_MAGIC = b"PRCK"


class CheckpointError(ValueError):
    """Checkpoint file is malformed or fails its integrity hash."""


def save_checkpoint(model: RegistrationModel, path) -> None:
    names = model.params.names()
    payload = b"".join(
        np.ascontiguousarray(model.params[n].data, dtype="<f4").tobytes() for n in names
    )
    header = {
        "format_version": 1,
        "config": config_to_dict(model.config),
        "params": [[n, list(model.params[n].shape)] for n in names],
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path) -> RegistrationModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
        hlen = fh.read(4)
        if len(hlen) != 4:
            raise CheckpointError(f"{path}: truncated header length")
        try:
            header = json.loads(fh.read(struct.unpack("<I", hlen)[0]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: unreadable header ({e})") from e
        payload = fh.read()
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [key for key in ("sha256", "config", "params") if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CheckpointError(f"{path}: payload hash mismatch, file corrupt")
    try:
        config = ModelConfig.from_dict(header["config"])
        offset = 0
        arrays: dict[str, np.ndarray] = {}
        for name, shape in header["params"]:
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f4", count=n, offset=offset)
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name!r} holds non-finite values")
            arrays[name] = arr.reshape(shape)
            offset += n * 4
        if offset != len(payload):
            raise ValueError("payload size does not match parameter table")
        # the stored arrays stand in for the seeded init, which is never
        # drawn; building the model pops every array it uses
        model = RegistrationModel(config, values=arrays)
        if arrays:
            raise ValueError("parameter names do not match the stored config")
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e})") from e
    return model
