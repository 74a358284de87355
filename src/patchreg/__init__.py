"""Unsupervised diffeomorphic 2D image registration with patch-based
MLP, MLP-Mixer and windowed cross-attention networks."""

from .gradcore import ParamSet, Tensor, backward, grad_check
from .models import (
    ModelConfig,
    RegistrationModel,
    RegistrationResult,
    ScaleConfig,
    init_model,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from .svf import (
    VectorField,
    compose_displacements,
    integrate_svf,
    jacobian_determinant,
    resample_field,
    warp_image,
)
from .training import TrainConfig, symmetric_loss, train

__all__ = [
    "ModelConfig",
    "ParamSet",
    "RegistrationModel",
    "RegistrationResult",
    "ScaleConfig",
    "Tensor",
    "TrainConfig",
    "VectorField",
    "backward",
    "compose_displacements",
    "grad_check",
    "init_model",
    "integrate_svf",
    "jacobian_determinant",
    "load_checkpoint",
    "preset",
    "resample_field",
    "save_checkpoint",
    "symmetric_loss",
    "train",
    "warp_image",
]
