"""Minimal float64 neural-network kernel with hand-written backprop."""

from .params import Adam, ParamSet
from .gradcheck import finite_difference_grads, gradient_relative_error
from .models import EncoderConfig, FeatureEncoder, MlpNet, PolicyNet, ValueNet

__all__ = [
    "Adam",
    "ParamSet",
    "finite_difference_grads",
    "gradient_relative_error",
    "EncoderConfig",
    "FeatureEncoder",
    "MlpNet",
    "PolicyNet",
    "ValueNet",
]
