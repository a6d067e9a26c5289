"""NumPy autograd CNN substrate (the reproduction's PyTorch replacement)."""

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.layers import (
    Module,
    Identity,
    ReLU,
    Flatten,
    Sequential,
    Conv2d,
    Linear,
    BatchNorm2d,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Dropout,
)
from repro.nn.loss import cross_entropy, mse_loss, accuracy, top_k_accuracy
from repro.nn.optim import SGD, Adam, StepLR, CosineLR
from repro.nn.trainer import Trainer, TrainHistory, evaluate, iterate_minibatches
from repro.nn import functional

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Identity",
    "ReLU",
    "Flatten",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "cross_entropy",
    "mse_loss",
    "accuracy",
    "top_k_accuracy",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "Trainer",
    "TrainHistory",
    "evaluate",
    "iterate_minibatches",
    "functional",
]
