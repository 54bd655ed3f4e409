"""A small reverse-mode autograd engine and neural-network layer library.

The paper trains VGG-16 and ResNet-50 in PyTorch; no GPU deep-learning stack
is available in this reproduction environment, so this package provides the
substrate from scratch: a NumPy-backed :class:`~repro.nn.tensor.Tensor` with
reverse-mode automatic differentiation, a ``Module`` hierarchy with the usual
layers (Linear, Conv2d, pooling, batch norm, activations), loss functions,
and initializers.  It is intentionally small but complete enough to train
multi-layer perceptrons and small convolutional networks on the synthetic
image-classification datasets in ``repro.data``.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import (
    Module,
    Linear,
    ReLU,
    Tanh,
    Sigmoid,
    Sequential,
    Flatten,
    Dropout,
    Conv2d,
    MaxPool2d,
    AvgPool2d,
    BatchNorm1d,
    Residual,
)
from repro.nn.losses import (
    cross_entropy,
    mse_loss,
    softmax,
    log_softmax,
    accuracy,
    bank_cross_entropy,
    bank_mse_loss,
)
from repro.nn.bank import ParameterBank, bank_compatible
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "Flatten",
    "Dropout",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "Residual",
    "cross_entropy",
    "mse_loss",
    "softmax",
    "log_softmax",
    "accuracy",
    "bank_cross_entropy",
    "bank_mse_loss",
    "ParameterBank",
    "bank_compatible",
    "init",
]
