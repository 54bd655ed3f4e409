"""Model zoo: classification networks and synthetic objectives.

The paper's two workloads differ chiefly in their communication/computation
ratio α = D/Y (Figure 8): VGG-16 is communication-heavy (α ≈ 4), ResNet-50
is compute-heavy (α < 1).  The zoo provides NumPy-trainable stand-ins —
``vgg_lite`` (a wide MLP/CNN with a large parameter count relative to its
FLOPs) and ``resnet_lite`` (a narrow residual MLP) — plus convex
objectives (quadratics and logistic regression) with analytically known
Lipschitz constants and gradient-noise levels for validating the theory.
"""

from repro.models.linear import SoftmaxRegression, LinearRegressionModel
from repro.models.mlp import MLP, build_mlp, vgg_lite_mlp, resnet_lite_mlp
from repro.models.cnn import SmallCNN, vgg_lite_cnn
from repro.models.quadratic import QuadraticObjective, NoisyQuadraticProblem
from repro.models.registry import build_model, available_models

__all__ = [
    "SoftmaxRegression",
    "LinearRegressionModel",
    "MLP",
    "build_mlp",
    "vgg_lite_mlp",
    "resnet_lite_mlp",
    "SmallCNN",
    "vgg_lite_cnn",
    "QuadraticObjective",
    "NoisyQuadraticProblem",
    "build_model",
    "available_models",
]
