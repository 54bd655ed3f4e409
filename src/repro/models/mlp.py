"""Multi-layer perceptrons, including the vgg-lite / resnet-lite stand-ins.

The names ``vgg_lite_mlp`` / ``resnet_lite_mlp`` are deliberate: the paper
distinguishes VGG-16 from ResNet-50 only through their communication /
computation profiles, so the stand-ins differ in width (parameter count,
which drives the communication delay ``D0`` assigned by the experiment
configs) rather than trying to mimic the exact architectures.
"""

from __future__ import annotations

from repro.nn.layers import BatchNorm1d, Classifier, Dropout, Linear, Module, ReLU, Residual, Sequential, Tanh
from repro.nn.tensor import Tensor
from repro.utils.seeding import SeedSequence, check_random_state

__all__ = ["MLP", "build_mlp", "vgg_lite_mlp", "resnet_lite_mlp"]


class MLP(Classifier):
    """Fully connected classifier with configurable hidden sizes.

    Parameters
    ----------
    n_features, n_classes:
        Input dimensionality and number of output classes.
    hidden_sizes:
        Sequence of hidden-layer widths, e.g. ``(128, 64)``.
    activation:
        ``"relu"`` or ``"tanh"``.
    dropout:
        Dropout probability applied after each hidden activation (0 disables).
    batch_norm:
        Whether to insert BatchNorm1d after each hidden linear layer.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        hidden_sizes: tuple[int, ...] = (128,),
        activation: str = "relu",
        dropout: float = 0.0,
        batch_norm: bool = False,
        rng=None,
    ):
        super().__init__()
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        gen = check_random_state(rng)
        seeds = SeedSequence(int(gen.integers(0, 2**31 - 1)))

        layers: list[Module] = []
        prev = n_features
        for width in hidden_sizes:
            layers.append(Linear(prev, width, rng=seeds.generator()))
            if batch_norm:
                layers.append(BatchNorm1d(width))
            layers.append(ReLU() if activation == "relu" else Tanh())
            if dropout > 0:
                layers.append(Dropout(dropout, rng=seeds.generator()))
            prev = width
        layers.append(Linear(prev, n_classes, rng=seeds.generator()))

        self.n_features = n_features
        self.n_classes = n_classes
        self.hidden_sizes = tuple(hidden_sizes)
        self.net = Sequential(*layers)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        x = self._as_bank_input(x)
        return self.net.bank_forward(x, params, f"{prefix}net.")


def build_mlp(n_features: int, n_classes: int, hidden_sizes=(128,), rng=None, **kwargs) -> MLP:
    """Convenience constructor used by the model registry."""
    return MLP(n_features, n_classes, hidden_sizes=tuple(hidden_sizes), rng=rng, **kwargs)


def vgg_lite_mlp(n_features: int = 256, n_classes: int = 10, rng=None) -> MLP:
    """Communication-heavy stand-in for VGG-16: wide layers, many parameters."""
    return MLP(n_features, n_classes, hidden_sizes=(512, 512, 256), rng=rng)


def resnet_lite_mlp(n_features: int = 256, n_classes: int = 10, rng=None) -> "ResidualMLP":
    """Compute-heavy stand-in for ResNet-50: narrow residual blocks."""
    return ResidualMLP(n_features, n_classes, width=96, n_blocks=3, rng=rng)


class ResidualMLP(Classifier):
    """MLP whose hidden layers are residual blocks ``x + ReLU(Linear(x))``."""

    def __init__(self, n_features: int, n_classes: int, width: int = 96, n_blocks: int = 3, rng=None):
        super().__init__()
        gen = check_random_state(rng)
        seeds = SeedSequence(int(gen.integers(0, 2**31 - 1)))
        self.n_features = n_features
        self.n_classes = n_classes
        self.stem = Linear(n_features, width, rng=seeds.generator())
        blocks: list[Module] = []
        for _ in range(n_blocks):
            blocks.append(
                Residual(Sequential(Linear(width, width, rng=seeds.generator()), ReLU()))
            )
        self.blocks = Sequential(*blocks)
        self.head = Linear(width, n_classes, rng=seeds.generator())

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        x = self._as_bank_input(x)
        h = self.stem.bank_forward(x, params, f"{prefix}stem.").relu()
        h = self.blocks.bank_forward(h, params, f"{prefix}blocks.")
        return self.head.bank_forward(h, params, f"{prefix}head.")
