"""Small convolutional networks for the synthetic image-classification tasks.

Kept deliberately tiny so they are trainable in seconds with the NumPy
backend; the distinction that matters for the paper's experiments — the
communication/computation ratio of the model — is configured at the
experiment level, not baked into the architecture.
"""

from __future__ import annotations

from repro.nn.layers import AvgPool2d, Classifier, Conv2d, Flatten, Linear, MaxPool2d, Module, ReLU, Sequential
from repro.nn.tensor import Tensor
from repro.utils.seeding import SeedSequence, check_random_state

__all__ = ["SmallCNN", "vgg_lite_cnn"]


class SmallCNN(Classifier):
    """Conv → ReLU → Pool stages followed by a linear classifier head.

    Parameters
    ----------
    in_channels, image_size:
        Geometry of the (square) input images, NCHW layout.
    channels:
        Output channel counts of the successive conv stages.
    n_classes:
        Number of output classes.
    pool:
        ``"max"`` or ``"avg"`` pooling after each stage.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 8,
        channels: tuple[int, ...] = (8, 16),
        n_classes: int = 10,
        pool: str = "max",
        rng=None,
    ):
        super().__init__()
        if pool not in ("max", "avg"):
            raise ValueError(f"pool must be 'max' or 'avg', got {pool!r}")
        gen = check_random_state(rng)
        seeds = SeedSequence(int(gen.integers(0, 2**31 - 1)))

        stages: list[Module] = []
        prev_c = in_channels
        size = image_size
        for c in channels:
            stages.append(Conv2d(prev_c, c, kernel_size=3, padding=1, rng=seeds.generator()))
            stages.append(ReLU())
            stages.append(MaxPool2d(2) if pool == "max" else AvgPool2d(2))
            prev_c = c
            size //= 2
            if size < 1:
                raise ValueError("image_size too small for the number of pooling stages")
        stages.append(Flatten())
        self.features = Sequential(*stages)
        self.classifier = Linear(prev_c * size * size, n_classes, rng=seeds.generator())
        self.in_channels = in_channels
        self.image_size = image_size
        self.n_classes = n_classes

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim == 3:
            # Accept stacked flat inputs (m, B, F) and view them as NCHW.
            m, b = x.shape[0], x.shape[1]
            x = x.reshape(m, b, self.in_channels, self.image_size, self.image_size)
        elif x.ndim != 5:
            raise ValueError(f"SmallCNN bank_forward expects (m, B, F) or (m, B, C, H, W), got {x.shape}")
        h = self.features.bank_forward(x, params, f"{prefix}features.")
        return self.classifier.bank_forward(h, params, f"{prefix}classifier.")


def vgg_lite_cnn(n_classes: int = 10, image_size: int = 8, rng=None) -> SmallCNN:
    """Wider CNN (more parameters → larger communication payload)."""
    return SmallCNN(in_channels=3, image_size=image_size, channels=(16, 32), n_classes=n_classes, rng=rng)
