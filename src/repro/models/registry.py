"""Named model registry used by the experiment configs and example scripts.

Backed by the shared :data:`repro.api.registries.MODELS` registry.  Builders
are registered with *inspectable signatures* so the harness can hand every
builder one superset of keyword arguments (``n_features``, ``n_classes``,
``hidden_sizes``, ``rng``) and let :func:`repro.api.filter_kwargs` drop the
ones a particular architecture does not take.

The CNN builders additionally adapt their input geometry: given a flat
feature count they infer an ``(in_channels, image_size)`` pair so any
registered dataset — not just the 3×8×8 synthetic CIFAR stand-in — can feed
them.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.api.registries import MODELS
from repro.models.cnn import SmallCNN
from repro.models.linear import LinearRegressionModel, SoftmaxRegression
from repro.models.mlp import MLP, resnet_lite_mlp, vgg_lite_mlp

__all__ = ["build_model", "available_models", "register_model", "infer_image_geometry"]


def register_model(name: str, builder: Callable, *, overwrite: bool = False) -> None:
    """Register a model builder ``(**kwargs) -> Module`` under ``name``.

    Raises ``ValueError`` (listing the registered names) on duplicates unless
    ``overwrite=True``.
    """
    MODELS.register(name, builder, overwrite=overwrite)


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return MODELS.names()


def build_model(name: str, **kwargs):
    """Instantiate a registered model by name.

    Examples
    --------
    >>> model = build_model("softmax", n_features=16, n_classes=4, rng=0)
    >>> model.num_parameters() > 0
    True
    """
    return MODELS.build(name, **kwargs)


def infer_image_geometry(
    n_features: int, image_size: int | None = None, in_channels: int | None = None
) -> tuple[int, int]:
    """The ``(in_channels, image_size)`` pair a CNN views ``n_features`` flat features as.

    Explicit geometry wins (a missing half is 3 channels or size 8) and must
    hold exactly ``n_features``.  Otherwise tries RGB-like 3-channel square
    images first, then single-channel ones.  Raises ``ValueError`` when
    nothing fits, so CNN models fail with a clear message instead of a
    reshape error deep in the forward pass (and ``validate()`` before
    anything runs).
    """
    if image_size is not None or in_channels is not None:
        in_channels = 3 if in_channels is None else in_channels
        image_size = 8 if image_size is None else image_size
        if in_channels * image_size * image_size != n_features:
            raise ValueError(
                f"CNN geometry {in_channels}x{image_size}x{image_size} does not match "
                f"the {n_features} flat features of the dataset"
            )
        return in_channels, image_size
    for channels in (3, 1):
        if n_features % channels:
            continue
        size = math.isqrt(n_features // channels)
        if size >= 2 and channels * size * size == n_features:
            return channels, size
    raise ValueError(
        f"cannot view {n_features} features as a square image "
        f"(need 3*s*s or 1*s*s with s >= 2); use an MLP model or adjust n_features"
    )


def _adaptive_cnn(channels: tuple[int, ...]) -> Callable:
    def build(
        n_features: int | None = None,
        n_classes: int = 10,
        image_size: int | None = None,
        in_channels: int | None = None,
        rng=None,
    ) -> SmallCNN:
        # The geometry the flat features fit; without features, the 3×8×8
        # synthetic-CIFAR default (or what is given).
        if n_features is not None:
            in_channels, image_size = infer_image_geometry(n_features, image_size, in_channels)
        in_channels = 3 if in_channels is None else in_channels
        image_size = 8 if image_size is None else image_size
        # Drop pooling stages that would shrink the image below 1×1.
        max_stages = max(1, int(math.log2(image_size)))
        return SmallCNN(
            in_channels=in_channels,
            image_size=image_size,
            channels=channels[:max_stages],
            n_classes=n_classes,
            rng=rng,
        )

    return build


register_model("softmax", SoftmaxRegression)
register_model("linear_regression", LinearRegressionModel)
register_model("mlp", MLP)
register_model("vgg_lite_mlp", vgg_lite_mlp)
register_model("resnet_lite_mlp", resnet_lite_mlp)
register_model("vgg_lite_cnn", _adaptive_cnn(channels=(16, 32)))
