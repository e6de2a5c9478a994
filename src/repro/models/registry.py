"""Model registry: build the preset models by name with uniform arguments.

Experiment presets reference models by name (``"mlp"``, ``"lenet5"``,
``"vgg11"``) so that the same experiment runner works for each of them.  A
builder imports its model module only when called, so a process loads only
the architecture it builds.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro import nn
from repro.utils.rng import SeedLike


def _build_mlp(input_shape, num_classes, seed=0, hidden_sizes=(128, 64)):
    from repro.models.mlp import MLP

    features = 1
    for dim in input_shape:
        features *= int(dim)
    return MLP(features, num_classes, hidden_sizes=hidden_sizes, seed=seed)


def _build_lenet(input_shape, num_classes, seed=0):
    from repro.models.lenet import LeNet5

    return LeNet5(input_shape=input_shape, num_classes=num_classes, seed=seed)


def _build_vgg11(input_shape, num_classes, seed=0, width_multiplier=1.0):
    from repro.models.vgg import vgg11

    return vgg11(
        input_shape=input_shape,
        num_classes=num_classes,
        width_multiplier=width_multiplier,
        seed=seed,
    )


_BUILDERS: Dict[str, Callable[..., nn.Module]] = {
    "mlp": _build_mlp,
    "lenet5": _build_lenet,
    "vgg11": _build_vgg11,
}


def available_models() -> Tuple[str, ...]:
    """Names of all buildable models."""
    return tuple(sorted(_BUILDERS))


def build_model(
    name: str,
    input_shape: Sequence[int],
    num_classes: int,
    seed: SeedLike = 0,
    **kwargs,
) -> nn.Module:
    """Build a model by name.

    ``input_shape`` is ``(C, H, W)`` for convolutional models or ``(F,)`` for
    MLPs; extra keyword arguments are forwarded to the underlying builder.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {', '.join(available_models())}")
    return _BUILDERS[key](input_shape=tuple(input_shape), num_classes=num_classes, seed=seed, **kwargs)
