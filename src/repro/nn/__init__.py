"""A self-contained numpy-based neural-network framework.

This package replaces PyTorch (which the original paper used) as the training
substrate: tensors with reverse-mode autograd, the layers the preset models
use, optimizers and checkpointing.  Losses are functional
(:func:`repro.nn.functional.cross_entropy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".tensor": (
        "Tensor",
        "no_grad",
        "is_grad_enabled",
    ),
    ".module": ("Module", "Parameter", "Sequential"),
    ".layers": (
        "Linear",
        "Conv2d",
        "ReLU",
        "MaxPool2d",
        "Flatten",
    ),
    ".optim": (
        "Optimizer",
        "SGD",
        "Adam",
        "AdamW",
        "clip_grad_norm_per_chip",
    ),
    ".serialization": (
        "save_checkpoint",
        "load_checkpoint",
        "clone_state_dict",
    ),
    ".": ("functional", "init"),
})
