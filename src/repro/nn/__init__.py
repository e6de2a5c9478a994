"""A self-contained numpy-based neural-network framework.

This package replaces PyTorch (which the original paper used) as the training
substrate: tensors, the layers the preset models use, the kernels the
stacked trainer's layer program runs (:mod:`repro.nn.functional`,
:mod:`repro.nn.tensor`), optimizers and checkpointing.  The training loop
and its loss are :class:`repro.accelerator.batched.BatchedFaultTrainer`'s.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".tensor": ("Tensor",),
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
