"""Model zoo: MLP, LeNet-5 and the paper's VGG11."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".mlp": ("MLP",),
    ".lenet": ("LeNet5",),
    ".vgg": ("VGG", "VGG11_CONFIG", "vgg11"),
    ".registry": ("available_models", "build_model"),
})
