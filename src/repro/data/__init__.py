"""Datasets, loaders and synthetic data generators."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".dataset": ("TensorDataset",),
    ".dataloader": ("DataLoader",),
    ".synthetic": ("DatasetBundle", "make_class_template_images"),
})
