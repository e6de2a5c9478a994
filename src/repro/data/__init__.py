"""Datasets, loaders and synthetic data generators."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".dataset": (
        "Dataset",
        "TensorDataset",
        "Subset",
        "TransformedDataset",
        "random_split",
        "stratified_split",
    ),
    ".dataloader": ("DataLoader", "full_batch"),
    ".synthetic": (
        "DatasetBundle",
        "make_class_template_images",
        "make_cifar10_like",
        "make_blob_classification",
    ),
})
