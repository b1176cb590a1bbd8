"""Writers for IDX and CIFAR binary files, the inverses of santil's loaders.

Tests use them to put dataset fixtures on disk.
"""

from __future__ import annotations

import struct

import numpy as np

from santil.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset, DatasetError


def save_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Serialize back to IDX bytes; inverse of load_idx for its image encoding."""
    n, c, h, w = dataset.images.shape
    if c != 1:
        raise DatasetError(f"IDX stores single-channel images, got C={c}")
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def save_cifar(dataset: Dataset, path, variant: str) -> None:
    """Serialize to CIFAR binary records; coarse label written as 0 for cifar100."""
    if variant not in ("cifar10", "cifar100"):
        raise ValueError(f"variant must be 'cifar10' or 'cifar100', got {variant!r}")
    n, c, h, w = dataset.images.shape
    if (c, h, w) != (3, 32, 32):
        raise DatasetError(f"CIFAR records are 3x32x32, got {(c, h, w)}")
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8).reshape(n, 3072)
    labels = dataset.labels.astype(np.uint8)
    with open(path, "wb") as fh:
        for i in range(n):
            if variant == "cifar100":
                fh.write(bytes([0, labels[i]]))
            else:
                fh.write(bytes([labels[i]]))
            fh.write(pixels[i].tobytes())
