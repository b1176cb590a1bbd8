"""Dataset ingestion: IDX and CIFAR binary formats, permutations, splits, synthetic blobs.

File formats are handled bit-exactly:

  IDX images   magic 0x00000803, big-endian, dims (N, H, W), then raw bytes
  IDX labels   magic 0x00000801, big-endian, dim (N,), then raw bytes
  CIFAR-10     3073-byte records: 1 label byte + 3072 channel-major pixels
  CIFAR-100    3074-byte records: coarse + fine label bytes + 3072 pixels

Pixels are scaled by 1/255 into [0, 1]; no mean/std standardization.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DatasetError(Exception):
    """Base class for ingestion failures."""


class BadMagicError(DatasetError):
    pass


class TruncatedFileError(DatasetError):
    pass


class CountMismatchError(DatasetError):
    pass


class RecordLengthError(DatasetError):
    pass


@dataclass
class Dataset:
    """Immutable-by-convention image corpus in [N, C, H, W] float32, values in [0, 1]."""

    images: np.ndarray
    labels: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DatasetError(f"images must be [N,C,H,W], got shape {self.images.shape}")
        if self.images.shape[0] != self.labels.shape[0]:
            raise CountMismatchError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )

    @property
    def num_samples(self) -> int:
        return int(self.images.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_bytes(path) -> bytes:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


# ---------------------------------------------------------------------------
# IDX


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (plain or .gz)."""
    raw_images = _read_bytes(images_path)
    raw_labels = _read_bytes(labels_path)

    if len(raw_images) < 16:
        raise TruncatedFileError(f"{images_path}: too short for an IDX image header")
    magic, n, h, w = struct.unpack(">IIII", raw_images[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise BadMagicError(f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + n * h * w
    if len(raw_images) != expected:
        raise TruncatedFileError(
            f"{images_path}: expected {expected} bytes for {n} images of {h}x{w}, found {len(raw_images)}"
        )

    if len(raw_labels) < 8:
        raise TruncatedFileError(f"{labels_path}: too short for an IDX label header")
    lmagic, ln = struct.unpack(">II", raw_labels[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise BadMagicError(f"{labels_path}: magic 0x{lmagic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw_labels) != 8 + ln:
        raise TruncatedFileError(
            f"{labels_path}: expected {8 + ln} bytes for {ln} labels, found {len(raw_labels)}"
        )
    if n != ln:
        raise CountMismatchError(f"{n} images but {ln} labels")

    pixels = np.frombuffer(raw_images, dtype=np.uint8, offset=16)
    images = (pixels.astype(np.float32) / np.float32(255.0)).reshape(n, 1, h, w)
    labels = np.frombuffer(raw_labels, dtype=np.uint8, offset=8).astype(np.int64)
    provenance = {
        "format": "idx",
        "files": {
            str(images_path): file_sha256(images_path),
            str(labels_path): file_sha256(labels_path),
        },
        "normalization": "scale_1_255",
    }
    return Dataset(images, labels, provenance=provenance)


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


# ---------------------------------------------------------------------------
# CIFAR binary


def load_cifar(binary_paths: Sequence, variant: str) -> Dataset:
    """Load CIFAR-10/100 binary batch files (channel-major 3x32x32 records)."""
    if variant not in ("cifar10", "cifar100"):
        raise ValueError(f"variant must be 'cifar10' or 'cifar100', got {variant!r}")
    record_len = 3073 if variant == "cifar10" else 3074
    label_offset = 0 if variant == "cifar10" else 1  # cifar100 keeps the fine label

    all_images = []
    all_labels = []
    files = {}
    for path in binary_paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % record_len:
            raise RecordLengthError(
                f"{path}: {len(raw)} bytes is not a multiple of the {record_len}-byte record"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record_len)
        all_labels.append(records[:, label_offset].astype(np.int64))
        pix = records[:, record_len - 3072 :].astype(np.float32) / np.float32(255.0)
        all_images.append(pix.reshape(-1, 3, 32, 32))
        files[str(path)] = file_sha256(path)

    provenance = {"format": variant, "files": files, "normalization": "scale_1_255"}
    return Dataset(np.concatenate(all_images), np.concatenate(all_labels), provenance=provenance)


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


# ---------------------------------------------------------------------------
# pixel permutations


@dataclass(frozen=True)
class PermutationSet:
    """Per-task pixel permutations; task 1 is always the identity."""

    perms: tuple[np.ndarray, ...]


def make_permutations(num_tasks: int, seed: int, num_pixels: int = 28 * 28) -> PermutationSet:
    if num_tasks < 1:
        raise ValueError("num_tasks must be >= 1")
    rng = np.random.default_rng(seed)
    perms = [np.arange(num_pixels)]
    for _ in range(num_tasks - 1):
        perms.append(rng.permutation(num_pixels))
    return PermutationSet(tuple(perms))


# ---------------------------------------------------------------------------
# splits


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train, val) index arrays with |train| = floor(fraction * n)."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    k = int(np.floor(fraction * n))
    if k == 0 or k == n:
        raise DatasetError(
            f"task too small: {n} samples cannot be split {fraction:.0%}/{1 - fraction:.0%}"
        )
    return perm[:k], perm[k:]


# ---------------------------------------------------------------------------
# synthetic corpus


def synthetic_dataset(
    num_classes: int,
    per_class: int,
    shape: Sequence[int] = (1, 8, 8),
    seed: int = 0,
    sigma: float = 0.05,
    amplitude: float = 0.25,
    pattern_seed: int | None = None,
) -> Dataset:
    """Gaussian blobs around class-specific sign patterns, clipped to [0, 1].

    Class c gets mean 0.5 + (amplitude/2) * s_c with s_c a random +/-1
    pattern, so two class means differ by `amplitude` on about half the
    pixels: mean separation ~= amplitude * sqrt(d/2), which dwarfs 4*sigma
    at the defaults for any d >= 8. Labels are exactly balanced and the
    whole corpus is a pure function of the seeds.

    ``pattern_seed`` fixes the class means independently of the sampling
    noise, so a train/test pool pair shares its class structure by using
    the same pattern_seed with different seeds.
    """
    if per_class < 2:
        raise ValueError("per_class must be >= 2")
    shape = tuple(int(v) for v in shape)
    d = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    pattern_rng = np.random.default_rng(seed if pattern_seed is None else pattern_seed)
    signs = pattern_rng.integers(0, 2, size=(num_classes, d)).astype(np.float32) * 2 - 1
    means = 0.5 + (amplitude / 2.0) * signs

    images = np.empty((num_classes * per_class, d), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        noise = rng.normal(0.0, sigma, size=(per_class, d)).astype(np.float32)
        images[lo : lo + per_class] = means[c] + noise
        labels[lo : lo + per_class] = c
    np.clip(images, 0.0, 1.0, out=images)
    provenance = {
        "format": "synthetic",
        "seed": int(seed),
        "pattern_seed": int(seed if pattern_seed is None else pattern_seed),
        "sigma": sigma,
        "amplitude": amplitude,
        "normalization": "scale_1_255",
    }
    return Dataset(images.reshape(-1, *shape), labels, provenance=provenance)
