"""Task partitioning and sequence construction over loaded datasets."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, make_permutations, split_indices
from .seeding import TAG_PERM, TAG_SPLIT, derive_seed


@dataclass(frozen=True)
class Task:
    """One task: a class subset with train/val/test index lists into the pools."""

    index: int  # 1-based position in the training order
    class_ids: tuple[int, ...]
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    pixel_permutation: np.ndarray | None = None

    def local_labels(self, labels: np.ndarray) -> np.ndarray:
        """Map dataset class ids to head outputs: class_ids[i] is output i."""
        labels = np.asarray(labels, dtype=np.int64)
        lut = np.full(max(self.class_ids) + 1, -1, dtype=np.int64)
        for i, cid in enumerate(self.class_ids):
            lut[cid] = i
        if ((labels < 0) | (labels >= lut.size)).any() or (lut[labels] < 0).any():
            bad = sorted(set(int(v) for v in labels) - set(self.class_ids))
            raise ValueError(f"labels {bad} do not belong to this task")
        return lut[labels]


@dataclass
class TaskSequence:
    """Ordered tasks over a train pool (train/val indices) and a test pool.

    Class-split sequences give each task its own classes. Permuted
    sequences give every task all classes under its own fixed pixel
    permutation; the task identity disambiguates.
    """

    train_pool: Dataset
    test_pool: Dataset
    tasks: list[Task]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)


def partition_classes(num_classes: int, num_tasks: int, order="default") -> list[tuple[int, ...]]:
    """Contiguous equal-size class groups over the given order.

    "default" means ascending class id. When num_classes is not divisible
    by num_tasks the last task absorbs the remainder.
    """
    if num_tasks < 1:
        raise ValueError("num_tasks must be >= 1")
    if num_tasks > num_classes:
        raise ValueError(f"num_tasks {num_tasks} exceeds num_classes {num_classes}")
    if isinstance(order, str):
        if order != "default":
            raise ValueError(f"unknown class order {order!r}")
        ids = list(range(num_classes))
    else:
        ids = [int(c) for c in order]
        if sorted(ids) != list(range(num_classes)):
            counts = Counter(ids)
            problems = [
                f"{found} {what}"
                for found, what in (
                    (sorted(c for c, k in counts.items() if k > 1), "repeated"),
                    (sorted(set(range(num_classes)) - counts.keys()), "missing"),
                    (sorted(c for c in counts if not 0 <= c < num_classes), "out of range"),
                )
                if found
            ]
            raise ValueError(
                f"class order must be a permutation of 0..{num_classes - 1} "
                f"({num_classes} classes); {', '.join(problems)}"
            )
    size = num_classes // num_tasks
    groups = []
    for t in range(num_tasks):
        lo = t * size
        hi = (t + 1) * size if t < num_tasks - 1 else num_classes
        groups.append(tuple(ids[lo:hi]))
    return groups


def reorder_groups(groups: Sequence[Sequence[int]], order: Sequence[int]) -> list[tuple[int, ...]]:
    """Reorder task groups by a permutation of task positions."""
    if sorted(int(i) for i in order) != list(range(len(groups))):
        raise ValueError(
            f"order must be a permutation of 0..{len(groups) - 1}, got {list(order)}"
        )
    return [tuple(groups[int(i)]) for i in order]


# share of a task's training-pool samples it trains on; the rest is its val split
TRAIN_FRACTION = 0.85


def _build_tasks(train_pool: Dataset, test_pool: Dataset, specs, master_seed: int) -> TaskSequence:
    """One task per (class ids, pixel permutation or None) in ``specs``, in training order."""
    tasks = []
    for t, (classes, perm) in enumerate(specs, start=1):
        candidates = np.flatnonzero(np.isin(train_pool.labels, classes))
        seed = derive_seed(master_seed, TAG_SPLIT, t)
        rel_train, rel_val = split_indices(candidates.size, TRAIN_FRACTION, seed)
        test_idx = np.flatnonzero(np.isin(test_pool.labels, classes))
        if not test_idx.size:  # evaluating the task would divide by zero
            raise ValueError(f"task {t}: classes {classes} have no test samples")
        tasks.append(Task(t, classes, candidates[rel_train], candidates[rel_val], test_idx, perm))
    return TaskSequence(train_pool, test_pool, tasks)


def build_split_sequence(
    train_pool: Dataset,
    test_pool: Dataset,
    groups: Sequence[Sequence[int]],
    master_seed: int,
) -> TaskSequence:
    """One task per disjoint class group, pixels as loaded."""
    groups = [tuple(int(c) for c in g) for g in groups]
    counts = Counter(c for g in groups for c in g)
    repeated = sorted(c for c, k in counts.items() if k > 1)
    if repeated:
        raise ValueError(f"class sets must be disjoint; {repeated} repeated")
    for t, classes in enumerate(groups, start=1):
        if np.count_nonzero(np.isin(train_pool.labels, classes)) < 2:
            raise ValueError(f"task {t}: classes {classes} have too few training samples")
    return _build_tasks(train_pool, test_pool, [(g, None) for g in groups], master_seed)


def build_permuted_sequence(
    train_pool: Dataset,
    test_pool: Dataset,
    num_tasks: int,
    master_seed: int,
) -> TaskSequence:
    """Permuted-pixel tasks: every class in each task, task 1 unpermuted."""
    c, h, w = train_pool.image_shape
    perms = make_permutations(num_tasks, derive_seed(master_seed, TAG_PERM), num_pixels=h * w)
    classes = tuple(range(train_pool.num_classes))
    return _build_tasks(train_pool, test_pool, [(classes, p) for p in perms], master_seed)


def task_arrays(seq: TaskSequence, task: Task, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (images, dataset labels) for one split of one task."""
    if split in ("train", "val"):
        pool = seq.train_pool
        idx = task.train_idx if split == "train" else task.val_idx
    elif split == "test":
        pool = seq.test_pool
        idx = task.test_idx
    else:
        raise ValueError(f"split must be train/val/test, got {split!r}")
    images = pool.images[idx]
    if task.pixel_permutation is not None:
        n, c, h, w = images.shape
        images = images.reshape(n, c, h * w)[:, :, task.pixel_permutation].reshape(n, c, h, w)
    return images, pool.labels[idx]
