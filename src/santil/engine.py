"""Incremental-learning state machine: the strategy table, training loops, freezing.

Every network is backbone -> adjustment -> classifier. Strategies differ
only in their row of ``STRATEGY_TABLE``: which parts each task builds fresh
(the rest are built at task 1 and shared), whether what a task trained
freezes once the task is done, and how wide a fresh classifier head is.

  san          a fresh adjustment block per task between a backbone and a
               classifier that task 1 trains and then freezes.
  baseline     a fresh classifier head per task on the backbone and
               adjustment that task 1 trains and then freezes.
  finetune     one network, every parameter trainable at every task, single
               shared head sized to the largest task.
  independent  a fresh full network per task; the non-incremental ceiling.

All four build the identical task-1 model from the same seed, which makes
the strategies directly comparable and is asserted by tests.

A task's frozen prefix (the leading blocks of its path, classifier
excluded, whose parameters are all frozen) maps a fixed split to fixed
features. ``IncrementalState.features`` caches them per (task, split), so
the prefix runs once per split instead of once per epoch and per scoring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .layers import (
    ArchitectureSpec,
    Dense,
    ModelBlock,
    assert_frozen,
    build_block,
    extend_classifier,
    freeze,
    model_size,
    snapshot_block,
)
from .optim import Adam
from .seeding import (
    COMPONENT_ADJUST,
    COMPONENT_BACKBONE,
    COMPONENT_CLASSIFIER,
    TAG_INIT,
    TAG_SHUFFLE,
    derive_seed,
)
from .tasks import Task, TaskSequence, task_arrays
from .tensor import (
    Tape,
    Tensor,
    add,
    backward,
    flatten,
    leading_columns,
    orthogonality_penalty,
    reshape,
    scale,
    slice_rows,
    softmax_cross_entropy,
)


# Byte budget of the frozen-prefix feature cache, over all of its entries. An
# entry that does not fit is not stored, and its prefix runs per batch. At
# paper scale a split-MNIST run fits; a CIFAR-10 or permuted-MNIST task's
# training split (about 0.56 and 0.64 GB) does not.
_FEATURE_CACHE_BYTES = 256 << 20


class StrategyKind(str, Enum):
    SAN = "san"
    BASELINE = "baseline"
    FINETUNE = "finetune"
    INDEPENDENT = "independent"


SELECTION_MODES = ("best-val", "last")
PARTS = ("backbone", "adjust", "classifier")
_COMPONENTS = (COMPONENT_BACKBONE, COMPONENT_ADJUST, COMPONENT_CLASSIFIER)


@dataclass(frozen=True)
class StrategySpec:
    """One strategy as data.

    ``per_task``: the parts built fresh for every task; the others are built
    at task 1 and shared by every task.
    ``freezes``: whether every part on a task's path freezes once it is done.
    ``head``: the width of a fresh classifier. ``"widest"`` sizes it for the
    widest task of the sequence. Otherwise task 1's head is base_classes
    wide and a later task's is its class count (``"task"``) or at least
    base_classes (``"base"``). A shared head too narrow for a later task is
    extended instead.
    """

    per_task: tuple[str, ...]
    freezes: bool
    head: str

    def head_width(self, arch: ArchitectureSpec, seq: TaskSequence, task: Task) -> int:
        if self.head == "widest":
            return max(len(t.class_ids) for t in seq.tasks)
        if task.index == 1:
            return arch.base_classes
        n = len(task.class_ids)
        return n if self.head == "task" else max(arch.base_classes, n)


STRATEGY_TABLE = {
    StrategyKind.SAN: StrategySpec(per_task=("adjust",), freezes=True, head="base"),
    StrategyKind.BASELINE: StrategySpec(per_task=("classifier",), freezes=True, head="task"),
    StrategyKind.FINETUNE: StrategySpec(per_task=(), freezes=False, head="widest"),
    StrategyKind.INDEPENDENT: StrategySpec(per_task=PARTS, freezes=True, head="base"),
}


class UnknownTaskError(LookupError):
    pass


class UntrainedTaskError(RuntimeError):
    pass


class TrainingOrderError(RuntimeError):
    pass


class TrainingDivergedError(RuntimeError):
    """The training loss became NaN or infinite; the run cannot continue."""


@dataclass
class TrainLog:
    task_index: int
    epochs: int
    best_epoch: int
    val_accuracy: float
    train_seconds: float
    trainable_params: int


class IncrementalState:
    """Parameter store of one strategy over one task sequence.

    ``shared`` holds the parts built at task 1, ``per_task[t]`` the parts
    built for task t, ``prepared`` the number of tasks whose parts are
    built, and ``snapshot`` every frozen parameter as it was when it froze
    (a widened classifier is snapshotted again once its task ends). A
    task's head is the first ``len(task.class_ids)`` classifier outputs.
    ``features`` maps (task, split) to (prefix depth, features): the output
    of the task's first ``depth`` blocks for every sample of the split.
    """

    def __init__(
        self,
        strategy,
        arch: ArchitectureSpec,
        seq: TaskSequence,
        master_seed: int,
        ortho_alpha: float = 0.0,
    ):
        self.strategy = StrategyKind(strategy)
        self.spec = STRATEGY_TABLE[self.strategy]
        self.arch = arch
        self.seq = seq
        self.master_seed = int(master_seed)
        self.ortho_alpha = float(ortho_alpha)
        arch.validate()

        first = seq.tasks[0]
        width = self.spec.head_width(arch, seq, first)
        if len(first.class_ids) > width:
            raise ValueError(
                f"first task brings {len(first.class_ids)} classes but the classifier head "
                f"is only {width} wide; widen base_classes"
            )

        self.shared: dict[str, ModelBlock] = {}
        self.per_task: dict[int, dict[str, ModelBlock]] = {}
        self.prepared = 0
        self.snapshot: dict[str, np.ndarray] = {}
        self.features: dict[tuple[int, str], tuple[int, np.ndarray]] = {}
        self.trained_upto = 0
        self._active_task = 0

    # -- forward ------------------------------------------------------------

    def _forward_blocks(self, task_index: int) -> list[ModelBlock]:
        if not 1 <= task_index <= self.prepared:
            raise UnknownTaskError(f"unknown task {task_index} for strategy {self.strategy.value}")
        return [
            self.per_task[task_index][part] if part in self.spec.per_task else self.shared[part]
            for part in PARTS
        ]

    def embed(self, images: np.ndarray, task_index: int) -> np.ndarray:
        """Flattened pre-classifier feature embedding, one row per sample."""
        self._check_trained(task_index)
        backbone, adjust, _ = self._forward_blocks(task_index)
        out = adjust.forward(backbone.forward(Tensor(images))).data
        return out.reshape(out.shape[0], -1)

    def model_blocks(self) -> list[ModelBlock]:
        blocks = list(self.shared.values())
        for t in sorted(self.per_task):
            blocks.extend(self.per_task[t].values())
        return blocks

    def _check_trained(self, task_index: int) -> None:
        if not (1 <= task_index <= len(self.seq.tasks)):
            raise UnknownTaskError(f"task {task_index} not in sequence of {len(self.seq.tasks)}")
        if task_index > self.trained_upto and task_index != self._active_task:
            raise UntrainedTaskError(f"task {task_index} has not been trained yet")

    def verify_frozen(self) -> tuple[bool, str | None]:
        """Bitwise check of every snapshotted parameter; (ok, first drifted name)."""
        return assert_frozen(self.model_blocks(), self.snapshot)


# ---------------------------------------------------------------------------
# block construction and freezing per task


def prepare_task_blocks(state: IncrementalState, task: Task) -> None:
    """Build the parts the strategy table makes fresh for the task; widen a shared head it outgrows."""
    t = task.index
    if t > state.prepared + 1:
        raise TrainingOrderError(f"task {t} cannot be prepared before task {state.prepared + 1}")
    spec = state.spec
    arch = state.arch
    shape = arch.input_shape
    stacks = (arch.backbone, arch.adjustment, arch.classifier)
    for part, stack, component in zip(PARTS, stacks, _COMPONENTS):
        owner = state.per_task.setdefault(t, {}) if part in spec.per_task else state.shared
        if part not in owner:
            if part == "classifier":
                stack = stack[:-1] + (Dense(spec.head_width(arch, state.seq, task)),)
            name = part if owner is state.shared else f"task{t}.{part}"
            seed = derive_seed(state.master_seed, TAG_INIT, t, component)
            owner[part] = build_block(stack, shape, seed, name)
        shape = owner[part].output_shape

    extra = len(task.class_ids) - shape[0]
    if extra > 0:
        # only a shared head can be too narrow; a fresh one is sized for its task
        seed = derive_seed(state.master_seed, TAG_INIT, t, COMPONENT_CLASSIFIER)
        state.shared["classifier"] = extend_classifier(state.shared["classifier"], extra, seed)
    state.prepared = max(state.prepared, t)


def freeze_task(state: IncrementalState, task_index: int) -> None:
    """Check that nothing frozen drifted, then freeze the task's path if the strategy does.

    Training runs this once a task is done; loading a checkpoint replays it
    for every finished task, which rebuilds frozen flags and the snapshot.
    """
    ok, path = state.verify_frozen()
    if not ok:
        raise RuntimeError(f"frozen parameter {path!r} changed during task {task_index}")
    for split in ("train", "val"):
        state.features.pop((task_index, split), None)
    if not state.spec.freezes:
        return
    for block in state._forward_blocks(task_index):
        freeze(block)
        for name, value in snapshot_block(block).items():
            ref = state.snapshot.get(name)
            if ref is None or ref.shape != value.shape:
                state.snapshot[name] = value


# ---------------------------------------------------------------------------
# forward passes and the frozen-prefix feature cache


def _forward_from(blocks: list[ModelBlock], x: Tensor, depth: int) -> tuple[Tensor, Tensor]:
    """(logits, adjustment output) of blocks[depth:] on x, the output of blocks[:depth]."""
    feats = x
    for block in blocks[depth:-1]:
        feats = block.forward(feats)
    return blocks[-1].forward(feats), feats


def _forward_rows(blocks: list[ModelBlock], rows: np.ndarray, batch_size: int) -> np.ndarray:
    """The blocks' output for every row, computed batch_size rows at a time."""
    out = None
    for lo in range(0, rows.shape[0], batch_size):
        x = Tensor(rows[lo : lo + batch_size])
        for block in blocks:
            x = block.forward(x)
        if out is None:
            out = np.empty(rows.shape[:1] + x.shape[1:], dtype=x.dtype)
        out[lo : lo + batch_size] = x.data
    return out if out is not None else np.empty((0,) + blocks[-1].output_shape, dtype=np.float32)


def _prefix_depth(blocks: list[ModelBlock]) -> int:
    """How many leading blocks, classifier excluded, form the task's frozen prefix.

    The prefix ends at the last block with parameters before the first block
    with a trainable parameter or a dense layer. Conv, ReLU, max-pool and
    flatten work per sample, so the prefix's features for a row do not
    depend on which rows share its batch; a dense layer's GEMM may.
    """
    depth = 0
    for i, block in enumerate(blocks[:-1]):
        params = block.parameters()
        if any(not p.frozen for p in params) or any(isinstance(s, Dense) for s, _ in block.layers):
            break
        if params:
            depth = i + 1
    return depth


def _prefix_features(
    state: IncrementalState, task_index: int, split: str, images: np.ndarray, batch_size: int
) -> tuple[int, np.ndarray]:
    """(depth, rows): the task's blocks[depth:] take rows[i] where its network takes images[i].

    The frozen prefix's features come from the cache, or are computed
    batch_size rows at a time and stored when they fit the byte budget. An
    entry that would not fit is not computed: depth is 0 and rows are the
    images, so the prefix runs per batch.
    """
    blocks = state._forward_blocks(task_index)
    depth = _prefix_depth(blocks)
    key = (task_index, split)
    entry = state.features.pop(key, None)
    if entry is None or entry[0] != depth:
        if depth == 0:
            return 0, images
        itemsize = next(p for b in blocks[:depth] for p in b.parameters()).data.itemsize
        nbytes = images.shape[0] * math.prod(blocks[depth - 1].output_shape) * itemsize
        held = sum(rows.nbytes for _, rows in state.features.values())
        if held + nbytes > _FEATURE_CACHE_BYTES:
            return 0, images
        entry = depth, _forward_rows(blocks[:depth], images, batch_size)
    state.features[key] = entry
    return entry


# ---------------------------------------------------------------------------
# losses


def _mean_square_feature_penalty(flat: Tensor) -> Tensor:
    """Mean orthogonality penalty over per-sample square views of the embedding."""
    n, d2 = flat.data.shape
    d = math.isqrt(d2)
    if d * d != d2:
        raise ValueError(
            f"feature width {d2} is not a perfect square; the orthogonality term "
            "needs a square-viewable embedding"
        )
    total = None
    for i in range(n):
        a = reshape(slice_rows(flat, i, i + 1), (d, d))
        p = orthogonality_penalty(a)
        total = p if total is None else add(total, p)
    return scale(total, 1.0 / n)


# ---------------------------------------------------------------------------
# training and evaluation


def train_task(
    state: IncrementalState,
    task_index: int,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 0.001,
    selection: str = "best-val",
) -> TrainLog:
    """Train one task in sequence order, then freeze it as the strategy table says.

    Model selection: "best-val" restores the epoch with the highest
    validation accuracy on this task (ties go to the earliest epoch);
    "last" keeps the final epoch.
    """
    if state._active_task:
        raise TrainingOrderError(
            f"task {state._active_task} did not finish training and its parts hold that "
            "attempt's values; start again from a new state or a checkpoint"
        )
    if task_index != state.trained_upto + 1:
        raise TrainingOrderError(
            f"task {task_index} out of order; next trainable task is {state.trained_upto + 1}"
        )
    if selection not in SELECTION_MODES:
        raise ValueError(f"selection must be 'best-val' or 'last', got {selection!r}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    task = state.seq.tasks[task_index - 1]
    start = time.perf_counter()
    state._active_task = task_index

    prepare_task_blocks(state, task)
    blocks = state._forward_blocks(task_index)
    params = [p for blk in blocks for p in blk.parameters() if not p.frozen]
    trainable_count = sum(p.trainable_count() for p in params)

    images, raw_labels = task_arrays(state.seq, task, "train")
    labels = task.local_labels(raw_labels)
    n = images.shape[0]
    depth, rows = _prefix_features(state, task_index, "train", images, batch_size)
    opt = Adam(params, lr=lr)
    shuffle_rng = np.random.default_rng(derive_seed(state.master_seed, TAG_SHUFFLE, task_index))

    best_acc = -1.0
    best_epoch = 0
    best_params: list[np.ndarray] | None = None
    val_acc = 0.0
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n)
        for step, lo in enumerate(range(0, n, batch_size), start=1):
            idx = order[lo : lo + batch_size]
            x = Tensor(rows[idx])
            with Tape():
                logits, feats = _forward_from(blocks, x, depth)
                loss = softmax_cross_entropy(leading_columns(logits, len(task.class_ids)), labels[idx])
                if state.ortho_alpha > 0.0:
                    penalty = _mean_square_feature_penalty(flatten(feats))
                    loss = add(loss, scale(penalty, state.ortho_alpha))
                if not np.isfinite(loss.data):
                    raise TrainingDivergedError(
                        f"non-finite loss {float(loss.data)} at seed {state.master_seed}, "
                        f"task {task_index}, epoch {epoch}, step {step}"
                    )
                backward(loss)
            opt.step()
            opt.zero_grad()
        val_acc = evaluate(state, task_index, "val")
        if selection == "best-val" and val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = [p.data.copy() for p in params]

    if selection == "best-val" and best_params is not None:
        for p, saved in zip(params, best_params):
            p.data = saved
        val_acc = best_acc
    else:
        best_epoch = epochs

    freeze_task(state, task_index)
    state.trained_upto = task_index
    state._active_task = 0
    return TrainLog(
        task_index=task_index,
        epochs=epochs,
        best_epoch=best_epoch,
        val_accuracy=float(val_acc),
        train_seconds=time.perf_counter() - start,
        trainable_params=trainable_count,
    )


def evaluate(state: IncrementalState, task_index: int, split: str = "test", batch_size: int = 512) -> float:
    """Fraction of correctly argmax-classified samples over the task's head."""
    state._check_trained(task_index)
    task = state.seq.tasks[task_index - 1]
    images, raw_labels = task_arrays(state.seq, task, split)
    labels = task.local_labels(raw_labels)
    depth, rows = _prefix_features(state, task_index, split, images, batch_size)
    logits = _forward_rows(state._forward_blocks(task_index)[depth:], rows, batch_size)
    pred = logits[:, : len(task.class_ids)].argmax(axis=1)
    return int((pred == labels).sum()) / images.shape[0]


def predict_logits(
    state: IncrementalState, task_index: int, images: np.ndarray, batch_size: int = 512
) -> np.ndarray:
    """The task's head logits for arbitrary inputs through the task's network."""
    state._check_trained(task_index)
    logits = _forward_rows(state._forward_blocks(task_index), images, batch_size)
    return np.ascontiguousarray(logits[:, : len(state.seq.tasks[task_index - 1].class_ids)])


# ---------------------------------------------------------------------------
# whole-sequence driver


@dataclass
class SeedRunResult:
    seed: int
    strategy: str
    forgetting: list[list[float]] = field(default_factory=list)
    final_per_task: list[float] = field(default_factory=list)
    mean_final: float = 0.0
    per_task: list[dict] = field(default_factory=list)
    wall_clock_sec: float = 0.0


def run_sequence(
    strategy,
    arch: ArchitectureSpec,
    seq: TaskSequence,
    seed: int,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 0.001,
    selection: str = "best-val",
    ortho_alpha: float = 0.0,
) -> tuple[SeedRunResult, IncrementalState]:
    """Train every task in order, scoring all earlier tasks after each one."""
    state = IncrementalState(strategy, arch, seq, seed, ortho_alpha=ortho_alpha)
    result = SeedRunResult(seed=int(seed), strategy=state.strategy.value)
    start = time.perf_counter()
    for t in range(1, seq.num_tasks + 1):
        log = train_task(state, t, epochs=epochs, batch_size=batch_size, lr=lr, selection=selection)
        row = [evaluate(state, s, "test") for s in range(1, t + 1)]
        result.forgetting.append(row)
        count, megabytes = model_size(state.model_blocks())
        result.per_task.append(
            {
                "task": t,
                "classes": list(seq.tasks[t - 1].class_ids),
                "best_epoch": log.best_epoch,
                "val_accuracy": log.val_accuracy,
                "trainable_params": log.trainable_params,
                "param_count": count,
                "megabytes": megabytes,
                "train_seconds": log.train_seconds,
            }
        )
    result.final_per_task = list(result.forgetting[-1])
    result.mean_final = sum(result.final_per_task) / len(result.final_per_task)
    result.wall_clock_sec = time.perf_counter() - start
    return result, state

