"""Incremental-learning state machine: the strategy table, training loops, freezing.

Every network is backbone -> adjustment -> classifier. The strategies are
the keys of ``STRATEGY_TABLE`` and differ only in their row: which parts a
later task builds fresh (task 1 builds all three, and a task uses task 1's
block for each part it does not build), and whether what a task trained
freezes once it is done. A block, named ``task<t>.<part>``, belongs to and
freezes with the task t that built it. Every classifier is the architecture's
classifier stack as it stands, so every head is ``arch.base_classes`` wide;
no task may have more classes than that (``check_head_fit``).

  san          a fresh adjustment block per task between a backbone and a
               classifier that task 1 trains and then freezes.
  baseline     a fresh classifier head per task on the backbone and
               adjustment that task 1 trains and then freezes.
  finetune     one network, every parameter trainable at every task, one
               shared head.
  independent  a fresh full network per task; the non-incremental ceiling.

All four build the identical task-1 model from the same seed, which makes
the strategies directly comparable and is asserted by tests.

``run_sequence`` trains a state's remaining tasks one at a time and yields
after each, so its caller owns the task loop: it can stop, save and continue.

A task's frozen prefix (the leading blocks of its path, classifier
excluded, whose parameters are all frozen) maps a fixed split to fixed
features. ``IncrementalState.features`` caches them per (task, split), so
the prefix runs once per split instead of once per epoch and per scoring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layers import (
    ArchitectureSpec,
    Dense,
    ModelBlock,
    assert_frozen,
    build_block,
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


# rows per forward pass when scoring, predicting or embedding (training uses its batch size)
EVAL_ROWS = 512


PARTS = ("backbone", "adjust", "classifier")
_COMPONENTS = (COMPONENT_BACKBONE, COMPONENT_ADJUST, COMPONENT_CLASSIFIER)


@dataclass(frozen=True)
class StrategySpec:
    """One strategy as data.

    ``per_task``: the parts built fresh for every task; every task uses task
    1's block for each other part.
    ``freezes``: whether every part on a task's path freezes once it is done.
    """

    per_task: tuple[str, ...]
    freezes: bool


STRATEGY_TABLE = {
    "san": StrategySpec(per_task=("adjust",), freezes=True),
    "baseline": StrategySpec(per_task=("classifier",), freezes=True),
    "finetune": StrategySpec(per_task=(), freezes=False),
    "independent": StrategySpec(per_task=PARTS, freezes=True),
}


def check_head_fit(arch: ArchitectureSpec, counts: Sequence[int]) -> None:
    """The head-fit rule: no task may have more classes than the head it uses.

    ``counts`` holds every task's class count, in training order. Every head
    is the classifier's last linear width, ``arch.base_classes``. Raises
    ValueError naming the first task that does not fit.
    """
    for t, n in enumerate(counts, start=1):
        if n > arch.base_classes:
            raise ValueError(
                f"task {t} has {n} classes, but the head it uses is narrower: "
                f"the classifier's last linear width is {arch.base_classes}"
            )


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
    epochs: int
    best_epoch: int
    val_accuracy: float
    train_seconds: float
    trainable_params: int


class IncrementalState:
    """Parameter store of one strategy over one task sequence.

    ``per_task[t]`` maps each part built at task t to its block, tasks in
    order; ``snapshot`` holds every frozen parameter as it was when it froze.
    A task's head is the first ``len(task.class_ids)`` classifier outputs.
    ``features`` maps (task, split) to the output of the task's frozen
    prefix for every sample of the split; ``freeze_task`` drops the task's.
    """

    def __init__(
        self,
        strategy: str,
        arch: ArchitectureSpec,
        seq: TaskSequence,
        master_seed: int,
    ):
        if not isinstance(strategy, str) or strategy not in STRATEGY_TABLE:
            raise ValueError(f"strategy must be one of {list(STRATEGY_TABLE)}, got {strategy!r}")
        self.strategy = strategy
        self.spec = STRATEGY_TABLE[strategy]
        self.arch = arch
        self.seq = seq
        self.master_seed = int(master_seed)
        check_head_fit(arch, [len(task.class_ids) for task in seq.tasks])

        self.per_task: dict[int, dict[str, ModelBlock]] = {}
        self.snapshot: dict[str, np.ndarray] = {}
        self.features: dict[tuple[int, str], np.ndarray] = {}
        self.trained_upto = 0
        self._active_task = 0

    # -- forward ------------------------------------------------------------

    def _forward_blocks(self, task_index: int) -> list[ModelBlock]:
        if task_index not in self.per_task:
            raise UnknownTaskError(f"unknown task {task_index} for strategy {self.strategy}")
        return [self.per_task[task_index if part in self.spec.per_task else 1][part] for part in PARTS]

    def embed(self, images: np.ndarray, task_index: int) -> np.ndarray:
        """Flattened pre-classifier feature embedding, one row per sample."""
        self._check_trained(task_index)
        out = _forward_rows(self._forward_blocks(task_index)[:2], images, EVAL_ROWS)
        return out.reshape(out.shape[0], -1)

    def model_blocks(self) -> list[ModelBlock]:
        return [block for built in self.per_task.values() for block in built.values()]

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
    """Build the blocks task t owns, each named ``task<t>.<part>``, unless built already:
    every part at task 1, the strategy's per-task parts (none for ``finetune``) later."""
    t = task.index
    if t > len(state.per_task) + 1:
        raise TrainingOrderError(f"task {t} cannot be prepared before task {len(state.per_task) + 1}")
    built = state.per_task.setdefault(t, {})
    arch = state.arch
    shape = arch.input_shape
    stacks = (arch.backbone, arch.adjustment, arch.classifier)
    for part, stack, component in zip(PARTS, stacks, _COMPONENTS):
        if part not in built and (t == 1 or part in state.spec.per_task):
            seed = derive_seed(state.master_seed, TAG_INIT, t, component)
            built[part] = build_block(stack, shape, seed, f"task{t}.{part}")
        shape = state.per_task[t if part in built else 1][part].output_shape


def freeze_task(state: IncrementalState, task_index: int) -> None:
    """Check that nothing frozen drifted, then freeze the task's own blocks if the strategy does.

    A task's path is its own blocks plus task 1's, which froze with task 1.
    Training runs this once a task is done; loading a checkpoint replays it
    for every finished task, which rebuilds frozen flags and the snapshot.
    """
    ok, path = state.verify_frozen()
    if not ok:
        raise RuntimeError(f"frozen parameter {path!r} changed during task {task_index}")
    for split in ("train", "val", "test"):
        state.features.pop((task_index, split), None)
    if not state.spec.freezes:
        return
    for block in state.per_task[task_index].values():
        freeze(block)
        state.snapshot.update(snapshot_block(block))


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
    batch_size rows at a time and stored; with no prefix, rows are the
    images. An entry is of the current prefix: freezing the task, the one
    event that deepens it, drops the entry.
    """
    blocks = state._forward_blocks(task_index)
    depth = _prefix_depth(blocks)
    key = (task_index, split)
    if key in state.features:
        return depth, state.features[key]
    if depth == 0:
        return 0, images
    state.features[key] = _forward_rows(blocks[:depth], images, batch_size)
    return depth, state.features[key]


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
    ortho_alpha: float = 0.0,
) -> TrainLog:
    """Train one task in sequence order, then freeze it as the strategy table says.

    The loss adds ``ortho_alpha`` times the orthogonality penalty of the
    adjustment output when that weight is above 0. The task keeps the epoch
    with the highest validation accuracy on it; ties go to the earliest epoch.
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
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    task = state.seq.tasks[task_index - 1]
    start = time.perf_counter()
    state._active_task = task_index

    prepare_task_blocks(state, task)
    blocks = state._forward_blocks(task_index)
    params = [p for blk in blocks for p in blk.parameters() if not p.frozen]

    images, raw_labels = task_arrays(state.seq, task, "train")
    labels = task.local_labels(raw_labels)
    depth, rows = _prefix_features(state, task_index, "train", images, batch_size)
    del images  # behind a frozen prefix, rows are its cached features and the images can go
    n = rows.shape[0]
    opt = Adam(params, lr=lr)
    shuffle_rng = np.random.default_rng(derive_seed(state.master_seed, TAG_SHUFFLE, task_index))

    best_acc = -1.0
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n)
        for step, lo in enumerate(range(0, n, batch_size), start=1):
            idx = order[lo : lo + batch_size]
            x = Tensor(rows[idx])
            with Tape():
                logits, feats = _forward_from(blocks, x, depth)
                loss = softmax_cross_entropy(leading_columns(logits, len(task.class_ids)), labels[idx])
                if ortho_alpha > 0.0:
                    penalty = _mean_square_feature_penalty(flatten(feats))
                    loss = add(loss, scale(penalty, ortho_alpha))
                if not np.isfinite(loss.data):
                    raise TrainingDivergedError(
                        f"non-finite loss {float(loss.data)} at seed {state.master_seed}, "
                        f"task {task_index}, epoch {epoch}, step {step}"
                    )
                backward(loss)
            opt.step()
            opt.zero_grad()
        val_acc = evaluate(state, task_index, "val")
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = [p.data.copy() for p in params]
    for p, saved in zip(params, best_params):
        p.data = saved

    freeze_task(state, task_index)
    state.trained_upto = task_index
    state._active_task = 0
    return TrainLog(
        epochs=epochs,
        best_epoch=best_epoch,
        val_accuracy=float(best_acc),
        train_seconds=time.perf_counter() - start,
        trainable_params=sum(p.data.size for p in params),
    )


def evaluate(state: IncrementalState, task_index: int, split: str = "test") -> float:
    """Fraction of correctly argmax-classified samples over the task's head."""
    state._check_trained(task_index)
    task = state.seq.tasks[task_index - 1]
    images, raw_labels = task_arrays(state.seq, task, split)
    labels = task.local_labels(raw_labels)
    depth, rows = _prefix_features(state, task_index, split, images, EVAL_ROWS)
    logits = _forward_rows(state._forward_blocks(task_index)[depth:], rows, EVAL_ROWS)
    pred = logits[:, : len(task.class_ids)].argmax(axis=1)
    return int((pred == labels).sum()) / images.shape[0]


def predict_logits(state: IncrementalState, task_index: int, images: np.ndarray) -> np.ndarray:
    """The task's head logits for arbitrary inputs through the task's network."""
    state._check_trained(task_index)
    logits = _forward_rows(state._forward_blocks(task_index), images, EVAL_ROWS)
    return np.ascontiguousarray(logits[:, : len(state.seq.tasks[task_index - 1].class_ids)])


# ---------------------------------------------------------------------------
# the task loop


def run_sequence(state: IncrementalState, **settings):
    """Train each task after ``state.trained_upto`` with ``train_task``'s settings, yielding
    (row, record) after task t: row is the test accuracy of tasks 1..t, record the task's
    ``per_task`` entry. Task t + 1 trains only when the caller asks for the next pair. A new
    state runs the whole sequence; one from ``checkpoint.load_state`` continues it."""
    for t in range(state.trained_upto + 1, state.seq.num_tasks + 1):
        log = train_task(state, t, **settings)
        row = [evaluate(state, s, "test") for s in range(1, t + 1)]
        count, megabytes = model_size(state.model_blocks())
        yield row, {
            "task": t,
            "classes": list(state.seq.tasks[t - 1].class_ids),
            "best_epoch": log.best_epoch,
            "val_accuracy": log.val_accuracy,
            "trainable_params": log.trainable_params,
            "param_count": count,
            "megabytes": megabytes,
            "train_seconds": log.train_seconds,
        }


@dataclass
class SeedRunResult:
    """One seed's run; ``dataclasses.asdict`` of it is the seed's report.json entry.

    ``forgetting_matrix[t - 1][s - 1]`` is task s's test accuracy after task t.
    """

    seed: int
    strategy: str
    forgetting_matrix: list[list[float]]
    final_per_task: list[float]
    mean_final: float
    per_task: list[dict]
    wall_clock_sec: float

    @classmethod
    def from_rows(cls, state: IncrementalState, rows, wall_clock_sec: float) -> SeedRunResult:
        """The result of a fully trained state, from every pair ``run_sequence`` yielded for it."""
        forgetting = [row for row, _ in rows]
        final = list(forgetting[-1])
        return cls(
            seed=state.master_seed,
            strategy=state.strategy,
            forgetting_matrix=forgetting,
            final_per_task=final,
            mean_final=sum(final) / len(final),
            per_task=[record for _, record in rows],
            wall_clock_sec=wall_clock_sec,
        )
