"""Task-incremental learning with per-task adjustment networks.

A frozen backbone and classifier shared across tasks, one small trainable
adjustment block per task, reference strategies (baseline, finetune,
independent), and a reproducible experiment harness. All computation runs
on a from-scratch reverse-mode autodiff core over numpy buffers.
"""

from .data import (
    Dataset,
    DatasetError,
    load_cifar,
    load_idx,
    make_permutations,
    synthetic_dataset,
)
from .engine import (
    IncrementalState,
    SeedRunResult,
    StrategyKind,
    TrainingDivergedError,
    TrainingOrderError,
    TrainLog,
    UnknownTaskError,
    UntrainedTaskError,
    evaluate,
    predict_logits,
    run_sequence,
    train_task,
)
from .gradcheck import grad_check, gradient_suite
from .layers import (
    PRESETS,
    ArchitectureSpec,
    Conv,
    Dense,
    Flatten,
    MaxPool,
    ModelBlock,
    Relu,
    assert_frozen,
    build_block,
    extend_classifier,
    freeze,
    model_size,
    snapshot_block,
)
from .optim import Adam, MissingGradientError
from .tasks import (
    Task,
    TaskSequence,
    build_permuted_sequence,
    build_split_sequence,
    partition_classes,
    reorder_groups,
)
from .tensor import (
    Parameter,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    conv2d,
    flatten,
    leading_columns,
    linear,
    maxpool2d,
    mul,
    orthogonality_penalty,
    relu,
    reshape,
    scale,
    slice_rows,
    softmax_cross_entropy,
    tsum,
)

__version__ = "0.1.0"
