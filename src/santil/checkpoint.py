"""Persistence of trained incremental states (single .npz per seed).

Format 2 stores every parameter array under its dotted name, next to a JSON
metadata blob that holds the run's config and each trained task's class
list. Frozen flags, trainable masks and the frozen snapshot are not stored:
loading replays the per-task preparation (which is deterministic and
re-creates an extended classifier's masks), overwrites every parameter
bit-exactly, and then replays the engine's freeze step for each trained
task. A reloaded state therefore evaluates, embeds and verifies its frozen
parameters exactly like the trained one. Format-1 files are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .engine import IncrementalState, freeze_task, prepare_task_blocks
from .fileio import atomic_open
from .layers import ArchitectureSpec
from .tasks import TaskSequence

FORMAT_VERSION = 2


class CheckpointMismatchError(ValueError):
    """A checkpoint does not fit the format, task sequence or model it is loaded into."""


def save_state(state: IncrementalState, config: RunConfig, path) -> Path:
    path = Path(path)
    arrays = {p.name: p.data for block in state.model_blocks() for p in block.parameters()}
    meta = {
        "format_version": FORMAT_VERSION,
        "strategy": state.strategy.value,
        "seed": state.master_seed,
        "ortho_alpha": state.ortho_alpha,
        "config": config.to_dict(),
        "task_classes": [list(task.class_ids) for task in state.seq.tasks[: state.trained_upto]],
    }
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    # through a handle: np.savez would append ".npz" to a bare temporary name
    with atomic_open(path, "wb") as fh:
        np.savez(fh, __meta__=meta_bytes, **arrays)
    return path


def read_meta(path) -> dict:
    with np.load(path) as bundle:
        return json.loads(bytes(bundle["__meta__"]).decode("utf-8"))


def load_state(path, arch: ArchitectureSpec, seq: TaskSequence) -> IncrementalState:
    """Rebuild a state for evaluation/embedding from a checkpoint file.

    The sequence must be the one the checkpoint was trained on: at least as
    many tasks, each with the stored classes in the stored order. The stored
    arrays must be exactly the rebuilt model's parameters, at their shapes.
    Otherwise this raises CheckpointMismatchError naming where they differ.
    """
    path = Path(path)
    with np.load(path) as bundle:
        meta = json.loads(bytes(bundle["__meta__"]).decode("utf-8"))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint {path} has format version {version}; "
                f"this version of santil reads format {FORMAT_VERSION}"
            )
        trained = meta["task_classes"]
        if len(trained) > seq.num_tasks:
            raise CheckpointMismatchError(
                f"checkpoint {path} holds {len(trained)} trained tasks, "
                f"the task sequence has only {seq.num_tasks}"
            )
        state = IncrementalState(
            meta["strategy"], arch, seq, meta["seed"], ortho_alpha=meta["ortho_alpha"]
        )
        for task, classes in zip(seq.tasks, trained):
            if list(task.class_ids) != classes:
                raise CheckpointMismatchError(
                    f"checkpoint {path} does not match the task sequence at task {task.index}: "
                    f"it was trained on classes {classes}, "
                    f"the sequence has classes {list(task.class_ids)}"
                )
            prepare_task_blocks(state, task)
        params = [p for block in state.model_blocks() for p in block.parameters()]
        for p in params:
            if p.name not in bundle:
                raise CheckpointMismatchError(f"checkpoint {path} lacks parameter {p.name!r}")
            stored = bundle[p.name]
            if stored.shape != p.data.shape:
                raise CheckpointMismatchError(
                    f"checkpoint parameter {p.name!r} has shape {stored.shape}, expected {p.data.shape}"
                )
            p.data = stored.astype(p.data.dtype, copy=True)
        surplus = sorted(set(bundle.files) - {"__meta__"} - {p.name for p in params})
        if surplus:
            raise CheckpointMismatchError(f"checkpoint {path} holds parameter {surplus[0]!r}, which the model lacks")
    for t in range(1, len(trained) + 1):
        freeze_task(state, t)
    state.trained_upto = len(trained)
    return state
