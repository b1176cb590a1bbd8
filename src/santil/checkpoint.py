"""Persistence of trained incremental states (single .npz per seed).

Format 3 stores every parameter array under its name, ``task<t>.<part>.<layer>.<role>``,
next to a JSON metadata blob that holds the run's config and each trained task's
class list. Frozen flags and the frozen snapshot are not stored: loading replays
the per-task preparation (which is deterministic), overwrites every
parameter bit-exactly, and then replays the engine's freeze step for each
trained task. A reloaded state therefore evaluates, embeds, verifies its
frozen parameters and trains exactly like the trained one. Other format versions are rejected.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _is_int
from .engine import IncrementalState, freeze_task, prepare_task_blocks
from .fileio import atomic_open
from .layers import ArchitectureSpec
from .tasks import TaskSequence

FORMAT_VERSION = 3


class CheckpointMismatchError(ValueError):
    """A checkpoint does not fit the format, task sequence or model it is loaded into."""


# every __meta__ entry a reader takes, besides format_version: what it must be, and its check
_META_ENTRIES = {
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "task_classes": (
        "a list of class-id lists",
        lambda v: isinstance(v, list) and all(isinstance(c, list) and all(map(_is_int, c)) for c in v),
    ),
    "config": ("an object", lambda v: isinstance(v, dict)),
}


def save_state(state: IncrementalState, config: RunConfig, path) -> Path:
    path = Path(path)
    arrays = {p.name: p.data for block in state.model_blocks() for p in block.parameters()}
    meta = {
        "format_version": FORMAT_VERSION,
        "seed": state.master_seed,
        "config": config.to_dict(),
        "task_classes": [list(task.class_ids) for task in state.seq.tasks[: state.trained_upto]],
    }
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    # through a handle: np.savez would append ".npz" to a bare temporary name
    with atomic_open(path, "wb") as fh:
        np.savez(fh, __meta__=meta_bytes, **arrays)
    return path


@contextmanager
def _open(path):
    """The open archive of a format-3 checkpoint and its metadata; anything
    else, metadata lacking a ``_META_ENTRIES`` entry or a config that
    ``RunConfig.from_dict`` rejects raises CheckpointMismatchError naming the
    file (and the entry). The metadata's config is yielded as a RunConfig."""
    try:
        bundle = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile, IsADirectoryError):  # text, empty, bad zip, a directory
        bundle = None
    if not isinstance(bundle, np.lib.npyio.NpzFile):  # or a bare .npy array
        raise CheckpointMismatchError(f"checkpoint {path} is not an .npz archive")
    with bundle:
        try:
            meta = json.loads(bytes(bundle["__meta__"]).decode("utf-8"))
        except (KeyError, ValueError):  # absent, pickled, not UTF-8 or not JSON
            raise CheckpointMismatchError(f"checkpoint {path} has no readable __meta__ entry") from None
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint {path} has format version {version}; "
                f"this version of santil reads format {FORMAT_VERSION}"
            )
        for key, (what, ok) in _META_ENTRIES.items():
            if key not in meta:
                raise CheckpointMismatchError(f"checkpoint {path} has no {key!r} in its __meta__")
            if not ok(meta[key]):
                raise CheckpointMismatchError(f"checkpoint {path} has a __meta__ {key!r} that is not {what}")
        try:
            meta["config"] = RunConfig.from_dict(meta["config"])
        except ConfigError as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} has a __meta__ 'config' that is not a valid run config: {exc}"
            ) from None
        yield bundle, meta


def read_meta(path) -> dict:
    with _open(path) as (_, meta):
        return meta


def load_state(path, arch: ArchitectureSpec, seq: TaskSequence) -> IncrementalState:
    """Rebuild a state from a checkpoint file; ``run_sequence`` continues it after its
    last trained task.

    The sequence must be the one the checkpoint was trained on: at least as
    many tasks, each with the stored classes in the stored order. The stored
    arrays must be exactly the rebuilt model's parameters, at their shapes and
    dtypes. Otherwise this raises CheckpointMismatchError naming where they
    differ.
    """
    with _open(path) as (bundle, meta):
        trained = meta["task_classes"]
        if len(trained) > seq.num_tasks:
            raise CheckpointMismatchError(
                f"checkpoint {path} holds {len(trained)} trained tasks, "
                f"the task sequence has only {seq.num_tasks}"
            )
        state = IncrementalState(meta["config"].strategy, arch, seq, meta["seed"])
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
            try:
                stored = bundle[p.name]
            except (ValueError, zipfile.BadZipFile) as exc:  # pickled or short data; a bad CRC
                raise CheckpointMismatchError(f"checkpoint {path} parameter {p.name!r} cannot be read: {exc}") from None
            if stored.shape != p.data.shape:
                raise CheckpointMismatchError(
                    f"checkpoint {path} parameter {p.name!r} has shape {stored.shape}, expected {p.data.shape}"
                )
            if stored.dtype != p.data.dtype:
                raise CheckpointMismatchError(
                    f"checkpoint {path} parameter {p.name!r} has dtype {stored.dtype}, expected {p.data.dtype}"
                )
            p.data = stored
        surplus = sorted(set(bundle.files) - {"__meta__"} - {p.name for p in params})
        if surplus:
            raise CheckpointMismatchError(f"checkpoint {path} holds parameter {surplus[0]!r}, which the model lacks")
    for t in range(1, len(trained) + 1):
        freeze_task(state, t)
    state.trained_upto = len(trained)
    return state
