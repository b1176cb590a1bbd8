"""Persistence of trained incremental states (single .npz per seed).

Parameter arrays are stored under their dotted names next to a JSON
metadata blob. Loading rebuilds the block structure by replaying the
per-task preparation (which is deterministic), then overwrites every
parameter bit-exactly, so a reloaded state evaluates and embeds exactly
like the trained one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .engine import IncrementalState, prepare_task_blocks
from .fileio import atomic_open
from .layers import ArchitectureSpec
from .tasks import TaskSequence

FORMAT_VERSION = 1


def save_state(state: IncrementalState, config: RunConfig, path) -> Path:
    path = Path(path)
    arrays = {}
    frozen = {}
    masks = {}
    for block in state.model_blocks():
        for p in block.parameters():
            arrays[p.name] = p.data
            frozen[p.name] = bool(p.frozen)
            if p.trainable_mask is not None:
                masks[p.name] = True
                arrays["mask::" + p.name] = p.trainable_mask
    meta = {
        "format_version": FORMAT_VERSION,
        "strategy": state.strategy.value,
        "seed": state.master_seed,
        "trained_upto": state.trained_upto,
        "ortho_alpha": state.ortho_alpha,
        "config": config.to_dict(),
        "frozen": frozen,
        "masked": sorted(masks),
        "head_maps": {
            str(t): {"class_ids": list(h.class_ids), "neurons": list(h.neurons)}
            for t, h in state.head_maps.items()
        },
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

    The sequence must be the one the checkpoint was trained on: every task's
    classes must map to the same head neurons, or this raises ValueError.
    """
    path = Path(path)
    with np.load(path) as bundle:
        meta = json.loads(bytes(bundle["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format in {path}")
        state = IncrementalState(
            meta["strategy"], arch, seq, meta["seed"], ortho_alpha=meta.get("ortho_alpha", 0.0)
        )
        for t in range(1, meta["trained_upto"] + 1):
            prepare_task_blocks(state, seq.tasks[t - 1])
            state.trained_upto = t
            head = state.head_maps[t]
            stored_head = meta["head_maps"][str(t)]
            rebuilt = {"class_ids": list(head.class_ids), "neurons": list(head.neurons)}
            if rebuilt != stored_head:
                raise ValueError(
                    f"checkpoint {path} does not match the task sequence at task {t}: it maps "
                    f"classes {stored_head['class_ids']} to neurons {stored_head['neurons']}, "
                    f"the sequence maps classes {rebuilt['class_ids']} to neurons {rebuilt['neurons']}"
                )
        for block in state.model_blocks():
            for p in block.parameters():
                if p.name not in bundle:
                    raise KeyError(f"checkpoint {path} lacks parameter {p.name!r}")
                stored = bundle[p.name]
                if stored.shape != p.data.shape:
                    raise ValueError(
                        f"checkpoint parameter {p.name!r} has shape {stored.shape}, "
                        f"expected {p.data.shape}"
                    )
                p.value.data = stored.astype(p.data.dtype, copy=True)
                p.frozen = bool(meta["frozen"].get(p.name, False))
                mask_key = "mask::" + p.name
                p.trainable_mask = (
                    bundle[mask_key].astype(bool) if p.name in meta.get("masked", []) else None
                )
    return state
