"""Crash-safe output files: write to a temporary sibling, then rename into place."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to ``path``; on success replace ``path`` with it.

    A failure part-way through the ``with`` body removes the temporary file
    and leaves any existing ``path`` untouched, so a reader never sees a
    half-written file. The rename is atomic because both names share a
    directory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
