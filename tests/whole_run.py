"""The whole-sequence run most tests need: a new state trained through every task.

``harness._run_variant`` does the same per seed, and saves and reports too.
"""

from __future__ import annotations

import time

from santil.engine import IncrementalState, SeedRunResult, run_sequence


def run_whole(strategy, arch, seq, seed, **settings) -> tuple[SeedRunResult, IncrementalState]:
    """(result, state) of a new state trained through ``seq`` with ``train_task``'s settings."""
    state = IncrementalState(strategy, arch, seq, seed)
    start = time.perf_counter()
    rows = list(run_sequence(state, **settings))
    return SeedRunResult.from_rows(state, rows, time.perf_counter() - start), state
