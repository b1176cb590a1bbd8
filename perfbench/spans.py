"""Spans and counters recorded around santil's public functions.

The benchmark measures santil from outside. Each probe replaces one public
function with a wrapper that opens a span, calls the original and closes the
span. A probe has to sit on the namespace the caller looks the name up in:
``layers`` imports ``conv2d`` by name, so its probe goes on ``layers.conv2d``;
a probe on ``tensor.conv2d`` would never fire and would read as zero. The
count cross-check in ``workload.py`` catches that mistake.

Per name the tracer keeps busy time (span durations), self time (busy time
minus the time covered by child spans), calls and a summed amount (bytes,
tape records or examples, depending on the probe). Spans whose name is in
``keep`` are also kept whole, for the end-to-end metrics.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from santil import checkpoint, config, engine, harness, layers, optim
from santil.tensor import active_tape


class Stat:
    __slots__ = ("busy", "self_time", "calls", "amount")

    def __init__(self):
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.amount = 0


class Span:
    __slots__ = ("name", "start", "end", "child", "amount")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.amount = 0


class Tracer:
    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self._stack: list[Span] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.kept: list[Span] = []

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        duration = span.end - span.start
        if self._stack:
            self._stack[-1].child += duration
        stat = self.stats.get(span.name)
        if stat is None:
            stat = self.stats[span.name] = Stat()
        stat.busy += duration
        stat.self_time += duration - span.child
        stat.calls += 1
        stat.amount += span.amount
        if span.name in self.keep:
            self.kept.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name, fn, amount=None, amount_before=None):
        """``fn`` inside a span; ``name`` may be a function of the call's args.

        ``amount(args, kwargs, result)`` runs after the call and
        ``amount_before(args, kwargs)`` before it (for state the call consumes).
        """

        def probe(*args, **kwargs):
            span = self.open(name(args) if callable(name) else name)
            try:
                if amount_before is not None:
                    span.amount = amount_before(args, kwargs)
                result = fn(*args, **kwargs)
                if amount is not None:
                    span.amount = amount(args, kwargs, result)
                return result
            finally:
                self.close(span)

        return probe


# ---------------------------------------------------------------------------
# amounts


def _split_size(state, task_index: int, split: str) -> int:
    task = state.seq.tasks[task_index - 1]
    return int({"train": task.train_idx, "val": task.val_idx, "test": task.test_idx}[split].size)


def _examples_trained(args, kwargs, log) -> int:
    return _split_size(args[0], args[1], "train") * log.epochs


def _examples_scored(args, kwargs, accuracy) -> int:
    split = args[2] if len(args) > 2 else kwargs.get("split", "test")
    return _split_size(args[0], args[1], split)


def _array_bytes(args, kwargs, arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _file_bytes(args, kwargs, path) -> int:
    return os.path.getsize(path)


def _tape_records(args, kwargs) -> int:
    loss = args[0]
    tape = getattr(loss, "tape", None)
    return len(tape) if tape is not None else 0


def _block_forward_name(args) -> str:
    part = args[0].name.rsplit(".", 1)[-1]
    return f"layers.{part}.{'train' if active_tape() is not None else 'eval'}_fwd"


# (owner, attribute, span name, amount, amount_before)
COARSE_PROBES = (
    (engine, "train_task", "engine.train_task", _examples_trained, None),
    (engine, "evaluate", "engine.evaluate", _examples_scored, None),
)

FINE_PROBES = (
    (layers, "conv2d", "tensor.conv2d", None, None),
    (layers, "linear", "tensor.linear", None, None),
    (layers, "maxpool2d", "tensor.maxpool2d", None, None),
    (layers, "relu", "tensor.relu", None, None),
    (engine, "softmax_cross_entropy", "tensor.softmax_cross_entropy", None, None),
    (engine, "orthogonality_penalty", "tensor.orthogonality_penalty", None, None),
    (engine, "slice_rows", "tensor.slice_rows", None, None),
    (engine, "backward", "tensor.backward", None, _tape_records),
    (layers.ModelBlock, "forward", _block_forward_name, None, None),
    (engine, "build_block", "layers.build_block", None, None),
    (optim.Adam, "step", "optim.step", None, None),
    (optim.Adam, "zero_grad", "optim.zero_grad", None, None),
    (engine, "prepare_task_blocks", "engine.prepare_task_blocks", None, None),
    (engine, "task_arrays", "tasks.task_arrays", _array_bytes, None),
    (harness, "build_split_sequence", "tasks.build_split_sequence", None, None),
    (config, "synthetic_dataset", "data.synthetic_dataset", None, None),
    (harness, "load_pools", "config.load_pools", None, None),
    (harness, "resolve_architecture", "config.resolve_architecture", None, None),
    (checkpoint, "save_state", "checkpoint.save_state", _file_bytes, None),
    (checkpoint, "load_state", "checkpoint.load_state", None, None),
    (harness, "write_report_json", "report.write_report_json", None, None),
    (harness, "write_summary_csv", "report.write_summary_csv", None, None),
)


@contextmanager
def probes_installed(tracer: Tracer, fine: bool):
    """Install the coarse probes, plus the fine ones when ``fine``; undo on exit.

    Yields ``(installed, missing)``: the fixed span names of the installed
    probes, and ``owner.attr`` for each target the program no longer has.
    The caller fails every sequence while ``missing`` is not empty, so a
    renamed or re-imported op cannot read as zero; a change that removes an
    op on purpose removes its probe and metrics with it.
    """
    table = COARSE_PROBES + (FINE_PROBES if fine else ())
    saved = []
    installed, missing = set(), []
    try:
        for owner, attr, name, amount, amount_before in table:
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, amount, amount_before))
            if isinstance(name, str):
                installed.add(name)
        yield installed, missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
