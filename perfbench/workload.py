"""santil benchmark workloads: whole task sequences through the public API.

One run repeats one workload's task sequence back to back (closed loop, one
sequence at a time, batch 64) until its time is up. Every sequence goes
``RunConfig`` -> ``harness.run`` on the synthetic corpus, with MNIST- or
CIFAR-shaped inputs and nothing downloaded. The seed drives both the corpus
(``data_seed``) and the master seed, and every repetition in a run uses the
same seed, so the repetitions do identical work and must give identical
reports. Each sequence's outputs are checked outside the timed region, and
per-sequence figures are reduced to medians.

With ``trace=False`` only ``engine.train_task`` and ``engine.evaluate`` are
probed (a few dozen calls per sequence), which is what the end-to-end
metrics need. With ``trace=True`` every probe in ``spans.FINE_PROBES`` is
installed and the per-module metrics are reported instead.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from santil import checkpoint, engine, harness
from santil.config import RunConfig, load_pools, resolve_architecture
from santil.report import strip_wall_clock
from santil.tasks import build_split_sequence, partition_classes

BATCH_SIZE = 64


@dataclasses.dataclass(frozen=True)
class Workload:
    strategy: str
    architecture: str
    shape: tuple[int, int, int]
    num_classes: int
    num_tasks: int
    per_class: int
    per_class_test: int
    epochs: int
    ortho_alpha: float = 0.0

    def run_config(self, seed: int, out_dir: Path) -> RunConfig:
        return RunConfig.from_dict(
            {
                "strategy": self.strategy,
                "dataset": {
                    "name": "synthetic",
                    "num_classes": self.num_classes,
                    "per_class": self.per_class,
                    "per_class_test": self.per_class_test,
                    "shape": list(self.shape),
                    "data_seed": seed,
                },
                "num_tasks": self.num_tasks,
                "architecture": self.architecture,
                "epochs": self.epochs,
                "batch_size": BATCH_SIZE,
                "seeds": [seed],
                "ortho_alpha": self.ortho_alpha,
                "out_dir": str(out_dir),
            }
        )

    def tiny(self) -> "Workload":
        """The same sequence at a size that runs in about a second (self-test)."""
        return dataclasses.replace(self, per_class=8, per_class_test=4, epochs=1)


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "san-mnist": Workload("san", "mnist-small", (1, 28, 28), 10, 5, 200, 40, 2),
    "finetune-cifar": Workload("finetune", "cifar-small", (3, 32, 32), 6, 3, 75, 16, 1),
    "ortho-san-mnist": Workload(
        "san", "mnist-small", (1, 28, 28), 10, 5, 200, 40, 2, ortho_alpha=0.001
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_examples_per_s": "1/s",
    "eval_examples_per_s": "1/s",
    "task1_train_s": "s",
    "later_task_train_s": "s",
    "peak_rss_mb": "MB",
    "model_mb": "MB",
}


def _per_layer_table() -> dict[str, tuple[str, str, str]]:
    """metric -> (span name, Stat field, unit)."""
    table = {}
    for op in (
        "conv2d",
        "maxpool2d",
        "linear",
        "relu",
        "softmax_cross_entropy",
        "orthogonality_penalty",
        "slice_rows",
    ):
        table[f"tensor.{op}.fwd_s"] = (f"tensor.{op}", "busy", "s")
        table[f"tensor.{op}.calls"] = (f"tensor.{op}", "calls", "count")
    table["tensor.backward.s"] = ("tensor.backward", "busy", "s")
    table["tensor.backward.calls"] = ("tensor.backward", "calls", "count")
    table["tensor.tape_records"] = ("tensor.backward", "amount", "count")
    for part in ("backbone", "adjust", "classifier"):
        for mode in ("train", "eval"):
            table[f"layers.{part}.{mode}_fwd_s"] = (f"layers.{part}.{mode}_fwd", "busy", "s")
    table["layers.build_block.s"] = ("layers.build_block", "busy", "s")
    table["optim.step.s"] = ("optim.step", "busy", "s")
    table["optim.step.calls"] = ("optim.step", "calls", "count")
    table["optim.zero_grad.s"] = ("optim.zero_grad", "busy", "s")
    table["engine.train_task.self_s"] = ("engine.train_task", "self_time", "s")
    table["engine.evaluate.s"] = ("engine.evaluate", "busy", "s")
    table["engine.evaluate.calls"] = ("engine.evaluate", "calls", "count")
    table["engine.prepare_task_blocks.s"] = ("engine.prepare_task_blocks", "busy", "s")
    table["tasks.task_arrays.s"] = ("tasks.task_arrays", "busy", "s")
    table["tasks.task_arrays.calls"] = ("tasks.task_arrays", "calls", "count")
    table["tasks.task_arrays.bytes"] = ("tasks.task_arrays", "amount", "B")
    table["tasks.build_split_sequence.s"] = ("tasks.build_split_sequence", "busy", "s")
    table["data.synthetic_dataset.s"] = ("data.synthetic_dataset", "busy", "s")
    table["config.load_pools.s"] = ("config.load_pools", "busy", "s")
    table["config.resolve_architecture.s"] = ("config.resolve_architecture", "busy", "s")
    table["checkpoint.save_state.s"] = ("checkpoint.save_state", "busy", "s")
    table["checkpoint.save_state.bytes"] = ("checkpoint.save_state", "amount", "B")
    table["checkpoint.load_state.s"] = ("checkpoint.load_state", "busy", "s")
    table["report.write_report_json.s"] = ("report.write_report_json", "busy", "s")
    table["report.write_summary_csv.s"] = ("report.write_summary_csv", "busy", "s")
    table["harness.run.s"] = ("harness.run", "busy", "s")
    return table


PER_LAYER = _per_layer_table()


# ---------------------------------------------------------------------------
# expected counts


def expected_counts(w: Workload, seq) -> dict[tuple[str, str], int]:
    """(span name, Stat field) -> the count one sequence must produce.

    Only counts that the config and the engine's documented schedule fix:
    one Adam step, one backward and one loss per batch, one validation pass
    per epoch, and after task t a test pass over tasks 1..t. Per-op and I/O
    counts are left out on purpose: optimisations such as a frozen-prefix
    cache or per-task checkpoints change them legitimately.
    """
    steps = sum(w.epochs * math.ceil(t.train_idx.size / BATCH_SIZE) for t in seq.tasks)
    scored = []
    for t, task in enumerate(seq.tasks, start=1):
        scored += [int(task.val_idx.size)] * w.epochs
        scored += [int(seq.tasks[s].test_idx.size) for s in range(t)]
    return {
        ("engine.train_task", "calls"): w.num_tasks,
        ("engine.train_task", "amount"): sum(w.epochs * int(t.train_idx.size) for t in seq.tasks),
        ("engine.evaluate", "calls"): len(scored),
        ("engine.evaluate", "amount"): sum(scored),
        ("optim.step", "calls"): steps,
        ("tensor.backward", "calls"): steps,
        ("tensor.softmax_cross_entropy", "calls"): steps,
    }


# probes that only the orthogonality penalty exercises
ORTHO_ONLY = ("tensor.orthogonality_penalty", "tensor.slice_rows")


def count_problems(stats: dict, expected: dict, installed: set[str], ortho: bool) -> list[str]:
    """Traced counts against ``expected``; every other installed probe must fire.

    A probe on a namespace the program does not look the name up in reads
    as zero; this turns that into a failed check instead of a quiet zero.
    """
    problems = []
    for (name, field), want in expected.items():
        if name in installed:
            stat = stats.get(name)
            got = getattr(stat, field) if stat is not None else 0
            if got != want:
                problems.append(f"count {name}.{field}: traced {got}, config implies {want}")
    for name in installed - {name for name, _ in expected} - {"checkpoint.load_state"}:
        calls = stats[name].calls if name in stats else 0
        if name in ORTHO_ONLY and not ortho:
            if calls:
                problems.append(f"count {name}.calls: {calls} with the penalty off")
        elif calls == 0:
            problems.append(f"count {name}.calls: probe never fired")
    return problems


# ---------------------------------------------------------------------------
# output checks


def _is_accuracy(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def report_problems(w: Workload, report: dict) -> list[str]:
    """Shape of report.json, accuracy ranges, and zero forgetting for san."""
    try:
        entries = report["seeds"]
        if len(entries) != 1 or report["aggregate"]["num_seeds"] != 1:
            return ["report: expected exactly one seed"]
        entry = entries[0]
        matrix = entry["forgetting_matrix"]
        final = entry["final_per_task"]
        per_task = entry["per_task"]
        if [len(row) for row in matrix] != list(range(1, w.num_tasks + 1)):
            return [f"report: forgetting matrix rows {[len(r) for r in matrix]}"]
        if final != matrix[-1] or [rec["task"] for rec in per_task] != list(
            range(1, w.num_tasks + 1)
        ):
            return ["report: final_per_task or per_task disagree with the matrix"]
        if not math.isclose(entry["mean_final"], sum(final) / len(final), rel_tol=1e-12):
            return ["report: mean_final is not the mean of final_per_task"]
        sizes = [rec["megabytes"] for rec in per_task]
        if not (sizes[0] > 0 and sizes == sorted(sizes)):
            return [f"report: model sizes {sizes} not positive and non-decreasing"]
        accuracies = [a for row in matrix for a in row]
        accuracies += [entry["mean_final"]] + [rec["val_accuracy"] for rec in per_task]
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report: malformed ({exc!r})"]
    problems = []
    bad = [a for a in accuracies if not _is_accuracy(a)]
    if bad:
        problems.append(f"accuracy: values outside [0, 1] or not finite: {bad[:5]}")
    if w.strategy == "san":
        for col in range(w.num_tasks):
            if len({row[col] for row in matrix[col:]}) != 1:
                problems.append(f"forgetting: san task {col + 1} accuracy changed across tasks")
    return problems


def reference(cfg: RunConfig):
    """The architecture and task sequence ``harness.run(cfg)`` builds.

    The benchmark builds its own copy only outside ``harness.run`` and drops
    it before the next sequence, so ``peak_rss_mb`` holds no second corpus.
    """
    train_pool, test_pool, _ = load_pools(cfg)
    groups = partition_classes(train_pool.num_classes, cfg.num_tasks, cfg.class_order)
    arch = resolve_architecture(cfg, train_pool.image_shape, len(groups[0]))
    return arch, build_split_sequence(train_pool, test_pool, groups, cfg.seeds[0])


def reload_problems(ckpt_path: Path, cfg: RunConfig, final: list[float]) -> list[str]:
    """Reloading the checkpoint and scoring it must reproduce final_per_task."""
    arch, seq = reference(cfg)
    state = checkpoint.load_state(ckpt_path, arch, seq)
    rescored = [engine.evaluate(state, t, "test") for t in range(1, seq.num_tasks + 1)]
    if rescored != final:
        return [f"reload: rescored {rescored} != reported {final}"]
    return []


# ---------------------------------------------------------------------------
# figures


def sequence_figures(run_span, kept) -> dict:
    trains = sorted((s for s in kept if s.name == "engine.train_task"), key=lambda s: s.start)
    evals = [s for s in kept if s.name == "engine.evaluate"]
    val_time = sum(
        e.end - e.start for e in evals if any(t.start <= e.start and e.end <= t.end for t in trains)
    )
    train_time = sum(t.end - t.start for t in trains)
    return {
        "run_s": run_span.end - run_span.start,
        "setup_s": trains[0].start - run_span.start,
        "train_examples_per_s": sum(t.amount for t in trains) / (train_time - val_time),
        "eval_examples_per_s": sum(e.amount for e in evals) / sum(e.end - e.start for e in evals),
        "task1_train_s": trains[0].end - trains[0].start,
        "later_task_train_s": [t.end - t.start for t in trains[1:]],
    }


def environment(seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False):
    """Run one workload for ``seconds``; returns (result line, final accuracies)."""
    w = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    scratch_parent = root / ".perfbench_run"
    scratch_parent.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_parent))
    try:
        return _measure(w, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run is still using it


def _measure(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    cfg = w.run_config(seed, out_dir)
    expected = expected_counts(w, reference(cfg)[1])  # the corpus is freed here

    tracer = spans.Tracer(keep=("harness.run", "engine.train_task", "engine.evaluate"))
    figures, layer_stats = [], []
    first_report = first_stripped = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    with spans.probes_installed(tracer, fine=trace) as (installed, missing):
        while attempted == 0 or time.perf_counter() < deadline:
            attempted += 1
            gc.collect()  # every sequence starts from the same heap state, untimed
            tracer.reset()
            try:
                with tracer.span("harness.run") as run_span:
                    harness.run(cfg)
                stats, kept = tracer.stats, tracer.kept
                report = json.loads((out_dir / "report.json").read_text())
                problems = [f"probe: santil has no {target}" for target in missing]
                problems += count_problems(stats, expected, installed, w.ortho_alpha > 0)
                problems += report_problems(w, report)
                tracer.reset()
                final = report["seeds"][0]["final_per_task"]
                problems += reload_problems(out_dir / f"checkpoint_seed{seed}.npz", cfg, final)
                stats["checkpoint.load_state"] = tracer.stats.get("checkpoint.load_state")
                stripped = json.dumps(strip_wall_clock(report), sort_keys=True)
                if first_report is None:
                    first_report, first_stripped = report, stripped
                elif stripped != first_stripped:
                    problems.append("determinism: report differs from the run's first sequence")
            except Exception:  # a crash counts as a failed operation and ends the run
                traceback.print_exc()
                failed += 1
                break
            if problems:
                failed += 1
                for problem in problems:
                    print(f"check failed (sequence {attempted}): {problem}", file=sys.stderr)
                continue
            figures.append(sequence_figures(run_span, kept))
            layer_stats.append(stats)

    if not figures:
        metrics = {}
    elif trace:
        metrics = {
            metric: {"value": _median_stat(layer_stats, span, field), "unit": unit}
            for metric, (span, field, unit) in PER_LAYER.items()
        }
    else:
        later = [v for f in figures for v in f["later_task_train_s"]]
        values = {
            key: statistics.median(f[key] for f in figures)
            for key in ("setup_s", "run_s", "train_examples_per_s", "eval_examples_per_s", "task1_train_s")
        }
        values["later_task_train_s"] = statistics.median(later)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["model_mb"] = first_report["seeds"][0]["per_task"][-1]["megabytes"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    accuracy = None
    if first_report is not None:
        accuracy = {
            "final_per_task": first_report["seeds"][0]["final_per_task"],
            "final_acc_mean": first_report["aggregate"]["mean_final_mean"],
        }
    return result, accuracy


def _median_stat(layer_stats: list[dict], span: str, field: str):
    values = [getattr(s[span], field) if s.get(span) is not None else 0 for s in layer_stats]
    return statistics.median(values) if field in ("busy", "self_time") else statistics.median_low(values)
