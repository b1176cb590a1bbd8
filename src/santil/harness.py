"""Run orchestration: full runs, size sweeps, order ablations, embedding dumps."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, load_pools, resolve_architecture
from .data import Dataset
from .engine import run_sequence
from .layers import ArchitectureSpec
from .report import (
    build_report,
    render_console_table,
    write_report_json,
    write_summary_csv,
)
from .tasks import (
    TaskSequence,
    build_permuted_sequence,
    build_split_sequence,
    partition_classes,
    reorder_groups,
    task_arrays,
)


def _resolve_groups(config: RunConfig, train_pool: Dataset, kind: str):
    if kind == "permuted":
        if config.class_order != "default":
            raise ConfigError(["class_order: not applicable to permuted tasks"])
        return None
    return partition_classes(train_pool.num_classes, config.num_tasks, config.class_order)


def _build_sequence(
    config: RunConfig,
    train_pool: Dataset,
    test_pool: Dataset,
    kind: str,
    groups,
    seed: int,
) -> TaskSequence:
    if kind == "permuted":
        return build_permuted_sequence(train_pool, test_pool, config.num_tasks, seed)
    return build_split_sequence(train_pool, test_pool, groups, seed)


def _dataset_info(config: RunConfig, train_pool: Dataset, test_pool: Dataset, kind: str) -> dict:
    return {
        "name": config.dataset["name"],
        "kind": kind,
        "train_size": train_pool.num_samples,
        "test_size": test_pool.num_samples,
        "num_classes": train_pool.num_classes,
        "normalization": train_pool.provenance.get("normalization", "scale_1_255"),
        "files": train_pool.provenance.get("files", {}),
    }


def _architecture(config: RunConfig, train_pool: Dataset, kind: str, groups) -> ArchitectureSpec:
    first_task_classes = train_pool.num_classes if kind == "permuted" else len(groups[0])
    return resolve_architecture(config, train_pool.image_shape, first_task_classes)


def _seed_runs(config: RunConfig, train_pool: Dataset, test_pool: Dataset, kind: str, groups):
    """run_sequence for every configured seed over one task grouping; yields (seed, result, state)."""
    arch = _architecture(config, train_pool, kind, groups)
    for seed in config.seeds:
        seq = _build_sequence(config, train_pool, test_pool, kind, groups, seed)
        result, state = run_sequence(
            config.strategy,
            arch,
            seq,
            seed,
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            selection=config.checkpoint_selection,
            ortho_alpha=config.ortho_alpha,
        )
        yield seed, result, state


def _write_report(
    config: RunConfig, train_pool: Dataset, test_pool: Dataset, kind: str, results, **extra
) -> dict:
    """Build the report, plus any ``extra`` keys, and write report.json and summary.csv."""
    report = build_report(config, _dataset_info(config, train_pool, test_pool, kind), results)
    report.update(extra)
    out_dir = Path(config.out_dir)
    write_report_json(report, out_dir / "report.json")
    write_summary_csv(report, out_dir / "summary.csv")
    return report


def run(config: RunConfig, echo=None) -> dict:
    """Execute run_sequence per seed; write report.json, summary.csv, checkpoints."""
    train_pool, test_pool, kind = load_pools(config)
    groups = _resolve_groups(config, train_pool, kind)
    results = []
    for seed, result, state in _seed_runs(config, train_pool, test_pool, kind, groups):
        ckpt.save_state(state, config, Path(config.out_dir) / f"checkpoint_seed{seed}.npz")
        results.append(result)
    report = _write_report(config, train_pool, test_pool, kind, results)
    if echo is not None:
        echo(render_console_table(report))
    return report


def sweep_size(config: RunConfig, kernels, echo=None) -> list[dict]:
    """One run per adjustment kernel width; backbone and classifier specs fixed.

    Model size varies through the adjustment conv kernels only, so the
    (MB, accuracy) pairs isolate the capacity of the per-task block.
    """
    if not isinstance(config.architecture, str):
        raise ConfigError(["sweep-size requires a preset architecture"])
    kernels = [int(k) for k in kernels]
    for k in kernels:
        if k < 1 or k % 2 == 0:
            raise ConfigError([f"widths: adjustment kernels must be odd and positive, got {k}"])
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for k in kernels:
        sub = dataclasses.replace(config, adjust_kernel=k, out_dir=str(out_dir / f"kernel{k}"))
        report = run(sub, echo=None)
        final = report["seeds"][0]["per_task"][-1]
        rows.append(
            {
                "kernel": k,
                "param_count": final["param_count"],
                "megabytes": final["megabytes"],
                "mean_accuracy": report["aggregate"]["mean_final_mean"],
                "std_accuracy": report["aggregate"]["mean_final_std"],
            }
        )
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["kernel", "param_count", "megabytes", "mean_accuracy", "std_accuracy"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    **row,
                    "megabytes": f"{row['megabytes']:.6f}",
                    "mean_accuracy": f"{row['mean_accuracy']:.6f}",
                    "std_accuracy": f"{row['std_accuracy']:.6f}",
                }
            )
    if echo is not None:
        for row in rows:
            echo(
                f"kernel {row['kernel']}: {row['megabytes']:.3f} MB -> "
                f"{row['mean_accuracy'] * 100:.2f} %"
            )
    return rows


def ablate_order(config: RunConfig, orders, echo=None) -> list[dict]:
    """One full run per task-order permutation, same seeds, side by side."""
    train_pool, test_pool, kind = load_pools(config)
    if kind == "permuted":
        raise ConfigError(["ablate-order applies to split datasets only"])
    base_groups = _resolve_groups(config, train_pool, kind)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summaries = []
    for i, order in enumerate(orders):
        groups = reorder_groups(base_groups, order)
        sub = dataclasses.replace(config, out_dir=str(out_dir / f"order{i}"))
        results = [result for _, result, _ in _seed_runs(sub, train_pool, test_pool, kind, groups)]
        report = _write_report(
            sub, train_pool, test_pool, kind, results, task_order=[int(v) for v in order]
        )
        summaries.append(
            {
                "order": [int(v) for v in order],
                "mean_accuracy": report["aggregate"]["mean_final_mean"],
                "std_accuracy": report["aggregate"]["mean_final_std"],
                "report": str(Path(sub.out_dir) / "report.json"),
            }
        )
        if echo is not None:
            echo(
                f"order {list(order)}: {report['aggregate']['mean_final_mean'] * 100:.2f} % "
                f"+/- {report['aggregate']['mean_final_std'] * 100:.2f}"
            )
    (out_dir / "ablation.json").write_text(json.dumps(summaries, indent=2, sort_keys=True) + "\n")
    return summaries


def dump_embeddings(config: RunConfig, checkpoint_path, split: str, out_path, echo=None) -> Path:
    """Write one CSV row per sample: task id, true label, feature embedding."""
    if split not in ("train", "val", "test"):
        raise ConfigError([f"split: must be train/val/test, got {split!r}"])
    checkpoint_path = Path(checkpoint_path)
    if not checkpoint_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    meta = ckpt.read_meta(checkpoint_path)
    stored, requested = meta["config"], config.to_dict()
    mismatched = [
        f"{key}: checkpoint was trained with {stored[key]!r}, config asks for {requested[key]!r}"
        for key in ("strategy", "dataset", "num_tasks", "architecture", "adjust_kernel")
        if stored[key] != requested[key]
    ]
    if mismatched:
        raise ConfigError(mismatched)
    train_pool, test_pool, kind = load_pools(config)
    groups = _resolve_groups(config, train_pool, kind)
    arch = _architecture(config, train_pool, kind, groups)
    seq = _build_sequence(config, train_pool, test_pool, kind, groups, meta["seed"])
    state = ckpt.load_state(checkpoint_path, arch, seq)

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rows = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header_written = False
        for t in range(1, state.trained_upto + 1):
            images, labels = task_arrays(seq, seq.tasks[t - 1], split)
            for lo in range(0, images.shape[0], 512):
                emb = state.embed(images[lo : lo + 512], t)
                if not header_written:
                    writer.writerow(["task", "label"] + [f"f{i}" for i in range(emb.shape[1])])
                    header_written = True
                for row, label in zip(emb, labels[lo : lo + 512]):
                    writer.writerow([t, int(label)] + [f"{v:.8e}" for v in row])
                    rows += 1
    if echo is not None:
        echo(f"wrote {rows} embedding rows to {out_path}")
    return out_path
