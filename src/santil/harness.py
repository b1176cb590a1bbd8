"""Run orchestration: full runs, size sweeps, order ablations, embedding dumps."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, load_pools, resolve_architecture
from .engine import run_sequence
from .fileio import atomic_open
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


def _resolve_groups(config: RunConfig, pools):
    train_pool, _, kind = pools
    if kind == "permuted":
        if config.class_order != "default":
            raise ConfigError(["class_order: not applicable to permuted tasks"])
        return None
    try:
        return partition_classes(train_pool.num_classes, config.num_tasks, config.class_order)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None


def _build_sequence(config: RunConfig, pools, groups, seed: int) -> TaskSequence:
    if groups is None:  # permuted tasks take every class
        return build_permuted_sequence(*pools[:2], config.num_tasks, seed)
    return build_split_sequence(*pools[:2], groups, seed)


def _architecture(config: RunConfig, pools, groups) -> ArchitectureSpec:
    first_task_classes = pools[0].num_classes if groups is None else len(groups[0])
    return resolve_architecture(config, pools[0].image_shape, first_task_classes)


def _variant(config: RunConfig, **changes) -> RunConfig:
    return RunConfig.from_dict(config.to_dict() | changes)


def _run_variant(config: RunConfig, pools, groups, **extra) -> dict:
    """The one seed loop: run_sequence per seed over one task grouping, saving
    checkpoint_seed<N>.npz each; then report.json (plus ``extra`` keys) and summary.csv."""
    train_pool, test_pool, kind = pools
    out_dir = Path(config.out_dir)
    arch = _architecture(config, pools, groups)
    results = []
    for seed in config.seeds:
        seq = _build_sequence(config, pools, groups, seed)
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
        ckpt.save_state(state, config, out_dir / f"checkpoint_seed{seed}.npz")
        results.append(result)
    dataset = {
        "name": config.dataset["name"],
        "kind": kind,
        "train_size": train_pool.num_samples,
        "test_size": test_pool.num_samples,
        "num_classes": train_pool.num_classes,
        "normalization": train_pool.provenance.get("normalization", "scale_1_255"),
        "files": train_pool.provenance.get("files", {}),
    }
    report = build_report(config, dataset, results) | extra
    write_report_json(report, out_dir / "report.json")
    write_summary_csv(report, out_dir / "summary.csv")
    return report


def run(config: RunConfig, echo=None) -> dict:
    """Execute run_sequence per seed; write report.json, summary.csv, checkpoints."""
    pools = load_pools(config)
    report = _run_variant(config, pools, _resolve_groups(config, pools))
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
    out_dir = Path(config.out_dir)
    # every width is checked before the first run writes anything
    variants = [_variant(config, adjust_kernel=k, out_dir=str(out_dir / f"kernel{k}")) for k in kernels]
    repeated = sorted({k for k in kernels if kernels.count(k) > 1})
    if repeated:
        raise ConfigError([f"widths: each kernel may appear once; {repeated} repeated"])
    pools = load_pools(config)
    groups = _resolve_groups(config, pools)

    rows = []
    for k, sub in zip(kernels, variants):
        report = _run_variant(sub, pools, groups)
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
    with atomic_open(out_dir / "sweep.csv", "w", newline="") as fh:
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
    pools = load_pools(config)
    if pools[2] == "permuted":
        raise ConfigError(["ablate-order applies to split datasets only"])
    base_groups = _resolve_groups(config, pools)
    try:  # every order is checked before the first run writes anything
        regrouped = [reorder_groups(base_groups, order) for order in orders]
    except ValueError as exc:
        raise ConfigError([f"orders: {exc}"]) from None
    orders = [[int(v) for v in order] for order in orders]
    repeated = [list(o) for o in sorted({tuple(o) for o in orders if orders.count(o) > 1})]
    if repeated:
        raise ConfigError([f"orders: each order may appear once; {repeated} repeated"])
    out_dir = Path(config.out_dir)
    variants = [_variant(config, out_dir=str(out_dir / f"order{i}")) for i in range(len(orders))]

    summaries = []
    for order, groups, sub in zip(orders, regrouped, variants):
        report = _run_variant(sub, pools, groups, task_order=order)
        summaries.append(
            {
                "order": order,
                "mean_accuracy": report["aggregate"]["mean_final_mean"],
                "std_accuracy": report["aggregate"]["mean_final_std"],
                "report": str(Path(sub.out_dir) / "report.json"),
            }
        )
        if echo is not None:
            echo(
                f"order {order}: {report['aggregate']['mean_final_mean'] * 100:.2f} % "
                f"+/- {report['aggregate']['mean_final_std'] * 100:.2f}"
            )
    with atomic_open(out_dir / "ablation.json") as fh:
        fh.write(json.dumps(summaries, indent=2, sort_keys=True) + "\n")
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
    pools = load_pools(config)
    groups = _resolve_groups(config, pools)
    arch = _architecture(config, pools, groups)
    seq = _build_sequence(config, pools, groups, meta["seed"])
    state = ckpt.load_state(checkpoint_path, arch, seq)

    out_path = Path(out_path)
    rows = 0
    # rows are written as they are computed, so a failure must not leave them behind
    with atomic_open(out_path, "w", newline="") as fh:
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
