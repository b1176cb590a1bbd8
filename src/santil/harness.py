"""Run orchestration: full runs, size sweeps, order ablations, embedding dumps."""

from __future__ import annotations

import csv
import json
import numbers
import time
from datetime import datetime, timezone
from pathlib import Path

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, load_pools, repeat_problems, resolve_architecture, sequence_kind
from .engine import IncrementalState, SeedRunResult, run_sequence
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
    if sequence_kind(config.dataset) == "permuted":  # permuted tasks take every class
        return None
    try:
        return partition_classes(pools[0].num_classes, config.num_tasks, config.class_order)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None


def _build_sequence(config: RunConfig, pools, groups, seed: int) -> TaskSequence:
    if groups is None:
        return build_permuted_sequence(*pools[:2], config.num_tasks, seed)
    return build_split_sequence(*pools[:2], groups, seed)


def _architecture(config: RunConfig, pools, groups) -> ArchitectureSpec:
    """The grouping's architecture, its head as wide as the widest task."""
    counts = [pools[0].num_classes] * config.num_tasks if groups is None else [len(g) for g in groups]
    return resolve_architecture(config, pools[0].image_shape, *counts)


def _variant(config: RunConfig, **changes) -> RunConfig:
    return RunConfig.from_dict(config.to_dict() | changes)


def _run_variant(config: RunConfig, pools, groups, arch: ArchitectureSpec, **extra) -> dict:
    """The one seed loop: a new state per seed over one task grouping, trained through
    run_sequence and saved as checkpoint_seed<N>.npz; then report.json (plus ``extra``
    keys) and summary.csv."""
    started_at = datetime.now(timezone.utc).isoformat()
    train_pool, test_pool, files = pools
    out_dir = Path(config.out_dir)
    settings = dict(epochs=config.epochs, batch_size=config.batch_size, lr=config.lr, ortho_alpha=config.ortho_alpha)
    results = []
    for seed in config.seeds:
        state = IncrementalState(config.strategy, arch, _build_sequence(config, pools, groups, seed), seed)
        start = time.perf_counter()
        rows = list(run_sequence(state, **settings))
        results.append(SeedRunResult.from_rows(state, rows, time.perf_counter() - start))
        ckpt.save_state(state, config, out_dir / f"checkpoint_seed{seed}.npz")
    dataset = {
        "name": config.dataset["name"],
        "kind": sequence_kind(config.dataset),
        "train_size": train_pool.num_samples,
        "test_size": test_pool.num_samples,
        "num_classes": train_pool.num_classes,
        "normalization": "scale_1_255",
        "files": files,
    }
    report = build_report(config, dataset, results, started_at) | extra
    write_report_json(report, out_dir / "report.json")
    write_summary_csv(report, out_dir / "summary.csv")
    return report


def _run_variants(variants, pools):
    """Run each variant, a (config, task groups, extra report keys) triple, through
    ``_run_variant`` in order, yielding its report as it finishes. Every architecture is
    resolved and every out_dir made before the first variant trains; an out_dir that is
    not a directory or cannot be made is a config error."""
    archs = [_architecture(config, pools, groups) for config, groups, _ in variants]
    for config, _, _ in variants:
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"out_dir: cannot make directory {config.out_dir}: {exc.strerror}"]) from None
    for (config, groups, extra), arch in zip(variants, archs):
        yield _run_variant(config, pools, groups, arch, **extra)


def run(config: RunConfig, echo=None) -> dict:
    """Train every seed of the config; write report.json, summary.csv, checkpoints."""
    pools = load_pools(config)
    (report,) = _run_variants([(config, _resolve_groups(config, pools), {})], pools)
    if echo is not None:
        echo(render_console_table(report))
    return report


def sweep_size(config: RunConfig, kernels, echo=None) -> list[dict]:
    """One run per adjustment kernel width; backbone and classifier specs fixed.

    Model size varies through the adjustment conv kernels only, so the
    (MB, accuracy) pairs isolate the capacity of the per-task block.
    """
    # numpy integers become ints; anything else goes to the validator as given
    kernels = [int(k) if isinstance(k, numbers.Integral) and not isinstance(k, bool) else k for k in kernels]
    out_dir = Path(config.out_dir)
    # every width is checked before the first run writes anything
    variants = [_variant(config, adjust_kernel=k, out_dir=str(out_dir / f"kernel{k}")) for k in kernels]
    if repeated := repeat_problems("widths", "kernel", kernels):
        raise ConfigError(repeated)
    pools = load_pools(config)
    groups = _resolve_groups(config, pools)
    rows = []
    for k, report in zip(kernels, _run_variants([(sub, groups, {}) for sub in variants], pools)):
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
            writer.writerow(row | {key: f"{row[key]:.6f}" for key in ("megabytes", "mean_accuracy", "std_accuracy")})
    if echo is not None:
        for row in rows:
            echo(
                f"kernel {row['kernel']}: {row['megabytes']:.3f} MB -> "
                f"{row['mean_accuracy'] * 100:.2f} %"
            )
    return rows


def ablate_order(config: RunConfig, orders, echo=None) -> list[dict]:
    """One full run per task-order permutation, same seeds, side by side."""
    if sequence_kind(config.dataset) == "permuted":
        raise ConfigError(["ablate-order applies to split datasets only"])
    pools = load_pools(config)
    base_groups = _resolve_groups(config, pools)
    try:  # every order is checked before the first run writes anything
        regrouped = [reorder_groups(base_groups, order) for order in orders]
    except ValueError as exc:
        raise ConfigError([f"orders: {exc}"]) from None
    orders = [[int(v) for v in order] for order in orders]  # numpy integers to ints, for the report
    if repeated := repeat_problems("orders", "order", orders):
        raise ConfigError(repeated)
    out_dir = Path(config.out_dir)
    variants = [
        (_variant(config, out_dir=str(out_dir / f"order{i}")), groups, {"task_order": order})
        for i, (order, groups) in enumerate(zip(orders, regrouped))
    ]
    summaries = []
    for i, (order, report) in enumerate(zip(orders, _run_variants(variants, pools))):
        summaries.append(
            {
                "order": order,
                "mean_accuracy": report["aggregate"]["mean_final_mean"],
                "std_accuracy": report["aggregate"]["mean_final_std"],
                "report": str(out_dir / f"order{i}" / "report.json"),
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


def dump_embeddings(checkpoint_path, split: str, out_path, data_root=None, echo=None) -> Path:
    """Write one CSV row per sample (task id, true label, feature embedding) of the run
    the checkpoint stores; ``data_root``, if given, replaces its config's data root."""
    if split not in ("train", "val", "test"):
        raise ConfigError([f"split: must be train/val/test, got {split!r}"])
    checkpoint_path = Path(checkpoint_path)
    if not checkpoint_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    meta = ckpt.read_meta(checkpoint_path)
    config = meta["config"] if data_root is None else _variant(meta["config"], data_root=data_root)
    pools = load_pools(config)
    groups = _resolve_groups(config, pools)
    trained = [tuple(classes) for classes in meta["task_classes"]]
    if groups is not None and sorted(trained) == sorted(groups):
        groups = trained  # an ablate-order checkpoint trained the config's groups in another order
    arch = _architecture(config, pools, groups)
    seq = _build_sequence(config, pools, groups, meta["seed"])
    state = ckpt.load_state(checkpoint_path, arch, seq)

    out_path = Path(out_path)
    rows = 0
    # rows are written as they are computed, so a failure must not leave them behind
    with atomic_open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for t in range(1, state.trained_upto + 1):
            images, labels = task_arrays(seq, seq.tasks[t - 1], split)
            emb = state.embed(images, t)
            if t == 1:
                writer.writerow(["task", "label"] + [f"f{i}" for i in range(emb.shape[1])])
            for row, label in zip(emb, labels):
                writer.writerow([t, int(label)] + [f"{v:.8e}" for v in row])
            rows += len(emb)
    if echo is not None:
        echo(f"wrote {rows} embedding rows to {out_path}")
    return out_path
