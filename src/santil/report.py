"""Run report assembly and serialization.

report.json carries accuracies as fractions; the console table renders
percentages. Timing lives only in the fields listed in WALL_CLOCK_FIELDS,
so two identical runs produce byte-identical reports once those fields are
stripped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .config import RunConfig
from .engine import SeedRunResult
from .fileio import atomic_open

WALL_CLOCK_FIELDS = ("wall_clock_sec", "train_seconds", "started_at")


def build_report(config: RunConfig, dataset_info: dict, results: Sequence[SeedRunResult], started_at: str) -> dict:
    means = [r.mean_final for r in results]
    mean = sum(means) / len(means)
    std = math.sqrt(sum((m - mean) ** 2 for m in means) / len(means))
    return {
        "config": config.to_dict(),
        "dataset": dict(dataset_info),
        "seeds": [asdict(r) for r in results],
        "aggregate": {
            "num_seeds": len(results),
            "mean_final_mean": mean,
            "mean_final_std": std,
        },
        "started_at": started_at,
    }


def write_report_json(report: dict, path) -> Path:
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def write_summary_csv(report: dict, path) -> Path:
    """One row per seed per task; accuracies printed to 6 decimal places."""
    path = Path(path)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "seed",
                "task",
                "classes",
                "final_accuracy",
                "trainable_params",
                "param_count",
                "megabytes",
            ]
        )
        for entry in report["seeds"]:
            for rec, acc in zip(entry["per_task"], entry["final_per_task"]):
                writer.writerow(
                    [
                        entry["seed"],
                        rec["task"],
                        " ".join(str(c) for c in rec["classes"]),
                        f"{acc:.6f}",
                        rec["trainable_params"],
                        rec["param_count"],
                        f"{rec['megabytes']:.6f}",
                    ]
                )
    return path


def strip_wall_clock(report: dict) -> dict:
    """Copy of a report with timing fields removed (for determinism checks)."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k not in WALL_CLOCK_FIELDS}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(report)


def render_console_table(report: dict) -> str:
    """Accuracy (model size) summary with percentages, one line per seed."""
    lines = []
    cfg = report["config"]
    lines.append(
        f"strategy={cfg['strategy']} dataset={cfg['dataset']['name']} "
        f"tasks={cfg['num_tasks']} epochs={cfg['epochs']}"
    )
    header = f"{'seed':>6} {'mean acc %':>12} {'size MB':>10}  per-task acc %"
    lines.append(header)
    for entry in report["seeds"]:
        size_mb = entry["per_task"][-1]["megabytes"]
        per_task = " ".join(f"{a * 100:6.2f}" for a in entry["final_per_task"])
        lines.append(
            f"{entry['seed']:>6} {entry['mean_final'] * 100:>12.2f} {size_mb:>10.2f}  {per_task}"
        )
    agg = report["aggregate"]
    lines.append(
        f"aggregate over {agg['num_seeds']} seed(s): "
        f"{agg['mean_final_mean'] * 100:.2f} +/- {agg['mean_final_std'] * 100:.2f} %"
    )
    return "\n".join(lines)
