"""Run every workload over several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py --out perfbench/BENCH_0.json

Run from the root of a santil checkout. Each workload in BENCHMARK.json runs
untraced with seeds 1-10 and traced with seeds 1-3, one ``run.py`` process
at a time. For each end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json; per-module metrics come from
the traced runs. The summary is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNTRACED_SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        untraced = []
        for seed in UNTRACED_SEEDS:
            start = time.perf_counter()
            info, result = run_once(name, seed, seconds, 0)
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: checks failed: {result}")
            untraced.append((info, result))
            print(f"{name} seed {seed}: {result['attempted']} sequences, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        traced = [run_once(name, seed, seconds, 1)[1] for seed in TRACED_SEEDS]
        entry = {
            "seeds": [info["env"]["seed"] for info, _ in untraced],
            "sequences": [result["attempted"] for _, result in untraced],
            "accuracy": {info["env"]["seed"]: info["accuracy"] for info, _ in untraced},
            "end_to_end": {},
            "per_layer": {},
        }
        summary["env"] = {k: v for k, v in untraced[0][0]["env"].items() if k != "seed"}
        for metric in untraced[0][1]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for _, r in untraced])
            stats["unit"] = units[metric]
            stats["bound"] = bounds[metric]
            entry["end_to_end"][metric] = stats
        for metric in traced[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in traced])
            stats["unit"] = units[metric]
            entry["per_layer"][metric] = stats
        summary["workloads"][name] = entry

        for metric, s in entry["end_to_end"].items():
            bound = s["bound"]
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(f"{name:16} {metric:22} median {s['median']:12.5g} {s['unit']:8} "
                  f"spread {s['spread']:6.3f} bound {bound} {flag}")

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
