"""Self-test of the benchmark at tiny size: output schema and metric names.

    python3 -m pytest perfbench -q

Run from the root of a santil checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.01"]
    cmd += ["--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()

    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0
        if not trace:
            assert got["value"] > 0, m["name"]

    info = json.loads(info_line)
    assert info["workload"] == workload
    env = info["env"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "seed"):
        assert key in env
    assert env["seed"] == 3 and env["blas_threads"] >= 1
    accuracies = info["accuracy"]["final_per_task"]
    assert all(0.0 <= a <= 1.0 for a in accuracies)


def test_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, the run must fail, not pass."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_probe_target_fails_the_run(monkeypatch, tmp_path):
    """A probed name santil no longer has fails every sequence, not reads as zero."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workload

    gone = (spans.layers, "no_such_op", "tensor.no_such_op", None, None)
    monkeypatch.setattr(spans, "FINE_PROBES", spans.FINE_PROBES + (gone,))
    result, _ = workload.run(WORKLOADS[0], 3, 0.01, True, tmp_path, tiny=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
