"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Fast criteria (gradients, zero-forgetting, loader fixtures, determinism,
orthogonality) always run. The MNIST and CIFAR criteria train at the full
published budget and need the dataset files under $SAN_TIL_DATA_ROOT (or
./data); they skip with a fetch hint when the files are absent. The CIFAR
smoke additionally wants SAN_TIL_RUN_CIFAR_SMOKE=1 since it is excluded
from default CI.

Run everything available:  pytest tests/test_acceptance.py -v -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from santil.cli import main as cli_main
from santil.data import DATASET_FILES, load_cifar, load_idx, synthetic_dataset
from santil.engine import IncrementalState, predict_logits, train_task
from santil.gradcheck import grad_check, gradient_suite
from santil.layers import PRESETS, assert_frozen
from santil.report import strip_wall_clock
from santil.tasks import build_permuted_sequence, build_split_sequence, partition_classes, reorder_groups, task_arrays
from santil.tensor import Tensor, orthogonality_penalty
from whole_run import run_whole

DATA_ROOT = Path(os.environ.get("SAN_TIL_DATA_ROOT", "data"))

MNIST_TRAIN_HIST = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]
MNIST_TEST_HIST = [980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009]


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dataset_paths(recipe, what):
    """(train paths, test paths) of a recipe's files under the data root;
    skips with a fetch hint when one is missing."""
    layout = DATASET_FILES[recipe]
    base = DATA_ROOT / layout.directory
    train, test = [base / f for f in layout.train], [base / f for f in layout.test]
    if any(not p.exists() for p in train + test):
        pytest.skip(
            f"{what} missing under {base}; run "
            f"`santil fetch-data --dataset {recipe} --data-root {DATA_ROOT}`"
        )
    return train, test


@pytest.fixture(scope="module")
def mnist_pools():
    train, test = dataset_paths("mnist", "MNIST files")
    return load_idx(*train, {}), load_idx(*test, {})


_RUN_CACHE = {}


def mnist_full_run(pools, strategy, seed, order=None, epochs=30):
    """Full-budget 5-split MNIST run, cached per (strategy, seed, order)."""
    key = (strategy, seed, tuple(order) if order else None, epochs)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    train, test = pools
    groups = partition_classes(10, 5)
    if order is not None:
        groups = reorder_groups(groups, order)
    seq = build_split_sequence(train, test, groups, master_seed=seed)
    arch = PRESETS["mnist-small"]((1, 28, 28), base_classes=len(groups[0]))
    started = time.perf_counter()
    result, state = run_whole(
        strategy, arch, seq, seed, epochs=epochs, batch_size=64, lr=0.001
    )
    _RUN_CACHE[key] = (result, state, time.perf_counter() - started)
    return _RUN_CACHE[key]


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    errors = gradient_suite(instances=20, seed=0)
    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = all(err <= 1e-4 for err in errors.values()) and errors["composed_network"] <= 1e-4
    ok = ok and elapsed < 60.0
    report_line(
        1, ok, f"{len(errors)} ops, worst rel err {worst:.2e} (<=1e-4), {elapsed:.1f}s (<60s)"
    )


# ---------------------------------------------------------------------------
# criterion 2: zero-forgetting exactness on synthetic tasks


def test_criterion_02_zero_forgetting_exactness():
    started = time.perf_counter()
    train = synthetic_dataset(6, 80, (1, 8, 8), seed=100)
    test = synthetic_dataset(6, 20, (1, 8, 8), seed=101, pattern_seed=100)
    seq = build_split_sequence(train, test, partition_classes(6, 3), master_seed=11)
    arch = PRESETS["tiny"]((1, 8, 8), base_classes=2)

    exact = {}
    for strategy in ("san", "baseline", "finetune"):
        state = IncrementalState(strategy, arch, seq, master_seed=11)
        kept = {}
        for t in (1, 2, 3):
            train_task(state, t, epochs=2, batch_size=16)
            images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
            kept[t] = predict_logits(state, t, images)
        drift = [
            predict_logits(state, t, task_arrays(seq, seq.tasks[t - 1], "test")[0]).tobytes()
            != kept[t].tobytes()
            for t in (1, 2)
        ]
        exact[strategy] = not any(drift)
    elapsed = time.perf_counter() - started
    ok = exact["san"] and exact["baseline"] and not exact["finetune"] and elapsed < 60.0
    report_line(
        2,
        ok,
        f"bit-identical earlier-task logits: san={exact['san']} baseline={exact['baseline']} "
        f"finetune={exact['finetune']} (must be False), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criteria 3-6, 8: full-budget 5-split MNIST


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_03_frozen_bit_identity_after_full_run(mnist_pools):
    _, state, _ = mnist_full_run(mnist_pools, "san", seed=1)
    shared = [p for part in ("backbone", "classifier") for p in state.per_task[1][part].parameters()]
    ok, path = assert_frozen([state.per_task[1]["backbone"], state.per_task[1]["classifier"]], state.snapshot)
    ok = ok and all(p.name in state.snapshot for p in shared)
    report_line(3, ok, f"backbone/classifier bitwise frozen (first drift: {path})")


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_04_san_full_budget_accuracy(mnist_pools):
    result, _, elapsed = mnist_full_run(mnist_pools, "san", seed=1)
    ok = result.mean_final >= 0.99
    report_line(
        4,
        ok,
        f"SAN 5-split MNIST mean {result.mean_final * 100:.2f}% (>=99.0), "
        f"{elapsed / 60:.1f} min (target <=30)",
    )


@pytest.mark.mnist
def test_criterion_04b_san_fast_profile(mnist_pools):
    result, _, elapsed = mnist_full_run(mnist_pools, "san", seed=1, epochs=5)
    ok = result.mean_final >= 0.985
    report_line(
        "4-fast",
        ok,
        f"SAN 5-split MNIST (5 epochs) mean {result.mean_final * 100:.2f}% (>=98.5), "
        f"{elapsed / 60:.1f} min (target <=6)",
    )


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_05_finetune_forgets(mnist_pools):
    san, _, _ = mnist_full_run(mnist_pools, "san", seed=1)
    ft, _, _ = mnist_full_run(mnist_pools, "finetune", seed=1)
    gap = (san.mean_final - ft.mean_final) * 100
    ok = ft.mean_final <= 0.90 and gap >= 10.0
    report_line(
        5,
        ok,
        f"finetune mean {ft.mean_final * 100:.2f}% (<=90), {gap:.1f} points below SAN (>=10)",
    )


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_06_san_vs_baseline_three_seeds(mnist_pools):
    san_means = [mnist_full_run(mnist_pools, "san", seed=s)[0].mean_final for s in (1, 2, 3)]
    base_means = [mnist_full_run(mnist_pools, "baseline", seed=s)[0].mean_final for s in (1, 2, 3)]
    san_mean = float(np.mean(san_means))
    base_mean = float(np.mean(base_means))
    ok = san_mean >= base_mean - 0.003
    report_line(
        6,
        ok,
        f"SAN {san_mean * 100:.2f}% vs Baseline {base_mean * 100:.2f}% over 3 seeds "
        f"(SAN >= Baseline - 0.3 points)",
    )


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_07_permuted_mnist_desk_profile(mnist_pools):
    train, test = mnist_pools
    seq = build_permuted_sequence(train, test, num_tasks=3, master_seed=1)
    arch = PRESETS["mnist-small"]((1, 28, 28), base_classes=10)
    started = time.perf_counter()
    result, _ = run_whole("san", arch, seq, 1, epochs=30, batch_size=64, lr=0.001)
    elapsed = time.perf_counter() - started
    ok = result.mean_final >= 0.95
    report_line(
        7,
        ok,
        f"permuted MNIST (3 tasks) SAN mean {result.mean_final * 100:.2f}% (>=95), "
        f"{elapsed / 60:.1f} min (target <=25)",
    )


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_08_task_order_robustness(mnist_pools):
    forward, _, t1 = mnist_full_run(mnist_pools, "san", seed=1)
    reverse, _, t2 = mnist_full_run(mnist_pools, "san", seed=1, order=[4, 3, 2, 1, 0])
    diff = abs(forward.mean_final - reverse.mean_final) * 100
    ok = forward.mean_final >= 0.98 and reverse.mean_final >= 0.98 and diff <= 1.0
    report_line(
        8,
        ok,
        f"orders 01234/43210 mean {forward.mean_final * 100:.2f}%/"
        f"{reverse.mean_final * 100:.2f}% (both >=98), diff {diff:.2f} (<=1.0), "
        f"{(t1 + t2) / 60:.1f} min",
    )


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_07b_permuted_mnist_long_run(mnist_pools):
    if os.environ.get("SAN_TIL_RUN_PERMUTED10") != "1":
        pytest.skip("optional 10-task permuted run; set SAN_TIL_RUN_PERMUTED10=1 to enable")
    train, test = mnist_pools
    seq = build_permuted_sequence(train, test, num_tasks=10, master_seed=1)
    arch = PRESETS["mnist-small"]((1, 28, 28), base_classes=10)
    result, _ = run_whole("san", arch, seq, 1, epochs=30, batch_size=64, lr=0.001)
    ok = abs(result.mean_final - 0.987) <= 0.010
    report_line(
        "7-long", ok, f"permuted MNIST (10 tasks) SAN mean {result.mean_final * 100:.2f}% (98.7 +/- 1.0)"
    )


# ---------------------------------------------------------------------------
# criterion 9: CIFAR smoke (opt-in, excluded from default CI)


@pytest.mark.cifar
@pytest.mark.slow
def test_criterion_09_cifar10_smoke():
    if os.environ.get("SAN_TIL_RUN_CIFAR_SMOKE") != "1":
        pytest.skip("long-running CIFAR smoke; set SAN_TIL_RUN_CIFAR_SMOKE=1 to enable")
    train_paths, test_paths = dataset_paths("cifar10", "CIFAR-10 binaries")
    train, test = load_cifar(train_paths, "cifar10", {}), load_cifar(test_paths, "cifar10", {})
    seq = build_split_sequence(train, test, partition_classes(10, 5), master_seed=1)
    arch = PRESETS["cifar-small"]((3, 32, 32), base_classes=2)
    result, _ = run_whole("san", arch, seq, 1, epochs=30, batch_size=64, lr=0.001)
    ok = result.mean_final >= 0.65
    report_line(9, ok, f"SAN 5-split CIFAR-10 mean {result.mean_final * 100:.2f}% (>=65)")


# ---------------------------------------------------------------------------
# criterion 10: loader fidelity


def test_criterion_10a_byte_fixture_round_trips(tmp_path):
    import struct

    from dataset_writers import save_cifar, save_idx

    started = time.perf_counter()
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
    img_path, lab_path = tmp_path / "imgs", tmp_path / "labs"
    img_path.write_bytes(struct.pack(">IIII", 0x803, 3, 5, 4) + pixels.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
    ds = load_idx(img_path, lab_path, {})
    out_i, out_l = tmp_path / "imgs2", tmp_path / "labs2"
    save_idx(ds, out_i, out_l)
    idx_ok = out_i.read_bytes() == img_path.read_bytes() and out_l.read_bytes() == lab_path.read_bytes()
    idx_ok = idx_ok and ds.images.dtype == np.uint8 and ds.images.tobytes() == pixels.tobytes()

    cifar_raw = b""
    for label in (2, 9):
        cifar_raw += bytes([label]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
    cpath = tmp_path / "batch.bin"
    cpath.write_bytes(cifar_raw)
    cds = load_cifar([cpath], "cifar10", {})
    cout = tmp_path / "batch2.bin"
    save_cifar(cds, cout, "cifar10")
    cifar_ok = cout.read_bytes() == cifar_raw and cds.images.dtype == np.uint8
    elapsed = time.perf_counter() - started
    ok = idx_ok and cifar_ok and elapsed < 60.0
    report_line("10a", ok, f"IDX and CIFAR byte fixtures load as uint8 pools and round-trip bit-exactly, {elapsed:.1f}s")


@pytest.mark.mnist
def test_criterion_10b_mnist_counts_and_histograms(mnist_pools):
    train, test = mnist_pools
    hist_train = np.bincount(train.labels, minlength=10).tolist()
    hist_test = np.bincount(test.labels, minlength=10).tolist()
    # the pools hold the files' bytes; task_arrays scales what training and scoring see
    seq = build_split_sequence(train, test, partition_classes(10, 1), master_seed=1)
    scaled = [task_arrays(seq, seq.tasks[0], split)[0] for split in ("train", "val", "test")]
    ok = (
        train.images.shape == (60000, 1, 28, 28)
        and test.images.shape == (10000, 1, 28, 28)
        and hist_train == MNIST_TRAIN_HIST
        and hist_test == MNIST_TEST_HIST
        and sum(images.shape[0] for images in scaled) == 70000
        and all(images.dtype == np.float32 for images in scaled)
        and min(float(images.min()) for images in scaled) >= 0.0
        and max(float(images.max()) for images in scaled) <= 1.0
    )
    report_line("10b", ok, "MNIST 60000/10000 of 1x28x28, published label histograms, pixels in [0,1]")


def test_criterion_10c_cifar_counts_and_balance():
    train_paths, test_paths = dataset_paths("cifar10", "CIFAR-10 binaries")
    train, test = load_cifar(train_paths, "cifar10", {}), load_cifar(test_paths, "cifar10", {})
    ok = (
        train.images.shape == (50000, 3, 32, 32)
        and test.images.shape == (10000, 3, 32, 32)
        and np.bincount(train.labels).tolist() == [5000] * 10
        and np.bincount(test.labels).tolist() == [1000] * 10
    )
    report_line("10c", ok, "CIFAR-10 50000/10000 of 3x32x32 with balanced class histograms")


# ---------------------------------------------------------------------------
# criterion 11: determinism of report.json


def test_criterion_11_byte_identical_reports(tmp_path):
    cfg = {
        "strategy": "san",
        "dataset": {"name": "synthetic", "num_classes": 4, "per_class": 60, "per_class_test": 20, "shape": [1, 8, 8], "data_seed": 7},
        "num_tasks": 2,
        "architecture": "tiny",
        "epochs": 2,
        "batch_size": 16,
        "seeds": [1],
        "out_dir": "",
    }
    cfg_path = tmp_path / "cfg.json"
    reports, params = [], []
    for run_dir in ("r1", "r2"):
        cfg["out_dir"] = str(tmp_path / run_dir)
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        raw = json.loads((tmp_path / run_dir / "report.json").read_text())
        raw["config"]["out_dir"] = ""
        reports.append(json.dumps(strip_wall_clock(raw), sort_keys=True).encode())
        # __meta__ holds the run's out_dir; every other array is a parameter
        with np.load(tmp_path / run_dir / "checkpoint_seed1.npz") as bundle:
            params.append({k: (bundle[k].dtype.str, bundle[k].shape, bundle[k].tobytes()) for k in bundle.files if k != "__meta__"})
    ok = reports[0] == reports[1] and params[0] == params[1]
    report_line(
        11,
        ok,
        "repeated runs byte-identical: report.json outside wall-clock fields, "
        f"{len(params[0])} checkpoint parameter arrays",
    )


# ---------------------------------------------------------------------------
# criterion 12: orthogonality loss values and gradient


def test_criterion_12_orthogonality_loss():
    at_identity = orthogonality_penalty(Tensor(np.eye(64), dtype=np.float64)).data.item()
    at_two_i = orthogonality_penalty(Tensor(2 * np.eye(64), dtype=np.float64)).data.item()
    a = Tensor(np.random.default_rng(5).normal(size=(4, 4)) * 0.5, requires_grad=True, dtype=np.float64)
    grad_err = grad_check(orthogonality_penalty, [a])
    ok = abs(at_identity) <= 1e-8 and abs(at_two_i - 576.0) <= 1e-8 and grad_err <= 1e-5
    report_line(
        12,
        ok,
        f"penalty(I)={at_identity:.1e} (0), penalty(2I)={at_two_i:.6f} (576), "
        f"grad err {grad_err:.2e} (<=1e-5)",
    )
