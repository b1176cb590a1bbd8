"""The trained bits, pinned: hashes of the smoke runs' outputs, per build.

Each run is the smoke config (``configs/synthetic-smoke.json``) at seed 1
under one strategy; "smoke7" gives it 7 classes, so its tasks are uneven, and
3 epochs. A run's ``summary.csv`` and its checkpoint's parameter arrays (name,
then bytes, in name order, without ``__meta__``) are hashed with sha256 and
compared, first 16 hex digits, with ``golden.json``. The variant commands
are pinned the same way on the smoke config at 3 epochs: a size sweep over
widths 1, 3 and 5 and an order ablation over orders [0, 1, 2] and [2, 0, 1],
each with its summary file and every variant's ``summary.csv`` and arrays.
Two more runs train the full-size presets for 1 epoch on small synthetic
corpora of their image shapes, ``mnist-small`` under ``san`` and
``cifar-small`` under ``finetune``, so that the 16-, 32- and 64-channel
convs are pinned too; the sweep's width 1 pins the 1x1 conv.
The file-dataset runs write MNIST IDX and CIFAR-10 binary fixtures from the
synthetic corpus (``tests/dataset_writers``) and train the ``tiny`` preset on
the real image shape at 3 epochs: a 5-task MNIST split, ``permuted-mnist``
(3 tasks) on the same files, and a 5-task CIFAR-10 split. A ``.gz`` drop-in
of the IDX files must give the plain files' hashes. Every pool, synthetic or
file, holds ``uint8`` pixels that ``task_arrays`` scales, so every run here
takes that path, and a synthetic config with the MNIST fixture's corpus must
give the MNIST split's hashes.
The bits of a float32 GEMM depend on the numpy build, the BLAS library and
the kernel it picks for the CPU, so ``golden.json`` keys its hashes by that
fingerprint, and on a fingerprint it does not list the test skips and names
it. A change that moves the bits on purpose updates ``golden.json`` and says
why.
"""

import ctypes
import gzip
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from santil import harness
from santil.config import RunConfig
from santil.data import synthetic_dataset
from dataset_writers import save_cifar, save_idx

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))

SMOKE = json.loads((ROOT / "configs" / "synthetic-smoke.json").read_text(encoding="utf-8"))
# pinned run -> what it changes in the smoke config
RUNS = {
    **{f"smoke-{s}": {"strategy": s} for s in ("san", "baseline", "finetune", "independent")},
    **{
        f"smoke7-{s}": {"strategy": s, "dataset": SMOKE["dataset"] | {"num_classes": 7}, "epochs": 3}
        for s in ("san", "finetune", "independent")
    },
    "mnist-small-san": {
        "architecture": "mnist-small",
        "dataset": {"name": "synthetic", "num_classes": 6, "per_class": 10, "per_class_test": 4, "shape": [1, 28, 28]},
        "epochs": 1,
    },
    "cifar-small-finetune": {
        "strategy": "finetune",
        "architecture": "cifar-small",
        "dataset": {"name": "synthetic", "num_classes": 4, "per_class": 4, "per_class_test": 2, "shape": [3, 32, 32]},
        "num_tasks": 2,
        "epochs": 1,
    },
}


def _openblas_corename():
    """The CPU kernel set OpenBLAS chose at load time, where the bundled library exports it."""
    package = Path(np.__file__).resolve().parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _write_mnist(root: Path, gz: bool) -> None:
    mnist = root / "mnist"
    mnist.mkdir(parents=True)
    save_idx(synthetic_dataset(10, 20, (1, 28, 28)), mnist / "train-images-idx3-ubyte", mnist / "train-labels-idx1-ubyte")
    test = synthetic_dataset(10, 5, (1, 28, 28), seed=1, pattern_seed=0)
    save_idx(test, mnist / "t10k-images-idx3-ubyte", mnist / "t10k-labels-idx1-ubyte")
    if gz:
        for path in list(mnist.iterdir()):
            path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes()))
            path.unlink()


def _write_cifar10(root: Path) -> None:
    cifar = root / "cifar-10-batches-bin"
    cifar.mkdir(parents=True)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for i, name in enumerate(names):
        save_cifar(synthetic_dataset(10, 2, (3, 32, 32), seed=i, pattern_seed=0), cifar / name, "cifar10")


# pinned run -> (config dataset, num_tasks, fixture writer taking the data root)
FILE_RUNS = {
    "mnist-idx": ("mnist", 5, lambda root: _write_mnist(root, gz=False)),
    "mnist-idx.gz": ("mnist", 5, lambda root: _write_mnist(root, gz=True)),
    "permuted-mnist-idx": ("permuted-mnist", 3, lambda root: _write_mnist(root, gz=False)),
    "permuted-mnist-idx.gz": ("permuted-mnist", 3, lambda root: _write_mnist(root, gz=True)),
    "cifar10": ("cifar10", 5, _write_cifar10),
}

# command -> (how it runs a config, its summary file, its variants' directories)
VARIANT_COMMANDS = {
    "sweep": (lambda cfg: harness.sweep_size(cfg, [1, 3, 5]), "sweep.csv", ["kernel1", "kernel3", "kernel5"]),
    "ablate": (
        lambda cfg: harness.ablate_order(cfg, [[0, 1, 2], [2, 0, 1]]),
        "ablation.json",
        ["order0", "order1"],
    ),
}


def fingerprint() -> str:
    """numpy version, BLAS name and version, and OpenBLAS's runtime core where known."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts = [f"numpy {np.__version__}", f"{blas['name']} {blas['version']}"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        parts = [f"numpy {np.__version__}", "blas unknown"]
    corename = _openblas_corename()
    return ", ".join(parts if corename is None else [*parts, corename])


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def arrays_hash(checkpoint: Path) -> str:
    with np.load(checkpoint) as bundle:
        names = sorted(set(bundle.files) - {"__meta__"})
        return sha16(b"".join(name.encode("utf-8") + bundle[name].tobytes() for name in names))


def pinned() -> dict:
    expected = GOLDEN.get(fingerprint())
    if expected is None:
        pytest.skip(f"no pinned hashes for this build: {fingerprint()!r}")
    return expected


def run_hashes(out_dir: Path) -> dict:
    return {
        "summary.csv": sha16((out_dir / "summary.csv").read_bytes()),
        "arrays": arrays_hash(out_dir / "checkpoint_seed1.npz"),
    }


@pytest.mark.parametrize("run", RUNS)
def test_trained_bits_match_the_pinned_hashes(tmp_path, run):
    expected = pinned()
    harness.run(RunConfig.from_dict(SMOKE | RUNS[run] | {"out_dir": str(tmp_path / run)}))
    assert run_hashes(tmp_path / run) == expected[run]


@pytest.mark.parametrize("command", VARIANT_COMMANDS)
def test_variant_command_outputs_match_the_pinned_hashes(tmp_path, monkeypatch, command):
    expected = pinned()
    call, summary, variants = VARIANT_COMMANDS[command]
    # a relative out_dir, so the report paths that ablation.json lists do not name tmp_path
    monkeypatch.chdir(tmp_path)
    call(RunConfig.from_dict(SMOKE | {"epochs": 3, "out_dir": command}))
    got = {summary: sha16((tmp_path / command / summary).read_bytes())}
    got |= {variant: run_hashes(tmp_path / command / variant) for variant in variants}
    assert got == expected[command]


@pytest.mark.parametrize("run", FILE_RUNS)
def test_file_dataset_bits_match_the_pinned_hashes(tmp_path, run):
    expected = pinned()
    dataset, num_tasks, write = FILE_RUNS[run]
    write(tmp_path / "data")
    raw = SMOKE | {"dataset": dataset, "num_tasks": num_tasks, "epochs": 3, "data_root": str(tmp_path / "data")}
    harness.run(RunConfig.from_dict(raw | {"out_dir": str(tmp_path / "out")}))
    # a .gz drop-in is pinned by its plain files' hashes
    assert run_hashes(tmp_path / "out") == expected[run.removesuffix(".gz")]


def test_synthetic_twin_of_the_mnist_fixture_matches_its_pins(tmp_path):
    """The corpus ``_write_mnist`` writes, as a synthetic config, trains the ``mnist-idx`` bits."""
    expected = pinned()
    twin = {
        "name": "synthetic", "num_classes": 10, "per_class": 20, "per_class_test": 5, "shape": [1, 28, 28], "data_seed": 0
    }
    raw = SMOKE | {"dataset": twin, "num_tasks": 5, "epochs": 3, "out_dir": str(tmp_path / "out")}
    harness.run(RunConfig.from_dict(raw))
    assert run_hashes(tmp_path / "out") == expected["mnist-idx"]
