import csv
import dataclasses
import gzip
import hashlib
import io
import json
import re
import stat
import struct
import tarfile
from pathlib import Path

import numpy as np
import pytest

from santil import cli, config, harness
from santil.checkpoint import CheckpointMismatchError, load_state, read_meta, save_state
from santil.cli import main
from santil.config import (
    DATASET_NAMES,
    ConfigError,
    DataFilesError,
    RunConfig,
    load_pools,
    resolve_architecture,
)
from santil.data import DATASET_FILES
from santil.fetch import REGISTRY, ChecksumError, FetchError, RemoteFile, fetch_dataset, unpack, verify_checksum
from santil.report import strip_wall_clock, write_summary_csv
from santil.tasks import partition_classes


def synthetic_blobs(seed, per_class, pattern_seed=None):
    """28x28 ten-class blob corpus shaped like the real digit files."""
    from santil.data import synthetic_dataset

    return synthetic_dataset(
        10, per_class, (1, 28, 28), seed=seed, pattern_seed=pattern_seed
    )


def synthetic_config(tmp_path, **overrides) -> RunConfig:
    raw = {
        "strategy": "san",
        "dataset": {"name": "synthetic", "num_classes": 4, "per_class": 60, "per_class_test": 20, "shape": [1, 8, 8], "data_seed": 7},
        "num_tasks": 2,
        "architecture": "tiny",
        "epochs": 2,
        "batch_size": 16,
        "lr": 0.001,
        "seeds": [1],
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def write_config(tmp_path, **overrides) -> Path:
    cfg = synthetic_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def npy_bytes(array) -> bytes:
    """``array`` in .npy format (np.save would append ".npy" to a path's name)."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# files that are not santil checkpoints: how to write each, and what the reader says of it
FOREIGN_CHECKPOINTS = {
    "no-meta": (lambda path: np.savez(path, w=np.zeros(3)), "has no readable __meta__ entry"),
    "text": (lambda path: path.write_text("not an archive"), "is not an .npz archive"),
    "empty": (lambda path: path.write_bytes(b""), "is not an .npz archive"),
    "npy": (lambda path: path.write_bytes(npy_bytes(np.zeros(3))), "is not an .npz archive"),
    "directory": (lambda path: path.mkdir(), "is not an .npz archive"),
}


# an inline architecture whose adjustment output flattens to 64 = 8^2 features on 1x8x8 images
SQUARE_INLINE = {
    "backbone": [{"kind": "conv", "out_channels": 4}, {"kind": "relu"}, {"kind": "maxpool", "k": 2}],
    "adjustment": [{"kind": "conv", "out_channels": 4}, {"kind": "relu"}],
    "classifier": [
        {"kind": "flatten"},
        {"kind": "linear", "out_features": 16},
        {"kind": "relu"},
        {"kind": "linear", "out_features": "base"},
    ],
}


def rewrite_checkpoint(path, change) -> None:
    """Rewrite a checkpoint after ``change(meta, arrays)`` edits its metadata and arrays in place."""
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    meta = json.loads(bytes(arrays.pop("__meta__")))
    change(meta, arrays)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


class TestRunConfig:
    def test_round_trip(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_keys_in_field_order(self, tmp_path):
        # the order is part of the checkpoint metadata's bytes
        assert list(synthetic_config(tmp_path).to_dict()) == [
            "strategy",
            "dataset",
            "num_tasks",
            "architecture",
            "class_order",
            "epochs",
            "batch_size",
            "lr",
            "seeds",
            "ortho_alpha",
            "adjust_kernel",
            "data_root",
            "out_dir",
        ]

    def test_to_dict_is_an_independent_copy(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 2}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        before = json.dumps(cfg.to_dict())
        raw = cfg.to_dict()
        raw["dataset"]["shape"].append(9)
        raw["architecture"]["backbone"].append({"kind": "relu"})
        raw["seeds"].append(4)
        assert json.dumps(cfg.to_dict()) == before

    def test_field_level_diagnostics_collected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(
                {
                    "strategy": "sdg",
                    "dataset": "imagenet",
                    "num_tasks": 0,
                    "architecture": "nope",
                    "epochs": -1,
                    "typo_field": 1,
                }
            )
        text = "\n".join(err.value.problems)
        for field in ("strategy", "dataset", "num_tasks", "architecture", "epochs", "typo_field"):
            assert field in text

    def test_every_field_has_one_check_in_field_order(self):
        # a field without an entry would go unchecked
        assert list(config._FIELD_CHECKS) == [f.name for f in dataclasses.fields(RunConfig)]

    def test_every_field_wrong_gives_one_problem_list_in_field_order(self):
        raw = {
            "typo": 1,
            "strategy": "sgd",
            "dataset": {"name": "synthetic", "extra": 1, "num_classes": 0, "per_class": 1,
                        "per_class_test": True, "shape": [1, 8], "data_seed": -1},
            "num_tasks": 0,
            "architecture": {"backbone": [], "head": []},
            "class_order": [0, 1.5],
            "epochs": 0,
            "batch_size": -1,
            "lr": 0,
            "seeds": [1, 1],
            "ortho_alpha": -0.5,
            "adjust_kernel": 4,
            "data_root": 3,
            "out_dir": None,
        }
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert err.value.problems == [
            "typo: unknown field",
            "strategy: must be one of ['san', 'baseline', 'finetune', 'independent'], got 'sgd'",
            "dataset.extra: unknown field",
            "dataset.num_classes: must be a positive integer, got 0",
            "dataset.per_class: must be an integer >= 2, got 1",
            "dataset.per_class_test: must be an integer >= 2, got True",
            "dataset.shape: must be a list of 3 positive integers, got [1, 8]",
            "dataset.data_seed: must be a non-negative integer, got -1",
            "num_tasks: must be a positive integer, got 0",
            "architecture.adjustment: required for inline specs",
            "architecture.classifier: required for inline specs",
            "architecture.head: unknown field",
            "class_order: list entries must be integers",
            "epochs: must be a positive integer, got 0",
            "batch_size: must be a positive integer, got -1",
            "lr: must be a finite positive number, got 0",
            "seeds: each seed may appear once; [1] repeated",
            "ortho_alpha: must be a finite non-negative number, got -0.5",
            "adjust_kernel: must be an odd positive integer, got 4",
            "data_root: must be a string path, got 3",
            "out_dir: must be a string path, got None",
        ]

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            synthetic_config(tmp_path, architecture="resnet")

    def test_inline_architecture_parses(self, tmp_path):
        inline = {
            "backbone": [
                {"kind": "conv", "out_channels": 4},
                {"kind": "relu"},
                {"kind": "maxpool", "k": 2},
            ],
            "adjustment": [{"kind": "conv", "out_channels": 4}, {"kind": "relu"}],
            "classifier": [
                {"kind": "flatten"},
                {"kind": "linear", "out_features": 8},
                {"kind": "relu"},
                {"kind": "linear", "out_features": "base"},
            ],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        spec = resolve_architecture(cfg, (1, 8, 8), 2)
        assert spec.base_classes == 2

    def test_inline_layer_missing_field_is_config_error(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv"}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="architecture.backbone: layer 0: bad conv layer"):
            resolve_architecture(cfg, (1, 8, 8), 2)

    def test_inline_layer_unknown_field_is_config_error(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4, "kernal": 5}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="architecture.backbone: layer 0: conv layer has unknown field.*kernal"):
            resolve_architecture(cfg, (1, 8, 8), 2)

    def test_inline_architecture_unknown_key_is_config_error(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
            "input_shape": [9, 9, 9],
        }
        with pytest.raises(ConfigError) as info:
            synthetic_config(tmp_path, architecture=inline)
        assert info.value.problems == ["architecture.input_shape: unknown field"]

    @pytest.mark.parametrize(("field", "value"), [("out_channels", 4.7), ("kernel", True), ("kernel", "3")])
    def test_inline_layer_non_integer_field_is_config_error(self, tmp_path, field, value):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4, field: value}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        message = f"architecture.backbone: layer 0: conv layer field '{field}' must be an integer"
        with pytest.raises(ConfigError, match=message):
            resolve_architecture(cfg, (1, 8, 8), 2)

    def test_inline_head_narrower_than_task_one_rejected(self, tmp_path):
        inline = {
            "backbone": [],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": 1}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="narrower"):
            resolve_architecture(cfg, (1, 8, 8), 2)

    def test_inline_architecture_keeps_the_default_adjust_kernel_through_a_variant(self, tmp_path):
        cfg = synthetic_config(tmp_path, architecture=SQUARE_INLINE)
        assert cfg.to_dict()["adjust_kernel"] == 3
        variant = harness._variant(cfg, out_dir=str(tmp_path / "variant"))
        assert variant == dataclasses.replace(cfg, out_dir=str(tmp_path / "variant"))

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("epochs", True),
            ("batch_size", True),
            ("num_tasks", True),
            ("adjust_kernel", True),
            ("seeds", [True]),
            ("class_order", [True, False, 2, 3]),
            ("lr", True),
            ("ortho_alpha", True),
            ("ortho_alpha", False),
        ],
    )
    def test_boolean_in_numeric_field_is_config_error(self, tmp_path, field, value):
        with pytest.raises(ConfigError) as err:
            synthetic_config(tmp_path, **{field: value})
        assert [p.split(":")[0] for p in err.value.problems] == [field]

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("lr", 10**400),
            ("ortho_alpha", float("nan")),
            ("ortho_alpha", float("inf")),
        ],
        ids=["lr-nan", "lr-inf", "lr-huge-int", "ortho_alpha-nan", "ortho_alpha-inf"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, field, value):
        # JSON's NaN and Infinity parse as floats, and a long integer literal
        # as an int too large for a float
        with pytest.raises(ConfigError) as err:
            synthetic_config(tmp_path, **{field: value})
        assert [p.split(":")[0] for p in err.value.problems] == [field]
        assert "finite" in err.value.problems[0]

    @pytest.mark.parametrize(
        ("entry", "problem"),
        [
            ({"per_clas": 10}, "dataset.per_clas: unknown field"),
            ({"per_class_test": 0}, "dataset.per_class_test: must be an integer >= 2, got 0"),
            ({"per_class": -3}, "dataset.per_class: must be an integer >= 2, got -3"),
            ({"per_class": True}, "dataset.per_class: must be an integer >= 2, got True"),
            ({"num_classes": 4.5}, "dataset.num_classes: must be a positive integer, got 4.5"),
            ({"num_classes": 0}, "dataset.num_classes: must be a positive integer, got 0"),
            ({"shape": "abc"}, "dataset.shape: must be a list of 3 positive integers, got 'abc'"),
            ({"shape": [1, 8]}, "dataset.shape: must be a list of 3 positive integers, got [1, 8]"),
            ({"shape": [1, 8, False]}, "dataset.shape: must be a list of 3 positive integers, got [1, 8, False]"),
            ({"data_seed": True}, "dataset.data_seed: must be a non-negative integer, got True"),
            ({"data_seed": -1}, "dataset.data_seed: must be a non-negative integer, got -1"),
            ({"name": "mnist", "per_class": 3}, "dataset.per_class: unknown field"),
        ],
        ids=[
            "per_clas-typo",
            "per_class_test-0",
            "per_class-negative",
            "per_class-bool",
            "num_classes-float",
            "num_classes-0",
            "shape-string",
            "shape-2-dims",
            "shape-bool",
            "data_seed-bool",
            "data_seed-negative",
            "mnist-extra-key",
        ],
    )
    def test_bad_dataset_entry_is_one_config_error_line(self, tmp_path, capsys, entry, problem):
        dataset = {**({} if "name" in entry else synthetic_config(tmp_path).dataset), **entry}
        with pytest.raises(ConfigError) as err:
            synthetic_config(tmp_path, dataset=dataset)
        assert err.value.problems == [problem]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**synthetic_config(tmp_path).to_dict(), "dataset": dataset}))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]

    def test_repeated_seed_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            synthetic_config(tmp_path, seeds=[2, 1, 2, 1, 3])
        assert err.value.problems == ["seeds: each seed may appear once; [1, 2] repeated"]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads_and_resolves(self, path):
        # no data files: each dataset's image shape and class count are known
        cfg = RunConfig.from_json(path)
        name = cfg.dataset["name"]
        if name == "synthetic":
            shape, classes = tuple(cfg.dataset["shape"]), cfg.dataset["num_classes"]
        elif name.startswith("cifar"):
            shape, classes = (3, 32, 32), 100 if name == "cifar100" else 10
        else:
            shape, classes = (1, 28, 28), 10
        if name == "permuted-mnist":
            first = classes
        else:
            first = len(partition_classes(classes, cfg.num_tasks, cfg.class_order)[0])
        spec = resolve_architecture(cfg, shape, first)
        assert spec.input_shape == shape and spec.base_classes == first

    def test_missing_dataset_files_error_names_fetch(self, tmp_path):
        cfg = synthetic_config(tmp_path, dataset="mnist", data_root=str(tmp_path / "nowhere"))
        with pytest.raises(DataFilesError, match="fetch-data"):
            load_pools(cfg)


class TestHarnessRun:
    def test_report_files_and_invariants(self, tmp_path):
        cfg = synthetic_config(tmp_path, seeds=[1, 2])
        report = harness.run(cfg)
        out = Path(cfg.out_dir)
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "checkpoint_seed1.npz").exists()

        loaded = json.loads((out / "report.json").read_text())
        assert loaded["config"] == cfg.to_dict()
        assert RunConfig.from_dict(loaded["config"]) == cfg
        for entry in loaded["seeds"]:
            matrix = entry["forgetting_matrix"]
            assert [len(row) for row in matrix] == list(range(1, cfg.num_tasks + 1))
            assert entry["mean_final"] == sum(entry["final_per_task"]) / len(entry["final_per_task"])
        agg = loaded["aggregate"]
        means = [e["mean_final"] for e in loaded["seeds"]]
        assert agg["mean_final_mean"] == pytest.approx(sum(means) / len(means))

    def test_csv_and_json_agree_to_six_decimals(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        report = harness.run(cfg)
        with open(Path(cfg.out_dir) / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.num_tasks * len(cfg.seeds)
        for row in rows:
            seed_entry = next(e for e in report["seeds"] if e["seed"] == int(row["seed"]))
            acc_json = seed_entry["final_per_task"][int(row["task"]) - 1]
            assert f"{acc_json:.6f}" == row["final_accuracy"]

    def test_two_runs_byte_identical_outside_wall_clock(self, tmp_path):
        cfg_a = synthetic_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = synthetic_config(tmp_path, out_dir=str(tmp_path / "b"))
        harness.run(cfg_a)
        harness.run(cfg_b)
        ra = json.loads((Path(cfg_a.out_dir) / "report.json").read_text())
        rb = json.loads((Path(cfg_b.out_dir) / "report.json").read_text())
        ra["config"]["out_dir"] = rb["config"]["out_dir"] = ""
        sa = json.dumps(strip_wall_clock(ra), sort_keys=True)
        sb = json.dumps(strip_wall_clock(rb), sort_keys=True)
        assert sa == sb

    def test_smoke_run_bits_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        from santil import tensor

        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw.update(epochs=5, out_dir=str(tmp_path / "smoke"))
        cfg = RunConfig.from_dict(raw)
        # one sample a chunk, so every conv call of the tiny net splits
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 1)
        outputs = []
        for workers in (1, max(2, tensor._WORKERS)):
            monkeypatch.setattr(tensor, "_WORKERS", workers)
            report = harness.run(cfg)
            ckpt = Path(cfg.out_dir) / "checkpoint_seed1.npz"
            outputs.append((json.dumps(strip_wall_clock(report), sort_keys=True), ckpt.read_bytes()))
            ckpt.unlink()
        assert outputs[0] == outputs[1]


class TestAtomicWrites:
    def test_failed_writer_leaves_existing_file_and_no_temporary(self, tmp_path, monkeypatch):
        cfg = synthetic_config(tmp_path)
        report = harness.run(cfg)
        out = Path(cfg.out_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["checkpoint_seed1.npz", "report.json", "summary.csv"]

        broken = json.loads(json.dumps(report))
        del broken["seeds"][0]["per_task"][-1]["param_count"]  # fails after the first rows
        with pytest.raises(KeyError):
            write_summary_csv(broken, out / "summary.csv")

        def savez_part_way(fh, **arrays):
            fh.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_part_way)
        with pytest.raises(OSError, match="disk full"):
            harness.run(cfg)  # a rerun into the same directory dies saving its checkpoint
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSweepSize:
    def test_single_width_matches_plain_run(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "plain"))
        plain = harness.run(cfg)
        sweep_cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        rows = harness.sweep_size(sweep_cfg, [3])
        assert rows[0]["mean_accuracy"] == plain["aggregate"]["mean_final_mean"]

    def test_megabytes_strictly_increasing(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "sweep3"), epochs=1)
        rows = harness.sweep_size(cfg, [1, 3, 5])
        sizes = [row["megabytes"] for row in rows]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == 3

    def test_pairs_match_per_run_reports(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "sweepx"), epochs=1)
        rows = harness.sweep_size(cfg, [1, 3])
        for row in rows:
            sub = json.loads(
                (Path(cfg.out_dir) / f"kernel{row['kernel']}" / "report.json").read_text()
            )
            assert row["mean_accuracy"] == sub["aggregate"]["mean_final_mean"]
            assert row["megabytes"] == sub["seeds"][0]["per_task"][-1]["megabytes"]

    def test_even_kernel_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        with pytest.raises(ConfigError, match="odd"):
            harness.sweep_size(cfg, [2])

    def test_two_widths_load_the_dataset_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_load_pools(config):
            calls.append(config.out_dir)
            return load_pools(config)

        monkeypatch.setattr(harness, "load_pools", counting_load_pools)
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "once"), epochs=1)
        harness.sweep_size(cfg, [1, 3])
        assert calls == [cfg.out_dir]
        for k in (1, 3):
            assert (tmp_path / "once" / f"kernel{k}" / "checkpoint_seed1.npz").exists()

    def test_even_later_width_rejected_before_any_run(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "even"), epochs=1)
        with pytest.raises(ConfigError, match="odd") as info:
            harness.sweep_size(cfg, [3, 2])
        assert info.value.problems == ["adjust_kernel: must be an odd positive integer, got 2"]
        assert not (tmp_path / "even").exists()

    def test_inline_architecture_exit_one_writes_nothing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, architecture=SQUARE_INLINE, out_dir=str(tmp_path / "inline"))
        assert main(["sweep-size", "--config", str(cfg_path), "--widths", "3,5"]) == 1
        assert capsys.readouterr().err == "config error: sweep-size requires a preset architecture\n"
        assert not (tmp_path / "inline").exists()

    @pytest.mark.parametrize("width", [3.5, 3.0, True])
    def test_non_integer_width_rejected_not_truncated(self, tmp_path, width):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "float"), epochs=1)
        with pytest.raises(ConfigError) as info:
            harness.sweep_size(cfg, [1, width])
        assert info.value.problems == [f"adjust_kernel: must be an odd positive integer, got {width!r}"]
        assert not (tmp_path / "float").exists()

    def test_numpy_integer_width_accepted(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "np"), epochs=1)
        rows = harness.sweep_size(cfg, np.array([3]))
        assert rows[0]["kernel"] == 3 and type(rows[0]["kernel"]) is int
        report = json.loads((tmp_path / "np" / "kernel3" / "report.json").read_text())
        assert report["config"]["adjust_kernel"] == 3


class TestAblateOrder:
    def test_two_orders_reported_side_by_side(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "ablate"))
        summaries = harness.ablate_order(cfg, [[0, 1], [1, 0]])
        assert len(summaries) == 2
        assert summaries[0]["order"] == [0, 1]
        combined = json.loads((Path(cfg.out_dir) / "ablation.json").read_text())
        assert [s["order"] for s in combined] == [[0, 1], [1, 0]]

    def test_identity_order_equals_plain_run(self, tmp_path):
        plain_cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "p"))
        plain = harness.run(plain_cfg)
        ab_cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "ab"))
        summaries = harness.ablate_order(ab_cfg, [[0, 1]])
        assert summaries[0]["mean_accuracy"] == plain["aggregate"]["mean_final_mean"]

    def test_bad_permutation_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        with pytest.raises(ValueError):
            harness.ablate_order(cfg, [[0, 0]])

    @pytest.mark.parametrize("order", [[0.0, 1], [1.5, 0], [True, 0]])
    def test_float_or_bool_entry_rejected_before_any_run(self, tmp_path, order):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "bad"), epochs=1)
        with pytest.raises(ConfigError, match="orders: order must be a permutation of 0..1"):
            harness.ablate_order(cfg, [[0, 1], order])
        assert not (tmp_path / "bad").exists()

    def test_numpy_integer_order_accepted(self, tmp_path):
        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "np"), epochs=1)
        summaries = harness.ablate_order(cfg, [np.array([1, 0])])
        assert summaries[0]["order"] == [1, 0]
        report = json.loads((tmp_path / "np" / "order0" / "report.json").read_text())
        assert report["task_order"] == [1, 0]

    def test_every_order_writes_checkpoints_that_rescore_its_report(self, tmp_path):
        from santil.engine import evaluate
        from santil.tasks import build_split_sequence, reorder_groups

        cfg = synthetic_config(tmp_path, out_dir=str(tmp_path / "ck"), epochs=1, seeds=[1, 2])
        harness.ablate_order(cfg, [[0, 1], [1, 0]])
        for i in (0, 1):
            names = sorted(p.name for p in (tmp_path / "ck" / f"order{i}").glob("checkpoint_seed*.npz"))
            assert names == ["checkpoint_seed1.npz", "checkpoint_seed2.npz"]
        report = json.loads((tmp_path / "ck" / "order1" / "report.json").read_text())
        assert report["task_order"] == [1, 0]
        train, test, _ = load_pools(cfg)
        groups = reorder_groups(partition_classes(train.num_classes, cfg.num_tasks), [1, 0])
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        for entry, seed in zip(report["seeds"], cfg.seeds):
            seq = build_split_sequence(train, test, groups, master_seed=seed)
            state = load_state(tmp_path / "ck" / "order1" / f"checkpoint_seed{seed}.npz", arch, seq)
            assert [evaluate(state, t, "test") for t in (1, 2)] == entry["final_per_task"]


class TestCheckpoints:
    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_reloaded_state_trains_the_next_task_bit_for_bit(self, tmp_path, strategy):
        from santil.engine import IncrementalState, train_task
        from santil.tasks import build_split_sequence

        # the penalty is on, so the reloaded state must take it from train_task's arguments too
        cfg = synthetic_config(tmp_path, strategy=strategy, architecture=SQUARE_INLINE, ortho_alpha=0.001)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        settings = dict(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, ortho_alpha=cfg.ortho_alpha)

        def params(state):
            return [(p.name, p.data.tobytes()) for block in state.model_blocks() for p in block.parameters()]

        straight = IncrementalState(strategy, arch, seq, 1)
        train_task(straight, 1, **settings)
        path = save_state(straight, cfg, tmp_path / "task1.npz")
        train_task(straight, 2, **settings)
        resumed = load_state(path, arch, seq)
        train_task(resumed, 2, **settings)
        assert params(resumed) == params(straight)

        # the penalty moves task 2's bits wherever it reaches a trainable part;
        # baseline's task 2 trains only its head, behind the penalised features
        unpenalised = load_state(path, arch, seq)
        train_task(unpenalised, 2, **settings | {"ortho_alpha": 0.0})
        assert (params(unpenalised) == params(straight)) == (strategy == "baseline")

    @pytest.mark.parametrize("fault", ["missing", "reshaped"])
    def test_checkpoint_parameter_missing_or_reshaped_exit_one(self, tmp_path, capsys, fault):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        ck = tmp_path / "out" / "checkpoint_seed1.npz"
        name = "task2.adjust.0.weight"
        with np.load(ck) as bundle:
            shape = bundle[name].shape

        def change(meta, arrays):
            if fault == "missing":
                del arrays[name]
            else:
                arrays[name] = arrays[name].reshape(shape[0], -1)

        rewrite_checkpoint(ck, change)
        capsys.readouterr()
        argv = ["dump-embeddings", "--checkpoint", str(ck), "--out-file", str(tmp_path / "e.csv")]
        assert main(argv) == 1
        problem = (
            f"lacks parameter {name!r}"
            if fault == "missing"
            else f"parameter {name!r} has shape {(shape[0], int(np.prod(shape[1:])))}, expected {shape}"
        )
        assert capsys.readouterr().err == f"checkpoint mismatch: checkpoint {ck} {problem}\n"
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_reload_reproduces_logits_bit_exactly(self, tmp_path, strategy):
        from santil.engine import predict_logits, run_sequence
        from santil.tasks import build_split_sequence, partition_classes, task_arrays

        cfg = synthetic_config(tmp_path, strategy=strategy)
        train, test, kind = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        result, state = run_sequence(strategy, arch, seq, seed=1, epochs=2, batch_size=16)
        path = tmp_path / "ck.npz"
        save_state(state, cfg, path)

        reloaded = load_state(path, arch, seq)
        assert reloaded.trained_upto == state.trained_upto
        for t in range(1, 3):
            images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
            a = predict_logits(state, t, images)
            b = predict_logits(reloaded, t, images)
            assert a.tobytes() == b.tobytes()

    def test_reloaded_state_starts_with_empty_cache_and_rescores_the_report(self, tmp_path):
        from santil.engine import evaluate
        from santil.tasks import build_split_sequence

        dataset = {"name": "synthetic", "num_classes": 6, "per_class": 60, "per_class_test": 20}
        cfg = synthetic_config(tmp_path, num_tasks=3, dataset=dataset)
        report = harness.run(cfg)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        reloaded = load_state(Path(cfg.out_dir) / "checkpoint_seed1.npz", arch, seq)
        assert reloaded.features == {}
        rescored = [evaluate(reloaded, t, "test") for t in range(1, 4)]
        assert rescored == report["seeds"][0]["final_per_task"]
        assert sorted(reloaded.features) == [(1, "test"), (2, "test"), (3, "test")]

    def test_meta_echo(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        with np.load(ck) as bundle:
            stored = json.loads(bytes(bundle["__meta__"]))
        # the strategy and ortho_alpha are stated once, in the config
        assert list(stored) == ["format_version", "seed", "config", "task_classes"]
        meta = read_meta(ck)
        assert meta["seed"] == 1
        assert meta["config"] == cfg
        assert meta["task_classes"] == [[0, 1], [2, 3]]

    def test_legacy_top_level_strategy_and_ortho_alpha_ignored(self, tmp_path):
        from santil.engine import evaluate
        from santil.tasks import build_split_sequence

        cfg = synthetic_config(tmp_path, architecture=SQUARE_INLINE, ortho_alpha=0.001)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        legacy = tmp_path / "legacy.npz"
        legacy.write_bytes(ck.read_bytes())

        def older_format_two(meta, arrays):
            # the key order and values an older format-2 file holds
            items = list(meta.items())
            items[1:1] = [("strategy", meta["config"]["strategy"])]
            items[3:3] = [("ortho_alpha", meta["config"]["ortho_alpha"])]
            meta.clear()
            meta.update(items)

        rewrite_checkpoint(legacy, older_format_two)
        with np.load(legacy) as bundle:
            assert list(json.loads(bytes(bundle["__meta__"]))) == [
                "format_version", "strategy", "seed", "ortho_alpha", "config", "task_classes"
            ]
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        states = [load_state(path, arch, seq) for path in (ck, legacy)]

        def arrays(state):
            return [(p.name, p.data.tobytes()) for block in state.model_blocks() for p in block.parameters()]

        assert arrays(states[1]) == arrays(states[0])
        assert [evaluate(states[1], t, "test") for t in (1, 2)] == [evaluate(states[0], t, "test") for t in (1, 2)]
        assert read_meta(legacy)["config"] == read_meta(ck)["config"] == cfg

    def test_checkpoint_loaded_into_another_class_order_rejected(self, tmp_path):
        from santil.tasks import build_split_sequence

        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks, [3, 2, 1, 0])
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        with pytest.raises(CheckpointMismatchError, match=r"task 1: .*\[0, 1\].*\[3, 2\]"):
            load_state(Path(cfg.out_dir) / "checkpoint_seed1.npz", arch, seq)

    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_reload_rebuilds_frozen_flags_masks_and_snapshot(self, tmp_path, strategy):
        from santil.data import synthetic_dataset
        from santil.engine import run_sequence
        from santil.layers import tiny
        from santil.tasks import build_split_sequence, partition_classes

        # 3+2+2 classes: baseline's later heads are narrower than task 1's
        train = synthetic_dataset(7, 30, (1, 8, 8), seed=92)
        test = synthetic_dataset(7, 10, (1, 8, 8), seed=93, pattern_seed=92)
        seq = build_split_sequence(train, test, partition_classes(7, 3), master_seed=4)
        arch = tiny((1, 8, 8), base_classes=3)
        _, state = run_sequence(strategy, arch, seq, seed=4, epochs=1, batch_size=16)
        path = save_state(state, synthetic_config(tmp_path, strategy=strategy), tmp_path / "ck.npz")
        reloaded = load_state(path, arch, seq)

        def structure(s):
            return [(p.name, p.frozen) for block in s.model_blocks() for p in block.parameters()]

        def snapshot(s):
            return {name: (v.dtype, v.shape, v.tobytes()) for name, v in s.snapshot.items()}

        assert structure(reloaded) == structure(state)
        assert snapshot(reloaded) == snapshot(state)
        assert bool(state.snapshot) == (strategy != "finetune")
        assert reloaded.verify_frozen() == (True, None)
        if reloaded.snapshot:
            drifted = next(p for b in reloaded.model_blocks() for p in b.parameters() if p.frozen)
            drifted.data.flat[0] += 1.0
            assert reloaded.verify_frozen() == (False, drifted.name)

        names = {p.name for block in state.model_blocks() for p in block.parameters()}
        with np.load(path) as bundle:
            assert set(bundle.files) == names | {"__meta__"}
        assert not {"frozen", "masked"} & set(read_meta(path))

    def test_checkpoint_with_more_tasks_than_the_sequence_rejected(self, tmp_path):
        from santil.engine import run_sequence
        from santil.tasks import build_split_sequence, partition_classes

        cfg = synthetic_config(tmp_path, num_tasks=3)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, 3)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        _, state = run_sequence("san", arch, seq, seed=1, epochs=1, batch_size=16)
        path = save_state(state, cfg, tmp_path / "ck.npz")
        shorter = build_split_sequence(train, test, groups[:2], master_seed=1)
        with pytest.raises(CheckpointMismatchError, match="3 trained tasks.* only 2"):
            load_state(path, arch, shorter)

    def test_checkpoint_with_surplus_parameters_rejected(self, tmp_path):
        import dataclasses

        from santil.data import synthetic_dataset
        from santil.engine import run_sequence
        from santil.layers import Conv, Relu, tiny
        from santil.tasks import build_split_sequence

        train = synthetic_dataset(4, 30, (1, 8, 8), seed=94)
        test = synthetic_dataset(4, 10, (1, 8, 8), seed=95, pattern_seed=94)
        seq = build_split_sequence(train, test, [(0, 1), (2, 3)], master_seed=5)
        arch = tiny((1, 8, 8), base_classes=2)
        deeper = dataclasses.replace(arch, backbone=arch.backbone + (Conv(6), Relu()))
        _, state = run_sequence("san", deeper, seq, seed=5, epochs=1, batch_size=16)
        path = save_state(state, synthetic_config(tmp_path), tmp_path / "deep.npz")
        with pytest.raises(CheckpointMismatchError, match="holds parameter 'backbone.3.bias'"):
            load_state(path, arch, seq)

    @pytest.mark.parametrize("write, problem", FOREIGN_CHECKPOINTS.values(), ids=FOREIGN_CHECKPOINTS)
    def test_file_that_is_no_checkpoint_rejected_naming_it(self, tmp_path, write, problem):
        path = tmp_path / "foreign.npz"
        write(path)
        for read in (read_meta, lambda p: load_state(p, None, None)):
            with pytest.raises(CheckpointMismatchError, match=re.escape(f"checkpoint {path} {problem}")):
                read(path)


class TestDumpEmbeddings:
    def test_rows_columns_and_round_trip(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        out_csv = tmp_path / "emb.csv"
        harness.dump_embeddings(ck, "test", out_csv)

        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        # 4 classes, 20 per class test pool, 2 tasks of 2 classes: 40 rows each
        assert len(body) == 80
        emb_dim = len(header) - 2
        assert emb_dim == 8 * 4 * 4

        from santil.config import load_pools as lp
        from santil.tasks import build_split_sequence, partition_classes, task_arrays

        train, test, _ = lp(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        state = load_state(ck, arch, seq)
        images, labels = task_arrays(seq, seq.tasks[0], "test")
        expect = state.embed(images[:1], 1)[0]
        got = np.array([float(v) for v in body[0][2:]])
        assert int(body[0][0]) == 1
        assert int(body[0][1]) == labels[0]
        assert np.abs(got - expect).max() < 1e-6

    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_csv_from_the_checkpoint_alone_equals_the_trained_embeddings(self, tmp_path, strategy):
        from santil.engine import run_sequence
        from santil.tasks import build_split_sequence, task_arrays

        cfg = synthetic_config(tmp_path, strategy=strategy)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, len(groups[0]))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        _, state = run_sequence(strategy, arch, seq, seed=1, epochs=cfg.epochs, batch_size=cfg.batch_size)
        ck = save_state(state, cfg, tmp_path / "ck.npz")
        out_csv = tmp_path / "emb.csv"
        harness.dump_embeddings(ck, "test", out_csv)
        with open(out_csv, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        for t in (1, 2):
            rows = [row for row in body if row[0] == str(t)]
            images, labels = task_arrays(seq, seq.tasks[t - 1], "test")
            emb = state.embed(images, t)
            # 9 significant digits bring a float32 back bit for bit
            assert np.array([row[2:] for row in rows], dtype=np.float32).tobytes() == emb.tobytes()
            assert [int(row[1]) for row in rows] == [int(label) for label in labels]

    def test_checkpoint_from_another_class_order_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        # the stored config names one class order, the arrays were trained on another
        rewrite_checkpoint(ck, lambda meta, arrays: meta["config"].update(class_order=[3, 2, 1, 0]))
        with pytest.raises(ValueError, match=r"task 1: .*\[0, 1\].*\[3, 2\]"):
            harness.dump_embeddings(ck, "test", tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()

    def test_failure_part_way_keeps_previous_csv_and_no_temporary(self, tmp_path, monkeypatch):
        from santil.engine import IncrementalState

        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        out_dir = tmp_path / "emb"
        out_csv = out_dir / "emb.csv"
        harness.dump_embeddings(ck, "test", out_csv)
        before = out_csv.read_bytes()

        real_embed = IncrementalState.embed
        calls = []

        def embed_fails_on_second_task(self, images, task_index):
            calls.append(task_index)
            if len(calls) == 2:
                raise MemoryError("out of memory")
            return real_embed(self, images, task_index)

        monkeypatch.setattr(IncrementalState, "embed", embed_fails_on_second_task)
        with pytest.raises(MemoryError):
            harness.dump_embeddings(ck, "test", out_csv)
        assert calls == [1, 2]  # task 1's rows were already written
        assert out_csv.read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["emb.csv"]

    def test_format_one_checkpoint_rejected_naming_both_versions(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        rewrite_checkpoint(ck, lambda meta, arrays: meta.update(format_version=1))
        with pytest.raises(ValueError, match="format version 1; .* reads format 2"):
            harness.dump_embeddings(ck, "test", tmp_path / "e.csv")

    def test_checkpoint_config_echo_lacking_a_compared_key_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        rewrite_checkpoint(ck, lambda meta, arrays: meta["config"].pop("dataset"))
        with pytest.raises(CheckpointMismatchError) as info:
            harness.dump_embeddings(ck, "test", tmp_path / "e.csv")
        assert str(info.value) == (
            f"checkpoint {ck} has a __meta__ 'config' that is not a valid run config: "
            f"dataset: must name one of {list(DATASET_NAMES)}, got None"
        )

    INVALID_CONFIG = "has a __meta__ 'config' that is not a valid run config"
    # (a change to __meta__, the problem named)
    META_FAULTS = {
        "strategy-missing": (
            lambda meta: meta["config"].pop("strategy"),
            f"{INVALID_CONFIG}: strategy: must be one of ['san', 'baseline', 'finetune', 'independent'], got None",
        ),
        "strategy-unknown": (
            lambda meta: meta["config"].update(strategy="sgd"),
            f"{INVALID_CONFIG}: strategy: must be one of ['san', 'baseline', 'finetune', 'independent'], got 'sgd'",
        ),
        "seed-missing": (lambda meta: meta.pop("seed"), "has no 'seed' in its __meta__"),
        "seed-string": (
            lambda meta: meta.update(seed="1"),
            "has a __meta__ 'seed' that is not a non-negative integer",
        ),
        "task_classes-missing": (lambda meta: meta.pop("task_classes"), "has no 'task_classes' in its __meta__"),
        "task_classes-string-id": (
            lambda meta: meta.update(task_classes=[[0, "1"]]),
            "has a __meta__ 'task_classes' that is not a list of class-id lists",
        ),
        "config-missing": (lambda meta: meta.pop("config"), "has no 'config' in its __meta__"),
        "config-string": (lambda meta: meta.update(config="san"), "has a __meta__ 'config' that is not an object"),
        # a field removed since the checkpoint was written
        "config-removed-field": (
            lambda meta: meta["config"].update(checkpoint_selection="best-val"),
            f"{INVALID_CONFIG}: checkpoint_selection: unknown field",
        ),
        "config-two-problems": (
            lambda meta: meta["config"].update(epochs=0, lr=-1),
            f"{INVALID_CONFIG}: epochs: must be a positive integer, got 0; lr: must be a finite positive number, got -1",
        ),
    }

    @pytest.mark.parametrize("change, problem", META_FAULTS.values(), ids=META_FAULTS)
    def test_meta_entry_missing_or_mistyped_exit_one(self, tmp_path, capsys, change, problem):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        ck = tmp_path / "out" / "checkpoint_seed1.npz"
        rewrite_checkpoint(ck, lambda meta, arrays: change(meta))
        capsys.readouterr()
        argv = ["dump-embeddings", "--checkpoint", str(ck), "--out-file", str(tmp_path / "e.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"checkpoint mismatch: checkpoint {ck} {problem}\n"
        assert not (tmp_path / "e.csv").exists()

    def test_missing_checkpoint_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            harness.dump_embeddings(tmp_path / "missing.npz", "test", tmp_path / "e.csv")


class TestCli:
    def test_run_success_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"strategy": "nope"}))
        assert main(["run", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_that_is_not_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"strategy": "san",')
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_inline_architecture_with_adjust_kernel_exit_one_writes_nothing(self, tmp_path, capsys):
        raw = synthetic_config(tmp_path, architecture=SQUARE_INLINE, out_dir=str(tmp_path / "k7")).to_dict()
        path = tmp_path / "k7.json"
        path.write_text(json.dumps(raw | {"adjust_kernel": 7}))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: adjust_kernel: applies to a preset architecture only; an inline "
            "architecture sets each conv's kernel itself, got 7\n"
        )
        assert not (tmp_path / "k7").exists()

    def test_config_that_is_a_directory_exit_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: config file {tmp_path} cannot be read: Is a directory\n"

    def test_config_that_is_not_utf8_exit_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"strategy": "san", "out_dir": "café"}'.encode("latin-1"))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path} is not UTF-8 text: invalid")
        assert err.count("\n") == 1

    def test_unreadable_config_exit_one(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        # a chmod would not stop a reader running as root
        monkeypatch.setattr(Path, "read_text", denied)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: config file {path} cannot be read: Permission denied\n"

    def test_missing_data_exit_two_names_fetch(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dataset="mnist", data_root=str(tmp_path / "void"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "fetch-data" in capsys.readouterr().err

    def test_seed_and_epoch_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "ovr"))
        assert main(["run", "--config", str(cfg_path), "--seed", "5", "--epochs", "1"]) == 0
        report = json.loads((tmp_path / "ovr" / "report.json").read_text())
        assert [e["seed"] for e in report["seeds"]] == [5]
        assert report["config"]["epochs"] == 1

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_invalid_epoch_override_is_config_error(self, tmp_path, capsys, epochs):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "bad"))
        assert main(["run", "--config", str(cfg_path), "--epochs", epochs]) == 1
        assert f"epochs: must be a positive integer, got {epochs}" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_fast_profile_caps_epochs(self, tmp_path):
        cfg_path = write_config(tmp_path, epochs=30, out_dir=str(tmp_path / "fast"))
        assert main(["run", "--config", str(cfg_path), "--fast"]) == 0
        report = json.loads((tmp_path / "fast" / "report.json").read_text())
        assert report["config"]["epochs"] == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exit_three_names_position(self, tmp_path, capsys):
        out_dir = tmp_path / "diverged"
        cfg_path = write_config(tmp_path, lr=1e20, out_dir=str(out_dir))
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: non-finite loss" in err
        assert "seed 1, task 1, epoch 1, step " in err
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "summary.csv").exists()
        assert not (out_dir / "checkpoint_seed1.npz").exists()

    def test_grad_check_subcommand(self, capsys):
        assert main(["grad-check", "--instances", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sweep_size_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "sw"))
        assert main(["sweep-size", "--config", str(cfg_path), "--widths", "1,3"]) == 0
        with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kernel"] for r in rows] == ["1", "3"]

    def test_ablate_order_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "ao"))
        assert main(["ablate-order", "--config", str(cfg_path), "--orders", "0,1;1,0"]) == 0
        combined = json.loads((tmp_path / "ao" / "ablation.json").read_text())
        assert len(combined) == 2

    def test_ablate_order_bad_later_order_exit_one_before_any_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "bo"))
        assert main(["ablate-order", "--config", str(cfg_path), "--orders", "0,1;0"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: orders: order must be a permutation of 0..1, got [0]\n"
        assert not (tmp_path / "bo").exists()

    def test_ablate_order_task_wider_than_shared_head_exit_one_before_any_run(self, tmp_path, capsys):
        # 7 classes in groups of 3, 2 and 2: order 1 trains a 2-class task first,
        # so san's shared head is 2 wide when the 3-class task comes second
        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw["dataset"]["num_classes"] = 7
        raw["out_dir"] = str(tmp_path / "wide")
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["ablate-order", "--config", str(cfg_path), "--fast", "--orders", "0,1,2;1,0,2"]) == 1
        assert capsys.readouterr().err == (
            "config error: orders: order 1 [1, 0, 2]: architecture.classifier: task 2 has 3 classes, "
            "but the head it uses is narrower: the classifier's last linear width is 2\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["smoke.json"]

    def test_san_on_an_uneven_split_gives_task_one_the_remainder(self, tmp_path, monkeypatch):
        from santil import engine

        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw["dataset"]["num_classes"] = 7
        raw["out_dir"] = str(tmp_path / "uneven")
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))
        shapes = []  # C1's weight shape as each task freezes
        real_freeze = engine.freeze_task

        def spy(state, task_index):
            shapes.append(state.shared["classifier"].parameters()[-2].data.shape)
            real_freeze(state, task_index)

        monkeypatch.setattr(engine, "freeze_task", spy)
        assert main(["run", "--config", str(cfg_path), "--epochs", "1"]) == 0
        report = json.loads((tmp_path / "uneven" / "report.json").read_text())
        assert [row["classes"] for row in report["seeds"][0]["per_task"]] == [[0, 1, 2], [3, 4], [5, 6]]
        assert shapes == [(3, 12)] * 3
        with np.load(tmp_path / "uneven" / "checkpoint_seed1.npz") as bundle:
            assert bundle["classifier.5.weight"].shape == (3, 12)

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_grad_check_without_instances_exit_one(self, capsys, instances):
        assert main(["grad-check", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: --instances: must be at least 1, got {instances}\n"
        assert "OK" not in captured.out

    @pytest.mark.parametrize(
        ("command", "option", "value"),
        [("ablate-order", "--orders", "0,x,2"), ("sweep-size", "--widths", "3,five")],
    )
    def test_non_integer_list_option_exit_one(self, tmp_path, capsys, command, option, value):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "ni"))
        assert main([command, "--config", str(cfg_path), option, value]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {option}: expected comma-separated integers, got {value!r}\n"
        assert not (tmp_path / "ni").exists()

    @pytest.mark.parametrize(
        ("command", "option", "value", "problem"),
        [
            ("run", "--seed", "1,1", "seeds: each seed may appear once; [1] repeated"),
            ("sweep-size", "--widths", "3,1,3", "widths: each kernel may appear once; [3] repeated"),
        ],
        ids=["seed", "width"],
    )
    def test_repeated_seed_or_width_exit_one_before_any_run(
        self, tmp_path, capsys, command, option, value, problem
    ):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "rep"))
        assert main([command, "--config", str(cfg_path), option, value]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-size", "--widths", "3"]], ids=["run", "sweep"])
    def test_non_permutation_class_order_exit_one(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, class_order=[0, 0, 1, 2], out_dir=str(tmp_path / "co"))
        assert main(command + ["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: class order must be a permutation of 0..3 (4 classes); "
            "[0] repeated, [3] missing\n"
        )
        assert not (tmp_path / "co").exists()

    def test_smoke_config_class_order_error_names_ids(self, tmp_path, capsys):
        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw.update(class_order=[0, 0, 1, 2, 3, 4], out_dir=str(tmp_path / "co"))
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: class order must be a permutation of 0..5 (6 classes); "
            "[0] repeated, [5] missing\n"
        )
        assert not (tmp_path / "co").exists()

    @pytest.mark.parametrize(
        ("field", "value", "problem"),
        [
            ("lr", float("nan"), "lr: must be a finite positive number, got nan"),
            ("ortho_alpha", float("inf"), "ortho_alpha: must be a finite non-negative number, got inf"),
        ],
        ids=["lr", "ortho_alpha"],
    )
    def test_smoke_config_non_finite_number_exit_one(self, tmp_path, capsys, field, value, problem):
        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw.update({field: value, "out_dir": str(tmp_path / "nf")})
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))  # as NaN or Infinity
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "nf").exists()

    def test_ortho_penalty_on_non_square_features_exit_one_before_any_run(self, tmp_path, capsys):
        # tiny's adjustment output is 8 channels of 4x4, 128 features
        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw.update(ortho_alpha=0.001, out_dir=str(tmp_path / "sq"))
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: ortho_alpha: the adjustment output flattens to 128 features, not a "
            "perfect square, so the orthogonality penalty cannot view it as a square matrix\n"
        )
        assert not (tmp_path / "sq").exists()

    @pytest.mark.parametrize(
        ("architecture", "problem"),
        [
            ("tiny", "architecture.backbone: layer 2: extents 7x7 not divisible by pool window 2"),
            (
                {
                    "backbone": [],
                    "adjustment": [{"kind": "maxpool"}],
                    "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
                },
                "architecture.adjustment: layer 0: extents 7x7 not divisible by pool window 2",
            ),
        ],
        ids=["preset", "inline"],
    )
    def test_architecture_that_does_not_fit_the_images_exit_one(self, tmp_path, capsys, architecture, problem):
        dataset = {"name": "synthetic", "num_classes": 4, "per_class": 10, "per_class_test": 4, "shape": [1, 7, 7]}
        cfg_path = write_config(tmp_path, dataset=dataset, architecture=architecture, out_dir=str(tmp_path / "fit"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "fit").exists()

    def test_inline_head_narrower_than_task_one_exit_one_before_any_run(self, tmp_path, capsys):
        inline = {
            "backbone": [],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": 1}],
        }
        cfg_path = write_config(tmp_path, architecture=inline, out_dir=str(tmp_path / "narrow"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: architecture.classifier: task 1 has 2 classes, but the head it uses is "
            "narrower: the classifier's last linear width is 1\n"
        )
        assert not (tmp_path / "narrow").exists()

    def test_inline_classifier_not_ending_in_linear_exit_one(self, tmp_path, capsys):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": 2}, {"kind": "relu"}],
        }
        cfg_path = write_config(tmp_path, architecture=inline, out_dir=str(tmp_path / "end"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "config error: architecture.classifier: must end with a linear layer\n"
        assert not (tmp_path / "end").exists()

    @pytest.mark.parametrize(
        ("part", "index", "layer", "problem"),
        [
            ("backbone", 0, {"kind": "conv", "out_channels": 0}, "out_channels=0, kernel=3, stride=1, padding=1"),
            ("adjustment", 0, {"kind": "conv", "out_channels": -2}, "out_channels=-2, kernel=3, stride=1, padding=1"),
            ("backbone", 0, {"kind": "conv", "out_channels": 4, "kernel": 0}, "out_channels=4, kernel=0, stride=1, padding=1"),
            ("backbone", 0, {"kind": "conv", "out_channels": 4, "stride": 0}, "out_channels=4, kernel=3, stride=0, padding=1"),
            ("adjustment", 0, {"kind": "conv", "out_channels": 4, "padding": -1}, "out_channels=4, kernel=3, stride=1, padding=-1"),
            ("backbone", 2, {"kind": "maxpool", "k": 0}, "maxpool window must be positive, got MaxPool(k=0)"),
            ("classifier", 1, {"kind": "linear", "out_features": 0}, "dense out_features must be positive, got Dense(out_features=0)"),
            ("classifier", 1, {"kind": "linear", "out_features": -1}, "dense out_features must be positive, got Dense(out_features=-1)"),
        ],
        ids=["conv-out-0", "conv-out-neg", "conv-kernel-0", "conv-stride-0", "conv-padding-neg",
             "maxpool-k-0", "linear-out-0", "linear-out-neg"],
    )
    def test_zero_or_negative_layer_size_exit_one_before_any_run(self, tmp_path, capsys, part, index, layer, problem):
        # each case ended in a runtime failure (exit 3) once task 1 built its blocks
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4}, {"kind": "relu"}, {"kind": "maxpool"}],
            "adjustment": [{"kind": "conv", "out_channels": 4}, {"kind": "relu"}],
            "classifier": [
                {"kind": "flatten"},
                {"kind": "linear", "out_features": 8},
                {"kind": "relu"},
                {"kind": "linear", "out_features": "base"},
            ],
        }
        inline[part][index] = layer
        if layer["kind"] == "conv":
            problem = f"conv sizes must be positive and padding >= 0, got Conv({problem})"
        cfg_path = write_config(tmp_path, architecture=inline, out_dir=str(tmp_path / "size"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: architecture.{part}: layer {index}: {problem}\n"
        assert not (tmp_path / "size").exists()

    @pytest.mark.parametrize(
        ("part", "index"), [("classifier", 1), ("backbone", 1)], ids=["classifier", "backbone"]
    )
    def test_base_width_off_the_classifiers_last_layer_exit_one(self, tmp_path, capsys, part, index):
        # a "base" classifier layer 1 ended in a runtime failure (exit 3) once task 1 built its blocks
        inline = {
            "backbone": [{"kind": "flatten"}, {"kind": "linear", "out_features": 16}],
            "adjustment": [],
            "classifier": [
                {"kind": "flatten"},
                {"kind": "linear", "out_features": 8},
                {"kind": "relu"},
                {"kind": "linear", "out_features": 2},
            ],
        }
        inline[part][index] = {"kind": "linear", "out_features": "base"}
        cfg_path = write_config(tmp_path, architecture=inline, out_dir=str(tmp_path / "base"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: architecture.{part}: layer {index}: "
            "'base' is accepted only as the classifier's last linear width\n"
        )
        assert not (tmp_path / "base").exists()

    def test_checkpoint_selection_is_an_unknown_field_exit_one(self, tmp_path, capsys):
        raw = synthetic_config(tmp_path).to_dict() | {
            "checkpoint_selection": "best-val",
            "out_dir": str(tmp_path / "sel"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "config error: checkpoint_selection: unknown field\n"
        assert not (tmp_path / "sel").exists()

    def test_repeated_order_exit_one_before_any_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "ro"))
        assert main(["ablate-order", "--config", str(cfg_path), "--orders", "1,0;0,1;1,0"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: orders: each order may appear once; [[1, 0]] repeated\n"
        assert not (tmp_path / "ro").exists()

    @pytest.mark.parametrize(
        ("flag", "env", "expected"),
        [("flag", "env", "flag"), (None, "env", "env"), (None, None, "data")],
        ids=["flag", "env", "default"],
    )
    def test_fetch_data_root_is_flag_then_env_then_data(
        self, tmp_path, monkeypatch, capsys, flag, env, expected
    ):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("SAN_TIL_DATA_ROOT", raising=False)
        else:
            monkeypatch.setenv("SAN_TIL_DATA_ROOT", env)
        roots = []
        monkeypatch.setattr(cli, "fetch_dataset", lambda dataset, root, skip_verify: roots.append(root))
        argv = ["fetch-data", "--dataset", "mnist"] + (["--data-root", flag] if flag else [])
        assert main(argv) == 0
        assert [Path(r) for r in roots] == [Path(expected)]
        assert capsys.readouterr().out == f"mnist ready under {expected}\n"

    def test_dump_embeddings_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "de"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out_csv = tmp_path / "emb.csv"
        code = main(
            [
                "dump-embeddings",
                "--checkpoint",
                str(tmp_path / "de" / "checkpoint_seed1.npz"),
                "--split",
                "val",
                "--out-file",
                str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.exists()
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("task,label,f0")

    def test_dump_embeddings_of_an_ablate_order_checkpoint(self, tmp_path):
        from santil.tasks import build_split_sequence, reorder_groups, task_arrays

        raw = json.loads((CONFIG_DIR / "synthetic-smoke.json").read_text())
        raw["out_dir"] = str(tmp_path / "ab")
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["ablate-order", "--config", str(cfg_path), "--epochs", "1", "--orders", "0,1,2;2,0,1"]) == 0
        ck = tmp_path / "ab" / "order1" / "checkpoint_seed1.npz"
        out_csv = tmp_path / "emb.csv"
        assert main(["dump-embeddings", "--checkpoint", str(ck), "--out-file", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            body = list(csv.reader(fh))[1:]

        cfg = RunConfig.from_dict(raw)
        train, test, _ = load_pools(cfg)
        groups = reorder_groups(partition_classes(train.num_classes, cfg.num_tasks), [2, 0, 1])
        arch = resolve_architecture(cfg, train.image_shape, *map(len, groups))
        seq = build_split_sequence(train, test, groups, master_seed=1)
        state = load_state(ck, arch, seq)
        expected = []
        for task in seq.tasks:
            images, labels = task_arrays(seq, task, "test")
            for row, label in zip(state.embed(images, task.index), labels):
                expected.append([str(task.index), str(label)] + [f"{v:.8e}" for v in row])
        assert body == expected

    def test_dump_embeddings_of_a_sweep_size_checkpoint(self, tmp_path):
        from santil.tasks import build_split_sequence, task_arrays

        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "sw"))
        assert main(["sweep-size", "--config", str(cfg_path), "--widths", "3,5"]) == 0
        ck = tmp_path / "sw" / "kernel5" / "checkpoint_seed1.npz"
        out_csv = tmp_path / "emb.csv"
        assert main(["dump-embeddings", "--checkpoint", str(ck), "--out-file", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            body = list(csv.reader(fh))[1:]

        cfg = synthetic_config(tmp_path, adjust_kernel=5)
        train, test, _ = load_pools(cfg)
        groups = partition_classes(train.num_classes, cfg.num_tasks)
        arch = resolve_architecture(cfg, train.image_shape, *map(len, groups))
        assert arch.adjustment[0].kernel == 5
        seq = build_split_sequence(train, test, groups, master_seed=1)
        state = load_state(ck, arch, seq)
        images, _ = task_arrays(seq, seq.tasks[1], "test")
        assert [row[2:] for row in body if row[0] == "2"] == [[f"{v:.8e}" for v in row] for row in state.embed(images, 2)]

    @pytest.mark.parametrize("override", [False, True], ids=["stored", "flag"])
    def test_dump_embeddings_data_root_is_the_flag_else_the_stored_one(self, tmp_path, monkeypatch, override):
        cfg_path = write_config(tmp_path, data_root=str(tmp_path / "stored"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        roots = []
        real_load_pools = harness.load_pools
        monkeypatch.setattr(harness, "load_pools", lambda cfg: roots.append(cfg.data_root) or real_load_pools(cfg))
        argv = ["dump-embeddings", "--checkpoint", str(tmp_path / "out" / "checkpoint_seed1.npz")]
        argv += ["--out-file", str(tmp_path / "e.csv")] + (["--data-root", str(tmp_path / "flag")] if override else [])
        assert main(argv) == 0
        assert roots == [str(tmp_path / ("flag" if override else "stored"))]

    @pytest.mark.parametrize("flag", ["--config=c.json", "--seed=1", "--out=o", "--epochs=1", "--fast"])
    def test_dump_embeddings_takes_no_run_option(self, capsys, flag):
        # the checkpoint states the run; only --data-root may replace a part of it
        with pytest.raises(SystemExit) as info:
            main(["dump-embeddings", "--checkpoint", "ck.npz", flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "short"),
        [
            (["run", "--config", "c.json", "--ep", "1"], "--ep"),
            (["sweep-size", "--config", "c.json", "--widths", "3", "--ou", "o"], "--ou"),
            (["ablate-order", "--config", "c.json", "--orders", "0,1", "--se", "1"], "--se"),
            (["fetch-data", "--dataset", "mnist", "--skip"], "--skip"),
            (["grad-check", "--inst", "2"], "--inst"),
        ],
        ids=["run", "sweep-size", "ablate-order", "fetch-data", "grad-check"],
    )
    def test_abbreviated_flag_exit_two(self, capsys, monkeypatch, argv, short):
        # a short form never stands for a long flag, so no command runs
        for name in ("cmd_run", "cmd_sweep_size", "cmd_ablate_order", "cmd_fetch_data", "cmd_grad_check"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("a command ran"))
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {short}" in capsys.readouterr().err

    def test_dump_embeddings_checkpoint_mismatch_exit_one_on_one_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "co"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        ck = tmp_path / "co" / "checkpoint_seed1.npz"
        rewrite_checkpoint(ck, lambda meta, arrays: meta["config"].update(class_order=[3, 2, 1, 0]))
        code = main(["dump-embeddings", "--checkpoint", str(ck), "--out-file", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("checkpoint mismatch: ")
        assert "at task 1: it was trained on classes [0, 1], the sequence has classes [3, 2]" in err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("write, problem", FOREIGN_CHECKPOINTS.values(), ids=FOREIGN_CHECKPOINTS)
    def test_dump_embeddings_foreign_checkpoint_exit_one(self, tmp_path, capsys, write, problem):
        path = tmp_path / "foreign.npz"
        write(path)
        code = main(["dump-embeddings", "--checkpoint", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"checkpoint mismatch: checkpoint {path} {problem}\n"

    def test_dump_embeddings_missing_checkpoint_exit_two(self, tmp_path, capsys):
        code = main(["dump-embeddings", "--checkpoint", str(tmp_path / "none.npz")])
        assert code == 2

    def test_out_dir_that_is_a_file_exit_one_before_training(self, tmp_path, capsys, monkeypatch):
        from santil import engine

        trained = []
        monkeypatch.setattr(engine, "train_task", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg_path = write_config(tmp_path, out_dir=str(out))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: out_dir: cannot make directory {out}: File exists\n"
        assert trained == []
        assert out.read_text() == "not a directory"

    def test_sweep_kernel_dir_that_is_a_file_exit_one_before_the_first_width_trains(self, tmp_path, capsys, monkeypatch):
        from santil import engine

        trained = []
        monkeypatch.setattr(engine, "train_task", lambda *args, **kwargs: trained.append(args))
        (tmp_path / "sw").mkdir()
        (tmp_path / "sw" / "kernel5").write_text("not a directory")
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "sw"))
        assert main(["sweep-size", "--config", str(cfg_path), "--widths", "3,5"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: out_dir: cannot make directory {tmp_path / 'sw' / 'kernel5'}: File exists\n"
        assert trained == []
        assert not list((tmp_path / "sw" / "kernel3").iterdir())

    def test_report_started_at_precedes_the_first_task(self, tmp_path, monkeypatch):
        from datetime import datetime, timezone

        from santil import engine

        first_task = []
        real_train_task = engine.train_task

        def stamped(*args, **kwargs):
            first_task.append(datetime.now(timezone.utc))
            return real_train_task(*args, **kwargs)

        monkeypatch.setattr(engine, "train_task", stamped)
        report = harness.run(synthetic_config(tmp_path, epochs=1))
        assert datetime.fromisoformat(report["started_at"]) <= first_task[0]

    def test_cli_determinism_byte_identical_reports(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        r1["config"]["out_dir"] = r2["config"]["out_dir"] = ""
        assert json.dumps(strip_wall_clock(r1), sort_keys=True) == json.dumps(
            strip_wall_clock(r2), sort_keys=True
        )


class TestMnistShapedPipeline:
    """Drive the real mnist/permuted-mnist config paths with IDX files on disk."""

    def _write_fake_mnist(self, tmp_path):
        from dataset_writers import save_idx

        root = tmp_path / "dataroot"
        (root / "mnist").mkdir(parents=True)
        train = synthetic_blobs(seed=200, per_class=40)
        test = synthetic_blobs(seed=201, per_class=10, pattern_seed=200)
        save_idx(train, root / "mnist" / "train-images-idx3-ubyte", root / "mnist" / "train-labels-idx1-ubyte")
        save_idx(test, root / "mnist" / "t10k-images-idx3-ubyte", root / "mnist" / "t10k-labels-idx1-ubyte")
        return root

    def test_five_split_pipeline(self, tmp_path):
        root = self._write_fake_mnist(tmp_path)
        raw = {
            "strategy": "san",
            "dataset": "mnist",
            "num_tasks": 5,
            "architecture": "mnist-small",
            "epochs": 1,
            "batch_size": 32,
            "seeds": [1],
            "data_root": str(root),
            "out_dir": str(tmp_path / "out5"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out5" / "report.json").read_text())
        matrix = report["seeds"][0]["forgetting_matrix"]
        assert [len(r) for r in matrix] == [1, 2, 3, 4, 5]
        assert report["dataset"]["train_size"] == 400
        # zero forgetting shows up as constant columns
        for s in range(5):
            col = [row[s] for row in matrix if len(row) > s]
            assert all(v == col[0] for v in col)

    def test_permuted_pipeline(self, tmp_path):
        root = self._write_fake_mnist(tmp_path)
        raw = {
            "strategy": "san",
            "dataset": "permuted-mnist",
            "num_tasks": 3,
            "architecture": "mnist-small",
            "epochs": 1,
            "batch_size": 32,
            "seeds": [1],
            "data_root": str(root),
            "out_dir": str(tmp_path / "outp"),
        }
        cfg_path = tmp_path / "cfgp.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "outp" / "report.json").read_text())
        assert len(report["seeds"][0]["final_per_task"]) == 3
        assert report["seeds"][0]["per_task"][0]["classes"] == list(range(10))

    @pytest.mark.parametrize(
        "command, extra, problem",
        [
            ("run", {"class_order": list(range(9, -1, -1))}, "class_order: not applicable to permuted tasks"),
            ("ablate-order", {}, "ablate-order applies to split datasets only"),
        ],
        ids=["class_order", "ablate-order"],
    )
    def test_split_only_requests_on_permuted_tasks_exit_one(self, tmp_path, capsys, command, extra, problem):
        raw = {
            "strategy": "san",
            "dataset": "permuted-mnist",
            "num_tasks": 2,
            "architecture": "mnist-small",
            "epochs": 1,
            "seeds": [1],
            "data_root": str(self._write_fake_mnist(tmp_path)),
            "out_dir": str(tmp_path / "permuted"),
        }
        cfg_path = tmp_path / "permuted.json"
        cfg_path.write_text(json.dumps(raw | extra))
        argv = [command, "--config", str(cfg_path)] + (["--orders", "0,1;1,0"] if command == "ablate-order" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "permuted").exists()


class TestFetchLogic:
    def test_checksum_match_and_mismatch(self, tmp_path):
        payload = b"hello dataset"
        path = tmp_path / "file.gz"
        path.write_bytes(payload)
        digest = hashlib.sha256(payload).hexdigest()
        remote = RemoteFile("http://x/file.gz", "file.gz", digest, "gunzip", ".")
        assert verify_checksum(path, remote, tmp_path) == digest
        bad = RemoteFile("http://x/file.gz", "file.gz", "0" * 64, "gunzip", ".")
        with pytest.raises(ChecksumError, match="sha256"):
            verify_checksum(path, bad, tmp_path)

    def test_pin_on_first_fetch_manifest(self, tmp_path):
        payload = b"data"
        path = tmp_path / "blob"
        path.write_bytes(payload)
        remote = RemoteFile("http://x/blob", "blob", None, "gunzip", ".")
        first = verify_checksum(path, remote, tmp_path)
        manifest = json.loads((tmp_path / "checksums.json").read_text())
        assert manifest["blob"] == first
        # tamper and re-verify against the recorded pin
        path.write_bytes(b"tampered")
        with pytest.raises(ChecksumError):
            verify_checksum(path, remote, tmp_path)

    def test_gunzip_unpack_produces_loadable_idx(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        raw = struct.pack(">IIII", 0x803, 1, 2, 2) + pixels.tobytes()
        archive = tmp_path / "archives"
        archive.mkdir()
        gz = archive / "train-images-idx3-ubyte.gz"
        gz.write_bytes(gzip.compress(raw))
        remote = RemoteFile("http://x/y.gz", gz.name, None, "gunzip", "mnist")
        unpack(gz, remote, tmp_path)
        assert (tmp_path / "mnist" / "train-images-idx3-ubyte").read_bytes() == raw

    @staticmethod
    def write_tar(path, members, mode=0o644):
        """A gzipped tar built in memory from (name, kind, payload or link target) triples."""
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:gz") as tar:
            for name, kind, payload in members:
                info = tarfile.TarInfo(name)
                info.mode = mode
                if kind == "file":
                    info.size = len(payload)
                    tar.addfile(info, io.BytesIO(payload))
                else:
                    info.type = tarfile.SYMTYPE if kind == "symlink" else tarfile.LNKTYPE
                    info.linkname = payload
                    tar.addfile(info)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(buf.getvalue())
        return path

    def untar(self, tmp_path, members, mode=0o644):
        archive = self.write_tar(tmp_path / "archives" / "a.tar.gz", members, mode)
        unpack(archive, RemoteFile("http://x/a.tar.gz", archive.name, None, "untar", "."), tmp_path / "data")

    def test_untar_extracts_files_under_the_data_root(self, tmp_path):
        self.untar(tmp_path, [("set/a.bin", "file", b"abc"), ("set/b.bin", "file", b"de")])
        assert (tmp_path / "data" / "set" / "a.bin").read_bytes() == b"abc"
        assert (tmp_path / "data" / "set" / "b.bin").read_bytes() == b"de"

    @pytest.mark.skipif(not hasattr(tarfile, "data_filter"), reason="tarfile has no extraction filters")
    @pytest.mark.parametrize("mode", [0o4755, 0o2755, 0o777, 0o666], ids=oct)
    def test_untar_drops_setuid_and_group_or_world_write_bits(self, tmp_path, mode):
        self.untar(tmp_path, [("set/a.bin", "file", b"abc")], mode)
        extracted = (tmp_path / "data" / "set" / "a.bin").stat().st_mode
        assert extracted & (stat.S_ISUID | stat.S_ISGID | stat.S_IWGRP | stat.S_IWOTH) == 0
        assert extracted & 0o755 == mode & 0o755 & ~0o022

    def test_untar_member_in_a_sibling_directory_refused(self, tmp_path):
        # ".../data-evil" starts with the string ".../data" but is not inside it
        with pytest.raises(FetchError, match="outside"):
            self.untar(tmp_path, [("../data-evil/x.txt", "file", b"x")])
        assert not (tmp_path / "data-evil").exists()
        assert not any((tmp_path / "data").iterdir())

    @pytest.mark.parametrize("kind", ["symlink", "hardlink"])
    def test_untar_link_after_good_member_refuses_whole_archive(self, tmp_path, kind):
        secret = tmp_path / "secret.txt"
        secret.write_text("keep")
        members = [("set/a.bin", "file", b"abc"), ("set/link", kind, str(secret))]
        with pytest.raises(FetchError, match="not a regular file or directory"):
            self.untar(tmp_path, members)
        assert not any((tmp_path / "data").iterdir())
        assert secret.read_text() == "keep"

    def test_truncated_gzip_leaves_no_unpacked_file(self, tmp_path):
        gz = tmp_path / "archives" / "train-images-idx3-ubyte.gz"
        gz.parent.mkdir()
        gz.write_bytes(gzip.compress(bytes(range(256)) * 64)[:-40])
        remote = RemoteFile("http://x/y.gz", gz.name, None, "gunzip", "mnist")
        with pytest.raises(EOFError):
            unpack(gz, remote, tmp_path)
        assert list((tmp_path / "mnist").iterdir()) == []

    def test_fetch_over_file_urls_downloads_pins_unpacks_then_reverifies(self, tmp_path, monkeypatch):
        import urllib.request

        upstream = tmp_path / "upstream"
        upstream.mkdir()
        idx = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(range(4))
        (upstream / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(idx))
        self.write_tar(upstream / "set.tar.gz", [("set/a.bin", "file", b"abc")])
        recipes = {
            "mnist": RemoteFile((upstream / "train-images-idx3-ubyte.gz").as_uri(), "train-images-idx3-ubyte.gz", None, "gunzip", "mnist"),
            "cifar10": RemoteFile((upstream / "set.tar.gz").as_uri(), "set.tar.gz", None, "untar", "."),
        }
        for recipe, remote in recipes.items():
            monkeypatch.setitem(REGISTRY, recipe, [remote])
        opened = []
        real_urlopen = urllib.request.urlopen

        def urlopen(url):
            opened.append(url)
            return real_urlopen(url)

        monkeypatch.setattr("santil.fetch.urllib.request.urlopen", urlopen)
        root = tmp_path / "data"
        for recipe in recipes:
            fetch_dataset(recipe, root)
        assert opened == [remote.url for remote in recipes.values()]
        for remote in recipes.values():
            assert (root / "archives" / remote.filename).read_bytes() == (upstream / remote.filename).read_bytes()
        pins = {remote.filename: hashlib.sha256((upstream / remote.filename).read_bytes()).hexdigest() for remote in recipes.values()}
        assert json.loads((root / "checksums.json").read_text()) == pins
        assert (root / "mnist" / "train-images-idx3-ubyte").read_bytes() == idx
        assert (root / "set" / "a.bin").read_bytes() == b"abc"

        # a second fetch opens no URL, and checks each archive against its pin
        opened.clear()
        for recipe in recipes:
            fetch_dataset(recipe, root)
        (root / "archives" / "set.tar.gz").write_bytes(b"tampered")
        with pytest.raises(ChecksumError, match="set.tar.gz"):
            fetch_dataset("cifar10", root)
        assert opened == []
        assert json.loads((root / "checksums.json").read_text()) == pins

    def test_download_failing_mid_stream_leaves_no_archive(self, tmp_path, monkeypatch):
        class FailingResponse:
            chunks = [b"the first part of an archive"]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, n=-1):
                if self.chunks:
                    return self.chunks.pop()
                raise ConnectionResetError("connection reset mid-stream")

        monkeypatch.setattr("santil.fetch.urllib.request.urlopen", lambda url: FailingResponse())
        root = tmp_path / "data"
        with pytest.raises(FetchError, match="connection reset mid-stream"):
            fetch_dataset("fashion-mnist", root)
        assert list((root / "archives").iterdir()) == []
        assert not (root / "checksums.json").exists()


class TestDataLayout:
    """One table says where each dataset's files live; fetch-data writes
    there, load_pools reads there, and the CLI offers its recipes."""

    MNIST_STEMS = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")

    @pytest.mark.parametrize("name", ["mnist", "permuted-mnist"])
    def test_missing_files_message_lists_what_fetch_writes_and_the_data_root(self, tmp_path, capsys, name):
        root = tmp_path / "void"
        cfg_path = write_config(tmp_path, dataset=name, data_root=str(root))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        missing = ", ".join(str(root / "mnist" / stem) for stem in self.MNIST_STEMS)
        assert f"missing mnist files: {missing} (" in err
        assert f"run `santil fetch-data --dataset mnist --data-root {root}` to download them" in err

    @pytest.mark.parametrize("name", [n for n in DATASET_NAMES if n != "synthetic"])
    def test_every_file_dataset_names_a_fetch_recipe(self, tmp_path, name):
        root = tmp_path / "empty"
        with pytest.raises(DataFilesError) as info:
            load_pools(synthetic_config(tmp_path, dataset=name, data_root=str(root)))
        recipe = info.value.dataset
        assert recipe in REGISTRY
        assert recipe == ("mnist" if name == "permuted-mnist" else name)
        layout = DATASET_FILES[recipe]
        assert info.value.missing == [str(root / layout.directory / f) for f in layout.train + layout.test]

    def test_fetch_data_offers_every_recipe(self):
        def action(parser, dest):
            return next(a for a in parser._actions if a.dest == dest)

        fetch = action(cli.build_parser(), "command").choices["fetch-data"]
        assert action(fetch, "dataset").choices == sorted(REGISTRY)

    @staticmethod
    def fetch_fixture(recipe, root, scratch, seed):
        """Unpack gzipped IDX fixtures named as `recipe`'s downloads into `root`;
        returns the (train, test) datasets they hold."""
        from dataset_writers import save_idx

        pools = {
            "train": synthetic_blobs(seed=seed, per_class=3),
            "t10k": synthetic_blobs(seed=seed + 1, per_class=2, pattern_seed=seed),
        }
        scratch.mkdir()
        for split, pool in pools.items():
            save_idx(pool, scratch / f"{split}-images", scratch / f"{split}-labels")
        archives = root / "archives"
        archives.mkdir(parents=True, exist_ok=True)
        for remote in REGISTRY[recipe]:
            split = remote.filename.split("-")[0]
            part = "images" if "-images-" in remote.filename else "labels"
            archive = archives / remote.filename
            archive.write_bytes(gzip.compress((scratch / f"{split}-{part}").read_bytes()))
            unpack(archive, remote, root)
        return pools["train"], pools["t10k"]

    def test_what_fetch_writes_is_what_load_pools_reads(self, tmp_path):
        root = tmp_path / "data"
        expected = {
            "mnist": self.fetch_fixture("mnist", root, tmp_path / "m", seed=300),
            "fashion-mnist": self.fetch_fixture("fashion-mnist", root, tmp_path / "f", seed=400),
        }
        for name, recipe, kind in [
            ("mnist", "mnist", "split"),
            ("permuted-mnist", "mnist", "permuted"),
            ("fashion-mnist", "fashion-mnist", "split"),
        ]:
            train, test, got_kind = load_pools(synthetic_config(tmp_path, dataset=name, data_root=str(root)))
            assert got_kind == kind
            for pool, fixture in zip((train, test), expected[recipe]):
                assert np.array_equal(pool.labels, fixture.labels)
                assert np.array_equal(np.rint(pool.images * 255), np.rint(fixture.images * 255))
                assert all(Path(p).parent == root / recipe for p in pool.provenance["files"])
                assert not any(p.endswith(".gz") for p in pool.provenance["files"])

    def test_cifar10_layout_loads_what_was_written(self, tmp_path):
        from dataset_writers import save_cifar
        from santil.data import synthetic_dataset

        layout = DATASET_FILES["cifar10"]
        directory = tmp_path / "data" / layout.directory
        directory.mkdir(parents=True)
        written = {}
        for i, name in enumerate(layout.train + layout.test):
            written[name] = synthetic_dataset(10, 2, (3, 32, 32), seed=600 + i)
            save_cifar(written[name], directory / name, "cifar10")
        cfg = synthetic_config(tmp_path, dataset="cifar10", data_root=str(tmp_path / "data"))
        train, test, kind = load_pools(cfg)
        assert kind == "split"
        for pool, names in ((train, layout.train), (test, layout.test)):
            assert np.array_equal(pool.labels, np.concatenate([written[n].labels for n in names]))
            pixels = np.concatenate([np.rint(written[n].images * 255) for n in names])
            assert np.array_equal(np.rint(pool.images * 255), pixels)
            assert list(pool.provenance["files"]) == [str(directory / n) for n in names]

    def test_idx_gz_drop_in_loads(self, tmp_path):
        root = tmp_path / "data"
        train, _ = self.fetch_fixture("mnist", tmp_path / "fetched", tmp_path / "m", seed=500)
        (root / "mnist").mkdir(parents=True)
        for archive in (tmp_path / "fetched" / "archives").iterdir():
            (root / "mnist" / archive.name).write_bytes(archive.read_bytes())
        pool, _, _ = load_pools(synthetic_config(tmp_path, dataset="mnist", data_root=str(root)))
        assert np.array_equal(pool.labels, train.labels)
        assert all(p.endswith(".gz") for p in pool.provenance["files"])
