import csv
import gzip
import hashlib
import io
import json
import struct
import tarfile
from pathlib import Path

import numpy as np
import pytest

from santil import cli, harness
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
            "checkpoint_selection",
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
        spec.validate()

    def test_inline_layer_missing_field_is_config_error(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv"}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="bad conv layer"):
            resolve_architecture(cfg, (1, 8, 8), 2)

    def test_inline_layer_unknown_field_is_config_error(self, tmp_path):
        inline = {
            "backbone": [{"kind": "conv", "out_channels": 4, "kernal": 5}],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": "base"}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="architecture.backbone: conv layer has unknown field.*kernal"):
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
        message = f"architecture.backbone: conv layer field '{field}' must be an integer"
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
        meta = read_meta(Path(cfg.out_dir) / "checkpoint_seed1.npz")
        assert meta["strategy"] == "san"
        assert meta["seed"] == 1
        assert RunConfig.from_dict(meta["config"]) == cfg

    def test_reload_after_head_extension(self, tmp_path):
        from santil.data import synthetic_dataset
        from santil.engine import predict_logits, run_sequence
        from santil.layers import tiny
        from santil.tasks import build_split_sequence, task_arrays

        cfg = synthetic_config(tmp_path)  # config echo only; data built directly
        train = synthetic_dataset(6, 60, (1, 8, 8), seed=90)
        test = synthetic_dataset(6, 20, (1, 8, 8), seed=91, pattern_seed=90)
        seq = build_split_sequence(train, test, [(0, 1), (2, 3, 4, 5)], master_seed=3)
        arch = tiny((1, 8, 8), base_classes=2)
        _, state = run_sequence("san", arch, seq, seed=3, epochs=1, batch_size=16)
        assert state.shared["classifier"].output_shape == (4,)
        path = tmp_path / "ext.npz"
        save_state(state, cfg, path)
        reloaded = load_state(path, arch, seq)
        assert reloaded.shared["classifier"].output_shape == (4,)
        for t in (1, 2):
            images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
            assert (
                predict_logits(state, t, images).tobytes()
                == predict_logits(reloaded, t, images).tobytes()
            )

    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_reload_rebuilds_frozen_flags_masks_and_snapshot(self, tmp_path, strategy):
        from santil.data import synthetic_dataset
        from santil.engine import run_sequence
        from santil.layers import tiny
        from santil.tasks import build_split_sequence, partition_classes

        # 2+2+3 classes: san widens its shared C1 at task 3, which masks the old rows
        train = synthetic_dataset(7, 30, (1, 8, 8), seed=92)
        test = synthetic_dataset(7, 10, (1, 8, 8), seed=93, pattern_seed=92)
        seq = build_split_sequence(train, test, partition_classes(7, 3), master_seed=4)
        arch = tiny((1, 8, 8), base_classes=2)
        _, state = run_sequence(strategy, arch, seq, seed=4, epochs=1, batch_size=16)
        path = save_state(state, synthetic_config(tmp_path), tmp_path / "ck.npz")
        reloaded = load_state(path, arch, seq)

        def structure(s):
            return [
                (p.name, p.frozen, None if p.trainable_mask is None else p.trainable_mask.tobytes())
                for block in s.model_blocks()
                for p in block.parameters()
            ]

        def snapshot(s):
            return {name: (v.dtype, v.shape, v.tobytes()) for name, v in s.snapshot.items()}

        assert structure(reloaded) == structure(state)
        assert any(mask is not None for _, _, mask in structure(state)) == (strategy == "san")
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


class TestDumpEmbeddings:
    def test_rows_columns_and_round_trip(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        out_csv = tmp_path / "emb.csv"
        harness.dump_embeddings(cfg, ck, "test", out_csv)

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

    def test_checkpoint_from_another_class_order_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        reordered = synthetic_config(tmp_path, class_order=[3, 2, 1, 0])
        with pytest.raises(ValueError, match=r"task 1: .*\[0, 1\].*\[3, 2\]"):
            harness.dump_embeddings(reordered, ck, "test", tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", "baseline"),
            ("dataset", "mnist"),
            ("num_tasks", 1),
            ("architecture", "mnist-small"),
            ("adjust_kernel", 5),
        ],
    )
    def test_checkpoint_from_another_config_rejected(self, tmp_path, field, value):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        other = synthetic_config(tmp_path, **{field: value})
        with pytest.raises(ConfigError, match=field):
            harness.dump_embeddings(other, ck, "test", tmp_path / "e.csv")

    def test_failure_part_way_keeps_previous_csv_and_no_temporary(self, tmp_path, monkeypatch):
        from santil.engine import IncrementalState

        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        out_dir = tmp_path / "emb"
        out_csv = out_dir / "emb.csv"
        harness.dump_embeddings(cfg, ck, "test", out_csv)
        before = out_csv.read_bytes()

        real_embed = IncrementalState.embed
        calls = []

        def embed_fails_on_second_chunk(self, images, task_index):
            calls.append(task_index)
            if len(calls) == 2:
                raise MemoryError("out of memory")
            return real_embed(self, images, task_index)

        monkeypatch.setattr(IncrementalState, "embed", embed_fails_on_second_chunk)
        with pytest.raises(MemoryError):
            harness.dump_embeddings(cfg, ck, "test", out_csv)
        assert len(calls) == 2  # the first chunk's rows were already written
        assert out_csv.read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["emb.csv"]

    def test_format_one_checkpoint_rejected_naming_both_versions(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        with np.load(ck) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        meta = dict(read_meta(ck), format_version=1)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(ck, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="format version 1; .* reads format 2"):
            harness.dump_embeddings(cfg, ck, "test", tmp_path / "e.csv")

    def test_missing_checkpoint_errors(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        with pytest.raises(FileNotFoundError):
            harness.dump_embeddings(cfg, tmp_path / "missing.npz", "test", tmp_path / "e.csv")


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
                "--config",
                str(cfg_path),
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

    def test_dump_embeddings_config_mismatch_exit_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "dm"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        other = write_config(tmp_path, strategy="baseline", out_dir=str(tmp_path / "dm"))
        code = main(
            [
                "dump-embeddings",
                "--config",
                str(other),
                "--checkpoint",
                str(tmp_path / "dm" / "checkpoint_seed1.npz"),
            ]
        )
        assert code == 1
        assert "strategy: checkpoint was trained with 'san'" in capsys.readouterr().err

    def test_dump_embeddings_checkpoint_mismatch_exit_one_on_one_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "co"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        other = write_config(tmp_path, class_order=[3, 2, 1, 0], out_dir=str(tmp_path / "co"))
        code = main(
            [
                "dump-embeddings",
                "--config",
                str(other),
                "--checkpoint",
                str(tmp_path / "co" / "checkpoint_seed1.npz"),
                "--out-file",
                str(tmp_path / "e.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("checkpoint mismatch: ")
        assert "at task 1: it was trained on classes [0, 1], the sequence has classes [3, 2]" in err
        assert not (tmp_path / "e.csv").exists()

    def test_dump_embeddings_missing_checkpoint_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(
            [
                "dump-embeddings",
                "--config",
                str(cfg_path),
                "--checkpoint",
                str(tmp_path / "none.npz"),
            ]
        )
        assert code == 2

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


class TestFetchLogic:
    def test_checksum_match_and_mismatch(self, tmp_path):
        payload = b"hello dataset"
        path = tmp_path / "file.gz"
        path.write_bytes(payload)
        digest = hashlib.sha256(payload).hexdigest()
        remote = RemoteFile("http://x/file.gz", "file.gz", digest, "none", ".")
        assert verify_checksum(path, remote, tmp_path) == digest
        bad = RemoteFile("http://x/file.gz", "file.gz", "0" * 64, "none", ".")
        with pytest.raises(ChecksumError, match="sha256"):
            verify_checksum(path, bad, tmp_path)

    def test_pin_on_first_fetch_manifest(self, tmp_path):
        payload = b"data"
        path = tmp_path / "blob"
        path.write_bytes(payload)
        remote = RemoteFile("http://x/blob", "blob", None, "none", ".")
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
    def write_tar(path, members):
        """A gzipped tar built in memory from (name, kind, payload or link target) triples."""
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:gz") as tar:
            for name, kind, payload in members:
                info = tarfile.TarInfo(name)
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

    def untar(self, tmp_path, members):
        archive = self.write_tar(tmp_path / "archives" / "a.tar.gz", members)
        unpack(archive, RemoteFile("http://x/a.tar.gz", archive.name, None, "untar", "."), tmp_path / "data")

    def test_untar_extracts_files_under_the_data_root(self, tmp_path):
        self.untar(tmp_path, [("set/a.bin", "file", b"abc"), ("set/b.bin", "file", b"de")])
        assert (tmp_path / "data" / "set" / "a.bin").read_bytes() == b"abc"
        assert (tmp_path / "data" / "set" / "b.bin").read_bytes() == b"de"

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

    def test_idx_gz_drop_in_loads(self, tmp_path):
        root = tmp_path / "data"
        train, _ = self.fetch_fixture("mnist", tmp_path / "fetched", tmp_path / "m", seed=500)
        (root / "mnist").mkdir(parents=True)
        for archive in (tmp_path / "fetched" / "archives").iterdir():
            (root / "mnist" / archive.name).write_bytes(archive.read_bytes())
        pool, _, _ = load_pools(synthetic_config(tmp_path, dataset="mnist", data_root=str(root)))
        assert np.array_equal(pool.labels, train.labels)
        assert all(p.endswith(".gz") for p in pool.provenance["files"])
