import csv
import gzip
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from santil import harness
from santil.checkpoint import load_state, read_meta, save_state
from santil.cli import main
from santil.config import (
    ConfigError,
    DataFilesError,
    RunConfig,
    load_pools,
    resolve_architecture,
)
from santil.fetch import ChecksumError, RemoteFile, unpack, verify_checksum
from santil.report import strip_wall_clock, write_summary_csv


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


class TestRunConfig:
    def test_round_trip(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

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

    def test_inline_head_narrower_than_task_one_rejected(self, tmp_path):
        inline = {
            "backbone": [],
            "adjustment": [],
            "classifier": [{"kind": "flatten"}, {"kind": "linear", "out_features": 1}],
        }
        cfg = synthetic_config(tmp_path, architecture=inline)
        with pytest.raises(ConfigError, match="narrower"):
            resolve_architecture(cfg, (1, 8, 8), 2)

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
        rows = list(csv.DictReader(open(Path(cfg.out_dir) / "summary.csv")))
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
        assert state.classifier_width(2) == 4
        path = tmp_path / "ext.npz"
        save_state(state, cfg, path)
        reloaded = load_state(path, arch, seq)
        assert reloaded.classifier_width(2) == 4
        for t in (1, 2):
            images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
            assert (
                predict_logits(state, t, images).tobytes()
                == predict_logits(reloaded, t, images).tobytes()
            )


class TestDumpEmbeddings:
    def test_rows_columns_and_round_trip(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        harness.run(cfg)
        ck = Path(cfg.out_dir) / "checkpoint_seed1.npz"
        out_csv = tmp_path / "emb.csv"
        harness.dump_embeddings(cfg, ck, "test", out_csv)

        rows = list(csv.reader(open(out_csv)))
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
        rows = list(csv.DictReader(open(tmp_path / "sw" / "sweep.csv")))
        assert [r["kernel"] for r in rows] == ["1", "3"]

    def test_ablate_order_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, epochs=1, out_dir=str(tmp_path / "ao"))
        assert main(["ablate-order", "--config", str(cfg_path), "--orders", "0,1;1,0"]) == 0
        combined = json.loads((tmp_path / "ao" / "ablation.json").read_text())
        assert len(combined) == 2

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
        from santil.data import save_idx

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
