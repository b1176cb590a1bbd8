import dataclasses
import gzip
import struct

import numpy as np
import pytest

from santil.data import (
    BadMagicError,
    CountMismatchError,
    Dataset,
    DatasetError,
    RecordLengthError,
    TruncatedFileError,
    load_cifar,
    load_idx,
    make_permutations,
    split_indices,
    synthetic_dataset,
)
from santil.tasks import Task, TaskSequence, task_arrays

from dataset_writers import save_cifar, save_idx


def write_idx_pair(tmp_path, pixels, labels):
    """Author IDX bytes by hand: big-endian headers, raw uint8 payload."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, h, w = pixels.shape
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return images_path, labels_path


class TestLoadIdx:
    def test_hand_authored_fixture_pixel_exact(self, tmp_path):
        pixels = np.zeros((2, 2, 3), dtype=np.uint8)
        pixels[0, 0, 0] = 7
        pixels[0, 1, 2] = 255
        pixels[1, 0, 1] = 128
        imgs, labs = write_idx_pair(tmp_path, pixels, [3, 9])
        ds = load_idx(imgs, labs)
        assert ds.images.shape == (2, 1, 2, 3)
        assert ds.images.dtype == np.float32
        assert ds.images[0, 0, 0, 0] == np.float32(7) / np.float32(255)
        assert ds.images[0, 0, 1, 2] == np.float32(1.0)
        assert ds.images[0, 0, 0, 1] == 0.0
        assert ds.labels.tolist() == [3, 9]

    def test_gzip_transparent(self, tmp_path):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        imgs, labs = write_idx_pair(tmp_path, pixels, [0, 1])
        gz_imgs = tmp_path / "images-idx3-ubyte.gz"
        gz_imgs.write_bytes(gzip.compress(imgs.read_bytes()))
        ds_plain = load_idx(imgs, labs)
        ds_gz = load_idx(gz_imgs, labs)
        assert np.array_equal(ds_plain.images, ds_gz.images)

    def test_bad_magic(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        corrupted = tmp_path / "bad"
        corrupted.write_bytes(b"\x00\x00\x09\x99" + imgs.read_bytes()[4:])
        with pytest.raises(BadMagicError):
            load_idx(corrupted, labs)

    def test_truncated(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        short = tmp_path / "short"
        short.write_bytes(imgs.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            load_idx(short, labs)

    def test_count_mismatch(self, tmp_path):
        imgs, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        labs3 = tmp_path / "labels3"
        labs3.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
        with pytest.raises(CountMismatchError):
            load_idx(imgs, labs3)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
        imgs, labs = write_idx_pair(tmp_path, pixels, list(range(5)))
        ds = load_idx(imgs, labs)
        out_imgs = tmp_path / "rt-images"
        out_labs = tmp_path / "rt-labels"
        save_idx(ds, out_imgs, out_labs)
        assert out_imgs.read_bytes() == imgs.read_bytes()
        assert out_labs.read_bytes() == labs.read_bytes()
        again = load_idx(out_imgs, out_labs)
        assert again.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(again.labels, ds.labels)


class TestLoadCifar:
    def _record(self, label, value, variant):
        pixels = np.full(3072, value, dtype=np.uint8)
        if variant == "cifar100":
            return bytes([0, label]) + pixels.tobytes()
        return bytes([label]) + pixels.tobytes()

    def test_two_record_fixture_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = b""
        pix = []
        for label in (3, 7):
            p = rng.integers(0, 256, size=3072, dtype=np.uint8)
            pix.append(p)
            raw += bytes([label]) + p.tobytes()
        path = tmp_path / "batch.bin"
        path.write_bytes(raw)
        ds = load_cifar([path], "cifar10")
        assert ds.images.shape == (2, 3, 32, 32)
        assert ds.labels.tolist() == [3, 7]
        # channel-major layout: first 1024 bytes are the red plane
        assert ds.images[0, 0].reshape(-1)[0] == np.float32(pix[0][0]) / np.float32(255)
        out = tmp_path / "rt.bin"
        save_cifar(ds, out, "cifar10")
        assert out.read_bytes() == raw

    def test_cifar100_keeps_fine_label(self, tmp_path):
        raw = bytes([5, 42]) + np.zeros(3072, dtype=np.uint8).tobytes()
        path = tmp_path / "train.bin"
        path.write_bytes(raw)
        ds = load_cifar([path], "cifar100")
        assert ds.labels.tolist() == [42]

    def test_wrong_record_length_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)  # one byte short of a cifar10 record
        with pytest.raises(RecordLengthError):
            load_cifar([path], "cifar10")

    def test_multiple_batches_concatenate(self, tmp_path):
        p1 = tmp_path / "b1.bin"
        p2 = tmp_path / "b2.bin"
        p1.write_bytes(self._record(1, 10, "cifar10"))
        p2.write_bytes(self._record(2, 20, "cifar10"))
        ds = load_cifar([p1, p2], "cifar10")
        assert ds.labels.tolist() == [1, 2]
        assert ds.num_samples == 2


def permuted_sequence(perms, images):
    """One task per permutation, each over every image of a single pool."""
    pool = Dataset(images, np.zeros(images.shape[0], dtype=np.int64))
    idx = np.arange(images.shape[0])
    tasks = [
        Task(t, (0,), idx, idx, idx, pixel_permutation=perm)
        for t, perm in enumerate(perms, start=1)
    ]
    return TaskSequence(pool, pool, tasks)


class TestPermutations:
    def test_first_task_is_identity(self):
        perms = make_permutations(4, seed=0, num_pixels=36)
        assert np.array_equal(perms[0], np.arange(36))

    def test_single_task(self):
        perms = make_permutations(1, seed=0, num_pixels=16)
        assert len(perms) == 1

    def test_deterministic(self):
        a = make_permutations(5, seed=3, num_pixels=49)
        b = make_permutations(5, seed=3, num_pixels=49)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_bijection_and_inverse_round_trip(self):
        perms = make_permutations(3, seed=1, num_pixels=16)
        rng = np.random.default_rng(2)
        images = rng.random((4, 1, 4, 4), dtype=np.float32)
        seq = permuted_sequence(perms, images)
        for t in (1, 2, 3):
            assert np.array_equal(np.sort(perms[t - 1]), np.arange(16))
            permuted, _ = task_arrays(seq, seq.tasks[t - 1], "test")
            flat = permuted.reshape(4, 1, 16)[:, :, np.argsort(perms[t - 1])]
            assert np.array_equal(flat.reshape(4, 1, 4, 4), images)

    def test_permute_commutes_with_batching(self):
        perms = make_permutations(2, seed=5, num_pixels=16)
        rng = np.random.default_rng(3)
        images = rng.random((6, 1, 4, 4), dtype=np.float32)
        seq = permuted_sequence(perms, images)
        task = seq.tasks[1]
        whole, _ = task_arrays(seq, task, "test")
        parts = np.concatenate(
            [
                task_arrays(seq, dataclasses.replace(task, test_idx=task.test_idx[:2]), "test")[0],
                task_arrays(seq, dataclasses.replace(task, test_idx=task.test_idx[2:]), "test")[0],
            ]
        )
        assert np.array_equal(whole, parts)


class TestSplits:
    def test_85_15(self):
        train, val = split_indices(100, 0.85, seed=1)
        assert train.size == 85
        assert val.size == 15

    def test_degenerate_rejected(self):
        with pytest.raises(DatasetError, match="too small"):
            split_indices(1, 0.85, seed=0)

    def test_same_seed_identical(self):
        a = split_indices(100, 0.85, seed=9)
        b = split_indices(100, 0.85, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_disjoint_and_covering_for_100_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(10, 500))
            seed = int(rng.integers(0, 2**31))
            train, val = split_indices(n, 0.85, seed)
            assert len(np.intersect1d(train, val)) == 0
            assert len(train) + len(val) == n
            assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(n))
            again = split_indices(n, 0.85, seed)
            assert np.array_equal(train, again[0])


class TestSynthetic:
    def test_balanced_and_deterministic(self):
        ds = synthetic_dataset(3, 40, (1, 6, 6), seed=11)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [40, 40, 40]
        again = synthetic_dataset(3, 40, (1, 6, 6), seed=11)
        assert ds.images.tobytes() == again.images.tobytes()

    def test_values_in_unit_interval(self):
        ds = synthetic_dataset(4, 30, (1, 5, 5), seed=12)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_per_class_floor(self):
        with pytest.raises(ValueError):
            synthetic_dataset(2, 1, (1, 4, 4), seed=0)

    def test_linearly_separable_with_wide_margin(self):
        # one-epoch linear probe on well-separated blobs
        from santil.optim import Adam
        from santil.tensor import Parameter, Tape, Tensor, backward, flatten, linear, softmax_cross_entropy

        train = synthetic_dataset(2, 100, (1, 4, 4), seed=13)
        w = Parameter(np.zeros((2, 16), dtype=np.float32), "w")
        b = Parameter(np.zeros(2, dtype=np.float32), "b")
        opt = Adam([w, b], lr=0.05)
        order = np.random.default_rng(0).permutation(train.num_samples)
        for lo in range(0, len(order), 20):
            idx = order[lo : lo + 20]
            with Tape():
                logits = linear(flatten(Tensor(train.images[idx])), w, b)
                backward(softmax_cross_entropy(logits, train.labels[idx]))
            opt.step()
            opt.zero_grad()
        test = synthetic_dataset(2, 50, (1, 4, 4), seed=14, pattern_seed=13)
        logits = linear(flatten(Tensor(test.images)), w, b)
        acc = (logits.data.argmax(1) == test.labels).mean()
        assert acc >= 0.99

    def test_pattern_seed_shares_class_structure(self):
        a = synthetic_dataset(2, 20, (1, 4, 4), seed=1, pattern_seed=42)
        b = synthetic_dataset(2, 20, (1, 4, 4), seed=2, pattern_seed=42)
        # same class means, different noise
        assert np.allclose(
            a.images[a.labels == 0].mean(axis=0), b.images[b.labels == 0].mean(axis=0), atol=0.1
        )
        assert a.images.tobytes() != b.images.tobytes()


class TestDatasetType:
    def test_label_image_count_mismatch_rejected(self):
        with pytest.raises(CountMismatchError):
            Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.array([0]))
