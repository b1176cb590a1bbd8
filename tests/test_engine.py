import numpy as np
import pytest

from santil.data import synthetic_dataset
from santil.engine import (
    IncrementalState,
    TrainingDivergedError,
    TrainingOrderError,
    UnknownTaskError,
    UntrainedTaskError,
    evaluate,
    predict_logits,
    prepare_task_blocks,
    run_sequence,
    train_task,
)
from santil.layers import PRESETS, tiny
from santil.tensor import Tape, Tensor, backward, softmax_cross_entropy
from santil.tasks import (
    build_permuted_sequence,
    build_split_sequence,
    partition_classes,
    reorder_groups,
    task_arrays,
)


def blob_sequence(num_classes=6, num_tasks=3, per_class=80, seed=1, shape=(1, 8, 8)):
    train = synthetic_dataset(num_classes, per_class, shape, seed=100)
    test = synthetic_dataset(num_classes, max(20, per_class // 4), shape, seed=101, pattern_seed=100)
    groups = partition_classes(num_classes, num_tasks)
    return build_split_sequence(train, test, groups, master_seed=seed)


def tiny_arch(base_classes=2, shape=(1, 8, 8)):
    return tiny(shape, base_classes=base_classes)


class TestPartitionClasses:
    def test_mnist_style_pairs(self):
        assert partition_classes(10, 5) == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

    def test_twenty_groups_of_five(self):
        groups = partition_classes(100, 20)
        assert len(groups) == 20
        assert all(len(g) == 5 for g in groups)
        assert groups[0] == (0, 1, 2, 3, 4)
        assert groups[-1] == (95, 96, 97, 98, 99)

    def test_single_task_takes_all(self):
        assert partition_classes(10, 1) == [tuple(range(10))]

    def test_remainder_goes_to_last_task(self):
        assert partition_classes(10, 3) == [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9)]

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError):
            partition_classes(4, 5)

    def test_custom_order(self):
        groups = partition_classes(4, 2, order=[3, 1, 0, 2])
        assert groups == [(3, 1), (0, 2)]
        with pytest.raises(ValueError):
            partition_classes(4, 2, order=[0, 1, 2, 2])


class TestStrategyEquivalenceAtTaskOne:
    def test_san_baseline_independent_bit_identical(self):
        seq = blob_sequence()
        arch = tiny_arch()
        states = {}
        for strategy in ("san", "baseline", "independent"):
            result, state = run_sequence(strategy, arch, seq, seed=7, epochs=2, batch_size=16)
            states[strategy] = state

        def task1_params(state):
            return [p.data for blk in state._forward_blocks(1) for p in blk.parameters()]

        ref = task1_params(states["san"])
        for strategy in ("baseline", "independent"):
            other = task1_params(states[strategy])
            assert len(ref) == len(other)
            for a, b in zip(ref, other):
                assert a.tobytes() == b.tobytes()


class TestFreezingAndForgetting:
    def test_zero_forgetting_bit_exact_for_frozen_strategies(self):
        seq = blob_sequence()
        arch = tiny_arch()
        for strategy in ("san", "baseline", "independent"):
            state = IncrementalState(strategy, arch, seq, master_seed=3)
            logits_after_own = {}
            for t in range(1, 4):
                train_task(state, t, epochs=2, batch_size=16)
                images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
                logits_after_own[t] = predict_logits(state, t, images)
            for t in range(1, 4):
                images, _ = task_arrays(seq, seq.tasks[t - 1], "test")
                now = predict_logits(state, t, images)
                assert now.tobytes() == logits_after_own[t].tobytes(), strategy

    def test_finetune_changes_earlier_task_logits(self):
        seq = blob_sequence()
        state = IncrementalState("finetune", tiny_arch(), seq, master_seed=3)
        train_task(state, 1, epochs=2, batch_size=16)
        images, _ = task_arrays(seq, seq.tasks[0], "test")
        before = predict_logits(state, 1, images)
        train_task(state, 2, epochs=2, batch_size=16)
        train_task(state, 3, epochs=2, batch_size=16)
        after = predict_logits(state, 1, images)
        assert before.shape == after.shape
        assert before.tobytes() != after.tobytes()

    def test_shared_blocks_bitwise_frozen_after_full_run(self):
        seq = blob_sequence()
        for strategy in ("san", "baseline", "finetune", "independent"):
            _, state = run_sequence(strategy, tiny_arch(), seq, seed=5, epochs=2, batch_size=16)
            ok, path = state.verify_frozen()
            assert ok, f"{strategy}: frozen parameter {path} drifted"
            assert bool(state.snapshot) == (strategy != "finetune")
        backbone = state.per_task[1]["backbone"].parameters()[0]
        backbone.data[0] += 1.0
        assert state.verify_frozen() == (False, backbone.name)

    def test_drift_of_a_frozen_parameter_stops_training(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=5)
        train_task(state, 1, epochs=1, batch_size=16)
        state.shared["backbone"].parameters()[0].data[0] += 1.0
        with pytest.raises(RuntimeError, match="backbone.0.weight.*task 2"):
            train_task(state, 2, epochs=1, batch_size=16)

    def test_forgetting_matrix_columns_constant_for_san(self):
        seq = blob_sequence()
        result, _ = run_sequence("san", tiny_arch(), seq, seed=5, epochs=2, batch_size=16)
        for s in range(3):
            column = [row[s] for row in result.forgetting if len(row) > s]
            assert all(v == column[0] for v in column)

    def test_per_task_blocks_never_retrained(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=9)
        train_task(state, 1, epochs=2, batch_size=16)
        adj1 = {p.name: p.data.copy() for p in state.per_task[1]["adjust"].parameters()}
        train_task(state, 2, epochs=2, batch_size=16)
        for p in state.per_task[1]["adjust"].parameters():
            assert p.data.tobytes() == adj1[p.name].tobytes()
        ok, path = state.verify_frozen()
        assert ok, path

    def test_embeddings_stable_under_later_training(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=9)
        train_task(state, 1, epochs=2, batch_size=16)
        images, _ = task_arrays(seq, seq.tasks[0], "test")
        before = state.embed(images, 1)
        train_task(state, 2, epochs=2, batch_size=16)
        train_task(state, 3, epochs=2, batch_size=16)
        after = state.embed(images, 1)
        assert before.tobytes() == after.tobytes()

    def test_frozen_parameters_hold_no_gradient_after_full_run(self):
        seq = blob_sequence()
        for strategy in ("san", "baseline"):
            _, state = run_sequence(strategy, tiny_arch(), seq, seed=5, epochs=2, batch_size=16)
            frozen = [p for blk in state.model_blocks() for p in blk.parameters() if p.frozen]
            assert frozen, strategy
            stale = [p.name for p in frozen if p.grad is not None]
            assert not stale, f"{strategy}: frozen parameters hold gradients: {stale}"

    def test_adjust_gradient_unchanged_by_frozen_ends(self):
        # SAN task 2 backpropagates through constants; the gradient F_2 gets
        # must equal the one computed with B1 and C1 on the tape
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=6)
        train_task(state, 1, epochs=1, batch_size=16)
        task = seq.tasks[1]
        prepare_task_blocks(state, task)
        images, raw_labels = task_arrays(seq, task, "train")
        x = Tensor(images[:16])
        labels = state.head_maps[2].local_labels(raw_labels[:16])
        ends = state.shared["backbone"].parameters() + state.shared["classifier"].parameters()
        adjust = state.per_task[2]["adjust"].parameters()

        def adjust_grads():
            for p in adjust:
                p.value.grad = None
            with Tape():
                logits, _ = state.forward_parts(x, 2)
                backward(softmax_cross_entropy(logits, labels))
            return [p.grad.copy() for p in adjust]

        assert all(p.frozen for p in ends)
        frozen_grads = adjust_grads()
        assert all(p.grad is None for p in ends)
        for p in ends:
            p.frozen = False
        try:
            reference = adjust_grads()
        finally:
            for p in ends:
                p.frozen = True
                p.value.grad = None
        assert len(frozen_grads) == len(reference) > 0
        for got, want in zip(frozen_grads, reference):
            assert got.tobytes() == want.tobytes()


class TestTrainTaskContracts:
    def test_out_of_order_rejected(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=1)
        with pytest.raises(TrainingOrderError):
            train_task(state, 2, epochs=1)

    def test_untrained_task_evaluation_rejected(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=1)
        train_task(state, 1, epochs=1, batch_size=16)
        with pytest.raises(UntrainedTaskError):
            evaluate(state, 2, "test")

    def test_unknown_task_rejected(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=1)
        with pytest.raises(UnknownTaskError):
            evaluate(state, 7, "test")

    def test_trainable_param_growth_constant_for_san(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=1)
        logs = [train_task(state, t, epochs=1, batch_size=16) for t in (1, 2, 3)]
        assert logs[1].trainable_params == logs[2].trainable_params
        adjust_size = sum(p.data.size for p in state.per_task[2]["adjust"].parameters())
        assert logs[1].trainable_params == adjust_size

    def test_finetune_growth_zero_after_task_one(self):
        seq = blob_sequence()
        result, _ = run_sequence("finetune", tiny_arch(), seq, seed=1, epochs=1, batch_size=16)
        counts = [rec["param_count"] for rec in result.per_task]
        assert counts[0] == counts[1] == counts[2]

    def test_param_count_monotone_nondecreasing(self):
        seq = blob_sequence()
        for strategy in ("san", "baseline", "independent"):
            result, _ = run_sequence(strategy, tiny_arch(), seq, seed=1, epochs=1, batch_size=16)
            counts = [rec["param_count"] for rec in result.per_task]
            assert counts == sorted(counts)

    def test_chance_level_before_training(self):
        seq = blob_sequence(per_class=150)
        state = IncrementalState("san", tiny_arch(), seq, master_seed=2)
        prepare_task_blocks(state, seq.tasks[0])
        state._active_task = 1
        acc = evaluate(state, 1, "test")
        assert 0.4 <= acc <= 0.6

    def test_best_val_restores_best_epoch(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=4)
        log = train_task(state, 1, epochs=3, batch_size=16, selection="best-val")
        assert 1 <= log.best_epoch <= 3
        assert log.val_accuracy == evaluate(state, 1, "val")

    def test_last_epoch_mode(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=4)
        log = train_task(state, 1, epochs=2, batch_size=16, selection="last")
        assert log.best_epoch == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_training_and_names_position(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=4)
        with pytest.raises(TrainingDivergedError, match=r"seed 4, task 1, epoch 1, step \d+$"):
            train_task(state, 1, epochs=2, batch_size=16, lr=1e20)
        assert state.trained_upto == 0


class TestRunSequence:
    def test_single_task_report(self):
        seq = blob_sequence(num_classes=2, num_tasks=1)
        result, _ = run_sequence("san", tiny_arch(), seq, seed=1, epochs=2, batch_size=16)
        assert len(result.forgetting) == 1
        assert len(result.forgetting[0]) == 1
        assert result.mean_final == result.final_per_task[0]

    def test_mean_is_exact_arithmetic_mean(self):
        seq = blob_sequence()
        result, _ = run_sequence("san", tiny_arch(), seq, seed=1, epochs=2, batch_size=16)
        assert result.mean_final == sum(result.final_per_task) / len(result.final_per_task)

    def test_deterministic_repeat(self):
        seq_a = blob_sequence(seed=6)
        seq_b = blob_sequence(seed=6)
        r1, _ = run_sequence("san", tiny_arch(), seq_a, seed=6, epochs=2, batch_size=16)
        r2, _ = run_sequence("san", tiny_arch(), seq_b, seed=6, epochs=2, batch_size=16)
        assert r1.forgetting == r2.forgetting
        assert r1.final_per_task == r2.final_per_task

    def test_strategies_learn_separable_blobs(self):
        seq = blob_sequence(per_class=150)
        result, _ = run_sequence("san", tiny_arch(), seq, seed=8, epochs=25, batch_size=16)
        assert result.mean_final >= 0.9
        upper, _ = run_sequence("independent", tiny_arch(), seq, seed=8, epochs=25, batch_size=16)
        assert upper.mean_final >= result.mean_final - 0.05


class TestHeadExtension:
    def test_wider_later_task_extends_frozen_classifier(self):
        # 2+2+4 classes: task 3 needs two extra head neurons
        train = synthetic_dataset(8, 80, (1, 8, 8), seed=50)
        test = synthetic_dataset(8, 20, (1, 8, 8), seed=51, pattern_seed=50)
        groups = [(0, 1), (2, 3), (4, 5, 6, 7)]
        seq = build_split_sequence(train, test, groups, master_seed=2)
        state = IncrementalState("san", tiny_arch(2), seq, master_seed=2)
        train_task(state, 1, epochs=2, batch_size=16)
        c1_weight = state.shared["classifier"].layers[-1].weight.data.copy()
        images, _ = task_arrays(seq, seq.tasks[0], "test")
        logits_t1 = predict_logits(state, 1, images)
        train_task(state, 2, epochs=2, batch_size=16)
        train_task(state, 3, epochs=2, batch_size=16)
        assert state.classifier_width(3) == 4
        assert state.head_maps[3].neurons == (0, 1, 2, 3)
        wide = state.shared["classifier"].layers[-1].weight.data
        assert wide.shape[0] == 4
        assert wide[:2].tobytes() == c1_weight.tobytes()
        # earlier task logits unaffected by the widened head
        assert predict_logits(state, 1, images).tobytes() == logits_t1.tobytes()
        ok, path = state.verify_frozen()
        assert ok, path

    @pytest.mark.parametrize(
        "order, widths",
        [
            (
                [0, 1, 2],
                {"san": [2, 2, 3], "baseline": [2, 2, 3], "finetune": [3, 3, 3], "independent": [2, 2, 3]},
            ),
            (
                [2, 0, 1],
                {"san": [3, 3, 3], "baseline": [3, 2, 2], "finetune": [3, 3, 3], "independent": [3, 3, 3]},
            ),
        ],
    )
    def test_head_widths_per_strategy(self, order, widths):
        # groups of 2, 2 and 3 classes; task 1's class count sets base_classes
        train = synthetic_dataset(7, 20, (1, 8, 8), seed=54)
        test = synthetic_dataset(7, 5, (1, 8, 8), seed=55, pattern_seed=54)
        groups = reorder_groups(partition_classes(7, 3), order)
        seq = build_split_sequence(train, test, groups, master_seed=1)
        for strategy, expected in widths.items():
            state = IncrementalState(strategy, tiny_arch(len(groups[0])), seq, master_seed=1)
            got = []
            for task in seq.tasks:
                prepare_task_blocks(state, task)
                got.append(state.classifier_width(task.index))
            assert got == expected, strategy

    def test_first_task_wider_than_head_rejected(self):
        train = synthetic_dataset(4, 40, (1, 8, 8), seed=52)
        test = synthetic_dataset(4, 20, (1, 8, 8), seed=53, pattern_seed=52)
        seq = build_split_sequence(train, test, [(0, 1, 2), (3,)], master_seed=1)
        with pytest.raises(ValueError, match="base_classes"):
            IncrementalState("san", tiny_arch(2), seq, master_seed=1)


class TestOrderAblation:
    def test_identity_order_reproduces_plain_run(self):
        train = synthetic_dataset(6, 80, (1, 8, 8), seed=60)
        test = synthetic_dataset(6, 20, (1, 8, 8), seed=61, pattern_seed=60)
        groups = partition_classes(6, 3)
        plain = build_split_sequence(train, test, groups, master_seed=4)
        r_plain, _ = run_sequence("san", tiny_arch(), plain, seed=4, epochs=2, batch_size=16)
        seq_id = build_split_sequence(train, test, reorder_groups(groups, [0, 1, 2]), master_seed=4)
        r_id = run_sequence("san", tiny_arch(), seq_id, seed=4, epochs=2, batch_size=16)[0]
        assert r_plain.forgetting == r_id.forgetting

    def test_two_orders_both_learn(self):
        train = synthetic_dataset(6, 150, (1, 8, 8), seed=62)
        test = synthetic_dataset(6, 30, (1, 8, 8), seed=63, pattern_seed=62)
        groups = partition_classes(6, 3)
        sequences = [
            build_split_sequence(train, test, reorder_groups(groups, order), master_seed=5)
            for order in ([0, 1, 2], [2, 0, 1])
        ]
        results = [
            run_sequence("san", tiny_arch(), seq, seed=5, epochs=25, batch_size=16)[0]
            for seq in sequences
        ]
        assert all(r.mean_final >= 0.85 for r in results)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            reorder_groups([(0,), (1,)], [0, 0])


class TestPermutedTasks:
    def test_permuted_sequence_trains_all_digits_per_task(self):
        train = synthetic_dataset(4, 100, (1, 6, 6), seed=70)
        test = synthetic_dataset(4, 25, (1, 6, 6), seed=71, pattern_seed=70)
        seq = build_permuted_sequence(train, test, num_tasks=3, master_seed=6)
        assert seq.kind == "permuted"
        assert all(t.class_ids == (0, 1, 2, 3) for t in seq.tasks)
        assert seq.tasks[0].pixel_permutation is not None
        assert np.array_equal(seq.tasks[0].pixel_permutation, np.arange(36))
        arch = tiny_arch(4, (1, 6, 6))
        result, state = run_sequence("san", arch, seq, seed=6, epochs=10, batch_size=16)
        assert result.final_per_task[0] >= 0.8  # task 1 is the unpermuted corpus
        ok, path = state.verify_frozen()
        assert ok, path


class TestOrthoRegularizer:
    def _sequence(self):
        train = synthetic_dataset(2, 60, (1, 8, 8), seed=80)
        test = synthetic_dataset(2, 20, (1, 8, 8), seed=81, pattern_seed=80)
        return build_split_sequence(train, test, [(0, 1)], master_seed=7)

    def _square_embedding_arch(self):
        from santil.layers import ArchitectureSpec, Conv, Dense, Flatten, MaxPool, Relu

        # adjustment output is 4x4x4 -> flattened width 64 = 8^2
        return ArchitectureSpec(
            input_shape=(1, 8, 8),
            backbone=(Conv(4, 3, 1, 1), Relu(), MaxPool(2)),
            adjustment=(Conv(4, 3, 1, 1), Relu()),
            classifier=(Flatten(), Dense(16), Relu(), Dense(2)),
            base_classes=2,
        )

    def test_composite_loss_trains_and_stays_finite(self):
        seq = self._sequence()
        state = IncrementalState(
            "san", self._square_embedding_arch(), seq, master_seed=7, ortho_alpha=0.001
        )
        log = train_task(state, 1, epochs=2, batch_size=16)
        assert np.isfinite(log.val_accuracy)
        assert evaluate(state, 1, "test") > 0.4

    def test_non_square_embedding_rejected_when_alpha_set(self):
        seq = self._sequence()
        state = IncrementalState("san", tiny_arch(2), seq, master_seed=7, ortho_alpha=0.001)
        with pytest.raises(ValueError, match="square"):
            train_task(state, 1, epochs=1, batch_size=16)


@pytest.mark.slow
def test_real_digits_five_split_sanity():
    """5-split on sklearn's bundled 8x8 digit images: real data, offline."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    from santil.data import Dataset

    digits = sklearn_datasets.load_digits()
    images = (digits.images / 16.0).astype(np.float32).reshape(-1, 1, 8, 8)
    labels = digits.target.astype(np.int64)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(labels))
    cut = int(0.8 * len(order))
    train = Dataset(images[order[:cut]], labels[order[:cut]])
    test = Dataset(images[order[cut:]], labels[order[cut:]])
    seq = build_split_sequence(train, test, partition_classes(10, 5), master_seed=1)
    arch = PRESETS["mnist-small"]((1, 8, 8), base_classes=2)
    result, _ = run_sequence("san", arch, seq, seed=1, epochs=20, batch_size=32)
    assert result.mean_final >= 0.9, result.final_per_task
