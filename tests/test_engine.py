import numpy as np
import pytest

from santil import engine, layers
from santil.data import Dataset, DatasetError, make_permutations, split_indices, synthetic_dataset
from santil.engine import (
    IncrementalState,
    TrainingDivergedError,
    TrainingOrderError,
    UnknownTaskError,
    UntrainedTaskError,
    _mean_square_feature_penalty,
    evaluate,
    predict_logits,
    prepare_task_blocks,
    run_sequence,
    train_task,
)
from santil.layers import PRESETS, tiny
from santil.seeding import TAG_PERM, TAG_SPLIT, derive_seed
from santil.tensor import (
    Tape,
    Tensor,
    backward,
    orthogonality_penalty,
    scale,
    softmax_cross_entropy,
)
from santil.tasks import (
    Task,
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

    def test_remainder_goes_to_first_task(self):
        assert partition_classes(10, 3) == [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert partition_classes(7, 3, order=[6, 5, 4, 3, 2, 1, 0]) == [(6, 5, 4), (3, 2), (1, 0)]

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError):
            partition_classes(4, 5)

    def test_custom_order(self):
        groups = partition_classes(4, 2, order=[3, 1, 0, 2])
        assert groups == [(3, 1), (0, 2)]
        with pytest.raises(ValueError, match=r"\[2\] repeated, \[3\] missing$"):
            partition_classes(4, 2, order=[0, 1, 2, 2])
        with pytest.raises(ValueError, match=r"\(4 classes\); \[0\] missing, \[7\] out of range$"):
            partition_classes(4, 2, order=[7, 1, 2, 3])

    @pytest.mark.parametrize(
        ("order", "problem"),
        [
            ([0.5, 1, 2, 3, 4, 5.9], r"\(6 classes\); \[0, 5\] missing, \[0.5, 5.9\] not integers$"),
            ([True, 0, 2], r"\(3 classes\); \[True\] not integers$"),
        ],
        ids=["floats", "bool"],
    )
    def test_float_or_bool_class_id_rejected_not_truncated(self, order, problem):
        with pytest.raises(ValueError, match=problem):
            partition_classes(len(order), 3, order=order)

    def test_numpy_integer_class_ids_accepted_as_ints(self):
        groups = partition_classes(4, 2, order=np.array([3, 1, 0, 2]))
        assert groups == [(3, 1), (0, 2)]
        assert all(type(c) is int for g in groups for c in g)


def one_task(class_ids):
    empty = np.arange(0)
    return Task(1, tuple(class_ids), empty, empty, empty)


class TestTaskHead:
    def test_local_labels_follow_class_order(self):
        assert list(one_task([4, 5]).local_labels(np.array([5, 4, 4]))) == [1, 0, 0]
        assert list(one_task([9, 2, 7]).local_labels(np.array([7, 9, 2]))) == [2, 0, 1]

    def test_foreign_label_rejected(self):
        with pytest.raises(ValueError, match=r"labels \[3\] do not belong"):
            one_task([1, 2]).local_labels(np.array([1, 3]))

    def test_negative_label_rejected(self):
        # -1 would otherwise index the lookup table from its end (class 2's output)
        with pytest.raises(ValueError, match=r"labels \[-1\] do not belong"):
            one_task([1, 2]).local_labels(np.array([-1]))

    def test_repeated_class_inside_one_group_rejected(self):
        pool = synthetic_dataset(3, 10, (1, 8, 8), seed=1)
        with pytest.raises(ValueError, match=r"\[0\] repeated"):
            build_split_sequence(pool, pool, [(0, 0), (1, 2)], master_seed=1)

    @pytest.mark.parametrize(
        ("groups", "problem"),
        [
            ([(0.7, 1), (2, 3)], r"task 1: class ids must be integers, got \[0.7, 1\]$"),
            ([(0, 1), (2, True)], r"task 2: class ids must be integers, got \[2, True\]$"),
        ],
        ids=["float", "bool"],
    )
    def test_float_or_bool_class_id_in_a_group_rejected_not_truncated(self, groups, problem):
        pool = synthetic_dataset(4, 10, (1, 8, 8), seed=1)
        with pytest.raises(ValueError, match=problem):
            build_split_sequence(pool, pool, groups, master_seed=1)

    def test_head_is_the_first_outputs_of_a_wider_classifier(self):
        # finetune sizes its one head for the widest task, so task 1 uses 2 of 4 outputs
        train = synthetic_dataset(6, 40, (1, 8, 8), seed=56)
        test = synthetic_dataset(6, 10, (1, 8, 8), seed=57, pattern_seed=56)
        seq = build_split_sequence(train, test, [(0, 1), (2, 3, 4, 5)], master_seed=1)
        state = IncrementalState("finetune", tiny_arch(2), seq, master_seed=1)
        train_task(state, 1, epochs=1, batch_size=16)
        assert state.shared["classifier"].output_shape == (4,)
        images, _ = task_arrays(seq, seq.tasks[0], "test")
        logits = predict_logits(state, 1, images)
        full = Tensor(images)
        for block in state._forward_blocks(1):
            full = block.forward(full)
        assert logits.tobytes() == full.data[:, :2].copy().tobytes()
        accuracy = evaluate(state, 1, "test")
        # the surplus outputs never win, whatever their magnitude
        state.shared["classifier"].parameters()[-1].data[2:] = 1e6
        assert predict_logits(state, 1, images).tobytes() == logits.tobytes()
        assert evaluate(state, 1, "test") == accuracy


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
            column = [row[s] for row in result.forgetting_matrix if len(row) > s]
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
        labels = task.local_labels(raw_labels[:16])
        ends = state.shared["backbone"].parameters() + state.shared["classifier"].parameters()
        adjust = state.per_task[2]["adjust"].parameters()

        def adjust_grads():
            for p in adjust:
                p.grad = None
            backbone, adjust_block, classifier = state._forward_blocks(2)
            with Tape():
                logits = classifier.forward(adjust_block.forward(backbone.forward(x)))
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
                p.grad = None
        assert len(frozen_grads) == len(reference) > 0
        for got, want in zip(frozen_grads, reference):
            assert got.tobytes() == want.tobytes()


class TestTrainTaskContracts:
    def test_out_of_order_rejected(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=1)
        with pytest.raises(TrainingOrderError):
            train_task(state, 2, epochs=1)
        with pytest.raises(TrainingOrderError):
            prepare_task_blocks(state, seq.tasks[1])

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

    def test_unknown_strategy_rejected_naming_the_table_keys(self):
        with pytest.raises(ValueError) as err:
            IncrementalState("sgd", tiny_arch(), blob_sequence(), master_seed=1)
        assert str(err.value) == (
            "strategy must be one of ['san', 'baseline', 'finetune', 'independent'], got 'sgd'"
        )
        assert list(engine.STRATEGY_TABLE) == ["san", "baseline", "finetune", "independent"]

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

    def test_model_blocks_list_each_parameter_once(self):
        # model_size counts every parameter it is given, so no strategy may list one twice
        seq = blob_sequence()
        for strategy in engine.STRATEGY_TABLE:
            state = IncrementalState(strategy, tiny_arch(), seq, master_seed=1)
            for task in seq.tasks:
                prepare_task_blocks(state, task)
            blocks = state.model_blocks()
            assert len(blocks) == 3 + (len(seq.tasks) - 1) * len(state.spec.per_task), strategy
            params = [p for block in blocks for p in block.parameters()]
            assert len({id(p) for p in params}) == len({p.name for p in params}) == len(params), strategy
            assert layers.model_size(blocks)[0] == sum(p.data.size for p in params)

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
        log = train_task(state, 1, epochs=3, batch_size=16)
        assert 1 <= log.best_epoch <= 3
        assert log.val_accuracy == evaluate(state, 1, "val")

    def test_tied_validation_keeps_earliest_epoch(self, monkeypatch):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=4)
        after_epoch = []

        def constant_val(_, task_index, split):
            after_epoch.append([p.data.copy() for b in state._forward_blocks(task_index) for p in b.parameters()])
            return 0.5

        monkeypatch.setattr(engine, "evaluate", constant_val)
        log = train_task(state, 1, epochs=3, batch_size=16)
        assert (log.best_epoch, log.val_accuracy, len(after_epoch)) == (1, 0.5, 3)
        kept = [p.data for b in state._forward_blocks(1) for p in b.parameters()]
        assert all(np.array_equal(k, e) for k, e in zip(kept, after_epoch[0], strict=True))
        assert not all(np.array_equal(k, e) for k, e in zip(kept, after_epoch[-1], strict=True))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_training_and_names_position(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=4)
        with pytest.raises(TrainingDivergedError, match=r"seed 4, task 1, epoch 1, step \d+$"):
            train_task(state, 1, epochs=2, batch_size=16, lr=1e20)
        assert state.trained_upto == 0
        # task 1's parts now hold the diverged values; a retry must not start from them
        with pytest.raises(TrainingOrderError, match=r"^task 1 did not finish .* new state or a checkpoint$"):
            train_task(state, 1, epochs=2, batch_size=16)


class TestRunSequence:
    def test_single_task_report(self):
        seq = blob_sequence(num_classes=2, num_tasks=1)
        result, _ = run_sequence("san", tiny_arch(), seq, seed=1, epochs=2, batch_size=16)
        assert len(result.forgetting_matrix) == 1
        assert len(result.forgetting_matrix[0]) == 1
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
        assert r1.forgetting_matrix == r2.forgetting_matrix
        assert r1.final_per_task == r2.final_per_task

    def test_strategies_learn_separable_blobs(self):
        seq = blob_sequence(per_class=150)
        result, _ = run_sequence("san", tiny_arch(), seq, seed=8, epochs=25, batch_size=16)
        assert result.mean_final >= 0.9
        upper, _ = run_sequence("independent", tiny_arch(), seq, seed=8, epochs=25, batch_size=16)
        assert upper.mean_final >= result.mean_final - 0.05


class TestHeadExtension:
    # san's task 2 shares task 1's 2-wide head but brings 3 classes
    WIDER_LATER = r"^task 2 has 3 classes, but the head it uses is narrower: the classifier's last linear width is 2$"

    def _wider_later_sequence(self):
        train = synthetic_dataset(5, 40, (1, 8, 8), seed=50)
        test = synthetic_dataset(5, 10, (1, 8, 8), seed=51, pattern_seed=50)
        return build_split_sequence(train, test, [(0, 1), (2, 3, 4)], master_seed=2)

    def test_wider_later_task_refused_before_training(self, monkeypatch):
        seq = self._wider_later_sequence()
        trained = []
        monkeypatch.setattr(engine, "train_task", lambda state, t, **kw: trained.append(t))
        with pytest.raises(ValueError, match=self.WIDER_LATER):
            run_sequence("san", tiny_arch(2), seq, seed=2, epochs=1, batch_size=16)
        assert trained == []

    def test_state_refuses_wider_later_task_before_preparing_any(self, monkeypatch):
        seq = self._wider_later_sequence()
        prepared = []
        monkeypatch.setattr(engine, "prepare_task_blocks", lambda state, task: prepared.append(task))
        with pytest.raises(ValueError, match=self.WIDER_LATER):
            IncrementalState("san", tiny_arch(2), seq, master_seed=2)
        assert prepared == []
        # a fresh head per task, or one sized for the widest task, fits
        for strategy in ("baseline", "finetune", "independent"):
            assert IncrementalState(strategy, tiny_arch(2), seq, master_seed=2).prepared == 0

    @pytest.mark.parametrize(
        "order, widths",
        [
            (
                [0, 1, 2],
                {"san": [3, 3, 3], "baseline": [3, 2, 2], "finetune": [3, 3, 3], "independent": [3, 3, 3]},
            ),
            (
                [2, 0, 1],
                {"san": None, "baseline": [2, 3, 2], "finetune": [3, 3, 3], "independent": [2, 3, 2]},
            ),
        ],
    )
    def test_head_widths_per_strategy(self, order, widths):
        # groups of 3, 2 and 2 classes; task 1's class count sets the classifier's
        # last linear width, and None marks a task 2 too wide for the head it shares
        train = synthetic_dataset(7, 20, (1, 8, 8), seed=54)
        test = synthetic_dataset(7, 5, (1, 8, 8), seed=55, pattern_seed=54)
        groups = reorder_groups(partition_classes(7, 3), order)
        seq = build_split_sequence(train, test, groups, master_seed=1)
        for strategy, expected in widths.items():
            if expected is None:
                with pytest.raises(ValueError, match="task 2 has 3 classes"):
                    IncrementalState(strategy, tiny_arch(len(groups[0])), seq, master_seed=1)
                continue
            state = IncrementalState(strategy, tiny_arch(len(groups[0])), seq, master_seed=1)
            got = []
            for task in seq.tasks:
                prepare_task_blocks(state, task)
                got.append(state._forward_blocks(task.index)[-1].output_shape[0])
            assert got == expected, strategy

    def test_first_task_wider_than_head_rejected(self):
        train = synthetic_dataset(4, 40, (1, 8, 8), seed=52)
        test = synthetic_dataset(4, 20, (1, 8, 8), seed=53, pattern_seed=52)
        seq = build_split_sequence(train, test, [(0, 1, 2), (3,)], master_seed=1)
        with pytest.raises(ValueError, match=r"task 1 has 3 classes.*classifier's last linear width is 2$"):
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
        assert r_plain.forgetting_matrix == r_id.forgetting_matrix

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

    @pytest.mark.parametrize("order", [[0, 1.5, 2], [True, 0, 2], [0.0, 1, 2]])
    def test_float_or_bool_position_rejected_not_truncated(self, order):
        with pytest.raises(ValueError, match="permutation of 0..2"):
            reorder_groups([(0,), (1,), (2,)], order)

    def test_numpy_integer_positions_accepted(self):
        assert reorder_groups([(0,), (1,), (2,)], np.array([2, 0, 1])) == [(2,), (0,), (1,)]


def shuffled_pool(num_classes, per_class, seed):
    pool = synthetic_dataset(num_classes, per_class, (1, 4, 4), seed=seed)
    order = np.random.default_rng(seed).permutation(pool.num_samples)
    return Dataset(pool.images[order], pool.labels[order])


class TestSequenceIndices:
    """Task t trains on 85% of its classes' train-pool samples, split by its TAG_SPLIT
    seed, validates on the rest, and tests on every test-pool sample of its classes."""

    @staticmethod
    def assert_indices(seq, train, test, groups, seed):
        for t, (task, classes) in enumerate(zip(seq.tasks, groups), start=1):
            assert task.index == t and task.class_ids == tuple(classes)
            candidates = np.flatnonzero(np.isin(train.labels, classes))
            rel_train, rel_val = split_indices(candidates.size, 0.85, derive_seed(seed, TAG_SPLIT, t))
            expected = (candidates[rel_train], candidates[rel_val], np.flatnonzero(np.isin(test.labels, classes)))
            for got, want in zip((task.train_idx, task.val_idx, task.test_idx), expected):
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_split_tasks(self, seed):
        train, test = shuffled_pool(6, 23, seed=30), shuffled_pool(6, 9, seed=31)
        groups = [(4, 1), (0, 2, 5), (3,)]
        seq = build_split_sequence(train, test, groups, seed)
        assert len(seq.tasks) == 3
        assert all(task.pixel_permutation is None for task in seq.tasks)
        self.assert_indices(seq, train, test, groups, seed)

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_permuted_tasks(self, seed):
        train, test = shuffled_pool(5, 23, seed=32), shuffled_pool(5, 9, seed=33)
        seq = build_permuted_sequence(train, test, 4, seed)
        assert len(seq.tasks) == 4
        self.assert_indices(seq, train, test, [tuple(range(5))] * 4, seed)
        perms = make_permutations(4, derive_seed(seed, TAG_PERM), 16)
        for task, want in zip(seq.tasks, perms):
            got = task.pixel_permutation
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        assert all(np.array_equal(task.test_idx, np.arange(test.num_samples)) for task in seq.tasks)

    def test_split_task_with_one_training_sample_names_its_classes(self):
        pool = Dataset(np.zeros((4, 1, 2, 2), dtype=np.float32), np.array([0, 1, 0, 0]))
        with pytest.raises(ValueError, match=r"^task 2: classes \(1,\) have too few training samples$"):
            build_split_sequence(pool, pool, [(0,), (1,)], master_seed=1)

    def test_split_task_without_test_samples_names_its_classes(self):
        # the test pool holds classes 0-1 only: task 2 would train, then
        # divide by its empty test split
        train = synthetic_dataset(4, 5, (1, 2, 2), seed=1)
        test = Dataset(np.zeros((4, 1, 2, 2), dtype=np.float32), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match=r"^task 2: classes \(2, 3\) have no test samples$"):
            build_split_sequence(train, test, [(0, 1), (2, 3)], master_seed=1)

    def test_permuted_task_without_test_samples_names_its_classes(self):
        # no test sample has a class of the training pool
        train = synthetic_dataset(2, 5, (1, 2, 2), seed=1)
        test = Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.array([4, 4]))
        with pytest.raises(ValueError, match=r"^task 1: classes \(0, 1\) have no test samples$"):
            build_permuted_sequence(train, test, 2, master_seed=1)

    def test_permuted_task_with_one_training_sample_is_a_dataset_error(self):
        pool = Dataset(np.zeros((1, 1, 2, 2), dtype=np.float32), np.array([0]))
        with pytest.raises(DatasetError, match=r"^task too small: 1 samples"):
            build_permuted_sequence(pool, pool, 2, master_seed=1)


class TestPermutedTasks:
    def test_permuted_sequence_trains_all_digits_per_task(self):
        train = synthetic_dataset(4, 100, (1, 6, 6), seed=70)
        test = synthetic_dataset(4, 25, (1, 6, 6), seed=71, pattern_seed=70)
        seq = build_permuted_sequence(train, test, num_tasks=3, master_seed=6)
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

    def _square_embedding_arch(self, base_classes=2):
        from santil.layers import ArchitectureSpec, Conv, Dense, Flatten, MaxPool, Relu

        # adjustment output is 4x4x4 -> flattened width 64 = 8^2
        return ArchitectureSpec(
            input_shape=(1, 8, 8),
            backbone=(Conv(4, 3, 1, 1), Relu(), MaxPool(2)),
            adjustment=(Conv(4, 3, 1, 1), Relu()),
            classifier=(Flatten(), Dense(16), Relu(), Dense(base_classes)),
        )

    def test_composite_loss_trains_and_stays_finite(self):
        seq = self._sequence()
        state = IncrementalState("san", self._square_embedding_arch(), seq, master_seed=7)
        log = train_task(state, 1, epochs=2, batch_size=16, ortho_alpha=0.001)
        assert np.isfinite(log.val_accuracy)
        assert evaluate(state, 1, "test") > 0.4

    def test_penalty_gradient_bitwise_equals_dense_scatter(self):
        seq = self._sequence()
        state = IncrementalState("san", self._square_embedding_arch(), seq, master_seed=7)
        train_task(state, 1, epochs=1, batch_size=16, ortho_alpha=0.001)
        images, _ = task_arrays(seq, seq.tasks[0], "train")
        emb = state.embed(images[:24], 1)
        n, d2 = emb.shape
        d = int(np.sqrt(d2))

        flat = Tensor(emb, requires_grad=True)
        with Tape():
            backward(_mean_square_feature_penalty(flat))

        # reference: one zero-filled [N, D] gradient per sample, summed in
        # the order backward visits them (last sample first)
        dense = []
        for i in range(n):
            a = Tensor(emb[i].reshape(d, d), requires_grad=True)
            with Tape():
                backward(scale(orthogonality_penalty(a), 1.0 / n))
            full = np.zeros_like(emb)
            full[i] = a.grad.reshape(-1)
            dense.append(full)
        expected = dense[-1]
        for full in reversed(dense[:-1]):
            expected = expected + full
        assert flat.grad.dtype == expected.dtype == np.float32
        assert flat.grad.tobytes() == expected.tobytes()

    def test_non_square_embedding_rejected_when_alpha_set(self):
        seq = self._sequence()
        state = IncrementalState("san", tiny_arch(2), seq, master_seed=7)
        with pytest.raises(ValueError, match="square"):
            train_task(state, 1, epochs=1, batch_size=16, ortho_alpha=0.001)


class TestFrozenPrefixCache:
    @pytest.mark.parametrize("strategy", ["san", "baseline", "finetune", "independent"])
    def test_cache_changes_no_bit_and_fills_only_frozen_prefixes(self, monkeypatch, strategy):
        served = []  # (task, split, prefix depth) of every pass
        original = engine._prefix_features

        def spy(state, task_index, split, images, batch_size):
            depth, rows = original(state, task_index, split, images, batch_size)
            served.append((task_index, split, depth))
            return depth, rows

        def spied_run():
            served.clear()
            # the penalty is on, so baseline's is computed from cached features
            arch = TestOrthoRegularizer()._square_embedding_arch(base_classes=3)
            result, state = run_sequence(
                strategy, arch, seq, seed=4, epochs=2, batch_size=16, ortho_alpha=0.001
            )
            return result, state, list(served)

        monkeypatch.setattr(engine, "_prefix_features", spy)
        # 7 classes in 3 tasks of 3, 2 and 2: baseline's later heads are narrower than task 1's
        seq = blob_sequence(num_classes=7, num_tasks=3)
        budget = engine._FEATURE_CACHE_BYTES
        monkeypatch.setattr(engine, "_FEATURE_CACHE_BYTES", 0)
        plain, plain_state, plain_served = spied_run()
        monkeypatch.setattr(engine, "_FEATURE_CACHE_BYTES", budget)
        cached, state, served = spied_run()

        assert plain_state.features == {} and all(d == 0 for _, _, d in plain_served)
        assert cached.forgetting_matrix == plain.forgetting_matrix
        strip = lambda rows: [{k: v for k, v in r.items() if k != "train_seconds"} for r in rows]
        assert strip(cached.per_task) == strip(plain.per_task)
        params = [p for b in state.model_blocks() for p in b.parameters()]
        plain_params = [p for b in plain_state.model_blocks() for p in b.parameters()]
        assert [p.name for p in params] == [p.name for p in plain_params]
        for got, want in zip(params, plain_params):
            assert got.data.tobytes() == want.data.tobytes()

        # which prefix each pass was served: B1 while san trains a task, B1 and
        # A1 while baseline does, a finished task's backbone and adjustment
        tests = {(t, "test", 2) for t in (1, 2, 3)}
        later = [(t, split) for t in (2, 3) for split in ("train", "val")]
        expected = {
            "san": tests | {(t, split, 1) for t, split in later},
            "baseline": tests | {(t, split, 2) for t, split in later},
            "finetune": set(),
            "independent": tests,
        }[strategy]
        assert {entry for entry in served if entry[2]} == expected
        # train and val entries go when their task freezes
        assert sorted(state.features) == sorted((t, s) for t, s, _ in tests & expected)

    def test_frozen_backbone_runs_once_per_split(self, monkeypatch):
        seq = blob_sequence()
        rows = {}
        forward = layers.ModelBlock.forward

        def counting(block, x):
            rows[block.name] = rows.get(block.name, 0) + x.shape[0]
            return forward(block, x)

        monkeypatch.setattr(layers.ModelBlock, "forward", counting)
        epochs = 3
        run_sequence("san", tiny_arch(), seq, seed=2, epochs=epochs, batch_size=16)
        size = lambda t, split: getattr(seq.tasks[t - 1], f"{split}_idx").size
        # task 1 trains B1, so each epoch runs it on the train and val splits;
        # later tasks run it once per split, and each test split goes through
        # B1 once, when its task is first scored
        expected = epochs * (size(1, "train") + size(1, "val"))
        expected += sum(size(t, "train") + size(t, "val") for t in (2, 3))
        expected += sum(size(t, "test") for t in (1, 2, 3))
        assert rows["backbone"] == expected

    def test_drift_after_caching_still_stops_training(self):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=5)
        train_task(state, 1, epochs=1, batch_size=16)
        accuracy = evaluate(state, 1, "test")
        assert (1, "test") in state.features
        state.shared["backbone"].parameters()[0].data[0] += 1.0
        # the cached features no longer match B1, but the next freeze checks B1 itself
        assert evaluate(state, 1, "test") == accuracy
        with pytest.raises(RuntimeError, match="backbone.0.weight.*task 2"):
            train_task(state, 2, epochs=1, batch_size=16)

    def test_entry_over_budget_is_not_stored(self, monkeypatch):
        seq = blob_sequence()
        state = IncrementalState("san", tiny_arch(), seq, master_seed=5)
        train_task(state, 1, epochs=1, batch_size=16)
        one = evaluate(state, 1, "test")
        entry_bytes = state.features[(1, "test")][1].nbytes
        state.features.clear()
        monkeypatch.setattr(engine, "_FEATURE_CACHE_BYTES", entry_bytes - 1)
        assert evaluate(state, 1, "test") == one
        assert state.features == {}


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
