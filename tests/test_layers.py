import tracemalloc

import numpy as np
import pytest

from santil.layers import (
    PRESETS,
    ArchitectureSpec,
    Conv,
    Dense,
    Flatten,
    MaxPool,
    Relu,
    assert_frozen,
    build_block,
    cifar_small,
    extend_classifier,
    freeze,
    mnist_small,
    model_size,
    output_shape,
    snapshot_block,
)
from santil.optim import Adam
from santil.tensor import ShapeError, Tape, Tensor, backward, softmax_cross_entropy, tsum


def rand_input(shape, seed=0, n=2):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, *shape), dtype=np.float32))


class TestBuildBlock:
    def test_mnist_small_chains_on_28x28(self):
        spec = mnist_small((1, 28, 28), base_classes=2)
        backbone = build_block(spec.backbone, spec.input_shape, 0, "backbone")
        assert backbone.output_shape == (16, 14, 14)
        adjust = build_block(spec.adjustment, backbone.output_shape, 1, "adjust")
        assert adjust.output_shape == backbone.output_shape
        classifier = build_block(spec.classifier, adjust.output_shape, 2, "classifier")
        assert classifier.output_shape == (2,)

    def test_same_seed_bit_identical(self):
        spec = mnist_small((1, 28, 28), 2)
        a = build_block(spec.backbone, spec.input_shape, 42, "b")
        b = build_block(spec.backbone, spec.input_shape, 42, "b")
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()
        c = build_block(spec.backbone, spec.input_shape, 43, "b")
        assert any(
            pa.data.tobytes() != pc.data.tobytes()
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_cifar_small_instantiates_on_3x32x32(self):
        spec = cifar_small((3, 32, 32), base_classes=5)
        spec.validate()
        backbone = build_block(spec.backbone, spec.input_shape, 0, "b")
        adjust = build_block(spec.adjustment, backbone.output_shape, 1, "a")
        classifier = build_block(spec.classifier, adjust.output_shape, 2, "c")
        x = rand_input((3, 32, 32), n=1)
        out = classifier.forward(adjust.forward(backbone.forward(x)))
        assert out.shape == (1, 5)
        # three convs / four convs / three-layer perceptron
        assert sum(isinstance(l, Conv) for l in spec.backbone) == 3
        assert sum(isinstance(l, Conv) for l in spec.adjustment) == 4
        assert sum(isinstance(l, Dense) for l in spec.classifier) == 3

    def test_incompatibility_reports_layer_index(self):
        with pytest.raises(ShapeError, match="layer 1"):
            build_block((Flatten(), Conv(4)), (1, 8, 8), 0)

    def test_he_bounds_and_zero_bias(self):
        blk = build_block((Conv(8, 3, 1, 1),), (2, 6, 6), 7, "b")
        w, b = blk.parameters()
        bound = np.sqrt(6.0 / (2 * 9))
        assert np.abs(w.data).max() <= bound
        assert np.all(b.data == 0.0)

    def test_empty_spec_is_passthrough(self):
        blk = build_block((), (3, 4, 4), 0, "noop")
        x = rand_input((3, 4, 4))
        assert np.array_equal(blk.forward(x).data, x.data)


class TestForwardCompositions:
    def setup_method(self):
        self.spec = PRESETS["tiny"]((1, 8, 8), base_classes=2)
        self.backbone = build_block(self.spec.backbone, self.spec.input_shape, 0, "b")
        self.classifier_shape = self.backbone.output_shape

    def test_identity_adjustment_equals_direct_composition(self):
        passthrough = build_block((), self.backbone.output_shape, 1, "noop")
        classifier = build_block(self.spec.classifier, self.backbone.output_shape, 2, "c")
        x = rand_input((1, 8, 8))
        via_san = classifier.forward(passthrough.forward(self.backbone.forward(x)))
        direct = classifier.forward(self.backbone.forward(x))
        assert via_san.data.tobytes() == direct.data.tobytes()

    def test_different_adjustments_differ(self):
        a1 = build_block(self.spec.adjustment, self.backbone.output_shape, 5, "a1")
        a2 = build_block(self.spec.adjustment, self.backbone.output_shape, 6, "a2")
        classifier = build_block(self.spec.classifier, a1.output_shape, 2, "c")
        x = rand_input((1, 8, 8))
        out1 = classifier.forward(a1.forward(self.backbone.forward(x)))
        out2 = classifier.forward(a2.forward(self.backbone.forward(x)))
        assert not np.array_equal(out1.data, out2.data)

    def test_batch_shape_law(self):
        adjust = build_block(self.spec.adjustment, self.backbone.output_shape, 1, "a")
        classifier = build_block(self.spec.classifier, adjust.output_shape, 2, "c")
        for n in (1, 3, 7):
            x = rand_input((1, 8, 8), n=n)
            out = classifier.forward(adjust.forward(self.backbone.forward(x)))
            assert out.shape == (n, 2)

    def test_baseline_head_width(self):
        adjust = build_block(self.spec.adjustment, self.backbone.output_shape, 1, "a")
        head3 = build_block(
            (Flatten(), Dense(16), Relu(), Dense(8), Relu(), Dense(3)),
            adjust.output_shape,
            3,
            "c3",
        )
        x = rand_input((1, 8, 8), n=4)
        assert head3.forward(adjust.forward(self.backbone.forward(x))).shape == (4, 3)


class TestFusedConvRelu:
    # the inline stack has a Conv before a MaxPool, a lone Relu and a Conv
    # that ends its block
    STACKS = {
        "tiny": PRESETS["tiny"]((1, 8, 8), base_classes=3),
        "mnist-small": PRESETS["mnist-small"]((1, 28, 28), base_classes=3),
        "cifar-small": PRESETS["cifar-small"]((3, 32, 32), base_classes=3),
        "inline": ArchitectureSpec(
            input_shape=(2, 8, 8),
            backbone=(Conv(4, 3, 1, 1), MaxPool(2), Relu(), Conv(6, 3, 1, 1), Relu()),
            adjustment=(Conv(6, 1, 1, 0),),
            classifier=(Flatten(), Dense(5), Relu(), Dense(3)),
            base_classes=3,
        ),
    }

    @staticmethod
    def layer_by_layer(block, x):
        for spec, params in block.layers:
            x = spec.apply(x, params)
        return x

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_forward_equals_layer_by_layer_chain(self, stack):
        arch = self.STACKS[stack]
        parts = (arch.backbone, arch.adjustment, arch.classifier)
        blocks = []
        for i, part in enumerate(parts):
            in_shape = blocks[-1].output_shape if blocks else arch.input_shape
            blocks.append(build_block(part, in_shape, i, f"p{i}"))
        params = [p for blk in blocks for p in blk.parameters()]
        pairs = sum(
            isinstance(a, Conv) and isinstance(b, Relu) for part in parts for a, b in zip(part, part[1:])
        )
        assert pairs >= 1
        x = rand_input(arch.input_shape, n=3)
        x.requires_grad = True
        runs = []
        for run_block in (lambda blk, h: blk.forward(h), self.layer_by_layer):
            for p in params:
                p.grad = None
            x.grad = None
            with Tape() as tape:
                h = x
                for blk in blocks:
                    h = run_block(blk, h)
                loss = softmax_cross_entropy(h, np.array([0, 1, 2]))
                records = len(tape)
                backward(loss)
            runs.append((records, [a.tobytes() for a in [h.data, x.grad] + [p.grad for p in params]]))
        (fused_records, fused_bits), (chain_records, chain_bits) = runs
        assert chain_records - fused_records == pairs
        assert fused_bits == chain_bits

    def test_recorded_conv_relu_keeps_one_activation(self):
        # the tape holds the ReLU output, not the conv's pre-activation as well
        block = build_block((Conv(32, 3, 1, 1), Relu()), (32, 32, 32), 4, "b")
        x = rand_input((32, 32, 32), n=16)
        out_bytes = 16 * 32 * 32 * 32 * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = block.forward(x)
                held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.data.nbytes == out_bytes
        assert held < 1.5 * out_bytes


class TestFreezing:
    def _block(self):
        return build_block((Flatten(), Dense(4)), (2, 3, 3), 0, "blk")

    def test_freeze_then_adam_step_is_bit_identical(self):
        blk = self._block()
        freeze(blk)
        snap = snapshot_block(blk)
        opt = Adam(blk.parameters())
        x = rand_input((2, 3, 3))
        with Tape():
            backward(tsum(blk.forward(x)))
        opt.step()
        ok, path = assert_frozen([blk], snap)
        assert ok and path is None

    def test_unfrozen_step_changes_something(self):
        blk = self._block()
        snap = snapshot_block(blk)
        opt = Adam(blk.parameters())
        x = rand_input((2, 3, 3))
        with Tape():
            backward(tsum(blk.forward(x)))
        opt.step()
        ok, path = assert_frozen([blk], snap)
        assert not ok
        assert path == "blk.1.weight"

    def test_assert_frozen_reports_first_differing_path(self):
        blk = self._block()
        snap = snapshot_block(blk)
        blk.parameters()[1].data[0] += 1.0
        ok, path = assert_frozen([blk], snap)
        assert not ok and path == "blk.1.bias"


class TestExtendClassifier:
    def _classifier(self):
        blk = build_block((Flatten(), Dense(6), Relu(), Dense(5)), (1, 2, 2), 9, "clf")
        freeze(blk)
        return blk

    def test_widens_output(self):
        blk = self._classifier()
        wide = extend_classifier(blk, 2, seed=1)
        assert wide.output_shape == (7,)
        assert wide.layers[-1][0] == Dense(7)
        assert wide.layers[:-1] == blk.layers[:-1]

    def test_original_logits_bit_identical(self):
        blk = self._classifier()
        x = rand_input((1, 2, 2), n=3)
        before = blk.forward(x).data
        wide = extend_classifier(blk, 2, seed=1)
        after = wide.forward(x).data
        assert after.shape == (3, 7)
        assert before.tobytes() == after[:, :5].copy().tobytes()

    def test_new_rows_train_old_rows_do_not(self):
        blk = self._classifier()
        wide = extend_classifier(blk, 2, seed=1)
        last_w, last_b = wide.layers[-1][1]
        assert last_w.trainable_count() == 2 * last_w.data.shape[1]
        old_w = last_w.data[:5].copy()
        opt = Adam([p for p in wide.parameters() if not p.frozen])
        x = rand_input((1, 2, 2), n=3)
        for _ in range(3):
            with Tape():
                backward(tsum(wide.forward(x)))
            opt.step()
            opt.zero_grad()
        assert last_w.data[:5].tobytes() == old_w.tobytes()
        assert not np.array_equal(last_w.data[5:], np.zeros_like(last_w.data[5:]))
        assert np.all(last_b.data[:5] == 0.0)  # untouched frozen bias rows

    def test_rejects_non_dense_tail(self):
        blk = build_block((Flatten(), Dense(4), Relu()), (1, 2, 2), 0, "c")
        with pytest.raises(ShapeError):
            extend_classifier(blk, 1, 0)


class TestModelSize:
    def test_single_linear(self):
        blk = build_block((Dense(5),), (10,), 0, "lin")
        count, mb = model_size([blk])
        assert count == 55
        assert mb == pytest.approx(0.00022)

    def test_empty(self):
        assert model_size([]) == (0, 0.0)

    def test_full_5_task_mnist_model_matches_hand_count(self):
        spec = mnist_small((1, 28, 28), base_classes=2)
        backbone = build_block(spec.backbone, spec.input_shape, 0, "b")
        adjusts = [
            build_block(spec.adjustment, backbone.output_shape, 10 + t, f"task{t}.adjust")
            for t in range(1, 6)
        ]
        classifier = build_block(spec.classifier, adjusts[0].output_shape, 1, "c")
        count, mb = model_size([backbone, classifier] + adjusts)
        conv_b = 16 * 1 * 9 + 16
        conv_a = 16 * 16 * 9 + 16
        clf = (3136 * 100 + 100) + (100 * 50 + 50) + (50 * 2 + 2)
        expected = conv_b + 5 * conv_a + clf
        assert count == expected
        assert mb == pytest.approx(expected * 4 / 1e6)

    def test_shared_parameters_counted_once(self):
        blk = build_block((Dense(5),), (10,), 0, "lin")
        count, _ = model_size([blk, blk])
        assert count == 55

    def test_per_task_growth_constant(self):
        spec = mnist_small((1, 28, 28), base_classes=2)
        backbone = build_block(spec.backbone, spec.input_shape, 0, "b")
        sizes = []
        for t in range(1, 4):
            adj = build_block(spec.adjustment, backbone.output_shape, t, f"t{t}")
            sizes.append(model_size([adj])[0])
        assert sizes[0] == sizes[1] == sizes[2]


def test_forward_never_mutates_parameters():
    spec = PRESETS["tiny"]((1, 8, 8), base_classes=2)
    backbone = build_block(spec.backbone, spec.input_shape, 0, "b")
    adjust = build_block(spec.adjustment, backbone.output_shape, 1, "a")
    classifier = build_block(spec.classifier, adjust.output_shape, 2, "c")
    snaps = {
        p.name: p.data.copy()
        for blk in (backbone, adjust, classifier)
        for p in blk.parameters()
    }
    with Tape():
        out = classifier.forward(adjust.forward(backbone.forward(rand_input((1, 8, 8)))))
        backward(tsum(out))
    for blk in (backbone, adjust, classifier):
        for p in blk.parameters():
            assert p.data.tobytes() == snaps[p.name].tobytes()


class TestArchitectureSpec:
    def test_width_mismatch_rejected(self):
        spec = ArchitectureSpec(
            input_shape=(1, 8, 8),
            backbone=(Conv(4),),
            adjustment=(),
            classifier=(Flatten(), Dense(3)),
            base_classes=2,
        )
        with pytest.raises(ShapeError, match="base_classes"):
            spec.validate()

    def test_presets_validate(self):
        for name, factory in PRESETS.items():
            shape = (3, 32, 32) if name == "cifar-small" else (1, 28, 28)
            factory(shape, base_classes=4).validate()

    def test_even_adjust_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            mnist_small((1, 28, 28), 2, adjust_kernel=4)

    def test_output_shape_floor_formula(self):
        assert output_shape((Conv(4, 3, 2, 1),), (1, 9, 9)) == (4, 5, 5)
        assert output_shape((Conv(4, 3, 2, 0),), (1, 9, 9)) == (4, 4, 4)
