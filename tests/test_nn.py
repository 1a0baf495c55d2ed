import math

import numpy as np
import pytest

from hetfed import nn
from hetfed.nn import BlockNetSpec, LossSpec, SGDConfig

from oracles import (
    finite_difference_grads,
    log_softmax,
    loss_value,
    max_relative_error,
    model_from_params,
    param_shapes,
    perturb_params,
    reference_train_local,
    scalar_forward_logits,
    zero_model,
)


def small_spec(**overrides):
    base = dict(input_dim=4, hidden_dim=4, num_blocks=1, block_kind="plain",
                num_classes=2, proto_dim=4)
    base.update(overrides)
    return BlockNetSpec(**base)


class TestSpecValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            BlockNetSpec(0, 4, 1)
        with pytest.raises(ValueError):
            BlockNetSpec(4, 4, 0)

    def test_bottleneck_needs_divisible_hidden(self):
        with pytest.raises(ValueError):
            BlockNetSpec(4, 6, 1, "bottleneck")
        BlockNetSpec(4, 8, 1, "bottleneck")

    def test_base_spec_floor(self):
        nn.validate_base_spec(small_spec(hidden_dim=4))
        with pytest.raises(ValueError):
            nn.validate_base_spec(small_spec(hidden_dim=3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BlockNetSpec(4, 4, 1, "conv")


class TestForward:
    def test_zero_model_all_logits_zero(self):
        spec = small_spec(num_blocks=2)
        model = zero_model(spec, (1, 2))
        out = nn.forward(model, np.random.default_rng(0).normal(size=(5, 4)))
        for logits in out.logits.values():
            assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_composition_on_nonnegative_input(self):
        # stem = block = neck = head = identity, all biases zero.
        d = 4
        spec = BlockNetSpec(d, d, 1, "plain", d, d)
        shapes = param_shapes(spec, (1,))
        params = {k: np.zeros(s) for k, s in shapes.items()}
        for k in ("stem.w", "block1.w", "head1.neck.w", "head1.fc.w"):
            params[k] = np.eye(d)
        model = model_from_params(spec, (1,), params)
        x = np.abs(np.random.default_rng(1).normal(size=(6, d)))
        out = nn.forward(model, x)
        assert np.allclose(out.logits[1], x, atol=0)

    def test_matches_scalar_loop_oracle(self):
        spec = BlockNetSpec(4, 4, 1, "plain", 2, 4)
        model = nn.init_model(spec, np.random.default_rng(0))
        x = np.random.default_rng(0).normal(size=(5, 4))
        expected = scalar_forward_logits(model, x)
        got = nn.forward(model, x).logits[1]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_skip_matches_scalar_loop_oracle(self):
        spec = BlockNetSpec(3, 5, 3, "skip", 4, 6)
        model = nn.init_model(spec, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(4, 3))
        expected = scalar_forward_logits(model, x)
        got = nn.forward(model, x).logits[3]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_mismatch_rejected(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            nn.forward(model, np.zeros((3, 5)))

    def test_embedding_is_deepest_neck_output(self):
        spec = small_spec(num_blocks=3)
        model = nn.init_model(spec, np.random.default_rng(2), (1, 2, 3))
        x = np.random.default_rng(5).normal(size=(2, 4))
        out = nn.forward(model, x)
        assert out.embedding.shape == (2, spec.proto_dim)
        assert set(out.logits) == {1, 2, 3}


class TestLosses:
    def test_uniform_logits_cross_entropy_is_ln_k(self):
        for k in (2, 3, 7):
            spec = small_spec(num_classes=k)
            model = zero_model(spec, (1,))
            x = np.random.default_rng(0).normal(size=(8, 4))
            y = np.random.default_rng(1).integers(0, k, size=8)
            assert loss_value(model, x, y, LossSpec()) == pytest.approx(math.log(k), abs=1e-15)

    def test_gradient_exactly_zero_at_stationary_point(self):
        # Zero weights with a label-balanced batch sit at a stationary point.
        spec = small_spec(num_classes=2)
        model = zero_model(spec, (1,))
        x = np.random.default_rng(0).normal(size=(2, 4))
        y = np.array([0, 1])
        _, grads = nn.backward(model, x, y, LossSpec())
        assert max(np.abs(g).max() for g in grads.values()) < 1e-12

    def test_batch_mean_semantics_duplicate_sample(self):
        # Mean (not sum) over the batch: duplicating the sample changes
        # nothing. Sum semantics would double every gradient, so the 1e-14
        # tolerance (BLAS FMA kernels round the two paths differently by
        # ~1 ulp) still separates the two behaviours sharply.
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 4))
        y = np.array([1])
        _, g1 = nn.backward(model, x, y, LossSpec())
        _, g2 = nn.backward(model, np.vstack([x, x]), np.array([1, 1]), LossSpec())
        for k in g1:
            assert np.allclose(g1[k], g2[k], atol=1e-14, rtol=0)

    def test_labels_out_of_range(self):
        model = nn.init_model(small_spec(num_classes=2), np.random.default_rng(0))
        x = np.zeros((1, 4))
        with pytest.raises(ValueError):
            nn.backward(model, x, np.array([2]), LossSpec())
        with pytest.raises(ValueError):
            nn.backward(model, x, np.array([-1]), LossSpec())

    def test_unknown_head_rejected(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.backward(model, np.zeros((1, 4)), np.array([0]), LossSpec(ce_heads=(9,)))


class TestGradientsAgainstFiniteDifferences:
    def _check(self, spec, heads, loss, labels=True, seed=0, tol=1e-4):
        rng = np.random.default_rng(seed)
        model = perturb_params(nn.init_model(spec, rng, heads), rng)
        x = rng.normal(size=(4, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=4) if labels else None
        _, analytic = nn.backward(model, x, y, loss)
        numeric = finite_difference_grads(model, x, y, loss)
        assert max_relative_error(analytic, numeric) < tol

    def test_cross_entropy_plain(self):
        self._check(small_spec(num_blocks=2), None, LossSpec())

    def test_cross_entropy_skip(self):
        self._check(BlockNetSpec(3, 4, 2, "skip", 3, 4), None, LossSpec(), seed=1)

    def test_cross_entropy_bottleneck(self):
        self._check(BlockNetSpec(3, 8, 2, "bottleneck", 3, 4), None, LossSpec(), seed=2)

    def test_multi_head_cross_entropy(self):
        self._check(small_spec(num_blocks=3), (1, 2, 3), LossSpec(), seed=3)

    def test_prototype_pull(self):
        rng = np.random.default_rng(7)
        loss = LossSpec(
            proto_weight=0.7,
            proto_targets=rng.normal(size=(2, 4)),
            proto_mask=np.array([True, False]),
        )
        self._check(small_spec(num_blocks=2), None, loss, seed=4)

    def test_soft_target_distillation(self):
        rng = np.random.default_rng(8)
        targets = rng.dirichlet(np.ones(2), size=4)
        self._check(small_spec(), None, LossSpec(ce_heads=(), soft_targets=targets),
                    labels=False, seed=5)

    def test_self_distillation_against_frozen_teacher_surrogate(self):
        # The engine's pairwise KL stops gradients through the teacher head,
        # so the oracle differentiates a surrogate whose teachers are frozen
        # at the evaluation point.
        spec = small_spec(num_blocks=2)
        rng = np.random.default_rng(9)
        model = perturb_params(nn.init_model(spec, rng, (1, 2)), rng)
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 2, size=4)
        lam = 0.3
        _, analytic = nn.backward(model, x, y, LossSpec(distill_weight=lam))

        frozen = {j: log_softmax(l) for j, l in nn.forward(model, x).logits.items()}

        def surrogate(m):
            logits = nn.forward(m, x).logits
            total = 0.0
            n = x.shape[0]
            for j in (1, 2):
                logp = log_softmax(logits[j])
                total += float(-logp[np.arange(n), y].mean())
                for other in (1, 2):
                    if other == j:
                        continue
                    p = np.exp(logp)
                    total += lam * float((p * (logp - frozen[other])).sum(axis=1).mean())
            return total

        h = 1e-5
        worst = 0.0
        for key, arr in model.params.items():
            flat = arr.ravel()
            gflat = analytic[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = surrogate(model)
                flat[i] = orig - h
                down = surrogate(model)
                flat[i] = orig
                num = (up - down) / (2 * h)
                worst = max(worst, abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-6))
        assert worst < 1e-4


class TestSGD:
    def test_lr_zero_leaves_model_bitwise_unchanged(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        vector = model.vector.copy()
        nn.sgd_update(vector, np.zeros_like(vector), np.ones_like(vector), SGDConfig(learning_rate=0.0))
        assert np.array_equal(vector, model.vector)

    def test_plain_step_definition(self):
        # momentum 0, lr 0.1, p 1.0, g 2.0 -> 0.8
        size = nn.param_layout(small_spec(), (1,)).size
        vector = np.full(size, 1.0)
        nn.sgd_update(vector, np.zeros(size), np.full(size, 2.0), SGDConfig(learning_rate=0.1))
        assert np.allclose(vector, 0.8, atol=1e-15)

    def test_momentum_recurrence_two_steps(self):
        # m=0.9, lr=0.1, g=1 twice from p=0: p2 = -0.1 - 0.1*1.9 = -0.29
        size = nn.param_layout(small_spec(), (1,)).size
        vector = np.zeros(size)
        momentum = np.zeros(size)
        cfg = SGDConfig(learning_rate=0.1, momentum=0.9)
        grad = np.ones(size)
        nn.sgd_update(vector, momentum, grad, cfg)
        nn.sgd_update(vector, momentum, grad, cfg)
        assert np.allclose(vector, -0.29, atol=1e-15)
        assert np.allclose(momentum, 1.9, atol=1e-15)

    def test_moves_only_indexed_coordinates(self):
        # lr 0.5, g 1: the indexed coordinates (an index vector or a slice)
        # step to -0.5 and their buffers to 1; the rest stays zero.
        for index in (np.array([0, 2, 5, 6]), slice(2, 6)):
            vector = np.zeros(9)
            momentum = np.zeros(9)
            covered = np.zeros(9, dtype=bool)
            covered[index] = True
            nn.sgd_update(vector, momentum, np.ones(int(covered.sum())), SGDConfig(learning_rate=0.5), index)
            assert np.array_equal(vector, np.where(covered, -0.5, 0.0))
            assert np.array_equal(momentum, np.where(covered, 1.0, 0.0))


class TestParameterCount:
    def test_closed_form_hand_example(self):
        # stem 144 + 2 blocks * 272 + neck 272 + head 68 = 1028
        spec = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        assert nn.parameter_count(spec) == 1028

    def test_matches_actual_array_sizes(self):
        for spec, heads in [
            (BlockNetSpec(8, 16, 2, "plain", 4, 16), None),
            (BlockNetSpec(5, 8, 3, "skip", 3, 6), (1, 2, 3)),
            (BlockNetSpec(5, 8, 2, "bottleneck", 3, 6), None),
        ]:
            model = nn.init_model(spec, np.random.default_rng(0), heads)
            total = sum(v.size for v in model.params.values())
            assert total == nn.parameter_count(spec, model.head_blocks)
            shapes = [(key, value.shape) for key, value in model.params.items()]
            assert shapes == list(param_shapes(spec, model.head_blocks).items())

    def test_linear_in_blocks(self):
        spec1 = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        spec2 = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        per_block = 16 * 16 + 16
        assert nn.parameter_count(spec2) - nn.parameter_count(spec1) == 2 * per_block

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    @pytest.mark.parametrize("all_heads", [False, True])
    def test_counts_match_closed_forms(self, kind, all_heads):
        d, h, blocks, c, p = 5, 8, 3, 3, 6
        spec = BlockNetSpec(d, h, blocks, kind, c, p)
        heads = (1, 2, 3) if all_heads else None
        n_heads = 3 if all_heads else 1
        if kind == "bottleneck":
            mid = h // 4
            block_params, block_macs, block_acts = h * mid + mid + mid * h + h, 2 * h * mid, mid + h
        else:
            block_params, block_macs, block_acts = h * h + h, h * h, h
        assert nn.parameter_count(spec, heads) == (
            d * h + h + blocks * block_params + n_heads * (h * p + p + p * c + c))
        assert nn.mac_count(spec, heads) == d * h + blocks * block_macs + n_heads * (h * p + p * c)
        assert nn.activation_count(spec, heads) == d + h + blocks * block_acts + n_heads * (p + c)

    def test_minimal_hidden_boundary(self):
        nn.parameter_count(small_spec(hidden_dim=4))
        with pytest.raises(ValueError):
            small_spec(hidden_dim=0)


class TestTraining:
    def test_init_and_training_deterministic(self):
        spec = small_spec(num_blocks=2)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20)
        cfg = SGDConfig(learning_rate=0.05, batch_size=4, local_epochs=2)

        def run():
            model = nn.init_model(spec, np.random.default_rng(123))
            return nn.train_local(model, x, y, cfg, LossSpec(), np.random.default_rng(7))

        a, b = run(), run()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(0)
        n = 40
        y = (np.arange(n) % 2).astype(np.int64)
        x = rng.normal(size=(n, 4)) + np.where(y[:, None] == 0, 2.0, -2.0)
        model = nn.init_model(small_spec(), rng)
        before = loss_value(model, x, y, LossSpec())
        cfg = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=10)  # 50 steps
        trained = nn.train_local(model, x, y, cfg, LossSpec(), np.random.default_rng(1))
        after = loss_value(trained, x, y, LossSpec())
        assert after < before

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_flat_update_matches_per_key_loop(self, kind):
        # One flat momentum vector and one update per step must equal one
        # buffer and one update per parameter, bit for bit.
        spec = BlockNetSpec(5, 8, 3, kind, 3, 6)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        cfg = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=3, momentum=0.5)
        model = nn.init_model(spec, np.random.default_rng(5), (1, 2, 3))
        soft = nn.softmax(rng.normal(size=(30, 3)))
        for labels, loss in (
            (y, LossSpec(distill_weight=0.3)),
            (None, LossSpec(ce_heads=(), soft_targets=soft)),
        ):
            flat = nn.train_local(model, x, labels, cfg, loss, np.random.default_rng(4))
            per_key = reference_train_local(model, x, labels, cfg, loss, np.random.default_rng(4))
            assert np.array_equal(flat.vector, per_key.vector)

    def test_params_are_read_only_views_of_the_vector(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        model.params["stem.b"][...] = 7.0
        start, stop, _ = nn.param_layout(model.spec, model.head_blocks).slots["stem.b"]
        assert np.array_equal(model.vector[start:stop], np.full(stop - start, 7.0))
        with pytest.raises(TypeError):
            model.params["stem.b"] = np.zeros(stop - start)

    def test_train_local_does_not_mutate_input_model(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        snapshot = {k: v.copy() for k, v in model.params.items()}
        x = np.random.default_rng(1).normal(size=(8, 4))
        y = np.random.default_rng(2).integers(0, 2, size=8)
        nn.train_local(model, x, y, SGDConfig(learning_rate=0.1, batch_size=4), LossSpec(),
                       np.random.default_rng(3))
        for k in snapshot:
            assert np.array_equal(model.params[k], snapshot[k])
