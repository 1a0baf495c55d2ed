import math

import numpy as np
import pytest

from hetfed import nn
from hetfed.nn import BlockNetModel, BlockNetSpec, LossSpec, SGDConfig

from oracles import (
    finite_difference_grads,
    loss_value,
    max_relative_error,
    perturb_params,
    scalar_forward_logits,
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
        shapes = nn.param_shapes(spec, (1, 2))
        model = BlockNetModel(spec, (1, 2), {k: np.zeros(s) for k, s in shapes.items()})
        out = nn.forward(model, np.random.default_rng(0).normal(size=(5, 4)))
        for logits in out.logits.values():
            assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_composition_on_nonnegative_input(self):
        # stem = block = neck = head = identity, all biases zero.
        d = 4
        spec = BlockNetSpec(d, d, 1, "plain", d, d)
        shapes = nn.param_shapes(spec, (1,))
        params = {k: np.zeros(s) for k, s in shapes.items()}
        for k in ("stem.w", "block1.w", "head1.neck.w", "head1.fc.w"):
            params[k] = np.eye(d)
        model = BlockNetModel(spec, (1,), params)
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
            shapes = nn.param_shapes(spec, (1,))
            model = BlockNetModel(spec, (1,), {key: np.zeros(s) for key, s in shapes.items()})
            x = np.random.default_rng(0).normal(size=(8, 4))
            y = np.random.default_rng(1).integers(0, k, size=8)
            assert loss_value(model, x, y, LossSpec()) == pytest.approx(math.log(k), abs=1e-15)

    def test_gradient_exactly_zero_at_stationary_point(self):
        # Zero weights with a label-balanced batch sit at a stationary point.
        spec = small_spec(num_classes=2)
        shapes = nn.param_shapes(spec, (1,))
        model = BlockNetModel(spec, (1,), {k: np.zeros(s) for k, s in shapes.items()})
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

        frozen = {j: nn.log_softmax(l) for j, l in nn.forward(model, x).logits.items()}

        def surrogate(m):
            logits = nn.forward(m, x).logits
            total = 0.0
            n = x.shape[0]
            for j in (1, 2):
                logp = nn.log_softmax(logits[j])
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
        params = {k: v.copy() for k, v in model.params.items()}
        grads = {k: np.ones_like(v) for k, v in params.items()}
        nn.sgd_update(params, nn.zeros_like_params(params), grads, SGDConfig(learning_rate=0.0))
        for k in model.params:
            assert np.array_equal(params[k], model.params[k])

    def test_plain_step_definition(self):
        # momentum 0, lr 0.1, p 1.0, g 2.0 -> 0.8
        shapes = nn.param_shapes(small_spec(), (1,))
        params = {k: np.full(s, 1.0) for k, s in shapes.items()}
        grads = {k: np.full_like(v, 2.0) for k, v in params.items()}
        nn.sgd_update(params, nn.zeros_like_params(params), grads, SGDConfig(learning_rate=0.1))
        for v in params.values():
            assert np.allclose(v, 0.8, atol=1e-15)

    def test_momentum_recurrence_two_steps(self):
        # m=0.9, lr=0.1, g=1 twice from p=0: p2 = -0.1 - 0.1*1.9 = -0.29
        shapes = nn.param_shapes(small_spec(), (1,))
        params = {k: np.zeros(s) for k, s in shapes.items()}
        momentum = nn.zeros_like_params(params)
        cfg = SGDConfig(learning_rate=0.1, momentum=0.9)
        grads = {k: np.ones_like(v) for k, v in params.items()}
        nn.sgd_update(params, momentum, grads, cfg)
        nn.sgd_update(params, momentum, grads, cfg)
        for v in params.values():
            assert np.allclose(v, -0.29, atol=1e-15)
        for v in momentum.values():
            assert np.allclose(v, 1.9, atol=1e-15)

    def test_moves_only_given_keys_and_regions(self):
        # lr 0.5, g 1: the region of "w" and all of "b" step to -0.5; the
        # rest of "w" and every buffer outside the step stay zero.
        params = {"w": np.zeros((3, 3)), "b": np.zeros(3), "frozen": np.zeros(2)}
        momentum = nn.zeros_like_params(params)
        grads = {"w": np.ones((2, 2)), "b": np.ones(3)}
        regions = {"w": np.ix_([0, 2], [1, 2]), "b": np.ix_(np.arange(3))}
        nn.sgd_update(params, momentum, grads, SGDConfig(learning_rate=0.5), regions)
        expected_w = np.zeros((3, 3))
        expected_w[np.ix_([0, 2], [1, 2])] = -0.5
        assert np.array_equal(params["w"], expected_w)
        assert np.array_equal(momentum["w"], -2.0 * expected_w)
        assert np.array_equal(params["b"], np.full(3, -0.5))
        assert np.array_equal(params["frozen"], np.zeros(2))
        assert np.array_equal(momentum["frozen"], np.zeros(2))


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

    def test_linear_in_blocks(self):
        spec1 = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        spec2 = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        per_block = 16 * 16 + 16
        assert nn.parameter_count(spec2) - nn.parameter_count(spec1) == 2 * per_block

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

    def test_train_local_does_not_mutate_input_model(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0))
        snapshot = {k: v.copy() for k, v in model.params.items()}
        x = np.random.default_rng(1).normal(size=(8, 4))
        y = np.random.default_rng(2).integers(0, 2, size=8)
        nn.train_local(model, x, y, SGDConfig(learning_rate=0.1, batch_size=4), LossSpec(),
                       np.random.default_rng(3))
        for k in snapshot:
            assert np.array_equal(model.params[k], snapshot[k])
