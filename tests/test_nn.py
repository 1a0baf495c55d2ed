import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hetfed import nn
from hetfed.extract import channel_map, extract_channels, extract_depth, select_channels
from hetfed.nn import BlockNetSpec, LossSpec, SGDConfig

from oracles import (
    finite_difference_grads,
    gradient,
    log_softmax,
    loss_value,
    max_relative_error,
    model_from_params,
    param_shapes,
    perturb_params,
    reference_backward,
    reference_logit_grads,
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

    def test_deepest_head_must_sit_on_the_last_block(self):
        spec = small_spec(num_blocks=3)
        message = r"^heads \(1, 2\) must lie in 1\.\.3, the deepest on the last block$"
        with pytest.raises(ValueError, match=message):
            nn.param_layout(spec, (1, 2))
        with pytest.raises(ValueError, match=message):
            nn.init_model(spec, np.random.default_rng(0), (1, 2))
        model = nn.init_model(spec, np.random.default_rng(0), (1, 2, 3))
        with pytest.raises(ValueError, match=r"^heads \(1,\) must lie in 1\.\.2, the deepest on the last block$"):
            extract_depth(model, 2, (1,))


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
        model = nn.init_model(spec, np.random.default_rng(0), (spec.num_blocks,))
        x = np.random.default_rng(0).normal(size=(5, 4))
        expected = scalar_forward_logits(model, x)
        got = nn.forward(model, x).logits[1]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_skip_matches_scalar_loop_oracle(self):
        spec = BlockNetSpec(3, 5, 3, "skip", 4, 6)
        model = nn.init_model(spec, np.random.default_rng(3), (spec.num_blocks,))
        x = np.random.default_rng(4).normal(size=(4, 3))
        expected = scalar_forward_logits(model, x)
        got = nn.forward(model, x).logits[3]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_mismatch_rejected(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        with pytest.raises(nn.ShapeError):
            nn.forward(model, np.zeros((3, 5)))

    def test_embedding_is_deepest_neck_output(self):
        spec = small_spec(num_blocks=3)
        model = nn.init_model(spec, np.random.default_rng(2), (1, 2, 3))
        x = np.random.default_rng(5).normal(size=(2, 4))
        out = nn.forward(model, x)
        assert out.embedding.shape == (2, spec.proto_dim)
        assert set(out.logits) == {1, 2, 3}


class TestInferenceWalk:
    """`backward`, `forward` and `predict` run the one forward walk over
    the whole model."""

    def test_forward_and_predict_match_the_backward_walk(self, monkeypatch):
        spec = BlockNetSpec(5, 8, 3, "skip", 4, 6)
        model = nn.init_model(spec, np.random.default_rng(4), (1, 3))
        x = np.random.default_rng(5).normal(size=(6, 5))
        own = nn.ModelStack(spec, model.head_blocks, model.vector[None].copy(), np.empty((1, model.vector.size)))
        products, walk = [], nn._run_forward

        def counting(product):
            def counted(a, b, out=None):
                products.append(b.shape)
                return product(a, b, out=out)
            return counted

        # Products: the stem and one per block, then one stacked neck and
        # one stacked classifier product for both heads.
        own.matmul, own.head_matmul = counting(own.matmul), counting(own.head_matmul)
        walk(own, x)
        assert products == [(5, 8)] + [(8, 8)] * 3 + [(2, 8, 6), (2, 6, 4)]
        own.matmul, own.head_matmul = np.ndarray.dot, np.matmul
        caches = []

        def recorded(stack, batch, keep=True):
            caches.append(walk(stack, batch, keep))
            return caches[-1]

        monkeypatch.setattr(nn, "_run_forward", recorded)
        nn.backward(own, x, nn.one_hot(np.random.default_rng(6).integers(0, 4, size=6), 4), LossSpec())
        out = nn.forward(model, x)
        labels = [nn.predict(model, x, j) for j in (1, 3)]
        want = caches[0]
        assert out.embedding.tobytes() == want["neck"].tobytes()
        assert [list(cache["logits"]) for cache in caches] == [[1, 3]] * 4
        for cache in caches[1:]:  # forward's, then predict's at heads 1 and 3
            for j in (1, 3):
                assert cache["logits"][j].tobytes() == want["logits"][j].tobytes()
        for j, got in zip((1, 3), labels):
            assert np.array_equal(got, want["logits"][j].argmax(axis=1))

    def test_scoring_keeps_no_backprop_cache(self):
        # A scoring walk holds the heads' logits array, the deepest neck and
        # at most two trunk activations at once; `backward` keeps every
        # activation. A scoring walk that kept them made glibc trim and
        # regrow the heap on every evaluation. The trunk is wide enough that
        # numpy's broadcast buffer for a bias add (at most 8,192 values)
        # fits under the neck, which the bound counts once.
        spec = BlockNetSpec(8, 64, 4, "skip", 5, 32)
        heads = (1, 2, 3, 4)
        layout = nn.param_layout(spec, heads)
        model = nn.init_model(spec, np.random.default_rng(0), heads)
        n = 400
        x = np.random.default_rng(1).normal(size=(n, spec.input_dim))
        targets = nn.one_hot(np.random.default_rng(2).integers(0, spec.num_classes, size=n), spec.num_classes)

        def width(key):
            return layout.slots[key][2][0]

        logits = len(layout.heads) * n * width("head4.fc.b")
        bound = 8 * (logits + n * width("head4.neck.b") + 2 * n * width("stem.b"))

        def peak(call):
            call()  # builds the walk workspace outside the measure
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: nn.predict(model, x, 2)) <= bound
        assert peak(lambda: nn.forward(model, x)) <= bound
        stack = nn.ModelStack(spec, heads, model.vector[None].copy(), np.empty((1, layout.size)))
        assert peak(lambda: nn.backward(stack, x, targets, LossSpec(distill_weight=0.1))) > bound


class TestLosses:
    def test_uniform_logits_cross_entropy_is_ln_k(self):
        for k in (2, 3, 7):
            spec = small_spec(num_classes=k)
            model = zero_model(spec, (1,))
            x = np.random.default_rng(0).normal(size=(8, 4))
            y = nn.one_hot(np.random.default_rng(1).integers(0, k, size=8), k)
            assert loss_value(model, x, y, LossSpec()) == pytest.approx(math.log(k), abs=1e-15)

    def test_gradient_exactly_zero_at_stationary_point(self):
        # Zero weights with a label-balanced batch sit at a stationary point.
        spec = small_spec(num_classes=2)
        model = zero_model(spec, (1,))
        x = np.random.default_rng(0).normal(size=(2, 4))
        y = nn.one_hot(np.array([0, 1]), 2)
        grads = gradient(model, x, y, LossSpec())
        assert max(np.abs(g).max() for g in grads.values()) < 1e-12

    def test_batch_mean_semantics_duplicate_sample(self):
        # Mean (not sum) over the batch: duplicating the sample changes
        # nothing. Sum semantics would double every gradient, so the 1e-14
        # tolerance (BLAS FMA kernels round the two paths differently by
        # ~1 ulp) still separates the two behaviours sharply.
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        x = np.random.default_rng(1).normal(size=(1, 4))
        y = nn.one_hot(np.array([1]), 2)
        g1 = gradient(model, x, y, LossSpec())
        g2 = gradient(model, np.vstack([x, x]), np.vstack([y, y]), LossSpec())
        for k in g1:
            assert np.allclose(g1[k], g2[k], atol=1e-14, rtol=0)

    def test_labels_out_of_range(self):
        # Labels reach the loss only as `one_hot` rows, which hold the rule.
        for bad in (2, -1):
            with pytest.raises(ValueError, match=r"^labels must lie in \[0, 2\)$"):
                nn.one_hot(np.array([0, bad]), 2)
        assert nn.one_hot(np.array([1, 0]), 2).tolist() == [[0.0, 1.0], [1.0, 0.0]]


class TestGradientsAgainstFiniteDifferences:
    def _check(self, spec, heads, loss, targets=None, seed=0, tol=1e-4):
        rng = np.random.default_rng(seed)
        model = perturb_params(nn.init_model(spec, rng, heads), rng)
        x = rng.normal(size=(4, spec.input_dim))
        y = nn.one_hot(rng.integers(0, spec.num_classes, size=4), spec.num_classes) if targets is None else targets
        analytic = gradient(model, x, y, loss)
        numeric = finite_difference_grads(model, x, y, loss)
        assert max_relative_error(analytic, numeric) < tol

    def test_cross_entropy_plain(self):
        self._check(small_spec(num_blocks=2), (2,), LossSpec())

    def test_cross_entropy_skip(self):
        self._check(BlockNetSpec(3, 4, 2, "skip", 3, 4), (2,), LossSpec(), seed=1)

    def test_cross_entropy_bottleneck(self):
        self._check(BlockNetSpec(3, 8, 2, "bottleneck", 3, 4), (2,), LossSpec(), seed=2)

    def test_multi_head_cross_entropy(self):
        self._check(small_spec(num_blocks=3), (1, 2, 3), LossSpec(), seed=3)

    def test_prototype_pull(self):
        rng = np.random.default_rng(7)
        loss = LossSpec(
            proto_weight=0.7,
            proto_targets=rng.normal(size=(2, 4)),
            proto_mask=np.array([True, False]),
        )
        self._check(small_spec(num_blocks=2), (2,), loss, seed=4)

    def test_soft_target_distillation(self):
        rng = np.random.default_rng(8)
        targets = rng.dirichlet(np.ones(2), size=4)
        self._check(small_spec(), (1,), LossSpec(), targets=targets, seed=5)

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
        analytic = gradient(model, x, nn.one_hot(y, 2), LossSpec(distill_weight=lam))

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
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        vector = model.vector.copy()
        grad = np.ones_like(vector)
        nn.sgd_update(vector, np.zeros_like(vector), grad, SGDConfig(learning_rate=0.0), slice(None))
        assert np.array_equal(vector, model.vector)

    def test_plain_step_definition(self):
        # momentum 0, lr 0.1, p 1.0, g 2.0 -> 0.8
        size = nn.param_layout(small_spec(), (1,)).size
        vector = np.full(size, 1.0)
        nn.sgd_update(vector, np.zeros(size), np.full(size, 2.0), SGDConfig(learning_rate=0.1), slice(None))
        assert np.allclose(vector, 0.8, atol=1e-15)

    def test_momentum_recurrence_two_steps(self):
        # m=0.9, lr=0.1, g=1 twice from p=0: p2 = -0.1 - 0.1*1.9 = -0.29
        size = nn.param_layout(small_spec(), (1,)).size
        vector = np.zeros(size)
        momentum = np.zeros(size)
        cfg = SGDConfig(learning_rate=0.1, momentum=0.9)
        grad = np.ones(size)
        nn.sgd_update(vector, momentum, grad, cfg, slice(None))
        nn.sgd_update(vector, momentum, grad, cfg, slice(None))
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
        assert nn.parameter_count(spec, (spec.num_blocks,)) == 1028

    def test_matches_actual_array_sizes(self):
        for spec, heads in [
            (BlockNetSpec(8, 16, 2, "plain", 4, 16), (2,)),
            (BlockNetSpec(5, 8, 3, "skip", 3, 6), (1, 2, 3)),
            (BlockNetSpec(5, 8, 2, "bottleneck", 3, 6), (2,)),
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
        assert nn.parameter_count(spec2, (spec2.num_blocks,)) - nn.parameter_count(spec1, (spec1.num_blocks,)) == 2 * per_block

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    @pytest.mark.parametrize("all_heads", [False, True])
    def test_counts_match_closed_forms(self, kind, all_heads):
        d, h, blocks, c, p = 5, 8, 3, 3, 6
        spec = BlockNetSpec(d, h, blocks, kind, c, p)
        heads = (1, 2, 3) if all_heads else (3,)
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
        nn.parameter_count(small_spec(hidden_dim=4), (1,))
        with pytest.raises(ValueError):
            small_spec(hidden_dim=0)


class TestTraining:
    def test_init_and_training_deterministic(self):
        spec = small_spec(num_blocks=2)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 4))
        y = nn.one_hot(rng.integers(0, 2, size=20), 2)
        cfg = SGDConfig(learning_rate=0.05, batch_size=4, local_epochs=2)

        def run():
            model = nn.init_model(spec, np.random.default_rng(123), (spec.num_blocks,))
            return nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(7)])[0]

        a, b = run(), run()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(0)
        n = 40
        y = (np.arange(n) % 2).astype(np.int64)
        x = rng.normal(size=(n, 4)) + np.where(y[:, None] == 0, 2.0, -2.0)
        y = nn.one_hot(y, 2)
        model = nn.init_model(small_spec(), rng, (1,))
        before = loss_value(model, x, y, LossSpec())
        cfg = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=10)  # 50 steps
        [trained] = nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(1)])
        after = loss_value(trained, x, y, LossSpec())
        assert after < before

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_flat_update_matches_per_key_loop(self, kind):
        # One flat momentum vector and one update per step must equal one
        # buffer and one update per parameter, bit for bit.
        spec = BlockNetSpec(5, 8, 3, kind, 3, 6)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 5))
        y = nn.one_hot(rng.integers(0, 3, size=30), 3)
        cfg = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=3, momentum=0.5)
        model = nn.init_model(spec, np.random.default_rng(5), (1, 2, 3))
        soft = nn.softmax(rng.normal(size=(30, 3)))
        loss = LossSpec(distill_weight=0.3)
        for targets in (y, soft):
            [flat] = nn.train_local([model], x, targets, cfg, loss, [np.random.default_rng(4)])
            per_key = reference_train_local(model, x, targets, cfg, loss, np.random.default_rng(4))
            assert np.array_equal(flat.vector, per_key.vector)

    def test_params_are_read_only_views_of_the_vector(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        model.params["stem.b"][...] = 7.0
        start, stop, _ = nn.param_layout(model.spec, model.head_blocks).slots["stem.b"]
        assert np.array_equal(model.vector[start:stop], np.full(stop - start, 7.0))
        with pytest.raises(TypeError):
            model.params["stem.b"] = np.zeros(stop - start)

    def test_train_local_does_not_mutate_input_model(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        snapshot = {k: v.copy() for k, v in model.params.items()}
        x = np.random.default_rng(1).normal(size=(8, 4))
        y = nn.one_hot(np.random.default_rng(2).integers(0, 2, size=8), 2)
        nn.train_local([model], x, y, SGDConfig(learning_rate=0.1, batch_size=4), LossSpec(),
                       [np.random.default_rng(3)])
        for k in snapshot:
            assert np.array_equal(model.params[k], snapshot[k])


class TestLockstep:
    """K clients stacked into one walk must each get the bits they get alone."""

    # Training batch lengths, then evaluation and public-split row counts.
    ROWS = (*range(1, 40), 64, 100, 255, 400, 512)

    def test_numpy_stacked_calls_match_2d_bit_for_bit(self):
        # The walk relies on the installed numpy giving each client of a
        # stacked `matmul`, a transposed stacked `matmul` and an axis sum the
        # same bits as the 2-D call a stack of one makes on that client
        # alone, on the engine's operand layouts: weights and gradients as
        # views of one (K, size) buffer, strided at K >= 2 and contiguous
        # rows at K = 1, transposed with `swapaxes(-1, -2)` and summed with
        # `sum(axis=-2)` or `np.add.reduce(..., -2)` at both ranks. A stack
        # of one multiplies with `ndarray.dot`, writing weight gradients
        # with `out=` into a gradient view. A numpy whose batched kernels
        # sum in another order fails here first.
        rng = np.random.default_rng(2025)
        for b in self.ROWS:
            for i in range(1, 20):
                o = (7 * i + b) % 19 + 1
                k = (b + i) % 10 + 1
                a = rng.normal(size=(k, b, i))
                dz = rng.normal(size=(k, b, o))
                params = rng.normal(size=(k, i * o + 5))
                w = params[:, 3:3 + i * o].reshape((k, i, o), copy=False)
                grad = np.empty((k, i * o + o + 2))
                gw = grad[:, 1:1 + i * o].reshape((k, i, o), copy=False)
                gb = grad[:, 1 + i * o:1 + i * o + o]
                out = np.matmul(a, w)
                back = np.matmul(dz, w.swapaxes(-1, -2))
                np.matmul(a.swapaxes(-1, -2), dz, out=gw)
                dz.sum(axis=-2, out=gb)
                assert np.array_equal(back, np.matmul(dz, w.transpose(0, 2, 1)))
                assert np.array_equal(gb, dz.sum(axis=1))
                assert np.array_equal(gb, np.add.reduce(dz, -2))
                for c in range(k):
                    # The views of a one-row stack over client c's row.
                    w2 = params[c, 3:3 + i * o].reshape((i, o), copy=False)
                    grad2 = np.empty(i * o + o + 2)
                    gw2 = grad2[1:1 + i * o].reshape((i, o), copy=False)
                    gb2 = grad2[1 + i * o:1 + i * o + o]
                    np.matmul(a[c].swapaxes(-1, -2), dz[c], out=gw2)
                    dz[c].sum(axis=-2, out=gb2)
                    assert np.array_equal(out[c], a[c] @ w2), (b, i, o, k)
                    assert np.array_equal(back[c], dz[c] @ w2.swapaxes(-1, -2)), (b, i, o, k)
                    assert np.array_equal(back[c], dz[c] @ w2.copy().T), (b, i, o, k)
                    assert np.array_equal(gw[c], gw2), (b, i, o, k)
                    assert np.array_equal(gw[c], a[c].T @ dz[c]), (b, i, o, k)
                    assert np.array_equal(gb[c], gb2), (b, i, o, k)
                    assert np.array_equal(gb[c], dz[c].sum(axis=0)), (b, i, o, k)
                    # The calls a stack of one makes.
                    gw2[...] = np.nan
                    gb2[...] = np.nan
                    np.ndarray.dot(a[c].swapaxes(-1, -2), dz[c], out=gw2)
                    np.add.reduce(dz[c], -2, None, gb2)
                    assert np.array_equal(gw[c], gw2), (b, i, o, k)
                    assert np.array_equal(gb[c], gb2), (b, i, o, k)
                    assert np.array_equal(out[c], np.ndarray.dot(a[c], w2)), (b, i, o, k)
                    assert np.array_equal(back[c], np.ndarray.dot(dz[c], w2.swapaxes(-1, -2))), (b, i, o, k)

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_stacked_backward_matches_each_client_alone(self, kind):
        spec = BlockNetSpec(5, 8, 3, kind, 3, 6)
        heads = (1, 2, 3)
        rng = np.random.default_rng(8)
        k, n = 4, 7
        models = [nn.init_model(spec, np.random.default_rng(s), heads) for s in range(k)]
        x = rng.normal(size=(k * n, 5))
        y = nn.one_hot(rng.integers(0, 3, size=k * n), 3)
        protos = rng.normal(size=(3, 6))
        soft = nn.softmax(rng.normal(size=(k * n, 3)))
        vectors = np.stack([m.vector for m in models])
        stack = nn.ModelStack(spec, heads, vectors, np.empty_like(vectors))
        for targets, loss in (
            (y, LossSpec(distill_weight=0.3)),
            (y, LossSpec(proto_weight=0.2, proto_targets=protos, proto_mask=np.array([True, False, True]))),
            (soft, LossSpec()),
            (soft, LossSpec(distill_weight=0.3)),
        ):
            assert nn.backward(stack, x, targets, loss) is stack.grads
            for c, model in enumerate(models):
                rows = slice(c * n, (c + 1) * n)
                alone = gradient(model, x[rows], targets[rows], loss)
                assert np.array_equal(stack.grad[c], alone.vector)

    def test_train_local_stack_matches_each_client_alone(self):
        spec = BlockNetSpec(5, 8, 2, "skip", 3, 6)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 5))
        y = nn.one_hot(rng.integers(0, 3, size=60), 3)
        soft = nn.softmax(rng.normal(size=(60, 3)))
        rows = [np.arange(0, 60, 3), np.arange(1, 60, 3), np.arange(2, 60, 3)]
        models = [nn.init_model(spec, np.random.default_rng(s), (spec.num_blocks,)) for s in range(3)]
        cfg = SGDConfig(learning_rate=0.05, batch_size=6, local_epochs=2, momentum=0.5)
        for targets in (y, soft):  # a one-hot row or a distribution per row of x
            trained = nn.train_local(models, x, targets, cfg, LossSpec(),
                                     [np.random.default_rng(s) for s in (4, 5, 6)], rows)
            assert len(trained) == len(models)
            for c, model in enumerate(models):
                [alone] = nn.train_local([model], x[rows[c]], targets[rows[c]], cfg, LossSpec(),
                                         [np.random.default_rng(4 + c)])
                assert (trained[c].spec, trained[c].head_blocks) == (spec, model.head_blocks)
                assert np.array_equal(trained[c].vector, alone.vector)

    @pytest.mark.parametrize("kind", ["plain", "bottleneck"])
    def test_stack_views_write_into_the_stacked_arrays(self, kind):
        spec = BlockNetSpec(5, 8, 2, kind, 3, 6)
        layout = nn.param_layout(spec, (1, 2))
        for k in (1, 3):
            vectors, grad = np.zeros((k, layout.size)), np.zeros((k, layout.size))
            stack = nn.ModelStack(spec, (1, 2), vectors, grad)
            for views, target in ((stack.params, vectors), (stack.grads, grad)):
                for key, view in views.items():
                    # A stack of one runs on 2-D operands.
                    shape = layout.slots[key][2]
                    if k > 1:
                        shape = (k, *shape) if len(shape) == 2 or views is stack.grads else (k, 1, *shape)
                    assert view.shape == shape, (k, key)
                    view[...] = 1.0
                assert np.all(target == 1.0)

    def test_train_local_and_backward_reject_out_of_range_labels(self):
        # Labels reach `backward` and `train_local` only as `one_hot` rows:
        # `one_hot` rejects a label out of range in any row, and the engine
        # takes no label vector as targets.
        spec = small_spec(num_classes=3)
        model = nn.init_model(spec, np.random.default_rng(0), (spec.num_blocks,))
        x = np.zeros((6, 4))
        cfg = SGDConfig(learning_rate=0.1, batch_size=2)
        rows = [np.arange(0, 3), np.arange(3, 6)]
        vectors = np.stack([model.vector, model.vector])
        pair = nn.ModelStack(spec, model.head_blocks, vectors, np.empty_like(vectors))
        alone = nn.ModelStack(spec, model.head_blocks, vectors[:1], np.empty_like(vectors[:1]))
        for bad in (3, -1):
            y = np.array([0, 1, 2, 0, 1, bad])
            with pytest.raises(ValueError, match=r"^labels must lie in \[0, 3\)$"):
                nn.one_hot(y, 3)
            with pytest.raises(nn.ShapeError, match=r"^targets must be \[6, 3\] class distributions"):
                nn.backward(alone, x, y, LossSpec())
            with pytest.raises(nn.ShapeError, match=r"^targets must be \[6, 3\] class distributions"):
                nn.backward(pair, x, y, LossSpec())
            with pytest.raises(nn.ShapeError, match=r"^targets must be \[2, 3\] class distributions"):
                nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(1)])
            with pytest.raises(nn.ShapeError, match=r"^targets must be \[4, 3\] class distributions"):
                nn.train_local([model, model], x, y, cfg, LossSpec(),
                               [np.random.default_rng(s) for s in (1, 2)], rows)
        nn.train_local([model, model], x, nn.one_hot(y[:5], 3), cfg, LossSpec(),
                       [np.random.default_rng(s) for s in (1, 2)], [rows[0], np.arange(2, 5)])

    def test_moves_plan_is_asked_once_per_pass_and_must_cover_it(self):
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        x = np.random.default_rng(1).normal(size=(10, 4))
        y = nn.one_hot(np.arange(10) % 2, 2)
        # 4 does not divide the 10 rows: the last of a pass's 3 steps is short.
        cfg = SGDConfig(learning_rate=0.1, batch_size=4, local_epochs=2)
        asked = []

        def plan(steps):
            def moves(pass_index, given):
                asked.append((pass_index, given))
                return [slice(None)] * steps
            return moves

        [covered] = nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(2)], moves=plan(3))
        [default] = nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(2)])
        assert asked == [(0, math.ceil(10 / 4)), (1, math.ceil(10 / 4))]
        assert np.array_equal(covered.vector, default.vector)
        for steps in (2, 4):
            with pytest.raises(ValueError, match=rf"^moves\(0\) planned {steps} steps; the pass takes 3$"):
                nn.train_local([model], x, y, cfg, LossSpec(), [np.random.default_rng(2)], moves=plan(steps))

    def test_batch_rows_must_split_into_the_stack(self):
        spec = small_spec()
        vectors = np.stack([nn.init_model(spec, np.random.default_rng(s), (spec.num_blocks,)).vector for s in range(3)])
        stack = nn.ModelStack(spec, (1,), vectors, np.empty_like(vectors))
        with pytest.raises(nn.ShapeError):
            nn.backward(stack, np.zeros((4, 4)), np.zeros((4, 2)), LossSpec())

    @staticmethod
    def pair_setup():
        spec = small_spec(num_classes=3)
        models = [nn.init_model(spec, np.random.default_rng(s), (1,)) for s in range(2)]
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(8, 4)), nn.one_hot(rng.integers(0, 3, size=8), 3)
        return models, x, y, SGDConfig(learning_rate=0.1, batch_size=4)

    def test_train_local_needs_one_rng_and_row_set_per_model(self):
        # One rng for two models would split each step's batch between them.
        models, x, y, cfg = self.pair_setup()
        rows = [np.arange(0, 4), np.arange(4, 8)]
        with pytest.raises(ValueError, match=r"^1 rngs for 2 models: each model needs one$"):
            nn.train_local(models, x, y, cfg, LossSpec(), [np.random.default_rng(1)])
        with pytest.raises(ValueError, match=r"^1 row sets for 2 models: each model needs one$"):
            nn.train_local(models, x, y, cfg, LossSpec(), [np.random.default_rng(s) for s in (1, 2)], rows[:1])

    def test_train_local_needs_one_architecture(self):
        # A skip model has the plain model's size; it must not train as one.
        models, x, y, cfg = self.pair_setup()
        spec = models[0].spec
        skip = nn.BlockNetModel(replace(spec, block_kind="skip"), (1,), models[1].vector)
        deeper = replace(spec, num_blocks=2)
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        for pair in ([models[0], skip], [nn.init_model(deeper, rngs[0], (1, 2)), nn.init_model(deeper, rngs[1], (2,))]):
            with pytest.raises(ValueError, match=r"^model 1 is not of model 0's spec and heads"):
                nn.train_local(pair, x, y, cfg, LossSpec(), rngs)

    def test_train_local_needs_one_row_count(self):
        models, x, y, cfg = self.pair_setup()
        with pytest.raises(ValueError, match=r"^row sets of sizes \[4, 3\]: lockstep clients need one row count$"):
            nn.train_local(models, x, y, cfg, LossSpec(), [np.random.default_rng(s) for s in (1, 2)],
                           [np.arange(0, 4), np.arange(4, 7)])


class TestWorkspaces:
    """`train_local`, `forward` and `predict` run in reused per-layout
    buffers; nothing they return may alias them."""

    SPEC = BlockNetSpec(5, 8, 2, "skip", 3, 6)
    CFG = SGDConfig(learning_rate=0.05, batch_size=6, local_epochs=2, momentum=0.5)

    def data(self):
        rng = np.random.default_rng(17)
        return rng.normal(size=(60, 5)), nn.one_hot(rng.integers(0, 3, size=60), 3)

    def models(self, seeds):
        return [nn.init_model(self.SPEC, np.random.default_rng(s), (1, 2)) for s in seeds]

    def test_returned_models_outlive_the_next_call(self):
        # A later call on the same layout and K trains in the same
        # workspace rows; the models the first call returned must not move.
        x, y = self.data()
        rows = [np.arange(0, 30), np.arange(30, 60)]
        first = nn.train_local(self.models((1, 2)), x, y, self.CFG, LossSpec(),
                               [np.random.default_rng(s) for s in (3, 4)], rows)
        kept = [model.vector.copy() for model in first]
        nn.train_local(self.models((5, 6)), x, y, self.CFG, LossSpec(),
                       [np.random.default_rng(s) for s in (7, 8)], rows)
        for model, vector in zip(first, kept):
            assert np.array_equal(model.vector, vector)

    def test_growing_capacity_keeps_each_client_bitwise(self):
        # K = 3, then 1, then 5 on one layout: the buffers grow twice and
        # momentum starts at zero in every call.
        x, y = self.data()
        for k in (3, 1, 5):
            rows = [np.arange(c, 60, k)[:60 // 5] for c in range(k)]
            models = self.models(range(10 * k, 11 * k))
            trained = nn.train_local(models, x, y, self.CFG, LossSpec(distill_weight=0.3),
                                     [np.random.default_rng(100 + c) for c in range(k)], rows)
            for c, model in enumerate(models):
                alone = reference_train_local(model, x[rows[c]], y[rows[c]], self.CFG, LossSpec(distill_weight=0.3),
                                              np.random.default_rng(100 + c))
                assert trained[c].vector.tobytes() == alone.vector.tobytes(), (k, c)

    def test_mask_moves_walk_a_copy_of_the_rows(self):
        # A masked step walks a copy of the rows in the walk workspace of
        # the training stack's own (spec, heads): an all-True mask must give
        # the default training's bits, and a row masked out must not move.
        x, y = self.data()
        models = self.models((1, 2, 3))
        rows = [np.arange(c, 60, 3) for c in range(3)]
        everything = np.ones((3, nn.param_layout(self.SPEC, (1, 2)).size), dtype=bool)
        two = everything.copy()
        two[1] = False

        def train(moves):
            return nn.train_local(models, x, y, self.CFG, LossSpec(),
                                  [np.random.default_rng(s) for s in (4, 5, 6)], rows, moves)

        default = train(None)
        masked = train(lambda pass_index, steps: [everything] * steps)
        assert [m.vector.tobytes() for m in masked] == [m.vector.tobytes() for m in default]
        masked = train(lambda pass_index, steps: [two] * steps)
        assert masked[1].vector.tobytes() == models[1].vector.tobytes()
        for c in (0, 2):
            assert masked[c].vector.tobytes() == default[c].vector.tobytes()

    def test_forward_and_predict_copy_the_model_in(self):
        x, _ = self.data()
        for model in self.models((1, 2, 1)):
            own = nn.ModelStack(model.spec, model.head_blocks, model.vector[None], np.empty((1, model.vector.size)))
            want = nn._run_forward(own, x)["logits"][2]
            assert nn.forward(model, x).logits[2].tobytes() == want.tobytes()
            assert np.array_equal(nn.predict(model, x), want.argmax(axis=1))

    def test_dropped_workspaces_keep_results_and_held_stacks(self, monkeypatch):
        # With room for two workspaces, training and scoring three layouts
        # drops the oldest again and again; every result keeps the bits of a
        # run that drops none, and a stack the caller holds stays a working
        # operand after its workspace is dropped.
        x, y = self.data()
        rows = [np.arange(0, 30), np.arange(30, 60)]
        layouts = [(self.SPEC, (1, 2)), (self.SPEC, (2,)), (replace(self.SPEC, hidden_dim=6), (2,))]

        def run():
            out = []
            for spec, heads in layouts:
                models = [nn.init_model(spec, np.random.default_rng(s), heads) for s in (1, 2)]
                trained = nn.train_local(models, x, y, self.CFG, LossSpec(),
                                         [np.random.default_rng(s) for s in (3, 4)], rows)
                for model in trained:
                    out += [model.vector.tobytes(), nn.predict(model, x).tobytes(),
                            nn.forward(model, x).logits[heads[-1]].tobytes()]
            return out

        monkeypatch.setattr(nn, "_WORKSPACES", {})
        kept = run()
        assert len(nn._WORKSPACES) == 2 * len(layouts)
        monkeypatch.setattr(nn, "_MAX_WORKSPACES", 2)
        monkeypatch.setattr(nn, "_WORKSPACES", {})
        [model] = self.models((9,))
        held = nn._stack_of_one(model)
        assert run() == kept
        assert len(nn._WORKSPACES) == 2
        assert all(held not in workspace.stacks.values() for workspace in nn._WORKSPACES.values())
        held.vector[0] = model.vector
        own = nn.ModelStack(model.spec, model.head_blocks, model.vector[None], np.empty((1, model.vector.size)))
        assert nn._run_forward(held, x)["logits"][2].tobytes() == nn._run_forward(own, x)["logits"][2].tobytes()


class TestZeroPadding:
    """A width sub-model zero-padded into the global layout trains there to
    the bits of the extracted sub-model trained alone, whatever it is
    stacked with: the property that lets clients of every width share one
    walk (see the module docstring). It rests on the BLAS summing a
    product with extra 0 * 0 terms to the same bits, which its matrix
    products of two or more rows and columns do; a one-row batch or a
    one-channel sub-model agrees to rounding only."""

    CFG = SGDConfig(learning_rate=0.05, batch_size=6, local_epochs=2, momentum=0.5)
    HEADS = (1, 3)
    # (width, selector, round): static prefixes and sorted rolling windows,
    # some of which wrap around the last channel.
    CHANNELS = [(2, "static_prefix", 0), (3, "static_prefix", 0), (5, "rolling", 6),
                (8, "static_prefix", 0), (4, "rolling", 5), (2, "rolling", 7), (6, "rolling", 1)]

    def setup(self, kind, k, n=20):
        spec = BlockNetSpec(5, 8, 3, kind, 3, 6)
        model = nn.init_model(spec, np.random.default_rng(43), self.HEADS)
        # Biases away from zero, as training leaves them.
        model.vector[:] += np.random.default_rng(44).normal(scale=0.1, size=model.vector.size)
        rng = np.random.default_rng(45)
        x, y = rng.normal(size=(n * k, 5)), nn.one_hot(rng.integers(0, 3, size=n * k), 3)
        rows = [np.arange(c, n * k, k) for c in range(k)]
        return model, x, y, rows

    def check_padded(self, kind, k, n, channel_sets, same):
        """Train each channel set's sub-model zero-padded, k at a time, and
        alone; `same(padded, alone)` compares each client's coordinates."""
        model, x, y, rows = self.setup(kind, k, n)
        size = model.vector.size
        for first in range(len(channel_sets)):
            chosen = [channel_sets[(first + c) % len(channel_sets)] for c in range(k)]
            channels = [select_channels(8, width, mode, t) for width, mode, t in chosen]
            maps = [channel_map(model.spec, self.HEADS, tuple(c.tolist())) for c in channels]
            padded = []
            for smap in maps:
                row = np.zeros(size)
                row[smap.index] = model.vector[smap.index]
                padded.append(nn.BlockNetModel(model.spec, self.HEADS, row))
            seeds = [10 * first + c for c in range(k)]
            trained = nn.train_local(padded, x, y, self.CFG, LossSpec(),
                                     [np.random.default_rng(s) for s in seeds], rows)
            for c, smap in enumerate(maps):
                sub, _ = extract_channels(model, channels[c])
                [alone] = nn.train_local([sub], x, y, self.CFG, LossSpec(), [np.random.default_rng(seeds[c])],
                                         [rows[c]])
                assert same(trained[c].vector.take(smap.index), alone.vector), (first, c)
                off = np.ones(size, dtype=bool)
                off[smap.index] = False
                assert not trained[c].vector[off].any(), (first, c)

    @pytest.mark.parametrize("kind", ["plain", "skip"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_padded_rows_train_to_the_sub_model_bits(self, kind, k):
        # 20 rows in batches of 6: every step has at least two rows.
        self.check_padded(kind, k, 20, self.CHANNELS, lambda a, b: a.tobytes() == b.tobytes())

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_row_steps_and_one_channel_agree_to_rounding(self, k):
        # 19 rows in batches of 6 end each pass on one row; width 1 is one
        # column. Both go through the matrix-vector kernel. Eight steps grow
        # float64 rounding (2.2e-16) to about 1e-13 here; a wrong gradient
        # would miss by far more than the tolerance.
        close = lambda a, b: np.allclose(a, b, rtol=1e-10, atol=1e-12)
        self.check_padded("skip", k, 19, self.CHANNELS, close)
        self.check_padded("skip", k, 20, [(1, "static_prefix", 0), (1, "rolling", 3)], close)

    @pytest.mark.parametrize("k", [1, 3])
    def test_mask_moves_train_the_masked_sub_model(self, k):
        # Rows that hold the whole global model, each moved through the mask
        # of its own prefix: the walk sees zeros outside the mask, the rest
        # of the row stays as it was.
        model, x, y, rows = self.setup("skip", k)
        widths = [(3, 8, 5)[c] for c in range(k)]
        maps = [channel_map(model.spec, self.HEADS, tuple(range(w))) for w in widths]
        mask = np.zeros((k, model.vector.size), dtype=bool)
        for row, smap in zip(mask, maps):
            row[smap.index] = True
        trained = nn.train_local([model] * k, x, y, self.CFG, LossSpec(),
                                 [np.random.default_rng(s) for s in range(k)], rows,
                                 lambda pass_index, steps: [mask] * steps)
        for c, (smap, w) in enumerate(zip(maps, widths)):
            sub, _ = extract_channels(model, np.arange(w))
            [alone] = nn.train_local([sub], x, y, self.CFG, LossSpec(), [np.random.default_rng(c)], [rows[c]])
            assert trained[c].vector.take(smap.index).tobytes() == alone.vector.tobytes(), c
            assert trained[c].vector[~mask[c]].tobytes() == model.vector[~mask[c]].tobytes(), c


class TestTargets:
    """Labels reach `backward` as `one_hot` class distributions."""

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_hot_targets_give_the_label_gradient_bits(self, kind, k):
        # The per-head loop subtracts 1.0 at each row's label; the engine
        # subtracts the one-hot row.
        spec = BlockNetSpec(5, 8, 3, kind, 4, 6)
        rng = np.random.default_rng(31)
        n = 9
        for heads in ((3,), (1, 2, 3)):
            models = [nn.init_model(spec, np.random.default_rng(s), heads) for s in range(k)]
            vectors = np.stack([model.vector for model in models])
            stack = nn.ModelStack(spec, heads, vectors, np.empty_like(vectors))
            x = rng.normal(size=(k * n, 5))
            y = rng.integers(0, 4, size=k * n)
            for loss in (LossSpec(), LossSpec(distill_weight=0.3)):
                nn.backward(stack, x, nn.one_hot(y, 4), loss)
                for c, model in enumerate(models):
                    rows = slice(c * n, (c + 1) * n)
                    _, from_labels = reference_backward(model, x[rows], y[rows], loss)
                    assert stack.grad[c].tobytes() == from_labels.tobytes(), (heads, loss, c)

    def test_prototype_pull_needs_labels(self):
        # The pull reads each row's label as the argmax of its one-hot row.
        model = perturb_params(nn.init_model(small_spec(num_classes=3), np.random.default_rng(0), (1,)),
                               np.random.default_rng(1))
        loss = LossSpec(proto_weight=0.5, proto_targets=np.random.default_rng(2).normal(size=(3, 4)),
                        proto_mask=np.array([True, False, True]))
        x = np.random.default_rng(3).normal(size=(5, 4))
        y = np.array([2, 0, 1, 2, 0])
        _, want = reference_backward(model, x, y, loss)
        assert gradient(model, x, nn.one_hot(y, 3), loss).vector.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (5,), (3, 3), (3, 2, 1), (2, 2)])
    def test_targets_must_fit_the_batch(self, shape):
        # A label vector is no target: labels become `one_hot` rows first.
        model = nn.init_model(small_spec(), np.random.default_rng(0), (1,))
        targets = np.zeros(shape, dtype=int if len(shape) == 1 else float)
        with pytest.raises(nn.ShapeError, match=r"^targets must be \[3, 2\] class distributions, got"):
            gradient(model, np.zeros((3, 4)), targets, LossSpec())


class TestLogitGradients:
    """The loss gradient of every head, with all distillation pairs taken
    at once, must equal the per-head, per-pair loop byte for byte."""

    @pytest.mark.parametrize("heads", [(4,), (1, 4), (2, 3, 4), (1, 2, 3, 4)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_pairs_match_the_pairwise_loop(self, heads, k):
        spec = BlockNetSpec(5, 8, 4, "plain", 4, 6)
        rng = np.random.default_rng(41)
        n = 9
        vectors = np.stack([nn.init_model(spec, np.random.default_rng(s), heads).vector for s in range(k)])
        stack = nn.ModelStack(spec, heads, vectors, np.empty_like(vectors))
        cache = nn._run_forward(stack, rng.normal(size=(k * n, 5)))
        labels = rng.integers(0, 4, size=k * n)
        soft = nn.softmax(rng.normal(size=(k * n, 4)))
        # One-hot rows against the loop's label gradient, and distributions.
        for targets, given in ((nn.one_hot(labels, 4), labels), (soft, soft)):
            for weight in (0.3, 0.0):
                got, _ = nn._loss_grads(stack, cache, targets, LossSpec(distill_weight=weight))
                want = reference_logit_grads(cache["logits"], given, weight)
                assert got.shape[0] == len(want) == len(heads)
                for h, j in enumerate(heads):
                    assert got[h].tobytes() == want[j].tobytes(), (j, weight, given.ndim)


class TestStackedHeads:
    """A model of two or more heads trains them as one stacked product
    each; every client keeps the bits of the per-head loop."""

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("heads", [(2, 4), (1, 2, 3, 4)])
    def test_backward_and_training_walk_match_the_per_head_loop(self, kind, k, heads):
        spec = BlockNetSpec(5, 8, 4, kind, 4, 6)
        rng = np.random.default_rng(53)
        n = 9
        models = [perturb_params(nn.init_model(spec, np.random.default_rng(s), heads), rng) for s in range(k)]
        vectors = np.stack([model.vector for model in models])
        stack = nn.ModelStack(spec, heads, vectors, np.empty_like(vectors))
        x = rng.normal(size=(k * n, 5))
        y = rng.integers(0, 4, size=k * n)
        # Self-distillation and the prototype pull on the deepest head.
        loss = LossSpec(distill_weight=0.3, proto_weight=0.2, proto_targets=rng.normal(size=(4, 6)),
                        proto_mask=np.array([True, False, True, True]))
        logits = nn._run_forward(stack, x)["all_logits"]
        nn.backward(stack, x, nn.one_hot(y, 4), loss)
        for c, model in enumerate(models):
            rows = slice(c * n, (c + 1) * n)
            want_logits, want = reference_backward(model, x[rows], nn.one_hot(y[rows], 4), loss)
            own = logits if k == 1 else logits[:, c]
            for h, j in enumerate(heads):
                assert own[h].tobytes() == want_logits[j].tobytes(), (c, j)
            assert stack.grad[c].tobytes() == want.tobytes(), c


def read_only(array):
    array.setflags(write=False)
    return array


class TestPredictMemo:
    """`predict` walks a read-only model on read-only features once for
    all of its heads."""

    @staticmethod
    def counting_walk(monkeypatch):
        calls = []
        walk = nn._run_forward

        def counted(stack, batch, keep=True):
            calls.append(stack.head_blocks)
            return walk(stack, batch, keep)

        monkeypatch.setattr(nn, "_run_forward", counted)
        return calls

    def test_writable_model_is_never_memoized(self, monkeypatch):
        spec = small_spec(num_classes=3)
        model = nn.init_model(spec, np.random.default_rng(0), (spec.num_blocks,))
        x = read_only(np.random.default_rng(1).normal(size=(40, 4)))
        calls = self.counting_walk(monkeypatch)
        before = nn.predict(model, x)
        assert not before.flags.writeable and set(before.tolist()) != {2}
        model.params[f"head{model.final_head}.fc.b"][...] = [0.0, 0.0, 1e6]
        after = nn.predict(model, x)
        assert len(calls) == 2
        assert np.array_equal(after, np.full(40, 2))

    def test_frozen_model_is_scored_once_per_features_object(self, monkeypatch):
        spec = small_spec(num_classes=3, num_blocks=2)
        model = nn.init_model(spec, np.random.default_rng(3), (1, 2))
        copy = nn.BlockNetModel(spec, model.head_blocks, model.vector.copy())
        read_only(model.vector)
        x = read_only(np.random.default_rng(4).normal(size=(40, 4)))
        calls = self.counting_walk(monkeypatch)
        first = nn.predict(model, x)
        assert nn.predict(model, x) is first and len(calls) == 1
        assert not first.flags.writeable
        assert np.array_equal(first, nn.predict(copy, x)) and len(calls) == 2
        # Equal values in another object are not the same features.
        equal = read_only(x.copy())
        assert np.array_equal(nn.predict(model, equal), first) and len(calls) == 3
        # Writable features are never memoized either.
        writable = x.copy()
        assert not nn.predict(model, writable).flags.writeable
        writable[:] = 0.0
        assert np.array_equal(nn.predict(model, writable), nn.predict(copy, writable))
        assert len(calls) == 6

    def test_one_walk_serves_every_head(self, monkeypatch):
        # A frozen model walks once for all heads and remembers each head's
        # argmax; a writable one walks every head on each call.
        spec = small_spec(num_classes=3, num_blocks=3, hidden_dim=8)
        model = nn.init_model(spec, np.random.default_rng(6), (1, 2, 3))
        copy = nn.BlockNetModel(spec, model.head_blocks, model.vector.copy())
        read_only(model.vector)
        x = read_only(np.random.default_rng(7).normal(size=(60, 4)))
        calls = self.counting_walk(monkeypatch)
        frozen = {j: nn.predict(model, x, j) for j in (2, 1, 3)}
        assert calls == [(1, 2, 3)]
        assert nn.predict(model, x) is frozen[3] and len(calls) == 1
        for j in (1, 2, 3):
            assert not frozen[j].flags.writeable
            alone = nn.predict(copy, x, j)
            assert not alone.flags.writeable and np.array_equal(alone, frozen[j])
        assert calls[1:] == [(1, 2, 3)] * 3
        # The heads disagree somewhere, so each head's memo is its own.
        assert len({frozen[j].tobytes() for j in (1, 2, 3)}) == 3

    def test_unknown_head_is_rejected(self):
        model = nn.init_model(small_spec(num_blocks=3), np.random.default_rng(0), (1, 3))
        with pytest.raises(ValueError, match=r"^model has no head at block 2; its heads are \(1, 3\)$"):
            nn.predict(model, np.zeros((2, 4)), 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("frozen", [False, True])
    def test_non_finite_logits_raise(self, frozen):
        # A finite model scaled by 1e160 overflows to NaN logits, whose
        # argmax would be class 0 on every row.
        spec = small_spec(num_classes=3, num_blocks=2, hidden_dim=8)
        model = nn.init_model(spec, np.random.default_rng(8), (1, 2))
        huge = nn.BlockNetModel(spec, model.head_blocks, model.vector * 1e160)
        assert np.isfinite(huge.vector).all()
        x = np.random.default_rng(9).normal(size=(20, 4))
        if frozen:
            read_only(huge.vector)
            read_only(x)
        for head in (None, 1):
            for _ in range(2):  # the memo remembers the failure, too
                with pytest.raises(nn.DivergenceError, match=r"^logits of head [12] are not finite$"):
                    nn.predict(huge, x, head)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("frozen", [False, True])
    def test_only_the_overflowing_head_raises(self, frozen):
        # The heads share one logits array, but each is checked on its own:
        # head 1 still scores while head 2's logits overflow.
        spec = small_spec(num_classes=3, num_blocks=2, hidden_dim=8)
        model = nn.init_model(spec, np.random.default_rng(8), (1, 2))
        x = np.random.default_rng(9).normal(size=(20, 4))
        want = nn.predict(model, x, 1)
        for key in ("head2.neck.w", "head2.fc.w"):
            model.params[key][...] *= 1e200
        assert np.isfinite(model.vector).all()
        if frozen:
            read_only(model.vector)
            read_only(x)
        for _ in range(2):  # the memo remembers both heads
            assert np.array_equal(nn.predict(model, x, 1), want)
            with pytest.raises(nn.DivergenceError, match=r"^logits of head 2 are not finite$"):
                nn.predict(model, x, 2)
