import numpy as np
import pytest

from hetfed import nn
from hetfed.extract import (
    extract_depth,
    extract_width,
    full_map,
    new_accumulator,
    normalize,
    scatter_update,
    select_channels,
    width_channels,
)
from hetfed.nn import BlockNetSpec

from oracles import assert_valid_submodel, brute_force_aggregate, check_roundtrip


def make_model(input_dim=4, hidden=4, blocks=2, kind="plain", classes=3, proto=4,
               heads=None, seed=0):
    spec = BlockNetSpec(input_dim, hidden, blocks, kind, classes, proto)
    return nn.init_model(spec, np.random.default_rng(seed), heads)


class TestChannelSelection:
    def test_full_rate_any_mode(self):
        assert select_channels(4, 1.0, "static_prefix").tolist() == [0, 1, 2, 3]
        assert select_channels(4, 1.0, "rolling", 9).tolist() == [0, 1, 2, 3]

    def test_static_prefix_definition(self):
        assert select_channels(4, 0.5, "static_prefix").tolist() == [0, 1]

    def test_rolling_modular_window(self):
        # d=4, k=2, t=3 -> {3, 0} sorted ascending
        assert select_channels(4, 0.5, "rolling", 3).tolist() == [0, 3]

    def test_width_channels_ceil(self):
        assert width_channels(4, 0.5) == 2
        assert width_channels(5, 0.5) == 3
        assert width_channels(7, 0.1) == 1

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            width_channels(4, 0.0)
        with pytest.raises(ValueError):
            width_channels(4, 1.2)

    def test_static_nestedness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 33))
            r1, r2 = sorted(rng.uniform(0.05, 1.0, size=2))
            small = set(select_channels(d, r1, "static_prefix").tolist())
            large = set(select_channels(d, r2, "static_prefix").tolist())
            assert small <= large

    def test_rolling_uniform_coverage(self):
        for d in range(1, 33):
            for rate in (0.25, 0.5, 0.75):
                k = width_channels(d, rate)
                counts = np.zeros(d, dtype=int)
                for t in range(d):
                    counts[select_channels(d, rate, "rolling", t)] += 1
                assert np.all(counts == k)


class TestWidthExtraction:
    def test_full_rate_bitwise_identity(self):
        model = make_model()
        sub, smap = extract_width(model, 1.0)
        for k in model.params:
            assert np.array_equal(sub.params[k], model.params[k])
        assert sub.spec == model.spec
        assert smap.head_set == model.head_blocks

    def test_hand_sliced_block_matrix(self):
        model = make_model(hidden=4)
        labeled = np.arange(16.0).reshape(4, 4)
        model.params["block1.w"] = labeled
        sub, _ = extract_width(model, 0.5)
        assert np.array_equal(sub.params["block1.w"], labeled[np.ix_([0, 1], [0, 1])])

    def test_parameter_count_commutes_with_extraction(self):
        spec = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        model = nn.init_model(spec, np.random.default_rng(0))
        sub, _ = extract_width(model, 0.5)
        reduced = BlockNetSpec(8, 8, 2, "plain", 4, 16)
        assert nn.parameter_count(reduced) == sum(v.size for v in sub.params.values())
        assert_valid_submodel(sub)

    def test_neck_rows_restricted_proto_kept(self):
        model = make_model(hidden=4, proto=6)
        sub, _ = extract_width(model, 0.5)
        assert sub.params["head2.neck.w"].shape == (2, 6)
        assert sub.params["head2.neck.b"].shape == (6,)
        assert sub.params["head2.fc.w"].shape == (6, 3)

    def test_bottleneck_rejected(self):
        model = make_model(hidden=8, kind="bottleneck")
        with pytest.raises(ValueError):
            extract_width(model, 0.5)

    def test_forward_agrees_with_manual_submodel(self):
        # Slicing then forward == forward of a manually assembled submodel.
        model = make_model(hidden=6, blocks=2, seed=3)
        sub, _ = extract_width(model, 0.5, "rolling", 4)
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = nn.forward(sub, x)
        assert out.logits[2].shape == (3, 3)


class TestDepthExtraction:
    def test_identity_at_full_depth(self):
        model = make_model(blocks=3)
        sub, smap = extract_depth(model, 3, with_aux_heads=False)
        for k in model.params:
            assert np.array_equal(sub.params[k], model.params[k])
        assert smap.depth_prefix == 3

    def test_prefix_retention(self):
        model = make_model(blocks=4, heads=(1, 2, 3, 4))
        sub, smap = extract_depth(model, 2, with_aux_heads=True)
        assert sub.spec.num_blocks == 2
        assert sub.head_blocks == (1, 2)
        assert smap.depth_prefix == 2
        assert "block3.w" not in sub.params
        assert "head3.neck.w" not in sub.params

    def test_out_of_range_rejected(self):
        model = make_model(blocks=2)
        for bad in (0, 3):
            with pytest.raises(ValueError):
                extract_depth(model, bad, with_aux_heads=True)

    def test_missing_head_at_depth_rejected(self):
        model = make_model(blocks=3)  # single head at block 3
        with pytest.raises(ValueError):
            extract_depth(model, 2, with_aux_heads=False)


class TestScatterNormalize:
    def test_single_full_client_reproduces_params(self):
        model = make_model()
        acc = new_accumulator(model)
        scatter_update(acc, model.params, full_map(model), 1.0)
        merged = normalize(acc, make_model(seed=9))
        for k in model.params:
            assert np.array_equal(merged.params[k], model.params[k])

    def test_overlap_mean_two_clients(self):
        # A full at 1.0, B half-prefix at 3.0, equal weights:
        # overlap -> 2.0, A-only -> 1.0.
        global_model = make_model(hidden=4)
        a = {k: np.full_like(v, 1.0) for k, v in global_model.params.items()}
        sub, smap_b = extract_width(global_model, 0.5)
        b = {k: np.full_like(v, 3.0) for k, v in sub.params.items()}
        acc = new_accumulator(global_model)
        scatter_update(acc, a, full_map(global_model), 10.0)
        scatter_update(acc, b, smap_b, 10.0)
        merged = normalize(acc, global_model)
        w = merged.params["block1.w"]
        assert np.allclose(w[np.ix_([0, 1], [0, 1])], 2.0)
        assert np.allclose(w[2:, :], 1.0)
        assert np.allclose(w[:2, 2:], 1.0)

    def test_sample_weighted_overlap(self):
        # n_A=30 at 1.0, n_B=10 at 3.0 -> overlap (30*1 + 10*3)/40 = 1.5
        global_model = make_model(hidden=4)
        a = {k: np.full_like(v, 1.0) for k, v in global_model.params.items()}
        sub, smap_b = extract_width(global_model, 0.5)
        b = {k: np.full_like(v, 3.0) for k, v in sub.params.items()}
        acc = new_accumulator(global_model)
        scatter_update(acc, a, full_map(global_model), 30.0)
        scatter_update(acc, b, smap_b, 10.0)
        merged = normalize(acc, global_model)
        assert np.allclose(merged.params["block1.w"][np.ix_([0, 1], [0, 1])], 1.5)

    def test_depth_aggregation_deep_blocks_from_deep_client_only(self):
        global_model = make_model(blocks=4, heads=(1, 2, 3, 4), seed=2)
        shallow_sub, shallow_map = extract_depth(global_model, 2, with_aux_heads=True)
        deep_sub, deep_map = extract_depth(global_model, 4, with_aux_heads=True)
        shallow = {k: np.full_like(v, 5.0) for k, v in shallow_sub.params.items()}
        deep = {k: np.full_like(v, 9.0) for k, v in deep_sub.params.items()}
        acc = new_accumulator(global_model)
        scatter_update(acc, shallow, shallow_map, 1.0)
        scatter_update(acc, deep, deep_map, 1.0)
        merged = normalize(acc, global_model)
        assert np.allclose(merged.params["block1.w"], 7.0)   # both contribute
        assert np.allclose(merged.params["block3.w"], 9.0)   # deep only
        assert np.allclose(merged.params["block4.w"], 9.0)
        assert np.allclose(merged.params["head1.fc.w"], 7.0)
        assert np.allclose(merged.params["head4.fc.w"], 9.0)

    def test_untouched_coordinates_keep_previous_value(self):
        global_model = make_model(hidden=4, seed=5)
        sub, smap = extract_width(global_model, 0.5)
        acc = new_accumulator(global_model)
        scatter_update(acc, sub.params, smap, 2.0)
        merged = normalize(acc, global_model)
        w = merged.params["block2.w"]
        assert np.array_equal(w[2:, 2:], global_model.params["block2.w"][2:, 2:])

    def test_scatter_shape_mismatch_rejected(self):
        global_model = make_model(hidden=4)
        sub, smap = extract_width(global_model, 0.5)
        bad = {k: np.zeros((v.shape[0] + 1,) + v.shape[1:]) for k, v in sub.params.items()}
        acc = new_accumulator(global_model)
        with pytest.raises(ValueError):
            scatter_update(acc, bad, smap, 1.0)

    def test_roundtrip_extract_scatter_normalize(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            model = make_model(hidden=int(rng.integers(2, 9)), blocks=int(rng.integers(1, 4)),
                               seed=trial)
            rate = float(rng.uniform(0.15, 1.0))
            mode = "rolling" if trial % 2 else "static_prefix"
            sub, smap = extract_width(model, rate, mode, int(rng.integers(0, 10)))
            assert check_roundtrip(model, sub, smap)

    def test_homogeneous_case_equals_fedavg_mean(self):
        global_model = make_model(seed=1)
        clients = [make_model(seed=s) for s in (2, 3, 4)]
        acc = new_accumulator(global_model)
        for c in clients:
            scatter_update(acc, c.params, full_map(global_model), 1.0)
        merged = normalize(acc, global_model)
        for k in global_model.params:
            mean = sum(c.params[k] for c in clients) / 3.0
            assert np.allclose(merged.params[k], mean, atol=1e-15)


class TestAgainstBruteForceOracle:
    def test_random_mixed_width_depth_cases(self):
        rng = np.random.default_rng(42)
        for case in range(25):
            hidden = int(rng.integers(2, 9))
            blocks = int(rng.integers(1, 4))
            heads = tuple(range(1, blocks + 1))
            global_model = make_model(hidden=max(hidden, 2), blocks=blocks, heads=heads,
                                      seed=100 + case)
            contributions = []
            acc = new_accumulator(global_model)
            for _ in range(int(rng.integers(1, 6))):
                weight = float(rng.integers(1, 20))
                if rng.random() < 0.5:
                    rate = float(rng.uniform(0.1, 1.0))
                    mode = "rolling" if rng.random() < 0.5 else "static_prefix"
                    sub, smap = extract_width(global_model, rate, mode, int(rng.integers(0, 8)))
                else:
                    depth = int(rng.integers(1, blocks + 1))
                    sub, smap = extract_depth(global_model, depth, with_aux_heads=True)
                params = {k: rng.normal(size=v.shape) for k, v in sub.params.items()}
                scatter_update(acc, params, smap, weight)
                contributions.append((params, smap, weight))
            merged = normalize(acc, global_model)
            expected = brute_force_aggregate(global_model, contributions)
            for k in merged.params:
                assert np.max(np.abs(merged.params[k] - expected[k])) < 1e-12
