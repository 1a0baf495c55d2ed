import math

import numpy as np
import pytest

from hetfed import nn
from hetfed.extract import (
    extract_channels,
    extract_depth,
    extract_width,
    full_map,
    new_accumulator,
    normalize,
    scatter_update,
    select_channels,
)
from hetfed.nn import BlockNetSpec

from oracles import (
    assert_valid_submodel,
    brute_force_aggregate,
    check_roundtrip,
    depth_entries,
    reference_extract,
    reference_normalize,
    reference_scatter,
    upload,
    width_entries,
    zeros_like_params,
)


def make_model(input_dim=4, hidden=4, blocks=2, kind="plain", classes=3, proto=4,
               heads=None, seed=0):
    spec = BlockNetSpec(input_dim, hidden, blocks, kind, classes, proto)
    return nn.init_model(spec, np.random.default_rng(seed), heads or (blocks,))


class TestChannelSelection:
    def test_full_rate_any_mode(self):
        assert select_channels(4, 4, "static_prefix").tolist() == [0, 1, 2, 3]
        assert select_channels(4, 4, "rolling", 9).tolist() == [0, 1, 2, 3]

    def test_static_prefix_definition(self):
        assert select_channels(4, 2, "static_prefix").tolist() == [0, 1]

    def test_rolling_modular_window(self):
        # d=4, k=2, t=3 -> {3, 0} sorted ascending
        assert select_channels(4, 2, "rolling", 3).tolist() == [0, 3]

    def test_channel_count_bounds(self):
        for k in (0, 5):
            with pytest.raises(ValueError, match=f"channel count must lie in 1..4, got {k}"):
                select_channels(4, k, "static_prefix")

    def test_static_nestedness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 33))
            k1, k2 = sorted(rng.integers(1, d + 1, size=2).tolist())
            small = set(select_channels(d, k1, "static_prefix").tolist())
            large = set(select_channels(d, k2, "static_prefix").tolist())
            assert small <= large

    def test_rolling_uniform_coverage(self):
        for d in range(1, 33):
            for k in range(1, d + 1):
                counts = np.zeros(d, dtype=int)
                for t in range(d):
                    counts[select_channels(d, k, "rolling", t)] += 1
                assert np.all(counts == k)


class TestWidthExtraction:
    def test_full_rate_bitwise_identity(self):
        model = make_model()
        sub, smap = extract_width(model, 4)
        for k in model.params:
            assert np.array_equal(sub.params[k], model.params[k])
        assert sub.spec == model.spec
        assert smap.head_set == model.head_blocks

    def test_hand_sliced_block_matrix(self):
        model = make_model(hidden=4)
        labeled = np.arange(16.0).reshape(4, 4)
        model.params["block1.w"][...] = labeled
        sub, _ = extract_width(model, 2)
        assert np.array_equal(sub.params["block1.w"], labeled[np.ix_([0, 1], [0, 1])])

    def test_parameter_count_commutes_with_extraction(self):
        spec = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        model = nn.init_model(spec, np.random.default_rng(0), (2,))
        sub, _ = extract_width(model, 8)
        reduced = BlockNetSpec(8, 8, 2, "plain", 4, 16)
        assert nn.parameter_count(reduced, (2,)) == sum(v.size for v in sub.params.values())
        assert_valid_submodel(sub)

    def test_neck_rows_restricted_proto_kept(self):
        model = make_model(hidden=4, proto=6)
        sub, _ = extract_width(model, 2)
        assert sub.params["head2.neck.w"].shape == (2, 6)
        assert sub.params["head2.neck.b"].shape == (6,)
        assert sub.params["head2.fc.w"].shape == (6, 3)

    def test_bottleneck_rejected(self):
        model = make_model(hidden=8, kind="bottleneck")
        with pytest.raises(ValueError):
            extract_width(model, 4)

    def test_forward_agrees_with_manual_submodel(self):
        # Slicing then forward == forward of a manually assembled submodel.
        model = make_model(hidden=6, blocks=2, seed=3)
        sub, _ = extract_width(model, 3, "rolling", 4)
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = nn.forward(sub, x)
        assert out.logits[2].shape == (3, 3)


class TestDepthExtraction:
    def test_identity_at_full_depth(self):
        model = make_model(blocks=3)
        sub, smap = extract_depth(model, 3, (3,))
        for k in model.params:
            assert np.array_equal(sub.params[k], model.params[k])
        assert smap.spec.num_blocks == 3

    def test_prefix_retention(self):
        model = make_model(blocks=4, heads=(1, 2, 3, 4))
        sub, smap = extract_depth(model, 2, (1, 2))
        assert sub.spec.num_blocks == 2
        assert sub.head_blocks == (1, 2)
        assert smap.spec.num_blocks == 2
        assert "block3.w" not in sub.params
        assert "head3.neck.w" not in sub.params

    def test_keeps_exactly_the_given_heads(self):
        model = make_model(blocks=4, heads=(1, 2, 3, 4))
        sub, smap = extract_depth(model, 3, (3,))
        assert sub.head_blocks == smap.head_set == (3,)
        assert "head1.fc.w" not in sub.params and "head2.fc.w" not in sub.params

    def test_out_of_range_rejected(self):
        model = make_model(blocks=2)
        for bad in (0, 3):
            with pytest.raises(ValueError, match="depth_prefix must lie in 1..2"):
                extract_depth(model, bad, model.head_blocks)

    def test_missing_head_at_depth_rejected(self):
        model = make_model(blocks=3, heads=(1, 3))
        for heads in ((2,), (3,), (1, 3)):
            with pytest.raises(ValueError, match=r"no head attached at block \d within the first 2 blocks"):
                extract_depth(model, 2, heads)
        with pytest.raises(ValueError, match="at least one head"):
            extract_depth(model, 2, ())


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
        a = upload(global_model, {k: np.full_like(v, 1.0) for k, v in global_model.params.items()})
        sub, smap_b = extract_width(global_model, 2)
        b = upload(sub, {k: np.full_like(v, 3.0) for k, v in sub.params.items()})
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
        a = upload(global_model, {k: np.full_like(v, 1.0) for k, v in global_model.params.items()})
        sub, smap_b = extract_width(global_model, 2)
        b = upload(sub, {k: np.full_like(v, 3.0) for k, v in sub.params.items()})
        acc = new_accumulator(global_model)
        scatter_update(acc, a, full_map(global_model), 30.0)
        scatter_update(acc, b, smap_b, 10.0)
        merged = normalize(acc, global_model)
        assert np.allclose(merged.params["block1.w"][np.ix_([0, 1], [0, 1])], 1.5)

    def test_depth_aggregation_deep_blocks_from_deep_client_only(self):
        global_model = make_model(blocks=4, heads=(1, 2, 3, 4), seed=2)
        shallow_sub, shallow_map = extract_depth(global_model, 2, (1, 2))
        deep_sub, deep_map = extract_depth(global_model, 4, (1, 2, 3, 4))
        shallow = upload(shallow_sub, {k: np.full_like(v, 5.0) for k, v in shallow_sub.params.items()})
        deep = upload(deep_sub, {k: np.full_like(v, 9.0) for k, v in deep_sub.params.items()})
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
        sub, smap = extract_width(global_model, 2)
        acc = new_accumulator(global_model)
        scatter_update(acc, sub.params, smap, 2.0)
        merged = normalize(acc, global_model)
        w = merged.params["block2.w"]
        assert np.array_equal(w[2:, 2:], global_model.params["block2.w"][2:, 2:])

    def test_scatter_shape_mismatch_rejected(self):
        # Views laid out for another sub-model (a wider one, or the full
        # model) do not fit the map, and the accumulator stays untouched.
        global_model = make_model(hidden=4)
        sub, smap = extract_width(global_model, 2)
        wider, _ = extract_width(global_model, 3)
        acc = new_accumulator(global_model)
        for foreign in (wider, global_model):
            with pytest.raises(ValueError, match="not laid out like the map's sub-model"):
                scatter_update(acc, foreign.params, smap, 1.0)
        assert not acc.sums.any() and not acc.weights.any()

    def test_roundtrip_extract_scatter_normalize(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            model = make_model(hidden=int(rng.integers(2, 9)), blocks=int(rng.integers(1, 4)),
                               seed=trial)
            k = math.ceil(float(rng.uniform(0.15, 1.0)) * model.spec.hidden_dim)
            mode = "rolling" if trial % 2 else "static_prefix"
            sub, smap = extract_width(model, k, mode, int(rng.integers(0, 10)))
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
                    k = math.ceil(float(rng.uniform(0.1, 1.0)) * global_model.spec.hidden_dim)
                    mode = "rolling" if rng.random() < 0.5 else "static_prefix"
                    round_index = int(rng.integers(0, 8))
                    sub, smap = extract_width(global_model, k, mode, round_index)
                    channels = select_channels(global_model.spec.hidden_dim, k, mode, round_index)
                    entries = width_entries(global_model.spec, heads, channels)
                else:
                    depth = int(rng.integers(1, blocks + 1))
                    sub, smap = extract_depth(global_model, depth, heads[:depth])
                    entries = depth_entries(global_model, depth, heads[:depth])
                params = upload(sub, {k: rng.normal(size=v.shape) for k, v in sub.params.items()})
                scatter_update(acc, params, smap, weight)
                contributions.append((params, entries, weight))
            merged = normalize(acc, global_model)
            expected = brute_force_aggregate(global_model, contributions)
            for k in merged.params:
                assert np.max(np.abs(merged.params[k] - expected[k])) < 1e-12


class TestFlatMapsMatchPerKeyOracle:
    """Extraction is a `take` through a compiled flat index map, scatter a
    fancy `+=` and normalize one `np.where`; each must equal the
    per-parameter `np.ix_` regions bit for bit."""

    @staticmethod
    def assert_matches(model, sub, smap, entries, rng):
        expected = reference_extract(model, entries)
        assert list(sub.params) == list(expected)
        for key, value in expected.items():
            assert np.array_equal(sub.params[key], value), key
        # Three clients on the same map: overlapping coordinates sum in call order.
        acc = new_accumulator(model)
        sums, weights = zeros_like_params(model.params), zeros_like_params(model.params)
        for _ in range(3):
            weight = float(rng.integers(1, 30))
            client = upload(sub, {k: rng.normal(size=v.shape) for k, v in sub.params.items()})
            scatter_update(acc, client, smap, weight)
            reference_scatter(sums, weights, client, entries, weight)
        merged = normalize(acc, model)
        for key, value in reference_normalize(sums, weights, model).items():
            assert np.array_equal(merged.params[key], value), key

    def test_random_channel_sets(self):
        rng = np.random.default_rng(7)
        for case in range(40):
            hidden = int(rng.integers(2, 10))
            blocks = int(rng.integers(1, 4))
            heads = tuple(range(1, blocks + 1)) if case % 2 else None
            model = make_model(hidden=hidden, blocks=blocks, kind=("plain", "skip")[case % 2],
                               heads=heads, seed=case)
            k = int(rng.integers(1, hidden + 1))
            channels = np.sort(rng.choice(hidden, size=k, replace=False))
            sub, smap = extract_channels(model, channels)
            self.assert_matches(model, sub, smap, width_entries(model.spec, model.head_blocks, channels), rng)

    def test_rolling_windows_with_wrap_around(self):
        rng = np.random.default_rng(8)
        for hidden in (5, 8):
            model = make_model(hidden=hidden, blocks=2, kind="skip", heads=(1, 2), seed=hidden)
            for k in range(2, hidden):
                for t in range(hidden):
                    channels = select_channels(hidden, k, "rolling", t)
                    sub, smap = extract_channels(model, channels)
                    self.assert_matches(model, sub, smap, width_entries(model.spec, model.head_blocks, channels), rng)
            wrapped = select_channels(hidden, 2, "rolling", hidden - 1)
            assert wrapped[0] == 0 and wrapped[-1] == hidden - 1

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_depth_prefixes(self, kind):
        rng = np.random.default_rng(9)
        for heads in ((1, 2, 3, 4), (2, 4), (4,)):
            model = make_model(hidden=8, blocks=4, kind=kind, heads=heads, seed=len(heads))
            for depth in heads:
                # Every head within the prefix (DepthFL), or the one at the
                # prefix's last block (InclusiveFL).
                for kept in {tuple(j for j in heads if j <= depth), (depth,)}:
                    sub, smap = extract_depth(model, depth, kept)
                    self.assert_matches(model, sub, smap, depth_entries(model, depth, kept), rng)

    def test_maps_are_cached_and_read_only(self):
        model = make_model(hidden=6, blocks=2)
        _, first = extract_width(model, 3, "rolling", 5)
        _, again = extract_channels(make_model(hidden=6, blocks=2, seed=1), [0, 1, 5])
        assert first is again
        with pytest.raises(ValueError):
            first.index[0] = 0

    def test_bad_channel_sets_rejected(self):
        model = make_model(hidden=4)
        for bad in ([], [1, 0], [0, 0], [0, 4], list(range(5))):
            with pytest.raises(ValueError):
                extract_channels(model, bad)
