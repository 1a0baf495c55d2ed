import dataclasses
import itertools
import math

import numpy as np
import pytest

from hetfed import nn, resources
from hetfed.nn import BlockNetSpec
from hetfed.resources import (
    DeviceProfile,
    InfeasibleScenarioError,
    ModelPool,
    PoolConfig,
    ProfileDistribution,
    ScenarioConfig,
    Variant,
    VariantStats,
    assign_models,
    build_pool,
    estimate_flops,
    estimate_times,
    fedepth_segments,
    sample_profiles,
    training_memory,
    width_channels,
)

from oracles import training_flops

SPEC = BlockNetSpec(8, 16, 2, "plain", 4, 16)


def layer_loop_mac_oracle(spec: BlockNetSpec, head_blocks=None) -> int:
    """Count multiply-accumulates layer by layer, independently."""
    heads = (spec.num_blocks,) if head_blocks is None else head_blocks
    total = spec.input_dim * spec.hidden_dim
    for _ in range(spec.num_blocks):
        if spec.block_kind == "bottleneck":
            total += spec.hidden_dim * (spec.hidden_dim // 4) * 2
        else:
            total += spec.hidden_dim * spec.hidden_dim
    for _ in heads:
        total += spec.hidden_dim * spec.proto_dim + spec.proto_dim * spec.num_classes
    return total


def hand_counted_segment_params(spec: BlockNetSpec, head_blocks, blocks: list[int]) -> int:
    """Parameters one FeDepth segment trains: its blocks, plus the stem with
    block 1 and every head with the last block."""
    d, h, p, c = spec.input_dim, spec.hidden_dim, spec.proto_dim, spec.num_classes
    block = 2 * h * (h // 4) + h // 4 + h if spec.block_kind == "bottleneck" else h * h + h
    params = len(blocks) * block
    if blocks[0] == 1:
        params += d * h + h
    if blocks[-1] == spec.num_blocks:
        params += len(head_blocks) * (h * p + p + p * c + c)
    return params


def make_variant(params: int, flops: float, memory: float, payload: float, vid="v") -> Variant:
    return Variant(
        variant_id=vid,
        kind="width",
        spec=SPEC,
        head_blocks=(2,),
        stats=VariantStats(params=params, flops_per_sample=flops,
                           memory_bytes=memory, comm_payload_bytes=payload),
    )


class TestFlops:
    def test_stated_formula(self):
        # 1000 MACs -> forward 2000 FLOPs, training step 6000.
        macs = nn.mac_count(SPEC, (2,))
        assert estimate_flops(SPEC, (2,)) == 2 * macs
        assert training_flops(SPEC, (2,)) == 6 * macs

    def test_matches_layer_loop_oracle_within_5_percent(self):
        for spec in (SPEC, BlockNetSpec(5, 8, 3, "skip", 3, 6),
                     BlockNetSpec(5, 8, 2, "bottleneck", 3, 6)):
            est = estimate_flops(spec, (spec.num_blocks,))
            oracle = 2 * layer_loop_mac_oracle(spec)
            assert abs(est - oracle) / oracle < 0.05

    def test_doubling_blocks_doubles_block_component(self):
        s1 = BlockNetSpec(8, 16, 2, "plain", 4, 16)
        s2 = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        per_block = 2 * 16 * 16
        assert estimate_flops(s2, (4,)) - estimate_flops(s1, (2,)) == 2 * per_block


class TestMemory:
    def test_calibrated_ratios(self):
        # Only FedRolex and FeDepth keep a kappa: DepthFL's layer plan
        # prices its heads.
        kappas = {f.name: f.default for f in dataclasses.fields(PoolConfig) if f.name.startswith("kappa_")}
        assert sorted(kappas) == ["kappa_fedepth", "kappa_fedrolex"]
        base = training_memory(SPEC, (2,), 32)
        for strategy, target in (("fedrolex", 780 / 593), ("fedepth", 631 / 593)):
            assert kappas[f"kappa_{strategy}"] * training_memory(SPEC, (2,), 32) / base == pytest.approx(target, abs=0.01)

    def test_qualitative_signature_ordering(self):
        # What each pool charges at the shipped configs' model keeps the
        # measured order DepthFL > FedRolex > FeDepth in one segment > static
        # width, and FeDepth's `full` variant, its longest single-block
        # segment, costs less than static width.
        spec = BlockNetSpec(8, 8, 4, "skip", 5, 16)
        ladders = PoolConfig(rates=(1.0,), depths=(4,))
        pools = {sid: build_pool(sid, level, spec, ladders, 32)
                 for sid, level in (("depthfl", "depth"), ("fedrolex", "width"),
                                    ("fedepth", "depth"), ("sheterofl", "width"))}
        charged = {sid: pool.largest.stats.memory_bytes for sid, pool in pools.items()}
        one_segment = pools["fedepth"].kappa * training_memory(spec, (4,), 32)
        assert charged["depthfl"] > charged["fedrolex"] > one_segment > charged["sheterofl"] > charged["fedepth"]

    def test_zero_batch_leaves_parameter_term_only(self):
        params = nn.parameter_count(SPEC, (2,))
        assert training_memory(SPEC, (2,), 0) == 8 * 3 * params

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 0"):
            training_memory(SPEC, (2,), -1)

    def test_whole_model_is_the_default_slice(self):
        params = nn.parameter_count(SPEC, (2,))
        acts = nn.activation_count(SPEC, (2,))
        whole = training_memory(SPEC, (2,), 8)
        assert whole == training_memory(SPEC, (2,), 8, slice(0, params)) == 8 * (3 * params + 8 * acts)

    def test_segment_memory_below_full_base(self):
        full = training_memory(SPEC, (2,), 8)
        seg = training_memory(SPEC, (2,), 8, slice(0, nn.parameter_count(SPEC, (2,)) // 4))
        assert seg < full


class TestSegments:
    def test_ample_memory_single_segment(self):
        segs = fedepth_segments(SPEC, (2,), 8, memory_capacity=1e12)
        assert segs == [[1, 2]]

    def test_tight_memory_splits_blocks(self):
        spec = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        full = training_memory(spec, (4,), 8)
        segs = fedepth_segments(spec, (4,), 8, memory_capacity=0.8 * full)
        assert len(segs) >= 2
        assert [b for seg in segs for b in seg] == [1, 2, 3, 4]
        for seg in segs:
            assert seg == sorted(seg)

    def test_impossible_memory_raises(self):
        with pytest.raises(InfeasibleScenarioError):
            fedepth_segments(SPEC, (2,), 8, memory_capacity=1.0)

    def test_every_segment_fits(self):
        spec = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        cap = 0.7 * training_memory(spec, (4,), 8)
        segs = fedepth_segments(spec, (4,), 8, cap)
        for seg in segs:
            assert training_memory(spec, (4,), 8, nn.segment_slice(spec, (4,), seg)) <= cap

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_each_segment_is_priced_over_its_slice(self, kind):
        # The whole-model price less the gradient and momentum of the
        # coordinates a segment leaves frozen, counted by hand.
        spec = BlockNetSpec(8, 16, 4, kind, 4, 16)
        for heads, fractions in (((4,), (0.75, 0.8, 1.0)), ((1, 2, 3, 4), (0.9, 1.0))):  # 1 to 3 segments
            whole = training_memory(spec, heads, 8)
            params = nn.parameter_count(spec, heads)
            for fraction in fractions:
                for seg in fedepth_segments(spec, heads, 8, fraction * whole):
                    frozen = params - hand_counted_segment_params(spec, heads, seg)
                    assert training_memory(spec, heads, 8, nn.segment_slice(spec, heads, seg)) == whole - 16 * frozen

    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_segments_priced_at_the_slice_fedepth_trains(self, kind, monkeypatch):
        # A stand-in footprint answers "fits" for a run of blocks that
        # crosses no cut, so each cut set yields its own segments and every
        # segment of 1..5 blocks gets priced.
        answers, priced_params = [], []

        def footprint(spec, head_blocks, batch_size, trained):
            priced_params.append(trained.stop - trained.start)
            return 0.0 if answers[len(priced_params) - 1] else 2.0

        monkeypatch.setattr(resources, "training_memory", footprint)
        for num_blocks in range(1, 6):
            spec = BlockNetSpec(6, 8, num_blocks, kind, 3, 8)
            for heads in ((num_blocks,), tuple(range(1, num_blocks + 1))):
                for cuts in itertools.product((False, True), repeat=num_blocks - 1):
                    segments, priced, answers[:] = [[1]], [], []
                    for b, cut in zip(range(2, num_blocks + 1), cuts):
                        priced.append(segments[-1] + [b])
                        answers.append(not cut)
                        if cut:
                            segments.append([b])
                        else:
                            segments[-1] = segments[-1] + [b]
                    priced += segments
                    answers += [True] * len(segments)
                    priced_params.clear()
                    assert fedepth_segments(spec, heads, 8, 1.0) == segments
                    assert priced_params == [hand_counted_segment_params(spec, heads, seg) for seg in priced]
                    for seg in segments:
                        part = nn.segment_slice(spec, heads, seg)
                        assert part.stop - part.start == hand_counted_segment_params(spec, heads, seg)

    @pytest.mark.parametrize("kappa", [0.3, PoolConfig().kappa_fedepth, 2.0], ids=["0.3", "default", "2.0"])
    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_assignment_admits_exactly_the_clients_a_segmentation_fits(self, kind, kappa):
        # One rule prices FeDepth's variant and its segments: from below its
        # price to above its one-segment footprint, a client is assigned the
        # `full` variant if and only if a segmentation of it fits.
        spec = BlockNetSpec(8, 16, 4, kind, 4, 16)
        pool = build_pool("fedepth", "depth", spec, PoolConfig(depths=(4,), kappa_fedepth=kappa), 8)
        full = pool.largest
        price, one_segment = full.stats.memory_bytes, kappa * training_memory(spec, full.head_blocks, 8)
        capacities = [*np.linspace(0.9 * price, 1.1 * one_segment, 101), price, np.nextafter(price, 0.0)]
        outcomes = []
        for capacity in map(float, capacities):
            scenario = ScenarioConfig(("memory",), memory_tiers=((capacity, 1.0),))
            try:
                assign_models(pool, [DeviceProfile(0, 1e9, 1e6, capacity)], scenario, [10], 1)
                admitted = True
            except InfeasibleScenarioError:
                admitted = False
            try:
                segments = len(fedepth_segments(spec, full.head_blocks, 8, capacity, pool.kappa))
            except InfeasibleScenarioError:
                segments = 0
            assert admitted == (segments > 0), capacity
            outcomes.append(segments)
        assert {0, 1, 2} <= set(outcomes)


class TestTimes:
    def test_derived_arithmetic(self):
        stats = VariantStats(params=1, flops_per_sample=2000, memory_bytes=1,
                             comm_payload_bytes=8e6)
        profile = DeviceProfile(0, compute_rate=6e5, bandwidth=1e6, memory_capacity=1)
        train, comm = estimate_times(stats, profile, samples=100, epochs=1)
        assert train == pytest.approx(1.0)
        assert comm == pytest.approx(8.0)

    def test_infinite_rate_limit(self):
        stats = VariantStats(params=1, flops_per_sample=2000, memory_bytes=1,
                             comm_payload_bytes=8e6)
        profile = DeviceProfile(0, compute_rate=1e30, bandwidth=1e30, memory_capacity=1)
        train, comm = estimate_times(stats, profile, 100, 1)
        assert train < 1e-12 and comm < 1e-12


class TestPools:
    def test_width_pool_rates_and_order(self):
        pool = build_pool("sheterofl", "width", SPEC, PoolConfig(), 32)
        assert [v.rate for v in pool.variants] == [1.0, 0.75, 0.5, 0.25]
        assert [v.spec.hidden_dim for v in pool.variants] == [16, 12, 8, 4]
        params = [v.stats.params for v in pool.variants]
        assert params == sorted(params, reverse=True)
        assert pool.largest.stats.comm_payload_bytes == 2 * pool.largest.stats.params * 8

    def test_depthfl_pool_heads(self):
        spec = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        pool = build_pool("depthfl", "depth", spec, PoolConfig(depths=(4, 3, 2, 1)), 32)
        assert [v.depth for v in pool.variants] == [4, 3, 2, 1]
        assert pool.variants[0].head_blocks == (1, 2, 3, 4)
        assert pool.variants[-1].head_blocks == (1,)

    def test_inclusivefl_single_head_per_depth(self):
        spec = BlockNetSpec(8, 16, 4, "plain", 4, 16)
        pool = build_pool("inclusivefl", "depth", spec, PoolConfig(depths=(4, 2)), 32)
        assert [v.head_blocks for v in pool.variants] == [(4,), (2,)]

    def test_fedepth_single_full_variant(self):
        pool = build_pool("fedepth", "depth", SPEC, PoolConfig(depths=(2, 1)), 32)
        assert len(pool.variants) == 1
        assert pool.largest.spec == SPEC

    def test_fedproto_payload_is_prototype_table(self):
        pool = build_pool(
            "fedproto", "topology", SPEC,
            PoolConfig(family=((16, 2, "plain"), (8, 1, "plain"))), 32,
        )
        expected = SPEC.num_classes * (SPEC.proto_dim + 1) * 8
        assert all(v.stats.comm_payload_bytes == expected for v in pool.variants)

    def test_baseline_pools(self):
        full = build_pool("fedavg_full", "width", SPEC, PoolConfig(), 32)
        small = build_pool("fedavg_smallest", "width", SPEC, PoolConfig(), 32)
        assert full.largest.spec.hidden_dim == 16
        assert small.largest.spec.hidden_dim == 4
        small_depth = build_pool("fedavg_smallest", "depth", SPEC, PoolConfig(depths=(2, 1)), 32)
        assert small_depth.largest.spec.num_blocks == 1

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_pool("sheterofl", "depth", SPEC, PoolConfig(), 32)

    def test_unknown_level_rejected(self):
        # A baseline runs at every level, but not at one that is none.
        message = r"^level: must be width, depth or topology, got 'flat'$"
        with pytest.raises(ValueError, match=message):
            resources.ladder(BlockNetSpec(), "flat", PoolConfig())
        with pytest.raises(ValueError, match=message):
            build_pool("fedavg_full", "flat", BlockNetSpec(), PoolConfig(), 32)

    def test_width_channels_ceil(self):
        assert width_channels(4, 0.5) == 2
        assert width_channels(5, 0.5) == 3
        assert width_channels(7, 0.1) == 1

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            width_channels(4, 0.0)
        with pytest.raises(ValueError):
            width_channels(4, 1.2)

    def test_width_ladder_must_include_full(self):
        with pytest.raises(ValueError):
            build_pool("sheterofl", "width", SPEC, PoolConfig(rates=(0.5, 0.25)), 32)


class TestProfiles:
    DIST = ProfileDistribution(compute_min=1e8, compute_max=1e9,
                               bandwidth_min=1e5, bandwidth_max=1e6)
    SCEN = ScenarioConfig(constraints=("memory",), memory_tiers=((1e6, 0.5), (1e5, 0.5)))

    def test_empty_draw(self):
        assert sample_profiles(self.DIST, self.SCEN, 0, seed=1) == []

    def test_degenerate_range_identical_rates(self):
        dist = ProfileDistribution(compute_min=5e8, compute_max=5e8,
                                   bandwidth_min=2e5, bandwidth_max=2e5)
        profiles = sample_profiles(dist, self.SCEN, 5, seed=2)
        assert all(p.compute_rate == pytest.approx(5e8) for p in profiles)
        assert all(p.bandwidth == pytest.approx(2e5) for p in profiles)

    def test_same_seed_identical(self):
        a = sample_profiles(self.DIST, self.SCEN, 8, seed=7)
        b = sample_profiles(self.DIST, self.SCEN, 8, seed=7)
        assert a == b
        c = sample_profiles(self.DIST, self.SCEN, 8, seed=8)
        assert a != c

    def test_rates_within_bounds(self):
        profiles = sample_profiles(self.DIST, self.SCEN, 64, seed=3)
        for p in profiles:
            assert 1e8 <= p.compute_rate <= 1e9
            assert 1e5 <= p.bandwidth <= 1e6
            assert p.memory_capacity in (1e6, 1e5)

    def test_memory_from_tiers_only_when_active(self):
        scen = ScenarioConfig(constraints=("communication",))
        profiles = sample_profiles(self.DIST, scen, 4, seed=3)
        assert [p.memory_capacity for p in profiles] == [math.inf] * 4


class TestAssignment:
    def test_unconstrained_gets_largest(self):
        pool = build_pool("sheterofl", "width", SPEC, PoolConfig(), 32)
        scen = ScenarioConfig(constraints=("computation", "communication", "memory"),
                              t_compute=1e12, t_comm=1e12,
                              memory_tiers=((1e15, 1.0),))
        profiles = sample_profiles(self.dist(), scen, 5, seed=0)
        chosen = assign_models(pool, profiles, scen, [100] * 5, epochs=1)
        assert all(v.variant_id == "w100" for v in chosen)

    def test_pick_largest_feasible_by_train_time(self):
        # train times {300, 150, 60}s at rate 1: pick the middle under 200s.
        variants = [
            make_variant(3000, 100.0, 1.0, 1.0, "big"),
            make_variant(2000, 50.0, 1.0, 1.0, "mid"),
            make_variant(1000, 20.0, 1.0, 1.0, "small"),
        ]
        pool = ModelPool("sheterofl", "width", variants)
        profile = DeviceProfile(0, compute_rate=1.0, bandwidth=1.0, memory_capacity=1.0)
        scen = ScenarioConfig(constraints=("computation",), t_compute=200.0)
        chosen = assign_models(pool, [profile], scen, [1], epochs=1)
        assert chosen[0].variant_id == "mid"

    def test_each_client_is_priced_at_its_own_rows(self):
        # One profile, train times {300, 150, 60}s per row under 200s: the
        # client with 1 row fits "mid", the one with 3 rows only "small".
        variants = [
            make_variant(3000, 100.0, 1.0, 1.0, "big"),
            make_variant(2000, 50.0, 1.0, 1.0, "mid"),
            make_variant(1000, 20.0, 1.0, 1.0, "small"),
        ]
        pool = ModelPool("sheterofl", "width", variants)
        profiles = [DeviceProfile(cid, compute_rate=1.0, bandwidth=1.0, memory_capacity=1.0) for cid in (0, 1)]
        scen = ScenarioConfig(constraints=("computation",), t_compute=200.0)
        chosen = assign_models(pool, profiles, scen, [1, 3], epochs=1)
        assert [v.variant_id for v in chosen] == ["mid", "small"]

    def test_memory_tiers_route_variants(self):
        pool = build_pool("sheterofl", "width", SPEC, PoolConfig(), 32)
        mems = [v.stats.memory_bytes for v in pool.variants]
        tiers = ((mems[0] * 1.01, 0.5), (mems[-1] * 1.01, 0.5))
        scen = ScenarioConfig(constraints=("memory",), memory_tiers=tiers)
        profiles = sample_profiles(self.dist(), scen, 12, seed=5)
        chosen = assign_models(pool, profiles, scen, [10] * 12, 1)
        for p, v in zip(profiles, chosen):
            if p.memory_capacity == pytest.approx(mems[0] * 1.01):
                assert v.variant_id == "w100"
            else:
                assert v.variant_id == "w25"

    def test_infeasible_names_client_and_constraint(self):
        variants = [make_variant(2000, 50.0, 1e9, 1.0, "only")]
        pool = ModelPool("sheterofl", "width", variants)
        profile = DeviceProfile(3, compute_rate=1.0, bandwidth=1.0, memory_capacity=10.0)
        scen = ScenarioConfig(constraints=("memory",), memory_tiers=((10.0, 1.0),))
        with pytest.raises(InfeasibleScenarioError, match="client 3.*memory"):
            assign_models(pool, [profile], scen, [1], 1)

    def test_monotone_in_capacity_and_intersection_semantics(self):
        # Random pools/profiles: growing any capacity never shrinks the
        # variant, and the combined assignment equals largest-feasible over
        # the intersection of single-constraint feasible sets.
        rng = np.random.default_rng(0)
        for _ in range(150):
            count = int(rng.integers(2, 6))
            params = sorted(rng.integers(100, 10000, size=count).tolist(), reverse=True)
            params = list(dict.fromkeys(params))
            variants = [
                make_variant(p, float(p) * 2.0, float(p) * 24.0, float(p) * 16.0, f"v{q}")
                for q, p in enumerate(params)
            ]
            pool = ModelPool("sheterofl", "width", variants)
            scen = ScenarioConfig(
                constraints=("computation", "communication", "memory"),
                t_compute=float(rng.uniform(10, 2000)),
                t_comm=float(rng.uniform(10, 2000)),
                memory_tiers=((1e9, 1.0),),
            )
            profile = DeviceProfile(
                0,
                compute_rate=float(rng.uniform(1e2, 1e5)),
                bandwidth=float(rng.uniform(1e1, 1e4)),
                memory_capacity=float(rng.uniform(1e4, 3e5)),
            )
            samples, epochs = int(rng.integers(1, 50)), int(rng.integers(1, 3))

            def assigned(p, s):
                try:
                    return assign_models(pool, [p], s, [samples], epochs)[0]
                except InfeasibleScenarioError:
                    return None

            combined = assigned(profile, scen)

            feasible_sets = []
            for single in ("computation", "communication", "memory"):
                sc = ScenarioConfig(
                    constraints=(single,), t_compute=scen.t_compute,
                    t_comm=scen.t_comm, memory_tiers=scen.memory_tiers,
                )
                ok = set()
                for v in pool.variants:
                    if not resources.feasible(v, profile, sc, samples, epochs):
                        ok.add(v.variant_id)
                feasible_sets.append(ok)
            intersection = set.intersection(*feasible_sets)
            expected = next((v for v in pool.variants if v.variant_id in intersection), None)
            assert (combined.variant_id if combined else None) == (
                expected.variant_id if expected else None
            )

            if combined is not None:
                for field in ("compute_rate", "bandwidth", "memory_capacity"):
                    boosted = DeviceProfile(
                        0,
                        compute_rate=profile.compute_rate * (3 if field == "compute_rate" else 1),
                        bandwidth=profile.bandwidth * (3 if field == "bandwidth" else 1),
                        memory_capacity=profile.memory_capacity * (3 if field == "memory_capacity" else 1),
                    )
                    better = assigned(boosted, scen)
                    assert better is not None
                    assert better.stats.params >= combined.stats.params

    @staticmethod
    def dist() -> ProfileDistribution:
        return ProfileDistribution(compute_min=1e8, compute_max=1e9,
                                   bandwidth_min=1e5, bandwidth_max=1e6)


class TestScenarioValidation:
    def test_computation_requires_deadline(self):
        with pytest.raises(ValueError):
            ScenarioConfig(constraints=("computation",))

    def test_tier_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioConfig(constraints=("memory",), memory_tiers=((1e6, 0.5), (1e5, 0.2)))

    def test_needs_at_least_one_constraint(self):
        with pytest.raises(ValueError):
            ScenarioConfig(constraints=())

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            ScenarioConfig(constraints=("thermal",))
