import numpy as np
import pytest

from hetfed import nn, seeding
from hetfed.datasets import gen_synthetic
from hetfed.nn import BlockNetSpec, SGDConfig
from hetfed.resources import DeviceProfile, PoolConfig, build_pool, fedepth_segments, segment_memory
from hetfed.strategies import (
    ClientState,
    FederationConfig,
    FederationContext,
    aggregate_prototypes,
    consensus_logits,
    compute_prototypes,
    make_strategy,
    sample_clients,
)

from oracles import fedepth_reference_client, fjord_reference_client, reference_round

SPEC = BlockNetSpec(input_dim=6, hidden_dim=8, num_blocks=3, block_kind="plain",
                    num_classes=3, proto_dim=8)


def make_ctx(
    strategy_id: str,
    level: str,
    assignment_picker,
    num_clients: int = 4,
    n: int = 120,
    lr: float = 0.02,
    fed: FederationConfig | None = None,
    pool_cfg: PoolConfig | None = None,
    seed: int = 0,
    spec: BlockNetSpec = SPEC,
):
    """Small federation over blob data; assignment_picker(pool, cid) -> Variant."""
    pool_cfg = pool_cfg or PoolConfig(
        rates=(1.0, 0.5), depths=(spec.num_blocks, 1),
        family=((8, 3, "plain"), (4, 2, "plain")),
    )
    pool = build_pool(strategy_id, level, spec, pool_cfg, batch_size=8)
    ds = gen_synthetic("blobs", n, spec.input_dim, spec.num_classes, 0.4, seed=seed)
    shard = n // num_clients
    profile = lambda cid: DeviceProfile(cid, 1e9, 1e6, 1e12)
    clients = [
        ClientState(
            cid,
            np.arange(cid * shard, (cid + 1) * shard),
            profile(cid),
            assignment_picker(pool, cid),
        )
        for cid in range(num_clients)
    ]
    return FederationContext(
        level=level,
        base_spec=spec,
        pool=pool,
        clients=clients,
        train_features=ds.features,
        train_labels=ds.labels,
        public_features=ds.features[:16].copy(),
        sgd=SGDConfig(learning_rate=lr, batch_size=8, local_epochs=1),
        fed=fed or FederationConfig(),
        repeat_seed=seeding.mix_seed(999, seed),
    )


def largest(pool, cid):
    return pool.largest


def alternating(pool, cid):
    return pool.variants[cid % len(pool.variants)]


class TestSampling:
    def test_ceil_and_determinism(self):
        rng = np.random.default_rng(5)
        picked = sample_clients(20, 0.1, rng)
        assert len(picked) == 2
        again = sample_clients(20, 0.1, np.random.default_rng(5))
        assert picked == again

    def test_minimum_one(self):
        assert len(sample_clients(3, 0.01, np.random.default_rng(0))) == 1

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            sample_clients(5, 0.0, np.random.default_rng(0))


class TestPrototypeOps:
    def test_single_client_unchanged(self):
        vec = np.array([[1.0, 0.0], [2.0, 2.0]])
        cnt = np.array([3.0, 1.0])
        out_vec, out_cnt = aggregate_prototypes([(vec, cnt)])
        assert np.array_equal(out_vec, vec)
        assert np.array_equal(out_cnt, cnt)

    def test_equal_support_mean(self):
        a = (np.array([[1.0, 0.0]]), np.array([5.0]))
        b = (np.array([[3.0, 0.0]]), np.array([5.0]))
        vec, cnt = aggregate_prototypes([a, b])
        assert np.allclose(vec, [[2.0, 0.0]])
        assert cnt[0] == 10.0

    def test_support_weighted_mean(self):
        a = (np.array([[1.0, 0.0]]), np.array([1.0]))
        b = (np.array([[3.0, 0.0]]), np.array([3.0]))
        vec, _ = aggregate_prototypes([a, b])
        assert np.allclose(vec, [[2.5, 0.0]])

    def test_zero_support_class_excluded(self):
        a = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([2.0, 0.0]))
        vec, cnt = aggregate_prototypes([a])
        assert np.array_equal(vec[1], np.zeros(2))
        assert cnt[1] == 0.0

    def test_dimension_mismatch_rejected(self):
        a = (np.zeros((2, 3)), np.zeros(2))
        b = (np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            aggregate_prototypes([a, b])

    def test_compute_prototypes_support_counts(self):
        model = nn.init_model(SPEC, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 6))
        y = np.array([0, 0, 1, 1, 1, 1])
        vec, cnt = compute_prototypes(model, x, y, 3)
        assert cnt.tolist() == [2.0, 4.0, 0.0]
        assert np.array_equal(vec[2], np.zeros(SPEC.proto_dim))
        emb = nn.forward(model, x).embedding
        assert np.allclose(vec[0], emb[:2].mean(axis=0))


class TestConsensus:
    def test_single_client_identity(self):
        logits = np.array([[2.0, 0.0], [1.0, 3.0]])
        assert np.allclose(consensus_logits([logits]), logits)

    def test_identical_clients_idempotent(self):
        logits = np.array([[2.0, 0.0]])
        assert np.allclose(consensus_logits([logits, logits]), logits)

    def test_symmetric_disagreement_averages(self):
        a = np.array([[2.0, 0.0]])
        b = np.array([[0.0, 2.0]])
        assert np.allclose(consensus_logits([a, b]), [[1.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            consensus_logits([])


class TestCommonRoundBehaviour:
    @pytest.mark.parametrize("strategy_id,level", [
        ("sheterofl", "width"), ("fedrolex", "width"), ("fjord", "width"),
        ("depthfl", "depth"), ("inclusivefl", "depth"), ("fedepth", "depth"),
        ("fedavg_full", "width"), ("fedavg_smallest", "width"),
    ])
    def test_lr_zero_leaves_global_unchanged(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, largest, lr=0.0)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        snapshot = {k: v.copy() for k, v in state.params.items()}
        new_state, artifacts = strategy.run_round(state, [0, 2], 1)
        for k in snapshot:
            assert np.allclose(new_state.params[k], snapshot[k], atol=1e-12)
        assert set(artifacts.sample_counts) == {0, 2}

    def test_empty_sample_set_rejected(self):
        ctx = make_ctx("sheterofl", "width", largest)
        strategy = make_strategy("sheterofl", ctx)
        with pytest.raises(ValueError):
            strategy.run_round(strategy.initial_state(), [], 1)

    def test_unknown_strategy_rejected(self):
        ctx = make_ctx("sheterofl", "width", largest)
        with pytest.raises(ValueError):
            make_strategy("fedmagic", ctx)

    def test_parallel_equals_serial(self):
        results = []
        for workers in (1, 3):
            ctx = make_ctx("sheterofl", "width", alternating)
            ctx.workers = workers
            strategy = make_strategy("sheterofl", ctx)
            state = strategy.initial_state()
            for t in (1, 2, 3):
                state, _ = strategy.run_round(state, [0, 1, 3], t)
            results.append(state)
        for k in results[0].params:
            assert np.array_equal(results[0].params[k], results[1].params[k])


class TestWidthFamily:
    def test_rolling_window_union_covers_all_equally(self):
        # d=8 at rate .5 over rounds 0..7: every channel trained exactly 4x.
        ctx = make_ctx("fedrolex", "width", alternating)
        strategy = make_strategy("fedrolex", ctx)
        counts = np.zeros(8, dtype=int)
        from hetfed.extract import select_channels
        for t in range(8):
            counts[select_channels(8, 0.5, "rolling", t)] += 1
        assert np.all(counts == 4)

    def test_degeneracy_full_capacity_matches_fedavg(self):
        # All clients at rate 1.0: sheterofl, fjord(p=1), fedrolex produce
        # the same trajectory as plain FedAvg under shared seeds.
        trajectories = {}
        for sid in ("fedavg_full", "sheterofl", "fedrolex", "fjord"):
            fed = FederationConfig(fjord_fixed_p=1.0)
            ctx = make_ctx(sid, "width", largest, fed=fed)
            strategy = make_strategy(sid, ctx)
            state = strategy.initial_state()
            for t in (1, 2, 3, 4, 5):
                state, _ = strategy.run_round(state, [0, 1, 2], t)
            trajectories[sid] = state
        reference = trajectories["fedavg_full"]
        for sid in ("sheterofl", "fedrolex", "fjord"):
            for k in reference.params:
                diff = np.abs(trajectories[sid].params[k] - reference.params[k]).max()
                assert diff < 1e-9, f"{sid} diverges from fedavg_full at {k}: {diff}"

    def test_mixed_width_updates_only_selected_channels(self):
        ctx = make_ctx("sheterofl", "width", lambda pool, cid: pool.variants[1])  # rate .5
        strategy = make_strategy("sheterofl", ctx)
        state = strategy.initial_state()
        before = {k: v.copy() for k, v in state.params.items()}
        state, _ = strategy.run_round(state, [0, 1], 1)
        w = state.params["block1.w"]
        assert np.array_equal(w[4:, 4:], before["block1.w"][4:, 4:])  # untouched tail
        assert not np.array_equal(w[:4, :4], before["block1.w"][:4, :4])

    def test_fjord_step_rates_stay_within_client_ladder(self):
        fed = FederationConfig()
        ctx = make_ctx("fjord", "width", lambda pool, cid: pool.variants[1], fed=fed)
        strategy = make_strategy("fjord", ctx)
        ks = strategy._allowed_channels(0.5)
        assert ks == [4]  # ladder (1.0, .5) restricted to rates <= .5
        ctx_full = make_ctx("fjord", "width", largest, fed=fed)
        strategy_full = make_strategy("fjord", ctx_full)
        assert strategy_full._allowed_channels(1.0) == [4, 8]

    def test_client_eval_model_uses_assigned_rate(self):
        ctx = make_ctx("sheterofl", "width", alternating)
        strategy = make_strategy("sheterofl", ctx)
        state = strategy.initial_state()
        sub = strategy.client_eval_model(state, 1, 1)
        assert sub.spec.hidden_dim == 4


class TestDepthFamily:
    def test_depthfl_head_locality(self):
        # Sampling only depth-1 clients must leave deeper heads and blocks
        # untouched.
        pool_cfg = PoolConfig(rates=(1.0, 0.5), depths=(3, 1))
        ctx = make_ctx("depthfl", "depth", alternating, pool_cfg=pool_cfg)
        strategy = make_strategy("depthfl", ctx)
        state = strategy.initial_state()
        assert state.head_blocks == (1, 2, 3)
        before = {k: v.copy() for k, v in state.params.items()}
        state, _ = strategy.run_round(state, [1, 3], 1)  # both hold depth 1
        assert np.array_equal(state.params["block2.w"], before["block2.w"])
        assert np.array_equal(state.params["block3.w"], before["block3.w"])
        assert np.array_equal(state.params["head2.fc.w"], before["head2.fc.w"])
        assert np.array_equal(state.params["head3.fc.w"], before["head3.fc.w"])
        assert not np.array_equal(state.params["head1.fc.w"], before["head1.fc.w"])
        assert not np.array_equal(state.params["block1.w"], before["block1.w"])

    def test_inclusivefl_global_heads_per_ladder_depth(self):
        pool_cfg = PoolConfig(rates=(1.0,), depths=(3, 2, 1))
        ctx = make_ctx("inclusivefl", "depth", alternating, pool_cfg=pool_cfg)
        strategy = make_strategy("inclusivefl", ctx)
        state = strategy.initial_state()
        assert state.head_blocks == (1, 2, 3)

    def test_inclusivefl_same_depth_head_ownership(self):
        pool_cfg = PoolConfig(rates=(1.0,), depths=(3, 1))
        ctx = make_ctx("inclusivefl", "depth", alternating, pool_cfg=pool_cfg)
        strategy = make_strategy("inclusivefl", ctx)
        state = strategy.initial_state()
        before = {k: v.copy() for k, v in state.params.items()}
        # clients 1 and 3 hold depth 1: only head1 (and the shared prefix
        # block1/stem) move; head3 belongs to depth-3 holders.
        state, _ = strategy.run_round(state, [1, 3], 1)
        assert not np.array_equal(state.params["head1.fc.w"], before["head1.fc.w"])
        assert np.array_equal(state.params["head3.fc.w"], before["head3.fc.w"])
        assert np.array_equal(state.params["block2.w"], before["block2.w"])

    def test_fedepth_uploads_full_model(self):
        ctx = make_ctx("fedepth", "depth", largest)
        strategy = make_strategy("fedepth", ctx)
        state = strategy.initial_state()
        new_state, artifacts = strategy.run_round(state, [0], 1)
        expected = nn.parameter_count(SPEC)
        assert artifacts.payload_bytes[0] == 2 * expected * 8
        changed = sum(
            0 if np.array_equal(new_state.params[k], state.params[k]) else 1
            for k in state.params
        )
        assert changed == len(state.params)  # every segment trained

    def test_fedepth_respects_segment_memory(self):
        from hetfed.resources import fedepth_segments, segment_memory
        spec = BlockNetSpec(6, 8, 3, "plain", 3, 8)
        capacity = 0.8 * segment_memory(spec, 8, nn.parameter_count(spec))
        segs = fedepth_segments(spec, (3,), 8, capacity)
        assert len(segs) >= 2


class TestReferenceLoops:
    """FeDepth and FjORD move part of the model per step through
    `nn.sgd_update`; they must match the update written out inline, bit for
    bit, with momentum on and more than one local epoch."""

    SGD = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=2, momentum=0.5)

    def assert_rounds_match(self, strategy, reference_client, samples):
        state = reference = strategy.initial_state()
        for t, sampled in enumerate(samples, start=1):
            state, _ = strategy.run_round(state, sampled, t)
            reference = reference_round(strategy, reference, sampled, t, reference_client)
            for k in reference.params:
                assert np.array_equal(state.params[k], reference.params[k]), (t, k)

    def test_fedepth_matches_frozen_rest_loop(self):
        ctx = make_ctx("fedepth", "depth", largest)
        ctx.sgd = self.SGD
        full = segment_memory(SPEC, self.SGD.batch_size, nn.parameter_count(SPEC), (SPEC.num_blocks,))
        segment_counts = []
        for client, fraction in zip(ctx.clients, (0.75, 0.8, 1.0, 0.75)):
            client.profile = DeviceProfile(client.client_id, 1e9, 1e6, fraction * full)
            segment_counts.append(len(fedepth_segments(SPEC, (SPEC.num_blocks,), self.SGD.batch_size, fraction * full)))
        assert segment_counts == [3, 2, 1, 3]
        strategy = make_strategy("fedepth", ctx)
        self.assert_rounds_match(strategy, fedepth_reference_client, ([0, 1, 2, 3], [0, 1, 3]))

    @pytest.mark.parametrize("fixed_p", [None, 0.5])
    def test_fjord_matches_per_step_region_loop(self, fixed_p):
        ctx = make_ctx("fjord", "width", alternating, fed=FederationConfig(fjord_fixed_p=fixed_p))
        ctx.sgd = self.SGD
        strategy = make_strategy("fjord", ctx)
        assert strategy._allowed_channels(1.0) == [4, 8]  # per-step draws differ
        self.assert_rounds_match(strategy, fjord_reference_client, ([0, 1, 2, 3], [0, 1, 3]))


class TestTopologyFamily:
    def test_fedproto_exchanges_no_parameters(self):
        ctx = make_ctx("fedproto", "topology", alternating)
        strategy = make_strategy("fedproto", ctx)
        state = strategy.initial_state()
        assert strategy.global_eval_model(state) is None
        new_state, artifacts = strategy.run_round(state, [0, 1], 1)
        numbers = SPEC.num_classes * (SPEC.proto_dim + 1)
        assert artifacts.payload_bytes[0] == numbers * 8
        # unsampled clients' models never move
        for k in state.models[2].params:
            assert np.array_equal(new_state.models[2].params[k], state.models[2].params[k])
        assert new_state.proto_mask.any()

    def test_fedproto_prototype_merge_keeps_stale_classes(self):
        ctx = make_ctx("fedproto", "topology", alternating)
        strategy = make_strategy("fedproto", ctx)
        state = strategy.initial_state()
        state.proto_vectors[2] = 7.0
        state.proto_mask[2] = True
        # craft a round where class 2 never appears: clients 0/1 own rows
        # 0..59 of blob data, which include class 2, so instead verify the
        # merge rule directly.
        from hetfed.strategies import aggregate_prototypes
        uploads = [(np.zeros((3, SPEC.proto_dim)), np.array([4.0, 2.0, 0.0]))]
        agg_vec, agg_cnt = aggregate_prototypes(uploads)
        fresh = agg_cnt > 0
        merged = np.where(fresh[:, None], agg_vec, state.proto_vectors)
        assert np.allclose(merged[2], 7.0)

    def test_fedproto_heterogeneous_architectures(self):
        ctx = make_ctx("fedproto", "topology", alternating)
        strategy = make_strategy("fedproto", ctx)
        state = strategy.initial_state()
        dims = {cid: m.spec.hidden_dim for cid, m in state.models.items()}
        assert dims[0] == 8 and dims[1] == 4  # family alternation

    def test_fedet_requires_public_split(self):
        ctx = make_ctx("fedet", "topology", alternating)
        ctx.public_features = None
        with pytest.raises(ValueError, match="public"):
            make_strategy("fedet", ctx)

    def test_fedet_round_moves_server_and_sampled_clients(self):
        ctx = make_ctx("fedet", "topology", alternating)
        strategy = make_strategy("fedet", ctx)
        state = strategy.initial_state()
        new_state, artifacts = strategy.run_round(state, [0, 1], 1)
        assert any(
            not np.array_equal(new_state.server_model.params[k], state.server_model.params[k])
            for k in state.server_model.params
        )
        for k in state.models[3].params:
            assert np.array_equal(new_state.models[3].params[k], state.models[3].params[k])
        assert artifacts.payload_bytes[0] == 2 * 8 * sum(
            v.size for v in new_state.models[0].params.values()
        )

    def test_fedet_global_eval_is_server_model(self):
        ctx = make_ctx("fedet", "topology", alternating)
        strategy = make_strategy("fedet", ctx)
        state = strategy.initial_state()
        assert strategy.global_eval_model(state) is state.server_model


class TestDeterminism:
    @pytest.mark.parametrize("strategy_id,level", [
        ("sheterofl", "width"), ("fjord", "width"), ("depthfl", "depth"),
        ("fedproto", "topology"), ("fedet", "topology"),
    ])
    def test_round_is_deterministic(self, strategy_id, level):
        def run():
            ctx = make_ctx(strategy_id, level, alternating)
            strategy = make_strategy(strategy_id, ctx)
            state = strategy.initial_state()
            for t in (1, 2):
                state, _ = strategy.run_round(state, [0, 1], t)
            return state

        a, b = run(), run()
        if strategy_id in ("fedproto", "fedet"):
            models_a = a.models if strategy_id == "fedproto" else a.models
            models_b = b.models if strategy_id == "fedproto" else b.models
            for cid in models_a:
                for k in models_a[cid].params:
                    assert np.array_equal(models_a[cid].params[k], models_b[cid].params[k])
        else:
            for k in a.params:
                assert np.array_equal(a.params[k], b.params[k])
