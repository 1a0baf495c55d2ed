import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hetfed import nn, seeding, strategies
from hetfed.datasets import gen_synthetic
from hetfed.extract import extract_depth, full_map, select_channels
from hetfed.metrics import model_accuracy
from hetfed.nn import BlockNetSpec, SGDConfig
from hetfed.resources import DeviceProfile, PoolConfig, build_pool, fedepth_segments, payload_bytes, training_memory
from hetfed.strategies import (
    ClientState,
    DivergenceError,
    FederationConfig,
    FederationContext,
    aggregate_prototypes,
    consensus_logits,
    compute_prototypes,
    make_strategy,
    sample_clients,
)

from oracles import (
    copy_model,
    depth_entries,
    fedepth_reference_client,
    fedepth_segment_keys,
    fjord_reference_client,
    fjord_widths,
    model_from_params,
    reference_extract,
    reference_round,
    reference_train_local,
    width_entries,
)

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
        pool=pool,
        clients=clients,
        train_features=ds.features,
        train_labels=ds.labels,
        public_features=ds.features[:16].copy(),
        sgd=SGDConfig(learning_rate=lr, batch_size=8, local_epochs=1),
        fed=fed or FederationConfig(),
        repeat_seed=seeding.mix_seed(999, seed),
    )


def width_reference_client(strategy, global_model, client_id: int, round_index: int):
    """A SHeteroFL or FedRolex client alone: its extracted sub-model
    trained by the per-parameter loop, and its map."""
    ctx = strategy.ctx
    sub, smap = strategy._extract(global_model, ctx.clients[client_id], round_index)
    rng = ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
    return reference_train_local(sub, *ctx.client_data(client_id), ctx.sgd, nn.LossSpec(), rng).params, smap


def whole_model_reference_client(strategy, global_model, client_id: int, round_index: int):
    """A FedAvg client alone: the whole global model trained by the
    per-parameter loop, and the identity map."""
    ctx = strategy.ctx
    rng = ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
    trained = reference_train_local(global_model, *ctx.client_data(client_id), ctx.sgd, nn.LossSpec(), rng)
    return trained.params, full_map(global_model)


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
        model = nn.init_model(SPEC, np.random.default_rng(0), (SPEC.num_blocks,))
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

    def test_weights_are_the_max_softmax_bits(self):
        # The weight is 1 / sum(exp(z - max z)); written with the softmax it
        # must give the same bits, on random, tied and rounded logits.
        def reference(logit_sets):
            num, den = np.zeros(logit_sets[0].shape), np.zeros(logit_sets[0].shape[0])
            for logits in logit_sets:
                w = nn.softmax(logits).max(axis=1)
                num += w[:, None] * logits
                den += w
            return num / den[:, None]

        rng = np.random.default_rng(23)
        for trial in range(60):
            sets = [rng.normal(scale=3.0, size=(200, 5)) for _ in range(3)]
            if trial % 3 == 1:
                sets = [np.round(z) for z in sets]  # many ties
            elif trial % 3 == 2:
                sets[0][:, 1:] = sets[0][:, :1]     # every entry tied
            assert consensus_logits(sets).tobytes() == reference(sets).tobytes(), trial


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
        new_state, uploads = strategy.run_round(state, [0, 2], 1)
        for k in snapshot:
            assert np.allclose(new_state.params[k], snapshot[k], atol=1e-12)
        assert set(uploads) == {0, 2}

    def test_empty_sample_set_rejected(self):
        ctx = make_ctx("sheterofl", "width", largest)
        strategy = make_strategy("sheterofl", ctx)
        with pytest.raises(ValueError):
            strategy.run_round(strategy.initial_state(), [], 1)

    def test_unknown_strategy_rejected(self):
        ctx = make_ctx("sheterofl", "width", largest)
        with pytest.raises(ValueError):
            make_strategy("fedmagic", ctx)

class TestLockstepGroups:
    """A round trained in lockstep groups equals the same round with every
    client trained alone (a group of one), bit for bit on every vector."""

    SGD = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=2, momentum=0.5)
    POOL = PoolConfig(rates=(1.0, 0.5), depths=(3, 1), family=((8, 3, "plain"), (4, 2, "plain")))
    SAMPLES = ([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 4, 5, 7], [1, 2, 3, 6, 7])  # rounds 5-7
    # Uneven client sizes, as a Dirichlet partition gives: groups split by
    # sample count and some clients train alone.
    UNEVEN = (12, 12, 9, 15, 12, 9, 15, 12)
    CASES = [
        ("sheterofl", "width", None), ("fedrolex", "width", None),
        ("fjord", "width", None), ("fjord", "width", 0.5),
        ("depthfl", "depth", None), ("inclusivefl", "depth", None), ("fedepth", "depth", None),
        ("fedproto", "topology", None), ("fedet", "topology", None),
        ("fedavg_full", "width", None), ("fedavg_smallest", "width", None),
    ]

    @staticmethod
    def vectors(state) -> list[np.ndarray]:
        if isinstance(state, nn.BlockNetModel):
            return [state.vector]
        found = [m.vector for _, m in sorted(state.models.items())]
        if hasattr(state, "server_model"):
            found.append(state.server_model.vector)
        if hasattr(state, "proto_vectors"):
            found += [state.proto_vectors, state.proto_mask]
        return found

    def run(self, strategy_id, level, fixed_p, sizes, group_sizes, alone):
        ctx = make_ctx(strategy_id, level, alternating, num_clients=8, pool_cfg=self.POOL,
                       fed=FederationConfig(fjord_fixed_p=fixed_p))
        ctx.sgd = self.SGD
        if sizes is not None:
            starts = np.cumsum((0,) + sizes)
            for client, start, size in zip(ctx.clients, starts, sizes):
                client.data_indices = np.arange(start, start + size)
        if strategy_id == "fedepth":
            full = training_memory(SPEC, (SPEC.num_blocks,), self.SGD.batch_size)
            for client, fraction in zip(ctx.clients, (0.75, 0.8, 1.0, 0.75) * 2):  # 3, 2, 1, 3 segments
                client.profile = DeviceProfile(client.client_id, 1e9, 1e6, fraction * full)
        grouping = strategies.lockstep_groups

        def groups(ordered, key):
            found = [(key(cid), [cid]) for cid in ordered] if alone else grouping(ordered, key)
            group_sizes.extend(len(cids) for _, cids in found)
            return found

        strategies.lockstep_groups = groups
        try:
            strategy = make_strategy(strategy_id, ctx)
            state = strategy.initial_state()
            for t, sampled in enumerate(self.SAMPLES, start=5):
                state, _ = strategy.run_round(state, sampled, t)
        finally:
            strategies.lockstep_groups = grouping
        return self.vectors(state)

    @pytest.mark.parametrize("sizes", [None, UNEVEN], ids=["equal", "uneven"])
    @pytest.mark.parametrize("strategy_id,level,fixed_p", CASES)
    def test_grouped_equals_alone(self, strategy_id, level, fixed_p, sizes):
        grouped_sizes, alone_sizes = [], []
        grouped = self.run(strategy_id, level, fixed_p, sizes, grouped_sizes, alone=False)
        alone = self.run(strategy_id, level, fixed_p, sizes, alone_sizes, alone=True)
        assert max(grouped_sizes) >= 2 and max(alone_sizes) == 1
        assert len(grouped) == len(alone)
        for a, b in zip(grouped, alone):
            assert np.array_equal(a, b)

    @staticmethod
    def counting(monkeypatch, module, name: str) -> list:
        """Record one entry per call of `module.name`."""
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def width_round(self, monkeypatch, strategy_id, sizes):
        """Run round 5 over all 8 clients, of both rates; returns the
        strategy, the state it started from, the sample and the counts of
        `train_local` and `backward` calls the round made."""
        ctx = make_ctx(strategy_id, "width", alternating, num_clients=8, pool_cfg=self.POOL)
        ctx.sgd = self.SGD
        if sizes is not None:
            starts = np.cumsum((0,) + sizes)
            for client, start, size in zip(ctx.clients, starts, sizes):
                client.data_indices = np.arange(start, start + size)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        sampled = list(range(8))
        assert {ctx.clients[cid].variant.rate for cid in sampled} == {1.0, 0.5}
        trains = self.counting(monkeypatch, strategies, "train_local")
        walks = self.counting(monkeypatch, nn, "backward")
        strategy.run_round(state, sampled, 5)
        monkeypatch.undo()
        return strategy, state, sampled, len(trains), len(walks)

    def steps(self, ctx, sampled) -> int:
        """The steps of one stack per sample count: one walk each."""
        counts = {ctx.clients[cid].num_samples for cid in sampled}
        return sum(-(-n // self.SGD.batch_size) * self.SGD.local_epochs for n in counts)

    @staticmethod
    def assert_zero_off_map(trained, smap) -> None:
        """Every coordinate of a trained row off its map is exactly +0.0:
        the round adds the whole row into its sums."""
        off = np.ones(trained.vector.size, dtype=bool)
        off[smap.index] = False
        values = trained.vector[off]
        assert np.all(values == 0.0) and not np.signbit(values).any()

    @pytest.mark.parametrize("sizes,stacks", [(None, 1), (UNEVEN, 3)], ids=["equal", "uneven"])
    def test_fjord_round_is_one_stack_per_sample_count(self, monkeypatch, sizes, stacks):
        # Whatever widths the clients draw, each step is one walk. The 9-row
        # clients end each pass on one row at widths 4 and 8, prefixes whose
        # one-row sums padding leaves bit-equal with the BLAS these tests
        # were written on; other widths agree to rounding only (see `nn`).
        strategy, state, sampled, trains, walks = self.width_round(monkeypatch, "fjord", sizes)
        ctx, t = strategy.ctx, 5
        assert trains == stacks
        assert walks == self.steps(ctx, sampled)

        for key, cids in strategies.lockstep_groups(sampled, strategy._group_key):
            together = strategy._train_group(state, key, cids, t)
            assert len(together) == len(cids)
            for cid, (trained, smap) in zip(cids, together):
                (alone, alone_map), = strategy._train_group(state, key, [cid], t)
                reference, reference_map = fjord_reference_client(strategy, state, cid, t)
                upload = trained.vector.take(smap.index)
                assert np.array_equal(upload, alone.vector.take(alone_map.index))
                assert np.array_equal(upload, reference.vector)
                self.assert_zero_off_map(trained, smap)
                for found in (alone_map, reference_map):
                    assert (smap.spec, smap.head_set) == (found.spec, found.head_set)
                    assert np.array_equal(smap.index, found.index)

    @pytest.mark.parametrize("sizes,stacks", [(None, 1), (UNEVEN, 3)], ids=["equal", "uneven"])
    @pytest.mark.parametrize("strategy_id", ["sheterofl", "fedrolex"])
    def test_width_round_is_one_stack_per_sample_count(self, monkeypatch, strategy_id, sizes, stacks):
        # Clients of both widths train zero-padded in one stack per sample
        # count, one walk per step.
        strategy, state, sampled, trains, walks = self.width_round(monkeypatch, strategy_id, sizes)
        ctx, t = strategy.ctx, 5
        assert trains == stacks
        assert walks == self.steps(ctx, sampled)

        for key, cids in strategies.lockstep_groups(sampled, strategy._group_key):
            assert len({ctx.clients[cid].variant.rate for cid in cids}) == 2
            together = strategy._train_group(state, key, cids, t)
            assert len(together) == len(cids)
            for cid, (trained, smap) in zip(cids, together):
                (alone, alone_map), = strategy._train_group(state, key, [cid], t)
                reference, reference_map = width_reference_client(strategy, state, cid, t)
                upload = trained.vector.take(smap.index)
                assert np.array_equal(upload, alone.vector.take(alone_map.index))
                # A pass that ends on one row takes the matrix-vector
                # kernel there, where the padded walk matches the sliced
                # sub-model to rounding only (see `nn`).
                if ctx.clients[cid].num_samples % self.SGD.batch_size == 1:
                    assert np.allclose(upload, reference.vector, rtol=1e-10, atol=1e-12), cid
                else:
                    assert np.array_equal(upload, reference.vector), cid
                self.assert_zero_off_map(trained, smap)
                assert (smap.spec, smap.head_set) == (alone_map.spec, alone_map.head_set) == (
                    reference_map.spec, reference_map.head_set)
                assert np.array_equal(smap.index, alone_map.index)
                assert np.array_equal(smap.index, reference_map.index)

    def test_clients_split_by_key_in_id_order(self):
        keys = {0: "a", 1: "b", 2: "a", 3: "c", 4: "b"}
        assert strategies.lockstep_groups([0, 1, 2, 3, 4], keys.get) == [
            ("a", [0, 2]), ("b", [1, 4]), ("c", [3]),
        ]


class TestFjordDraws:
    """FjORD draws a client's widths for a whole pass at once, as
    `ladder[integers(0, len(ladder), size=steps)]`; that must be the draws,
    and leave the generator in the state, of one `choice(ladder,
    size=steps)` and of `steps` single `choice` calls."""

    @pytest.mark.parametrize("ladder", [[8], [4, 8], [2, 5, 8], [1, 3, 6, 8]])
    def test_one_choice_per_pass_equals_one_per_step(self, ladder):
        for seed in range(40):
            for steps in (1, 2, 3, 5, 8, 37):
                at_once = seeding.rng_from(seed, seeding.TAG_CLIENT, 3, 7, seeding.LANE_RATE)
                indexed = seeding.rng_from(seed, seeding.TAG_CLIENT, 3, 7, seeding.LANE_RATE)
                one_by_one = seeding.rng_from(seed, seeding.TAG_CLIENT, 3, 7, seeding.LANE_RATE)
                drawn = at_once.choice(ladder, size=steps)
                assert drawn.tolist() == [int(one_by_one.choice(ladder)) for _ in range(steps)], (seed, steps)
                assert at_once.bit_generator.state == one_by_one.bit_generator.state, (seed, steps)
                by_position = np.array(ladder)[indexed.integers(0, len(ladder), size=steps)]
                assert by_position.tolist() == drawn.tolist(), (seed, steps)
                assert indexed.bit_generator.state == one_by_one.bit_generator.state, (seed, steps)


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("strategy_id,level", [
        ("sheterofl", "width"), ("fedrolex", "width"), ("fjord", "width"), ("fedepth", "depth"),
        ("fedproto", "topology"), ("fedet", "topology"),
    ])
    def test_huge_learning_rate_raises(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, alternating, lr=1e30)
        strategy = make_strategy(strategy_id, ctx)
        pattern = rf"^{strategy_id}: round 3: client [0-3] diverged; parameter \S+ is not finite$"
        with pytest.raises(DivergenceError, match=pattern):
            strategy.run_round(strategy.initial_state(), [0, 1, 2, 3], 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("strategy_id", ["sheterofl", "fedrolex", "fjord"])
    def test_width_client_names_the_parameter_its_sub_model_shows(self, strategy_id):
        # The message names the first non-finite parameter of the client's
        # extracted sub-model trained alone, at either rate.
        ctx = make_ctx(strategy_id, "width", alternating, lr=1e30)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        reference_client = fjord_reference_client if strategy_id == "fjord" else width_reference_client
        for cid in (0, 1):
            alone, smap = reference_client(strategy, state, cid, 3)
            name = smap.layout.key_at(np.flatnonzero(~np.isfinite(alone.vector))[0])
            pattern = rf"^{strategy_id}: round 3: client {cid} diverged; parameter {re.escape(name)} is not finite$"
            with pytest.raises(DivergenceError, match=pattern):
                strategy.run_round(state, [cid], 3)

    @pytest.mark.parametrize("strategy_id", ["sheterofl", "fedrolex", "fjord"])
    def test_width_client_check_reads_only_its_upload(self, monkeypatch, strategy_id):
        # A padded row can hold 0 * inf = NaN off the client's map; that
        # coordinate is not uploaded and must not be the one named. Rows
        # come back with a NaN off the map in stem.w and an inf on it in
        # block2.w: the message names block2.w.
        ctx = make_ctx(strategy_id, "width", alternating)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        smap = strategy._extract(state, ctx.clients[1], 3)[1]  # rate .5
        slots = nn.param_layout(state.spec, state.head_blocks).slots
        on_map = np.zeros(state.vector.size, dtype=bool)
        on_map[smap.index] = True
        stem_off = np.flatnonzero(~on_map[:slots["stem.w"][1]])[0]
        block_on = slots["block2.w"][0] + np.flatnonzero(on_map[slice(*slots["block2.w"][:2])])[0]
        train_local = strategies.train_local

        def broken(*args, **kwargs):
            models = train_local(*args, **kwargs)
            for model in models:
                model.vector[stem_off], model.vector[block_on] = np.nan, np.inf
            return models

        monkeypatch.setattr(strategies, "train_local", broken)
        pattern = rf"^{strategy_id}: round 3: client 1 diverged; parameter block2\.w is not finite$"
        with pytest.raises(DivergenceError, match=pattern):
            strategy.run_round(state, [1], 3)

    @pytest.mark.parametrize("strategy_id", ["sheterofl", "fedrolex", "fjord"])
    def test_off_map_non_finite_value_is_never_silent(self, monkeypatch, strategy_id):
        # The client check reads only the map, but the round adds whole
        # rows: a NaN off client 1's map reaches that coordinate's sum.
        # Where another sampled client covers the coordinate, the aggregate
        # there is NaN and the round raises; where none does, the
        # coordinate keeps its previous value.
        ctx = make_ctx(strategy_id, "width", alternating)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        layout = nn.param_layout(state.spec, state.head_blocks)
        smap = strategy._extract(state, ctx.clients[1], 3)[1]  # rate .5
        on_map = np.zeros(state.vector.size, dtype=bool)
        on_map[smap.index] = True
        off = np.flatnonzero(~on_map)[0]
        planted = ctx.clients[1].data_indices
        train_local = strategies.train_local

        def broken(models, features, targets, config, loss, rngs, rows=None, moves=None):
            trained = train_local(models, features, targets, config, loss, rngs, rows, moves)
            for model, own in zip(trained, rows):
                if np.array_equal(own, planted):
                    model.vector[off] = np.nan
            return trained

        monkeypatch.setattr(strategies, "train_local", broken)
        assert ctx.clients[0].variant.rate == 1.0  # client 0 covers every coordinate
        name = re.escape(layout.key_at(off))
        pattern = rf"^{strategy_id}: round 3: the aggregate diverged; parameter {name} is not finite$"
        with pytest.raises(DivergenceError, match=pattern):
            strategy.run_round(state, [0, 1], 3)
        # Client 3 holds client 1's sub-model: nothing sampled covers `off`.
        assert np.array_equal(strategy._extract(state, ctx.clients[3], 3)[1].index, smap.index)
        new_state, _ = strategy.run_round(state, [1, 3], 3)
        assert new_state.vector[off] == state.vector[off]
        assert np.isfinite(new_state.vector).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("strategy_id,level", [
        ("sheterofl", "width"), ("depthfl", "depth"), ("fedepth", "depth"),
    ])
    def test_overflowing_aggregate_raises(self, strategy_id, level):
        # Head biases near the float64 maximum train and upload finite, but
        # the sample-count weighted sum of the uploads overflows.
        ctx = make_ctx(strategy_id, level, alternating)
        strategy = make_strategy(strategy_id, ctx)
        # State models are read-only; the round starts from a writable copy.
        state = copy_model(strategy.initial_state())
        for j in state.head_blocks:
            state.params[f"head{j}.fc.b"][:] = 1e308
        pattern = rf"^{strategy_id}: round 3: the aggregate diverged; parameter head\d\.fc\.b is not finite$"
        with pytest.raises(DivergenceError, match=pattern):
            strategy.run_round(state, [0, 1, 2, 3], 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_overflowing_prototype_aggregate_raises(self, monkeypatch):
        ctx = make_ctx("fedproto", "topology", alternating)
        strategy = make_strategy("fedproto", ctx)
        dim = ctx.pool.largest.spec.proto_dim

        def huge_prototypes(model, features, labels, num_classes):
            return np.full((num_classes, dim), 1e308), np.full(num_classes, 2.0)

        monkeypatch.setattr(strategies, "compute_prototypes", huge_prototypes)
        pattern = r"^fedproto: round 3: the aggregate diverged; parameter prototype\[0\] is not finite$"
        with pytest.raises(DivergenceError, match=pattern):
            strategy.run_round(strategy.initial_state(), [0, 1], 3)


def scored_logits(target, x):
    """The logits a client's eval target scores it by."""
    return nn.forward(target.model, x).logits[target.head]


class TestEvalModels:
    """Every client of a variant is scored on one target per (state, eval
    round). A width client's is its sub-model, as a fresh per-parameter
    extraction gives it; a depth client's is the global state at its
    variant's deepest head, which scores exactly as that sub-model."""

    CASES = [
        ("sheterofl", "width"), ("fedrolex", "width"), ("fjord", "width"),
        ("depthfl", "depth"), ("inclusivefl", "depth"),
    ]

    @staticmethod
    def reference(strategy_id, level, state, variant, round_index):
        spec = state.spec
        if level == "width":
            mode = "rolling" if strategy_id == "fedrolex" else "static_prefix"
            channels = select_channels(spec.hidden_dim, math.ceil(variant.rate * spec.hidden_dim), mode, round_index)
            entries = width_entries(spec, state.head_blocks, channels)
            sub_spec, heads = replace(spec, hidden_dim=channels.size), state.head_blocks
        else:
            # DepthFL keeps every head within the prefix, InclusiveFL the one
            # at its last block.
            depth = variant.depth
            heads = tuple(range(1, depth + 1)) if strategy_id == "depthfl" else (depth,)
            entries = depth_entries(state, depth, heads)
            sub_spec = replace(spec, num_blocks=depth)
        return model_from_params(sub_spec, heads, reference_extract(state, entries))

    @classmethod
    def assert_scores_like_reference(cls, strategy_id, level, state, target, variant, round_index, x, y):
        """`target` is the variant's sub-model (width) or the state at the
        variant's deepest head (depth), and scores like the reference
        extraction: logits bit for bit, predictions and accuracy exactly."""
        reference = cls.reference(strategy_id, level, state, variant, round_index)
        assert (reference.spec, reference.head_blocks) == (variant.spec, variant.head_blocks)
        if level == "width":
            assert (target.model.spec, target.model.head_blocks) == (variant.spec, variant.head_blocks)
            assert np.array_equal(target.model.vector, reference.vector)
        else:
            assert target.model is state
        assert target.head == reference.final_head == variant.head_blocks[-1]
        assert scored_logits(target, x).tobytes() == nn.forward(reference, x).logits[target.head].tobytes()
        assert np.array_equal(nn.predict(target.model, x, target.head), nn.predict(reference, x))
        assert model_accuracy(target.model, x, y, target.head) == model_accuracy(reference, x, y)

    @pytest.mark.parametrize("strategy_id,level", CASES)
    def test_clients_of_a_variant_share_one_model(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, alternating, num_clients=6)
        strategy = make_strategy(strategy_id, ctx)
        state, _ = strategy.run_round(strategy.initial_state(), [0, 1, 2], 1)
        targets = {cid: strategy.client_eval_model(state, cid, 2) for cid in range(6)}
        ids = {}
        for cid, target in targets.items():
            ids.setdefault(ctx.clients[cid].variant.variant_id, set()).add(id(target))
        assert len(ids) == 2 and all(len(found) == 1 for found in ids.values())
        assert len({id(target) for target in targets.values()}) == 2
        # A depth strategy scores both variants on the one state model.
        models = {id(target.model) for target in targets.values()}
        if level == "depth":
            assert models == {id(state)}
        else:
            assert len(models) == 2
        x, y = ctx.train_features, ctx.train_labels
        for cid, target in targets.items():
            self.assert_scores_like_reference(strategy_id, level, state, target, ctx.clients[cid].variant, 2, x, y)

    @pytest.mark.parametrize("strategy_id,level", CASES)
    def test_new_state_or_round_gives_fresh_models(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, alternating)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        first = strategy.client_eval_model(state, 1, 2)
        assert strategy.client_eval_model(state, 3, 2) is first
        copy = copy_model(state)
        fresh = strategy.client_eval_model(copy, 3, 2)
        assert fresh is not first and fresh.model is not first.model and fresh.head == first.head
        assert np.array_equal(fresh.model.vector, first.model.vector)
        later = strategy.client_eval_model(copy, 3, 3)
        assert later is not fresh
        # Only FedRolex's window moves with the round.
        assert np.array_equal(later.model.vector, fresh.model.vector) == (strategy_id != "fedrolex")
        x, y = ctx.train_features, ctx.train_labels
        self.assert_scores_like_reference(strategy_id, level, copy, later, ctx.clients[3].variant, 3, x, y)

    @pytest.mark.parametrize("strategy_id,level", CASES)
    def test_shared_models_are_read_only(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, alternating)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        target = strategy.client_eval_model(state, 0, 2)
        model = target.model
        x = ctx.train_features
        before = nn.predict(model, x, target.head)
        with pytest.raises(ValueError, match="read-only"):
            model.vector[0] = 1e3
        with pytest.raises(ValueError, match="read-only"):
            model.params["stem.w"][...] = 0.0
        assert strategy.client_eval_model(state, 0, 2) is target
        assert np.array_equal(nn.predict(model, x, target.head), before)

    @pytest.mark.parametrize("strategy_id", ["depthfl", "inclusivefl"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_depth_clients_score_as_their_extracted_sub_model(self, strategy_id, frozen):
        # Three depths, a few trained rounds: every client's accuracy from
        # its eval target equals that of its `extract_depth` sub-model, on
        # read-only features (one memoized walk) and on writable ones.
        pool_cfg = PoolConfig(rates=(1.0,), depths=(3, 2, 1))
        ctx = make_ctx(strategy_id, "depth", alternating, num_clients=6, pool_cfg=pool_cfg)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        for t in (1, 2, 3):
            state, _ = strategy.run_round(state, [0, 1, 2, 3, 4, 5], t)
        x = gen_synthetic("blobs", 90, SPEC.input_dim, SPEC.num_classes, 0.4, seed=5)
        features, labels = x.features, x.labels
        if frozen:
            features.setflags(write=False)
        accuracies = set()
        for client in ctx.clients:
            target = strategy.client_eval_model(state, client.client_id, 4)
            variant = client.variant
            sub, _ = extract_depth(state, variant.spec.num_blocks, variant.head_blocks)
            got = model_accuracy(target.model, features, labels, target.head)
            assert got == model_accuracy(sub, features, labels)
            accuracies.add((variant.depth, got))
        assert {depth for depth, _ in accuracies} == {1, 2, 3}

    @pytest.mark.parametrize("strategy_id,level", [
        ("fedavg_full", "width"), ("fedavg_smallest", "width"), ("fedepth", "depth"),
    ])
    def test_full_model_strategies_score_every_client_on_the_state(self, strategy_id, level):
        ctx = make_ctx(strategy_id, level, alternating)
        strategy = make_strategy(strategy_id, ctx)
        state, _ = strategy.run_round(strategy.initial_state(), [0, 1, 2], 1)
        targets = [strategy.client_eval_model(state, cid, 2) for cid in range(len(ctx.clients))]
        assert all(target.model is state and target.head == state.final_head for target in targets)

    @pytest.mark.parametrize("strategy_id", ["fedproto", "fedet"])
    def test_private_model_strategies_score_each_client_on_its_own_model(self, strategy_id):
        ctx = make_ctx(strategy_id, "topology", alternating)
        strategy = make_strategy(strategy_id, ctx)
        state, _ = strategy.run_round(strategy.initial_state(), [0, 1, 2], 1)
        for cid in range(len(ctx.clients)):
            target = strategy.client_eval_model(state, cid, 2)
            assert target.model is state.models[cid] and target.head == target.model.final_head


class TestStateModels:
    """Every model a strategy keeps in its state, and every model a client
    is scored on, is read-only, so `nn.predict` may remember its test-set
    predictions."""

    LEVELS = {
        "sheterofl": "width", "fedrolex": "width", "fjord": "width",
        "depthfl": "depth", "inclusivefl": "depth", "fedepth": "depth",
        "fedproto": "topology", "fedet": "topology",
        "fedavg_full": "width", "fedavg_smallest": "width",
    }

    @staticmethod
    def models(state) -> list:
        if isinstance(state, nn.BlockNetModel):
            return [state]
        server = [state.server_model] if hasattr(state, "server_model") else []
        return server + [m for _, m in sorted(state.models.items())]

    @pytest.mark.parametrize("strategy_id", sorted(strategies.STRATEGY_CLASSES))
    def test_state_models_are_read_only(self, strategy_id):
        ctx = make_ctx(strategy_id, self.LEVELS[strategy_id], alternating)
        strategy = make_strategy(strategy_id, ctx)
        initial = strategy.initial_state()
        later, _ = strategy.run_round(initial, [0, 1, 2], 1)
        for state in (initial, later):
            targets = [strategy.client_eval_model(state, cid, 2) for cid in range(len(ctx.clients))]
            assert all(target.head in target.model.head_blocks for target in targets)
            for model in self.models(state) + [target.model for target in targets]:
                assert not model.vector.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    model.vector[0] = 1e3
                with pytest.raises(ValueError, match="read-only"):
                    model.params["stem.b"][...] = 0.0


class TestWidthFamily:
    def test_rolling_window_union_covers_all_equally(self):
        # d=8 at rate .5 over rounds 0..7: every channel trained exactly 4x.
        ctx = make_ctx("fedrolex", "width", alternating)
        strategy = make_strategy("fedrolex", ctx)
        counts = np.zeros(8, dtype=int)
        for t in range(8):
            counts[select_channels(8, 4, "rolling", t)] += 1
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
        half = ctx.pool.variants[1]
        # ladder (8, 4) restricted to the rate-.5 client's width 4
        assert strategy._widths(half.spec.hidden_dim) == fjord_widths(ctx.pool, half.rate) == [4]
        ctx_full = make_ctx("fjord", "width", largest, fed=fed)
        strategy_full = make_strategy("fjord", ctx_full)
        assert strategy_full._widths(ctx_full.pool.largest.spec.hidden_dim) == fjord_widths(ctx_full.pool, 1.0) == [4, 8]

    def test_fjord_pool_rejects_two_rates_of_one_width(self):
        # Rates .25 and .2 of 16 both give width 4. A ladder holding 4 twice
        # would draw it with odds 2/3, not 1/2; the pool refuses it at load.
        spec = BlockNetSpec(input_dim=6, hidden_dim=16, num_blocks=3, block_kind="plain",
                            num_classes=3, proto_dim=8)
        with pytest.raises(ValueError, match=r"^pool\.rates: .* w25 \(hidden_dim 4.* w20 \(hidden_dim 4.* collide$"):
            build_pool("fjord", "width", spec, PoolConfig(rates=(1.0, 0.25, 0.2), depths=(3,)), batch_size=8)

    def test_client_eval_model_uses_assigned_rate(self):
        ctx = make_ctx("sheterofl", "width", alternating)
        strategy = make_strategy("sheterofl", ctx)
        state = strategy.initial_state()
        target = strategy.client_eval_model(state, 1, 1)
        assert target.model.spec.hidden_dim == 4 and target.head == target.model.final_head


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
        new_state, uploads = strategy.run_round(state, [0], 1)
        params = nn.parameter_count(SPEC, (SPEC.num_blocks,))
        assert uploads == {0: params}
        assert payload_bytes("fedepth", uploads[0]) == 2 * params * 8
        changed = sum(
            0 if np.array_equal(new_state.params[k], state.params[k]) else 1
            for k in state.params
        )
        assert changed == len(state.params)  # every segment trained

    def test_fedepth_respects_segment_memory(self):
        spec = BlockNetSpec(6, 8, 3, "plain", 3, 8)
        capacity = 0.8 * training_memory(spec, (3,), 8)
        segs = fedepth_segments(spec, (3,), 8, capacity)
        assert len(segs) >= 2


def compositions(n: int):
    """Every split of blocks 1..n into consecutive segments."""
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [list(range(1, first + 1))] + [[b + first for b in seg] for seg in rest]


class TestFedepthSegments:
    @pytest.mark.parametrize("kind", ["plain", "skip", "bottleneck"])
    def test_every_segmentation_is_one_contiguous_slice(self, kind):
        for blocks in range(1, 6):
            spec = BlockNetSpec(6, 8, blocks, kind, 3, 8)
            for heads in ((blocks,), tuple(range(1, blocks + 1))):
                model = nn.init_model(spec, np.random.default_rng(0), heads)
                slots = nn.param_layout(spec, heads).slots
                for segments in compositions(blocks):
                    covered = []
                    for seg in segments:
                        part = nn.segment_slice(spec, heads, seg)
                        coords = [c for key in fedepth_segment_keys(model, seg)
                                  for c in range(slots[key][0], slots[key][1])]
                        assert coords == list(range(part.start, part.stop)), (kind, heads, seg)
                        covered.extend(coords)
                    assert covered == list(range(nn.param_layout(spec, heads).size))


class TestReferenceLoops:
    """FeDepth and FjORD move part of the model per step through
    `nn.sgd_update`; they must match the update written out inline, bit for
    bit, with momentum on and more than one local epoch. The strategies
    that train in the global layout add each upload as a whole row, while
    `reference_round` scatters each client's sub-model through its map: the
    two must agree bit for bit."""

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
        full = training_memory(SPEC, (SPEC.num_blocks,), self.SGD.batch_size)
        segment_counts = []
        for client, fraction in zip(ctx.clients, (0.75, 0.8, 1.0, 0.75)):
            client.profile = DeviceProfile(client.client_id, 1e9, 1e6, fraction * full)
            segment_counts.append(len(fedepth_segments(SPEC, (SPEC.num_blocks,), self.SGD.batch_size, fraction * full)))
        assert segment_counts == [3, 2, 1, 3]
        strategy = make_strategy("fedepth", ctx)
        self.assert_rounds_match(strategy, fedepth_reference_client, ([0, 1, 2, 3], [0, 1, 3]))

    # At fixed_p = 1.0 every nested move of a full-width client is the
    # global model's own (spec, heads).
    @pytest.mark.parametrize("fixed_p", [None, 0.5, 1.0])
    def test_fjord_matches_per_step_region_loop(self, fixed_p):
        ctx = make_ctx("fjord", "width", alternating, fed=FederationConfig(fjord_fixed_p=fixed_p))
        ctx.sgd = self.SGD
        strategy = make_strategy("fjord", ctx)
        assert strategy._widths(8) == [4, 8]  # per-step draws differ
        self.assert_rounds_match(strategy, fjord_reference_client, ([0, 1, 2, 3], [0, 1, 3]))

    # 30 rows a client, batch 8: no pass ends on a one-row batch, where the
    # padded walk matches the sliced sub-model to rounding only (see `nn`).
    @pytest.mark.parametrize("strategy_id,picker,reference_client", [
        ("sheterofl", alternating, width_reference_client),
        ("fedrolex", alternating, width_reference_client),
        ("fedavg_full", largest, whole_model_reference_client),
    ], ids=["sheterofl", "fedrolex", "fedavg_full"])
    def test_row_add_matches_the_scatter_of_each_sub_model(self, strategy_id, picker, reference_client):
        ctx = make_ctx(strategy_id, "width", picker)
        ctx.sgd = self.SGD
        assert {c.num_samples % self.SGD.batch_size for c in ctx.clients} == {6}
        strategy = make_strategy(strategy_id, ctx)
        self.assert_rounds_match(strategy, reference_client, ([0, 1, 2, 3], [0, 1, 3]))


class TestTopologyFamily:
    def test_fedproto_exchanges_no_parameters(self):
        ctx = make_ctx("fedproto", "topology", alternating)
        strategy = make_strategy("fedproto", ctx)
        state = strategy.initial_state()
        new_state, uploads = strategy.run_round(state, [0, 1], 1)
        numbers = SPEC.num_classes * (SPEC.proto_dim + 1)
        assert uploads == {0: numbers, 1: numbers}
        assert payload_bytes("fedproto", uploads[0]) == numbers * 8
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

    def test_fedet_round_moves_server_and_sampled_clients(self):
        ctx = make_ctx("fedet", "topology", alternating)
        strategy = make_strategy("fedet", ctx)
        state = strategy.initial_state()
        new_state, uploads = strategy.run_round(state, [0, 1], 1)
        assert any(
            not np.array_equal(new_state.server_model.params[k], state.server_model.params[k])
            for k in state.server_model.params
        )
        for k in state.models[3].params:
            assert np.array_equal(new_state.models[3].params[k], state.models[3].params[k])
        assert uploads[0] == sum(v.size for v in new_state.models[0].params.values())
        assert payload_bytes("fedet", uploads[0]) == 2 * 8 * uploads[0]

    def test_fedet_round_matches_a_per_client_loop(self, monkeypatch):
        # Local training, server distillation and client distillation, each
        # written out with `reference_train_local`: the round trains in one
        # group per (architecture, sample count), one server stack and one
        # distillation group per architecture, and every vector is bit-equal.
        ctx = make_ctx("fedet", "topology", alternating, num_clients=6,
                       fed=FederationConfig(fedet_server_epochs=2, fedet_client_epochs=2))
        ctx.sgd = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=2, momentum=0.5)
        starts = np.cumsum((0, 20, 20, 15, 20, 15))
        for client, start, size in zip(ctx.clients, starts, (20, 20, 15, 20, 15, 20)):
            client.data_indices = np.arange(start, start + size)
        strategy = make_strategy("fedet", ctx)
        state = strategy.initial_state()
        sampled, t = [0, 1, 2, 3, 4], 3
        trains = TestLockstepGroups.counting(monkeypatch, strategies, "train_local")
        new_state, _ = strategy.run_round(state, sampled, t)
        clients = [ctx.clients[cid] for cid in sampled]
        architectures = {c.variant.variant_id for c in clients}
        local_groups = {(c.variant.variant_id, c.num_samples) for c in clients}
        assert len(trains) == len(local_groups) + 1 + len(architectures)

        public = ctx.public_features
        local = {
            cid: reference_train_local(state.models[cid], *ctx.client_data(cid), ctx.sgd, nn.LossSpec(),
                                       ctx.client_rng(cid, t, seeding.LANE_BATCH))
            for cid in sampled
        }
        consensus = consensus_logits([nn.forward(local[cid], public).logits[local[cid].final_head] for cid in sampled])
        server = reference_train_local(state.server_model, public, nn.softmax(consensus), ctx.sgd, nn.LossSpec(),
                                       ctx.server_rng(t))
        assert np.array_equal(new_state.server_model.vector, server.vector)
        teacher = nn.softmax(nn.forward(server, public).logits[server.final_head])
        for cid in sampled:
            distilled = reference_train_local(local[cid], public, teacher, ctx.sgd, nn.LossSpec(),
                                              ctx.client_rng(cid, t, seeding.LANE_DISTILL))
            assert np.array_equal(new_state.models[cid].vector, distilled.vector)

    def test_fedet_global_eval_is_server_model(self):
        ctx = make_ctx("fedet", "topology", alternating)
        strategy = make_strategy("fedet", ctx)
        state = strategy.initial_state()
        x, y = ctx.public_features, ctx.train_labels[:16]
        assert strategy.evaluate_global(state, x, y) == model_accuracy(state.server_model, x, y)


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


class TestPinnedTrajectories:
    """Every strategy's per-round parameter bytes, pinned by sha256.

    Binding variants (three-rate, three-depth and two-architecture ladders,
    assigned round-robin), momentum 0.5, two local epochs, and FeDepth
    clients of 3, 2, 1 and 3 segments. The constants were taken from the
    per-key engine (one array per parameter, `np.ix_` regions), so they pin
    the flat engine to it bit for bit.
    """

    SGD = SGDConfig(learning_rate=0.05, batch_size=8, local_epochs=2, momentum=0.5)
    POOL = PoolConfig(rates=(1.0, 0.5, 0.25), depths=(3, 2, 1),
                      family=((8, 3, "plain"), (4, 2, "plain")))
    SAMPLES = ([0, 1, 2, 3], [0, 1, 3], [1, 2, 3])  # rounds 5-7: rolling windows wrap
    EXPECTED = {
        'sheterofl': [
            '688ca9343268828f15136438487edff1130455634cded630ef6a466bbec755c7',
            'c0434ed7f5f7b5930869149555871ebe996593583dab54ca6e270298c3886ae4',
            '6003084dd5981ce1a6654eed5344c8aae421fe19711d3ed333dcc074ac4acf9e',
        ],
        'fedrolex': [
            '0d79ba8d6320332778b7cb22a7a0f08c3d107d6d5d75dd0656bd107c55d0540e',
            '85077ee0c6d72562e1d4d08e0cbd3d7a5d0a762bad6b74990402cf3a82fd6ba2',
            '154221953fedb30c4872c8272d2d595af24c9a94427f043479674c6f9393f8f8',
        ],
        'fjord': [
            '63d7d0b4943b8ce9e8ac707d0f146820acd72e40b2b3be80c1f29ed6c3be0288',
            '83107d764171a189af7ae6390e088f966a2f882f5badd846fdf50eddd5fdb0a8',
            '8ad0d7ee3d5d72ecae5d6189fb084daacb82c14c2ffb65b2a08ee51fea3b99d9',
        ],
        'depthfl': [
            'c6b1e0546177c5257016157a17663fe85eda548298dc1b197e2a7dd398c62a6a',
            '824ddeaa86917243c43425227bbfc8ee5e0776c40d6d0aae702cfaf9a8466a0a',
            'ddeb938c6df861af69332a6ba17b744d1758577a447a5e5b5cba0cd1bf9dde53',
        ],
        'inclusivefl': [
            '0998050596d60d1de72f61f15a18a98fb26109aef473aea93dce623c554cd4d7',
            'ccb62c1969e5e05b58af6e277bc6a6aac93bc38fdb7e1233dc1d3a5380f72875',
            '81f619c3cd6d84196dd022afc5fc1e7895747c7b2588d64c3343db75185de36f',
        ],
        'fedepth': [
            'a42a75dba50e36779de13c9911a08c5dc0d9a2c88b153ed8c7df6598a85c02f8',
            '9ff7fbd88b8d4afb2651750d320eca8a7d76dd8177fd8484549b2e69b04003c9',
            '5ff0606adf1b2479543c94aaf74cb04c85945b5268987182957acd329ec58fa2',
        ],
        'fedproto': [
            '55f2dcc8e214241da3086c3f67353214b2d4d57b77fe00f4909b8f69741f77f1',
            'e53207524b870d599d72110e69a9bb41afc4fba901dd0464b24efbf7cc527810',
            '5157628ad0ad98dfcd713fe60407c51c29221ff886cb6b80f29ff9cca3b76f1c',
        ],
        'fedet': [
            '0deb5178c25da21fa2e02d8907fdc16a29a334937cf60b3adbef98a8d93fc11f',
            '0f6f733c408dbb34fec79e1bc12ac09349327e188e4c7c1c1a3479d1bec7d51f',
            'bbb30a16270d8387e4a265908c71911a1c93702a65cc924b15073e12efb92a9b',
        ],
        'fedavg_full': [
            '485aae817e252ba943884602b6d8ed1193db007c2608bc1853333e601dd430b5',
            '20cbf27b68012efdb7546e96e49685bcce8a38c1adce1d99d2146ada2c231e47',
            'fe6bc65961692ae2ec0280f5e70575e0e1ad31ebbc31003dc780fadf33370df7',
        ],
        'fedavg_smallest': [
            '3315c9a5c15a494444df74a5481a914d082582a2f60248061c93dae736282b06',
            'd021a3df11c70be55c38ae1107841c06579481694823f258f9f7a892b129cdea',
            '15b86b8072967e2a233047771bcb77fc47a39bbe57f0844a55a2b54a3c5c49f9',
        ],
    }

    @staticmethod
    def state_digest(state) -> str:
        digest = hashlib.sha256()
        models = [state] if isinstance(state, nn.BlockNetModel) else []
        if hasattr(state, "server_model"):
            models.append(state.server_model)
        if hasattr(state, "models"):
            models.extend(m for _, m in sorted(state.models.items()))
        if hasattr(state, "proto_vectors"):
            digest.update(state.proto_vectors.tobytes())
            digest.update(state.proto_mask.tobytes())
        for model in models:
            for value in model.params.values():
                digest.update(value.tobytes())
        return digest.hexdigest()

    @classmethod
    def trajectory(cls, strategy_id: str, level: str) -> list[str]:
        ctx = make_ctx(strategy_id, level, alternating, pool_cfg=cls.POOL)
        ctx.sgd = cls.SGD
        if strategy_id == "fedepth":
            full = training_memory(SPEC, (SPEC.num_blocks,), cls.SGD.batch_size)
            for client, fraction in zip(ctx.clients, (0.75, 0.8, 1.0, 0.75)):
                client.profile = DeviceProfile(client.client_id, 1e9, 1e6, fraction * full)
        strategy = make_strategy(strategy_id, ctx)
        state = strategy.initial_state()
        digests = []
        for t, sampled in enumerate(cls.SAMPLES, start=5):
            state, _ = strategy.run_round(state, sampled, t)
            digests.append(cls.state_digest(state))
        return digests

    @pytest.mark.parametrize("strategy_id,level", [
        ("sheterofl", "width"), ("fedrolex", "width"), ("fjord", "width"),
        ("depthfl", "depth"), ("inclusivefl", "depth"), ("fedepth", "depth"),
        ("fedproto", "topology"), ("fedet", "topology"),
        ("fedavg_full", "width"), ("fedavg_smallest", "width"),
    ])
    def test_round_bytes_are_pinned(self, strategy_id, level):
        assert self.trajectory(strategy_id, level) == self.EXPECTED[strategy_id]
