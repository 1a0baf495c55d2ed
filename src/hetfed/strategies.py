"""The federated strategies: three width-level, three depth-level, two
topology-level algorithms plus the homogeneous FedAvg baselines.

Every strategy speaks one protocol of four hooks, deterministic given
(repeat seed, round, sample set):

- `initial_state()`: the state before round 1;
- `run_round(state, sampled, round_index) -> (state, uploads)`: one
  server round over the sampled clients; `uploads` maps each sampled
  client to the count of numbers it uploaded, which the runner prices with
  `resources.payload_bytes` and checks against the cost model;
- `client_eval_model(state, client_id, round_index)`: the `EvalTarget` a
  client is scored on, a read-only model and one of its heads;
- `evaluate_global(state, features, labels)`: the global accuracy.

Two bases implement it. `_PartialAveragingStrategy` (the width and depth
strategies, FeDepth and FedAvg) keeps one global model: each lockstep
group trains the sub-models that the strategy's `_extract` hook cuts from
it (once per variant; `_extract` reads a client only through its variant),
under the loss its `_client_loss` hook names, and the server adds each
upload (`_add_upload`) and normalizes: a model in the global layout adds
as a whole row, and only depth-prefix sub-models scatter through their
maps. `_PrivateModelStrategy` (FedProto, Fed-ET) keeps one private
model per client, built and trained locally the same way for both; only
what the server exchanges differs.

The sampled clients of a round train in lockstep groups (`nn.train_local`
on a stack): clients with the same `_group_key` (by default the same
architecture and the same sample count) take every step as one stacked
walk. Each client keeps its own data, batch shuffles and rng draws, so a
client's result does not depend on its group; the aggregate and every
other cross-client sum run in client-id order. The width strategies train
each sub-model zero-padded into the global layout (see `nn`), so their key
is the sample count alone; a client's upload is the coordinates of its
trained row that its map names, and the row, exactly +0.0 off its map,
adds whole. FjORD and FeDepth move part of their model per step, by a
per-pass plan for `train_local`: FeDepth's segment's slice (one group per
segmentation), and per FjORD step one mask of each client's drawn static
prefix (each client draws a pass's widths at once).

Evaluation follows the same rule: every client of a variant gets one
`EvalTarget` object per (state, eval round). A width strategy extracts
the variant's sub-model for it; FedRolex's window moves with the round,
so its sub-models are extracted afresh each eval round. A depth
strategy's sub-models are block prefixes of the global model, so DepthFL
and InclusiveFL extract nothing: a client of depth k is scored on the
global state at head k, and one walk of the state (`nn.predict`) scores
every variant and the global model. FeDepth, FedAvg and the private-model
strategies score each client on a state model at its deepest head.

Every `train_local` call goes through `Strategy._train`, which checks
each trained model (of a width client's row, only its upload) finite, as
is every aggregate (the global model, FedProto's prototypes); a
non-finite value raises `DivergenceError` naming the strategy, the round,
the owner and the parameter. One off a row's map reaches the aggregate
check where another client covers its coordinate; elsewhere `normalize`
keeps the previous value.

Every model a strategy keeps in its state is immutable: its vector is
read-only from the moment it is made (`initial_state`, `_train`, the
aggregate), so an in-place write raises `ValueError`. Training copies the
vectors it starts from. This is what lets `nn.predict`, the one
evaluation memo, walk each distinct model once on the shared test set: a
state model cannot change under the predictions it remembers.

Where the published descriptions of the cited methods include extras that
do not change the resource trade-off being measured (InclusiveFL's momentum
distillation, Fed-ET's diversity regularizer), those extras are omitted;
the omissions are noted on the strategy docstrings.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import seeding
from .extract import (
    Accumulator,
    SubModelMap,
    channel_map,
    extract_depth,
    extract_width,
    full_map,
    new_accumulator,
    normalize,
    scatter_update,
)
from .nn import (
    BlockNetModel,
    DivergenceError,
    LossSpec,
    SGDConfig,
    forward,
    init_model,
    param_layout,
    segment_slice,
    softmax,
    train_local,
)
from .metrics import model_accuracy
from .resources import DeviceProfile, ModelPool, Variant, fedepth_segments, width_channels


@dataclass(frozen=True)
class FederationConfig:
    """Algorithm-level knobs shared by the strategies."""

    lambda_kd: float = 0.1          # self-distillation weight (depthfl)
    # Prototype pull weight (fedproto). 1.0 destabilizes the squared-L2 pull
    # at desk scale (embedding outliers blow past SGD's stability
    # threshold); 0.1 trains reliably.
    lambda_proto: float = 0.1
    fjord_fixed_p: float | None = None   # pin fjord's per-step rate draw
    fedet_server_epochs: int = 1
    fedet_client_epochs: int = 1
    weighting: str = field(default="samples", metadata={"key": "aggregation.weighting"})  # samples | uniform

    def __post_init__(self) -> None:
        # Each message names the config key that sets the knob.
        if self.weighting not in ("samples", "uniform"):
            raise ValueError(f"aggregation.weighting: must be 'samples' or 'uniform', got {self.weighting!r}")
        if self.fjord_fixed_p is not None and not 0.0 < self.fjord_fixed_p <= 1.0:
            raise ValueError(f"algo.fjord_fixed_p: must lie in (0, 1] or be null, got {self.fjord_fixed_p}")
        for name in ("fedet_server_epochs", "fedet_client_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"algo.{name}: must be >= 1, got {getattr(self, name)}")


@dataclass
class ClientState:
    client_id: int
    data_indices: np.ndarray
    profile: DeviceProfile
    variant: Variant

    @property
    def num_samples(self) -> int:
        return int(self.data_indices.size)


@dataclass
class FederationContext:
    """Everything a strategy needs to run rounds: data, clients, knobs, seeds."""

    pool: ModelPool
    clients: list[ClientState]
    train_features: np.ndarray
    train_labels: np.ndarray
    public_features: np.ndarray        # fedet's rows; datasets.DataConfig keeps at least one
    sgd: SGDConfig
    fed: FederationConfig
    repeat_seed: int

    def client_rng(self, client_id: int, round_index: int, lane: int = 0) -> np.random.Generator:
        return seeding.rng_from(self.repeat_seed, seeding.TAG_CLIENT, client_id, round_index, lane)

    def init_rng(self, *extra: int) -> np.random.Generator:
        return seeding.rng_from(self.repeat_seed, seeding.TAG_INIT, *extra)

    def server_rng(self, round_index: int) -> np.random.Generator:
        return seeding.rng_from(self.repeat_seed, seeding.TAG_SERVER, round_index)

    def client_data(self, client_id: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.clients[client_id].data_indices
        return self.train_features[idx], self.train_labels[idx]

    def client_weight(self, client_id: int) -> float:
        if self.fed.weighting == "samples":
            return float(self.clients[client_id].num_samples)
        return 1.0


class EvalTarget(NamedTuple):
    """What a client is scored on: a read-only model and the head whose
    argmax is the client's prediction."""

    model: BlockNetModel
    head: int


def _frozen(model: BlockNetModel) -> BlockNetModel:
    """`model` with its vector made read-only, as every state model is."""
    model.vector.setflags(write=False)
    return model


def lockstep_groups(ordered: list[int], key: Callable[[int], Hashable]) -> list[tuple[Hashable, list[int]]]:
    """The clients (in id order) split into the groups that train in
    lockstep: one (key, ids) group per distinct `key(client_id)`, in order of
    first appearance, each in id order."""
    groups: dict[Hashable, list[int]] = {}
    for cid in ordered:
        groups.setdefault(key(cid), []).append(cid)
    return list(groups.items())


def sample_clients(num_clients: int, fraction: float, rng: np.random.Generator) -> list[int]:
    """Seeded shuffle of the sorted id list; takes ceil(fraction * n), >= 1."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("sampling fraction must lie in (0, 1]")
    count = max(1, int(np.ceil(fraction * num_clients)))
    order = rng.permutation(num_clients)
    return sorted(int(i) for i in order[:count])


# ---------------------------------------------------------------------------
# shared aggregation ops


def aggregate_prototypes(
    uploads: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Support-weighted mean prototype per class.

    uploads: (vectors [num_classes, proto_dim], support counts [num_classes])
    per client. Classes with zero total support come back as zero vectors.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty prototype set")
    dim = uploads[0][0].shape
    for vec, cnt in uploads:
        if vec.shape != dim or cnt.shape != (dim[0],):
            raise ValueError("prototype uploads disagree on shape")
    total = np.zeros(dim)
    support = np.zeros(dim[0])
    for vec, cnt in uploads:
        total += cnt[:, None] * vec
        support += cnt
    safe = np.where(support > 0, support, 1.0)
    return total / safe[:, None], support


def compute_prototypes(
    model: BlockNetModel, features: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean embedding and support count on a client's data."""
    emb = forward(model, features).embedding
    vectors = np.zeros((num_classes, emb.shape[1]))
    counts = np.zeros(num_classes)
    for cls in range(num_classes):
        mask = labels == cls
        counts[cls] = mask.sum()
        if counts[cls] > 0:
            vectors[cls] = emb[mask].mean(axis=0)
    return vectors, counts


def consensus_logits(logit_sets: list[np.ndarray]) -> np.ndarray:
    """Confidence-weighted mean of client logits per public sample.

    The weight of client k on a sample is its max softmax probability there:
    1 / sum(exp(z - max z)), the same bits as `softmax(z).max(axis=1)`,
    since the largest shifted entry is exp(0) = 1 and dividing by a positive
    total keeps the order.
    """
    if not logit_sets:
        raise ValueError("consensus needs at least one client logit set")
    shape = logit_sets[0].shape
    for logits in logit_sets:
        if logits.shape != shape:
            raise ValueError("client logit sets disagree on shape")
    num = np.zeros(shape)
    den = np.zeros(shape[0])
    for logits in logit_sets:
        w = 1.0 / np.add.reduce(np.exp(logits - np.maximum.reduce(logits, -1, keepdims=True)), -1)
        num += w[:, None] * logits
        den += w
    return num / den[:, None]


# ---------------------------------------------------------------------------
# strategy protocol


class Strategy:
    """The four-hook round protocol (see the module docstring) and the
    training and divergence checks every strategy shares."""

    id: str = ""

    def __init__(self, ctx: FederationContext):
        self.ctx = ctx

    def initial_state(self):
        raise NotImplementedError

    def run_round(self, state, sampled: list[int], round_index: int) -> tuple[object, dict[int, int]]:
        """The state after one round and, per sampled client, the count of
        numbers it uploaded."""
        raise NotImplementedError

    def client_eval_model(self, state, client_id: int, round_index: int) -> EvalTarget:
        """The model a client is scored on, read-only like every state
        model, and the head it is scored at. Clients scored on one model
        share one walk on the read-only test features: `nn.predict`
        remembers every head's prediction."""
        raise NotImplementedError

    def evaluate_global(self, state, features: np.ndarray, labels: np.ndarray) -> float:
        """The global accuracy of `state` on the given rows."""
        raise NotImplementedError

    def _ordered(self, sampled: list[int]) -> list[int]:
        if not sampled:
            raise ValueError("cannot run a round with an empty sample set")
        return sorted(sampled)

    def _group_key(self, client_id: int) -> Hashable:
        """Lockstep key of local training on own data: the variant (one
        architecture, and for the depth strategies one sub-model map) and
        the sample count (one batch-length sequence)."""
        client = self.ctx.clients[client_id]
        return client.variant.variant_id, client.num_samples

    def _train(self, owners: list[str], round_index: int, *args, maps=None) -> list[BlockNetModel]:
        """`nn.train_local(*args)` with each trained model checked finite
        and made read-only; `owners` names the owner of each model. With
        `maps`, the check of each trained row reads only the coordinates
        its owner's map uploads and names them by the sub-model's layout."""
        models = train_local(*args)
        for i, (owner, model) in enumerate(zip(owners, models)):
            if maps is None:
                values, layout = model.vector, param_layout(model.spec, model.head_blocks)
            else:
                values, layout = model.vector.take(maps[i].index), maps[i].layout
            self._check_finite(values, owner, round_index, layout.key_at)
            _frozen(model)
        return models

    def _train_clients(
        self,
        models: list[BlockNetModel],
        client_ids: list[int],
        round_index: int,
        loss: LossSpec,
        config: SGDConfig | None = None,
        moves: Callable[[int, int], list] | None = None,
        teacher: np.ndarray | None = None,
        maps: tuple[SubModelMap, ...] | None = None,
    ) -> list[BlockNetModel]:
        """Train one lockstep group of clients on their own data and labels,
        or, given a `teacher` distribution per public row, on the whole
        public split against it."""
        ctx = self.ctx
        if teacher is None:
            data = ctx.train_features, ctx.train_labels
            lane, rows = seeding.LANE_BATCH, [ctx.clients[cid].data_indices for cid in client_ids]
        else:
            data, lane, rows = (ctx.public_features, teacher), seeding.LANE_DISTILL, None
        return self._train(
            [f"client {cid}" for cid in client_ids], round_index,
            models, *data, config or ctx.sgd, loss,
            [ctx.client_rng(cid, round_index, lane) for cid in client_ids], rows, moves, maps=maps,
        )

    def _check_finite(self, values: np.ndarray, owner: str, round_index: int, name: Callable[[int], str]) -> None:
        """Raise DivergenceError naming `owner` and `name(index)` of the
        first non-finite entry of `values`, by flat index."""
        if np.isfinite(values).all():
            return
        index = np.flatnonzero(~np.isfinite(values))[0]
        raise DivergenceError(
            f"{self.id}: round {round_index}: {owner} diverged; parameter {name(index)} is not finite"
        )


class _PartialAveragingStrategy(Strategy):
    """Common round shape: extract, train locally, add each upload into
    one accumulator (`_add_upload`), normalize."""

    def initial_state(self) -> BlockNetModel:
        """The largest variant's model, carrying every head of every variant."""
        pool = self.ctx.pool
        heads = tuple(sorted({j for v in pool.variants for j in v.head_blocks}))
        return _frozen(init_model(pool.largest.spec, self.ctx.init_rng(), heads))

    def _extract(
        self, model: BlockNetModel, client: ClientState, round_index: int
    ) -> tuple[BlockNetModel, SubModelMap]:
        """The sub-model a client trains and is evaluated on, and its map.

        Reads `client` only through `client.variant`, and the round only
        where the sub-model moves with it (FedRolex's window): a
        variant's clients share one evaluation target.
        """
        raise NotImplementedError

    def _client_loss(self) -> LossSpec:
        return LossSpec()

    def _train_group(
        self, global_model: BlockNetModel, key: Hashable, client_ids: list[int], round_index: int
    ) -> list[tuple[BlockNetModel, SubModelMap]]:
        """Each client's trained sub-model and its map, in id order: the
        group's sub-model is extracted once and every client of the group
        trains from it in lockstep."""
        sub, smap = self._extract(global_model, self.ctx.clients[client_ids[0]], round_index)
        trained = self._train_clients([sub] * len(client_ids), client_ids, round_index, self._client_loss())
        return [(model, smap) for model in trained]

    def run_round(self, state: BlockNetModel, sampled: list[int], round_index: int):
        ordered = self._ordered(sampled)
        results = {}
        for key, cids in lockstep_groups(ordered, self._group_key):
            results.update(zip(cids, self._train_group(state, key, cids, round_index)))
        acc = new_accumulator(state)
        uploads = {}
        for cid in ordered:
            trained, smap = results[cid]
            self._add_upload(acc, trained, smap, self.ctx.client_weight(cid))
            uploads[cid] = smap.index.size
        new_global = normalize(acc, state)
        # A weighted mean of finite uploads can still overflow.
        self._check_finite(new_global.vector, "the aggregate", round_index, acc.layout.key_at)
        return _frozen(new_global), uploads

    def _add_upload(self, acc: Accumulator, trained: BlockNetModel, smap: SubModelMap, weight: float) -> None:
        """Add a trained model in the global layout to the sums as a whole
        row, and its weight on its map: off the map the row is exactly +0.0,
        so this is `scatter_update`'s sum, bit for bit."""
        acc.sums += weight * trained.vector
        acc.weights[smap.index] += weight

    def evaluate_global(self, state, features, labels):
        return model_accuracy(state, features, labels)

    # (state, round, variant id -> target) of the last eval round.
    _eval_targets: tuple[object, int, dict[str, EvalTarget]] | None = None

    def client_eval_model(self, state, client_id, round_index):
        """`_extract` reads a client only through its variant, so every
        client of a variant gets the same target, made once per (state,
        eval round) by `_eval_target`."""
        memo = self._eval_targets
        if memo is None or memo[0] is not state or memo[1] != round_index:
            memo = self._eval_targets = (state, round_index, {})
        client = self.ctx.clients[client_id]
        target = memo[2].get(client.variant.variant_id)
        if target is None:
            target = memo[2][client.variant.variant_id] = self._eval_target(state, client, round_index)
        return target

    def _eval_target(self, state, client, round_index) -> EvalTarget:
        """The variant's sub-model at its deepest head."""
        sub = _frozen(self._extract(state, client, round_index)[0])
        return EvalTarget(sub, sub.final_head)


class SHeteroFL(_PartialAveragingStrategy):
    """Static width sub-models: client k always trains the nested prefix at
    its assigned rate, zero-padded into the global layout; the server
    overlap-averages the trained rows, each weighted on its own map."""

    id = "sheterofl"

    def _extract(self, model, client, round_index):
        return extract_width(model, client.variant.spec.hidden_dim, "static_prefix", 0)

    def _group_key(self, client_id):
        # Rows are global-layout vectors: only the batch count splits clients.
        return self.ctx.clients[client_id].num_samples

    def _train_group(self, global_model, key, client_ids, round_index, moves=None):
        """Each client's trained row and its map, in id order: the client's
        sub-model trains zero-padded into the global layout (see `nn`),
        every coordinate at every step unless `moves` plans otherwise. The
        row is never cut; its upload is the coordinates its map names."""
        padded = {}
        for client in (self.ctx.clients[cid] for cid in client_ids):
            if client.variant.variant_id not in padded:
                sub, smap = self._extract(global_model, client, round_index)
                row = np.zeros(global_model.vector.size)
                row[smap.index] = sub.vector
                padded[client.variant.variant_id] = row, smap
        rows, maps = zip(*(padded[self.ctx.clients[cid].variant.variant_id] for cid in client_ids))
        models = [BlockNetModel(global_model.spec, global_model.head_blocks, row) for row in rows]
        trained = self._train_clients(models, client_ids, round_index, self._client_loss(), moves=moves, maps=maps)
        return list(zip(trained, maps))


class FedRolex(SHeteroFL):
    """Width sub-models under a stride-1 rolling window that advances each
    round, so every global channel is trained equally often."""

    id = "fedrolex"

    def _extract(self, model, client, round_index):
        return extract_width(model, client.variant.spec.hidden_dim, "rolling", round_index)


class Fjord(SHeteroFL):
    """Ordered-dropout width training: every local step samples one of the
    pool's widths at or below the client's own and applies the step to
    that nested prefix; the upload is the client-width sub-model."""

    id = "fjord"

    def _widths(self, own: int) -> list[int]:
        """The pool's widths at or below `own`, ascending."""
        return sorted({v.spec.hidden_dim for v in self.ctx.pool.variants if v.spec.hidden_dim <= own})

    def _train_group(self, global_model, key, client_ids, round_index):
        ctx = self.ctx
        spec, heads = global_model.spec, global_model.head_blocks
        own = [ctx.clients[cid].variant.spec.hidden_dim for cid in client_ids]
        fixed = ctx.fed.fjord_fixed_p
        # A fixed rate leaves each client a ladder of one width: the fixed
        # one, or its own if that is narrower.
        if fixed is None:
            ladders = [np.array(self._widths(k)) for k in own]
        else:
            ladders = [np.array([min(width_channels(spec.hidden_dim, fixed), k)]) for k in own]
        # masks[k] covers the static prefix of width k in the global layout.
        masks = np.zeros((spec.hidden_dim + 1, global_model.vector.size), dtype=bool)
        for k in set(np.concatenate(ladders).tolist()):
            masks[k, channel_map(spec, heads, tuple(range(k))).index] = True
        rngs = [ctx.client_rng(cid, round_index, seeding.LANE_RATE) for cid in client_ids]

        def moves(pass_index: int, steps: int) -> np.ndarray:
            # drawn[client, step]: a pass's draws at once, the same draws and
            # generator state as one `choice` per step (which draws its
            # position with `integers`). Step s moves masks[drawn[:, s]].
            drawn = np.array([
                ladder[rng.integers(0, len(ladder), size=steps)] for rng, ladder in zip(rngs, ladders)
            ])
            return masks[drawn.T]

        return super()._train_group(global_model, key, client_ids, round_index, moves)


class InclusiveFL(_PartialAveragingStrategy):
    """Depth-prefix sub-models where each ladder depth owns its own head,
    aggregated among same-depth holders; shared prefix blocks average over
    every holder. The cited method's momentum distillation is omitted."""

    id = "inclusivefl"

    def _extract(self, model, client, round_index):
        variant = client.variant
        return extract_depth(model, variant.spec.num_blocks, variant.head_blocks)

    def _add_upload(self, acc, trained, smap, weight):
        """A depth-prefix sub-model is not in the global layout: it scatters
        into the coordinates its map names."""
        scatter_update(acc, trained.params, smap, weight)

    def _eval_target(self, state, client, round_index):
        """The global state at the variant's deepest head: the sub-model is
        a block prefix of the global model, so that head sees the same
        trunk, and every variant is scored from one walk of the state."""
        return EvalTarget(state, client.variant.head_blocks[-1])


class DepthFL(InclusiveFL):
    """InclusiveFL's sub-models, where the pool gives every retained block a
    head, under a local loss summing the per-head cross-entropies and the
    pairwise self-distillation KL between head distributions."""

    id = "depthfl"

    def _client_loss(self) -> LossSpec:
        return LossSpec(distill_weight=self.ctx.fed.lambda_kd)


class FedAvg(_PartialAveragingStrategy):
    """Plain FedAvg over a single homogeneous variant (full or smallest)."""

    id = "fedavg_full"

    def _extract(self, model, client, round_index):
        return model, full_map(model)


class FedAvgSmallest(FedAvg):
    id = "fedavg_smallest"


class FeDepth(FedAvg):
    """FedAvg with full-model training in memory-sized block segments:
    blocks are partitioned so each segment's footprint fits the client's
    memory, the segments train one after another with everything else
    frozen, and the full model is uploaded for plain FedAvg."""

    id = "fedepth"

    def initial_state(self):
        """Decides every client's segmentation, once per distinct memory
        capacity, before round 1, by the rule that priced its variant. With
        the memory constraint inactive the capacity is unbounded, so every
        client trains one segment of all blocks."""
        pool, full = self.ctx.pool, self.ctx.pool.largest
        by_capacity: dict[float, tuple[tuple[int, ...], ...]] = {}
        for client in self.ctx.clients:
            capacity = client.profile.memory_capacity
            if capacity not in by_capacity:
                segments = fedepth_segments(full.spec, full.head_blocks, self.ctx.sgd.batch_size, capacity, pool.kappa)
                by_capacity[capacity] = tuple(map(tuple, segments))
        self._segments = [by_capacity[c.profile.memory_capacity] for c in self.ctx.clients]
        return super().initial_state()

    def _group_key(self, client_id):
        return self._segments[client_id], self.ctx.clients[client_id].num_samples

    def _train_group(self, global_model, key, client_ids, round_index):
        segments, _ = key
        epochs = self.ctx.sgd.local_epochs
        # The segments train one after another, `local_epochs` passes each;
        # every step of a pass moves its segment's slice and the rest stays
        # frozen.
        parts = [segment_slice(global_model.spec, global_model.head_blocks, seg) for seg in segments]
        config = replace(self.ctx.sgd, local_epochs=len(segments) * epochs)
        trained = self._train_clients(
            [global_model] * len(client_ids), client_ids, round_index, self._client_loss(),
            config, lambda pass_index, steps: [parts[pass_index // epochs]] * steps,
        )
        smap = full_map(global_model)
        return [(model, smap) for model in trained]


# ---------------------------------------------------------------------------
# topology-level strategies


class _PrivateModelStrategy(Strategy):
    """Every client keeps a private model of its own architecture, trained
    on its own data; the server exchanges something other than the
    clients' models."""

    def _initial_models(self) -> dict[int, BlockNetModel]:
        return {
            c.client_id: _frozen(init_model(c.variant.spec, self.ctx.init_rng(c.client_id), c.variant.head_blocks))
            for c in self.ctx.clients
        }

    def _train_private(
        self, models: dict[int, BlockNetModel], ordered: list[int], round_index: int, loss: LossSpec,
        config: SGDConfig | None = None, teacher: np.ndarray | None = None,
    ) -> dict[int, BlockNetModel]:
        """`models` with the sampled clients' models trained as
        `_train_clients` trains them, one lockstep group per `_group_key`.
        With a `teacher`, every client trains on the same public rows, so
        one architecture is one group."""
        key = self._group_key if teacher is None else (lambda cid: self.ctx.clients[cid].variant.variant_id)
        models = dict(models)
        for _, cids in lockstep_groups(ordered, key):
            group = [models[cid] for cid in cids]
            models.update(zip(cids, self._train_clients(group, cids, round_index, loss, config, teacher=teacher)))
        return models

    def client_eval_model(self, state, client_id, round_index):
        model = state.models[client_id]
        return EvalTarget(model, model.final_head)


@dataclass
class FedProtoState:
    models: dict[int, BlockNetModel]
    proto_vectors: np.ndarray   # [num_classes, proto_dim]
    proto_mask: np.ndarray      # [num_classes] bool: class has a live prototype


class FedProto(_PrivateModelStrategy):
    """Clients keep private heterogeneous models and exchange only class
    prototypes (mean embeddings with support counts); the server keeps the
    support-weighted mean per class. No model parameters ever move."""

    id = "fedproto"

    def initial_state(self) -> FedProtoState:
        # Every variant shares the family's classes and prototype width.
        spec = self.ctx.pool.largest.spec
        return FedProtoState(
            models=self._initial_models(),
            proto_vectors=np.zeros((spec.num_classes, spec.proto_dim)),
            proto_mask=np.zeros(spec.num_classes, dtype=bool),
        )

    def run_round(self, state: FedProtoState, sampled: list[int], round_index: int):
        ordered = self._ordered(sampled)
        loss = LossSpec(
            proto_weight=self.ctx.fed.lambda_proto,
            proto_targets=state.proto_vectors,
            proto_mask=state.proto_mask,
        )
        models = self._train_private(state.models, ordered, round_index, loss)
        num_classes = self.ctx.pool.largest.spec.num_classes
        protos = {
            cid: compute_prototypes(models[cid], *self.ctx.client_data(cid), num_classes) for cid in ordered
        }
        agg_vec, agg_support = aggregate_prototypes(list(protos.values()))
        dim = agg_vec.shape[1]
        self._check_finite(agg_vec, "the aggregate", round_index, lambda index: f"prototype[{index // dim}]")
        fresh = agg_support > 0
        vectors = np.where(fresh[:, None], agg_vec, state.proto_vectors)
        mask = state.proto_mask | fresh
        uploads = {cid: vec.size + cnt.size for cid, (vec, cnt) in protos.items()}
        return FedProtoState(models, vectors, mask), uploads

    def evaluate_global(self, state, features, labels) -> float:
        # No shared model exists; global accuracy is the mean of every
        # client's own-model accuracy on the global test set.
        accs = [model_accuracy(m, features, labels) for _, m in sorted(state.models.items())]
        return float(np.mean(accs))


@dataclass
class FedETState:
    server_model: BlockNetModel
    models: dict[int, BlockNetModel]


class FedET(_PrivateModelStrategy):
    """Server-side ensemble transfer: sampled clients train locally and send
    their models up; the server builds confidence-weighted consensus logits
    on an unlabeled public split, distills them into a largest-spec server
    model, and distills the server model back into each client architecture.
    The cited method's diversity regularizer is omitted."""

    id = "fedet"

    def initial_state(self) -> FedETState:
        server = _frozen(init_model(self.ctx.pool.largest.spec, self.ctx.server_rng(0),
                                    self.ctx.pool.largest.head_blocks))
        return FedETState(server, self._initial_models())

    def run_round(self, state: FedETState, sampled: list[int], round_index: int):
        ordered = self._ordered(sampled)
        public = self.ctx.public_features
        models = self._train_private(state.models, ordered, round_index, LossSpec())

        logit_sets = [forward(models[cid], public).logits[models[cid].final_head] for cid in ordered]
        consensus = consensus_logits(logit_sets)
        server_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_server_epochs)
        [server] = self._train(
            ["the server model"], round_index, [state.server_model], public, softmax(consensus), server_cfg,
            LossSpec(), [self.ctx.server_rng(round_index)],
        )

        teacher = softmax(forward(server, public).logits[server.final_head])
        client_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_client_epochs)
        models = self._train_private(models, ordered, round_index, LossSpec(), client_cfg, teacher)

        uploads = {cid: models[cid].vector.size for cid in ordered}
        return FedETState(server, models), uploads

    def evaluate_global(self, state, features, labels):
        return model_accuracy(state.server_model, features, labels)


STRATEGY_CLASSES: dict[str, type[Strategy]] = {
    cls.id: cls
    for cls in (
        Fjord, SHeteroFL, FedRolex,
        FeDepth, InclusiveFL, DepthFL,
        FedProto, FedET,
        FedAvg, FedAvgSmallest,
    )
}


def make_strategy(strategy_id: str, ctx: FederationContext) -> Strategy:
    if strategy_id not in STRATEGY_CLASSES:
        raise ValueError(f"unknown strategy {strategy_id!r}; choose from {sorted(STRATEGY_CLASSES)}")
    return STRATEGY_CLASSES[strategy_id](ctx)
