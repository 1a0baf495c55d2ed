"""The federated strategies: three width-level, three depth-level, two
topology-level algorithms plus the homogeneous FedAvg baselines.

Each strategy implements one server round over the sampled clients and is
deterministic given (repeat seed, round, sample set).

The sampled clients of a round train in lockstep groups (`nn.train_local`
on a stack): clients with the same architecture and the same sample count
take every step as one stacked walk. Each client keeps its own data, batch
shuffles and rng draws, so a client's result does not depend on its group;
scatter and every other cross-client sum run in client-id order.

The width and depth strategies share one round: each group trains the
sub-model that the strategy's `_extract` hook cuts from the global model
(once per group; `_extract` reads a client only through its variant), under
the loss its `_client_loss` hook names, and the server scatters the results
back. FjORD and FeDepth move only part of their model per step; they hand
`train_local` a per-step hook that names the coordinates a step moves: a
FjORD nested-width index vector with its nested model, drawn per client
(the group re-splits by width each step), or a FeDepth segment slice (one
group per segmentation). FedProto and Fed-ET train and distill one group
per architecture.

Evaluation follows the same rule: a width or depth strategy extracts each
variant's evaluation sub-model once per (state, eval round) and hands that
one object to every client of the variant; FedRolex's window moves with
the round, so its sub-models are extracted afresh each eval round.

Every trained group and every aggregate (the normalized global model,
FedProto's prototypes) is checked finite; a non-finite value raises
`DivergenceError` naming the strategy, the round, the owner and the
parameter.

Where the published descriptions of the cited methods include extras that
do not change the resource trade-off being measured (InclusiveFL's momentum
distillation, Fed-ET's diversity regularizer), those extras are omitted;
the omissions are noted on the strategy docstrings.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .extract import (
    SubModelMap,
    extract_channels,
    extract_depth,
    extract_width,
    full_map,
    new_accumulator,
    normalize,
    scatter_update,
    width_channels,
)
from .nn import (
    BlockNetModel,
    LossSpec,
    ModelStack,
    Move,
    SGDConfig,
    forward,
    init_model,
    segment_slice,
    softmax,
    train_local,
)
from .resources import DeviceProfile, ModelPool, Variant, fedepth_segments


@dataclass(frozen=True)
class FederationConfig:
    """Algorithm-level knobs shared by the strategies."""

    lambda_kd: float = 0.1          # self-distillation weight (depthfl)
    lambda_proto: float = 0.1       # prototype pull weight (fedproto)
    fjord_fixed_p: float | None = None   # pin fjord's per-step rate draw
    fedet_server_epochs: int = 1
    fedet_client_epochs: int = 1
    weighting: str = "samples"      # aggregation weighting: samples | uniform

    def __post_init__(self) -> None:
        if self.weighting not in ("samples", "uniform"):
            raise ValueError("aggregation weighting must be 'samples' or 'uniform'")


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

    level: str
    base_spec: object                  # BlockNetSpec of the global family
    pool: ModelPool
    clients: list[ClientState]
    train_features: np.ndarray
    train_labels: np.ndarray
    public_features: np.ndarray | None
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


class DivergenceError(ArithmeticError):
    """Local training produced a non-finite parameter."""


@dataclass
class RoundArtifacts:
    sample_counts: dict[int, int]
    payload_bytes: dict[int, float]


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

    The weight of client k on a sample is its max softmax probability there.
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
        w = softmax(logits).max(axis=1)
        num += w[:, None] * logits
        den += w
    return num / den[:, None]


# ---------------------------------------------------------------------------
# strategy protocol


class Strategy:
    id: str = ""

    def __init__(self, ctx: FederationContext):
        self.ctx = ctx

    def initial_state(self):
        raise NotImplementedError

    def run_round(self, state, sampled: list[int], round_index: int):
        raise NotImplementedError

    def global_eval_model(self, state) -> BlockNetModel | None:
        raise NotImplementedError

    def client_eval_model(self, state, client_id: int, round_index: int) -> BlockNetModel:
        """The model a client is scored on. It may be shared with other
        clients, so callers only read it."""
        raise NotImplementedError

    def evaluate_global(self, state, features: np.ndarray, labels: np.ndarray) -> float:
        from .metrics import model_accuracy

        model = self.global_eval_model(state)
        if model is None:
            raise ValueError(f"{self.id} has no single global model to evaluate")
        return model_accuracy(model, features, labels)

    def _same_shape(self, client_id: int) -> tuple[str, int]:
        """Lockstep key of local training on own data: the variant (one
        architecture) and the sample count (one batch-length sequence)."""
        client = self.ctx.clients[client_id]
        return client.variant.variant_id, client.num_samples

    def _train_clients(
        self,
        models: list[BlockNetModel],
        client_ids: list[int],
        round_index: int,
        loss: LossSpec,
        config: SGDConfig | None = None,
        moves: Callable[[int], list[Move]] | None = None,
    ) -> ModelStack:
        """Train one lockstep group of clients on their own data."""
        ctx = self.ctx
        stack = train_local(
            models, ctx.train_features, ctx.train_labels, config or ctx.sgd, loss,
            [ctx.client_rng(cid, round_index, seeding.LANE_BATCH) for cid in client_ids],
            [ctx.clients[cid].data_indices for cid in client_ids],
            moves,
        )
        owners = [f"client {cid}" for cid in client_ids]
        self._check_finite(stack.vector, owners, round_index, stack.layout.key_at)
        return stack

    def _check_finite(
        self, values: np.ndarray, owners: list[str], round_index: int, name: Callable[[int], str]
    ) -> None:
        """Raise DivergenceError naming the owner of the first row of the
        2-D `values` with a non-finite entry, and `name(column)` of that
        entry."""
        if np.isfinite(values).all():
            return
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise DivergenceError(
            f"{self.id}: round {round_index}: {owners[row]} diverged; parameter {name(col)} is not finite"
        )

    def _artifacts(self, sampled: list[int], uploaded_numbers: dict[int, int]) -> RoundArtifacts:
        counts = {cid: self.ctx.clients[cid].num_samples for cid in sampled}
        payloads = {}
        for cid, numbers in uploaded_numbers.items():
            if self.id == "fedproto":
                payloads[cid] = float(numbers * 8)
            else:
                payloads[cid] = float(2 * numbers * 8)
        return RoundArtifacts(sample_counts=counts, payload_bytes=payloads)


class _PartialAveragingStrategy(Strategy):
    """Common round shape: extract, train locally, scatter, normalize."""

    def initial_state(self) -> BlockNetModel:
        largest = self.ctx.pool.largest
        return init_model(largest.spec, self.ctx.init_rng(), self._global_heads())

    def _global_heads(self) -> tuple[int, ...]:
        return self.ctx.pool.largest.head_blocks

    def _extract(
        self, model: BlockNetModel, client: ClientState, round_index: int
    ) -> tuple[BlockNetModel, SubModelMap]:
        """The sub-model a client trains and is evaluated on, and its map.

        Reads `client` only through `client.variant`, and the round only
        where the sub-model moves with it (FedRolex's window):
        `client_eval_model` shares one result among a variant's clients.
        """
        raise NotImplementedError

    def _client_loss(self, sub: BlockNetModel) -> LossSpec:
        return LossSpec(ce_heads=(sub.final_head,))

    def _group_key(self, client_id: int) -> Hashable:
        # `_extract` reads a client only through its variant, so one key
        # means one sub-model map.
        return self._same_shape(client_id)

    def _train_group(
        self, global_model: BlockNetModel, key: Hashable, client_ids: list[int], round_index: int
    ) -> tuple[ModelStack, SubModelMap]:
        """Extract the group's sub-model once and train every client of the
        group from it in lockstep."""
        sub, smap = self._extract(global_model, self.ctx.clients[client_ids[0]], round_index)
        return self._train_clients([sub] * len(client_ids), client_ids, round_index, self._client_loss(sub)), smap

    def run_round(self, state: BlockNetModel, sampled: list[int], round_index: int):
        if not sampled:
            raise ValueError("cannot run a round with an empty sample set")
        ordered = sorted(sampled)
        results = {}
        for key, cids in lockstep_groups(ordered, self._group_key):
            stack, smap = self._train_group(state, key, cids, round_index)
            for cid, trained in zip(cids, stack.models()):
                results[cid] = trained.params, smap
        acc = new_accumulator(state)
        uploaded: dict[int, int] = {}
        for cid in ordered:
            params, smap = results[cid]
            scatter_update(acc, params, smap, self.ctx.client_weight(cid))
            uploaded[cid] = int(smap.index.size)
        new_global = normalize(acc, state)
        # A weighted mean of finite uploads can still overflow.
        self._check_finite(new_global.vector[None], ["the aggregate"], round_index, acc.layout.key_at)
        return new_global, self._artifacts(ordered, uploaded)

    def global_eval_model(self, state) -> BlockNetModel:
        return state

    # (state, round, variant id -> eval sub-model) of the last eval round.
    _eval_models: tuple[object, int, dict[str, BlockNetModel]] | None = None

    def client_eval_model(self, state, client_id, round_index):
        """The client's evaluation sub-model. `_extract` reads a client only
        through its variant, so every client of a variant gets the same
        object, extracted once per (state, eval round); it is shared and
        read-only."""
        memo = self._eval_models
        if memo is None or memo[0] is not state or memo[1] != round_index:
            memo = self._eval_models = (state, round_index, {})
        client = self.ctx.clients[client_id]
        models = memo[2]
        model = models.get(client.variant.variant_id)
        if model is None:
            model = models[client.variant.variant_id] = self._extract(state, client, round_index)[0]
        return model


class SHeteroFL(_PartialAveragingStrategy):
    """Static width sub-models: client k always trains the nested prefix at
    its assigned rate; the server overlap-averages into global coordinates."""

    id = "sheterofl"

    def _extract(self, model, client, round_index):
        return extract_width(model, client.variant.rate, "static_prefix", 0)


class FedRolex(SHeteroFL):
    """Width sub-models under a stride-1 rolling window that advances each
    round, so every global channel is trained equally often."""

    id = "fedrolex"

    def _extract(self, model, client, round_index):
        return extract_width(model, client.variant.rate, "rolling", round_index)


class Fjord(SHeteroFL):
    """Ordered-dropout width training: every local step samples a rate p
    from the ladder at or below the client's own rate and applies the step
    to that nested prefix; the upload is the client-rate sub-model."""

    id = "fjord"

    def _allowed_channels(self, client_rate: float) -> list[int]:
        d = self.ctx.pool.largest.spec.hidden_dim
        rates = [v.rate for v in self.ctx.pool.variants if v.rate is not None]
        ks = sorted({width_channels(d, r) for r in rates if r <= client_rate + 1e-12})
        return ks or [width_channels(d, client_rate)]

    def _train_group(self, global_model, key, client_ids, round_index):
        client = self.ctx.clients[client_ids[0]]
        sub, smap = self._extract(global_model, client, round_index)
        widths = self._allowed_channels(client.variant.rate)
        fixed = self.ctx.fed.fjord_fixed_p
        if fixed is not None:
            widths = [min(width_channels(self.ctx.pool.largest.spec.hidden_dim, fixed), sub.spec.hidden_dim)]
        rate_rngs = [self.ctx.client_rng(cid, round_index, seeding.LANE_RATE) for cid in client_ids]
        nested_maps = {}  # width -> map of that nested prefix into `sub`, extracted once

        def moves(pass_index: int) -> list[Move]:
            # Each client draws its own width (a fixed rate draws nothing);
            # the clients that drew the same width take this step as one stack.
            drawn = np.array([widths[0] if fixed is not None else int(rng.choice(widths)) for rng in rate_rngs])
            step = []
            for k in np.unique(drawn).tolist():
                if k not in nested_maps:
                    nested_maps[k] = extract_channels(sub, np.arange(k))[1]
                nmap = nested_maps[k]
                step.append(Move(nmap.index, (nmap.spec, nmap.head_set), np.flatnonzero(drawn == k)))
            return step

        loss = self._client_loss(sub)
        return self._train_clients([sub] * len(client_ids), client_ids, round_index, loss, moves=moves), smap


class DepthFL(_PartialAveragingStrategy):
    """Depth-prefix sub-models with one auxiliary classifier per retained
    block; the local loss is the sum of per-head cross-entropies plus
    pairwise self-distillation KL between head distributions."""

    id = "depthfl"

    def _global_heads(self) -> tuple[int, ...]:
        return tuple(range(1, self.ctx.pool.largest.spec.num_blocks + 1))

    def _extract(self, model, client, round_index):
        return extract_depth(model, client.variant.depth, with_aux_heads=True)

    def _client_loss(self, sub: BlockNetModel) -> LossSpec:
        return LossSpec(ce_heads=sub.head_blocks, distill_weight=self.ctx.fed.lambda_kd)


class InclusiveFL(_PartialAveragingStrategy):
    """Depth-prefix sub-models where each ladder depth owns its own head,
    aggregated among same-depth holders; shared prefix blocks average over
    every holder. The cited method's momentum distillation is omitted."""

    id = "inclusivefl"

    def _global_heads(self) -> tuple[int, ...]:
        depths = sorted({v.depth for v in self.ctx.pool.variants if v.depth is not None})
        return tuple(depths)

    def _extract(self, model, client, round_index):
        return extract_depth(model, client.variant.depth, with_aux_heads=False)


class FeDepth(_PartialAveragingStrategy):
    """Full-model training in memory-sized block segments: blocks are
    partitioned so each segment's footprint fits the client's memory, the
    segments train one after another with everything else frozen, and the
    full model is uploaded for plain FedAvg."""

    id = "fedepth"

    def _group_key(self, client_id):
        largest = self.ctx.pool.largest
        segments = fedepth_segments(
            largest.spec, largest.head_blocks, self.ctx.sgd.batch_size,
            self.ctx.clients[client_id].profile.memory_capacity,
        )
        return tuple(tuple(seg) for seg in segments), self.ctx.clients[client_id].num_samples

    def _train_group(self, global_model, key, client_ids, round_index):
        segments, _ = key
        epochs = self.ctx.sgd.local_epochs
        # The segments train one after another, `local_epochs` passes each;
        # a step moves its segment's slice and the rest stays frozen.
        steps = [[Move(segment_slice(global_model.spec, global_model.head_blocks, seg))] for seg in segments]
        config = replace(self.ctx.sgd, local_epochs=len(segments) * epochs)
        stack = self._train_clients(
            [global_model] * len(client_ids), client_ids, round_index, self._client_loss(global_model),
            config, lambda pass_index: steps[pass_index // epochs],
        )
        return stack, full_map(global_model)

    def client_eval_model(self, state, client_id, round_index):
        return state


class FedAvg(_PartialAveragingStrategy):
    """Plain FedAvg over a single homogeneous variant (full or smallest)."""

    id = "fedavg_full"

    def _extract(self, model, client, round_index):
        return model, full_map(model)

    def client_eval_model(self, state, client_id, round_index):
        return state


class FedAvgSmallest(FedAvg):
    id = "fedavg_smallest"


# ---------------------------------------------------------------------------
# topology-level strategies


@dataclass
class FedProtoState:
    models: dict[int, BlockNetModel]
    proto_vectors: np.ndarray   # [num_classes, proto_dim]
    proto_mask: np.ndarray      # [num_classes] bool: class has a live prototype


class FedProto(Strategy):
    """Clients keep private heterogeneous models and exchange only class
    prototypes (mean embeddings with support counts); the server keeps the
    support-weighted mean per class. No model parameters ever move."""

    id = "fedproto"

    def initial_state(self) -> FedProtoState:
        models = {
            c.client_id: init_model(c.variant.spec, self.ctx.init_rng(c.client_id), c.variant.head_blocks)
            for c in self.ctx.clients
        }
        spec = self.ctx.base_spec
        return FedProtoState(
            models=models,
            proto_vectors=np.zeros((spec.num_classes, spec.proto_dim)),
            proto_mask=np.zeros(spec.num_classes, dtype=bool),
        )

    def run_round(self, state: FedProtoState, sampled: list[int], round_index: int):
        if not sampled:
            raise ValueError("cannot run a round with an empty sample set")
        ordered = sorted(sampled)
        num_classes = self.ctx.base_spec.num_classes
        models = dict(state.models)
        for _, cids in lockstep_groups(ordered, self._same_shape):
            loss = LossSpec(
                ce_heads=(models[cids[0]].final_head,),
                proto_weight=self.ctx.fed.lambda_proto,
                proto_targets=state.proto_vectors,
                proto_mask=state.proto_mask,
            )
            stack = self._train_clients([models[cid] for cid in cids], cids, round_index, loss)
            models.update(zip(cids, stack.models()))
        uploads = [
            compute_prototypes(models[cid], *self.ctx.client_data(cid), num_classes) for cid in ordered
        ]
        agg_vec, agg_support = aggregate_prototypes(uploads)
        dim = agg_vec.shape[1]
        self._check_finite(agg_vec.reshape(1, -1), ["the aggregate"], round_index,
                           lambda col: f"prototype[{col // dim}]")
        fresh = agg_support > 0
        vectors = np.where(fresh[:, None], agg_vec, state.proto_vectors)
        mask = state.proto_mask | fresh

        numbers = num_classes * (self.ctx.base_spec.proto_dim + 1)
        uploaded = {cid: numbers for cid in ordered}
        return FedProtoState(models, vectors, mask), self._artifacts(ordered, uploaded)

    def global_eval_model(self, state) -> None:
        return None

    def evaluate_global(self, state, features, labels) -> float:
        # No shared model exists; global accuracy is the mean of every
        # client's own-model accuracy on the global test set.
        from .metrics import model_accuracy

        accs = [model_accuracy(m, features, labels) for _, m in sorted(state.models.items())]
        return float(np.mean(accs))

    def client_eval_model(self, state, client_id, round_index):
        return state.models[client_id]


@dataclass
class FedETState:
    server_model: BlockNetModel
    models: dict[int, BlockNetModel]


class FedET(Strategy):
    """Server-side ensemble transfer: sampled clients train locally and send
    their models up; the server builds confidence-weighted consensus logits
    on an unlabeled public split, distills them into a largest-spec server
    model, and distills the server model back into each client architecture.
    The cited method's diversity regularizer is omitted."""

    id = "fedet"

    def __init__(self, ctx: FederationContext):
        super().__init__(ctx)
        if ctx.public_features is None or ctx.public_features.shape[0] == 0:
            raise ValueError("fedet requires a public split; set data.public_fraction > 0")

    def initial_state(self) -> FedETState:
        server = init_model(self.ctx.pool.largest.spec, self.ctx.server_rng(0),
                            self.ctx.pool.largest.head_blocks)
        models = {
            c.client_id: init_model(c.variant.spec, self.ctx.init_rng(c.client_id), c.variant.head_blocks)
            for c in self.ctx.clients
        }
        return FedETState(server, models)

    def run_round(self, state: FedETState, sampled: list[int], round_index: int):
        if not sampled:
            raise ValueError("cannot run a round with an empty sample set")
        ordered = sorted(sampled)
        public = self.ctx.public_features
        models = dict(state.models)
        for _, cids in lockstep_groups(ordered, self._same_shape):
            loss = LossSpec(ce_heads=(models[cids[0]].final_head,))
            stack = self._train_clients([models[cid] for cid in cids], cids, round_index, loss)
            models.update(zip(cids, stack.models()))

        logit_sets = [forward(models[cid], public).logits[models[cid].final_head] for cid in ordered]
        consensus = consensus_logits(logit_sets)
        server_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_server_epochs)
        stack = train_local(
            [state.server_model], public, None, server_cfg,
            LossSpec(ce_heads=(), soft_targets=softmax(consensus)),
            [self.ctx.server_rng(round_index)],
        )
        self._check_finite(stack.vector, ["the server model"], round_index, stack.layout.key_at)
        server = stack.models()[0]

        # Every client distills from the same public rows, so one
        # architecture is one lockstep group.
        teacher = softmax(forward(server, public).logits[server.final_head])
        client_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_client_epochs)
        for _, cids in lockstep_groups(ordered, lambda cid: self.ctx.clients[cid].variant.variant_id):
            stack = train_local(
                [models[cid] for cid in cids], public, None, client_cfg,
                LossSpec(ce_heads=(), soft_targets=teacher),
                [self.ctx.client_rng(cid, round_index, seeding.LANE_DISTILL) for cid in cids],
            )
            owners = [f"client {cid}" for cid in cids]
            self._check_finite(stack.vector, owners, round_index, stack.layout.key_at)
            models.update(zip(cids, stack.models()))

        uploaded = {cid: int(models[cid].vector.size) for cid in ordered}
        return FedETState(server, models), self._artifacts(ordered, uploaded)

    def global_eval_model(self, state) -> BlockNetModel:
        return state.server_model

    def client_eval_model(self, state, client_id, round_index):
        return state.models[client_id]


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
