"""The federated strategies: three width-level, three depth-level, two
topology-level algorithms plus the homogeneous FedAvg baselines.

Each strategy implements one server round over the sampled clients and is
deterministic given (repeat seed, round, sample set).

The width and depth strategies share one round: each client trains the
sub-model that the strategy's `_extract` hook cuts from the global model,
under the loss its `_client_loss` hook names, and the server scatters the
results back. FjORD and FeDepth move only part of their model per step and
call `nn.sgd_update` on that part themselves.

Where the published descriptions of the cited methods include extras that
do not change the resource trade-off being measured (InclusiveFL's momentum
distillation, Fed-ET's diversity regularizer), those extras are omitted;
the omissions are noted on the strategy docstrings.
"""

from __future__ import annotations

from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
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
    SGDConfig,
    backward,
    batch_windows,
    forward,
    gradient_buffer,
    init_model,
    segment_slice,
    sgd_update,
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
    workers: int = 1

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

    def map_clients(self, fn, client_ids: list[int]) -> list:
        """Apply fn to each client id, preserving order; results must not
        depend on scheduling, so parallel and serial execution agree."""
        if self.workers > 1 and len(client_ids) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(fn, client_ids))
        return [fn(cid) for cid in client_ids]


@dataclass
class RoundArtifacts:
    sample_counts: dict[int, int]
    payload_bytes: dict[int, float]


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
        raise NotImplementedError

    def evaluate_global(self, state, features: np.ndarray, labels: np.ndarray) -> float:
        from .metrics import model_accuracy

        model = self.global_eval_model(state)
        if model is None:
            raise ValueError(f"{self.id} has no single global model to evaluate")
        return model_accuracy(model, features, labels)

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
        """The sub-model a client trains and is evaluated on, and its map."""
        raise NotImplementedError

    def _client_loss(self, sub: BlockNetModel) -> LossSpec:
        return LossSpec(ce_heads=(sub.final_head,))

    def _train_client(
        self, global_model: BlockNetModel, client_id: int, round_index: int
    ) -> tuple[Mapping[str, np.ndarray], SubModelMap]:
        sub, smap = self._extract(global_model, self.ctx.clients[client_id], round_index)
        features, labels = self.ctx.client_data(client_id)
        rng = self.ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
        trained = train_local(sub, features, labels, self.ctx.sgd, self._client_loss(sub), rng)
        return trained.params, smap

    def run_round(self, state: BlockNetModel, sampled: list[int], round_index: int):
        if not sampled:
            raise ValueError("cannot run a round with an empty sample set")
        ordered = sorted(sampled)
        results = self.ctx.map_clients(
            lambda cid: self._train_client(state, cid, round_index), ordered
        )
        acc = new_accumulator(state)
        uploaded: dict[int, int] = {}
        for cid, (params, smap) in zip(ordered, results):
            scatter_update(acc, params, smap, self.ctx.client_weight(cid))
            uploaded[cid] = int(smap.index.size)
        new_global = normalize(acc, state)
        return new_global, self._artifacts(ordered, uploaded)

    def global_eval_model(self, state) -> BlockNetModel:
        return state

    def client_eval_model(self, state, client_id, round_index):
        return self._extract(state, self.ctx.clients[client_id], round_index)[0]


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

    def _train_client(self, global_model, client_id, round_index):
        client = self.ctx.clients[client_id]
        sub, smap = self._extract(global_model, client, round_index)
        features, labels = self.ctx.client_data(client_id)
        cfg = self.ctx.sgd
        batch_rng = self.ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
        rate_rng = self.ctx.client_rng(client_id, round_index, seeding.LANE_RATE)
        ks = self._allowed_channels(client.variant.rate)
        fixed = self.ctx.fed.fjord_fixed_p
        d_global = self.ctx.pool.largest.spec.hidden_dim

        working = sub.copy()
        momentum = np.zeros_like(working.vector)
        # Per nested width: the nested model, its map into `working` and a
        # gradient buffer, extracted once and refreshed through the map.
        nested_by_width = {}
        n = features.shape[0]
        for _ in range(cfg.local_epochs):
            for idx in batch_windows(n, cfg.batch_size, batch_rng):
                if fixed is not None:
                    k = min(width_channels(d_global, fixed), sub.spec.hidden_dim)
                else:
                    k = int(rate_rng.choice(ks))
                if k not in nested_by_width:
                    nested, nmap = extract_channels(working, np.arange(k))
                    nested_by_width[k] = nested, nmap, gradient_buffer(nested)
                nested, nmap, grads = nested_by_width[k]
                working.vector.take(nmap.index, out=nested.vector)
                backward(nested, features[idx], labels[idx], self._client_loss(nested), grads)
                sgd_update(working.vector, momentum, grads.vector, cfg, nmap.index)
        return working.params, smap


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

    def _train_client(self, global_model, client_id, round_index):
        client = self.ctx.clients[client_id]
        spec = global_model.spec
        cfg = self.ctx.sgd
        segments = fedepth_segments(
            spec, global_model.head_blocks, cfg.batch_size, client.profile.memory_capacity
        )
        features, labels = self.ctx.client_data(client_id)
        rng = self.ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
        working = global_model.copy()
        momentum = np.zeros_like(working.vector)
        grads = gradient_buffer(working)
        loss = self._client_loss(working)
        n = features.shape[0]
        for seg in segments:
            part = segment_slice(spec, working.head_blocks, seg)
            for _ in range(cfg.local_epochs):
                for idx in batch_windows(n, cfg.batch_size, rng):
                    backward(working, features[idx], labels[idx], loss, grads)
                    sgd_update(working.vector, momentum, grads.vector[part], cfg, part)  # frozen rest
        return working.params, full_map(global_model)

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

        def train_one(cid: int):
            features, labels = self.ctx.client_data(cid)
            loss = LossSpec(
                ce_heads=(state.models[cid].final_head,),
                proto_weight=self.ctx.fed.lambda_proto,
                proto_targets=state.proto_vectors,
                proto_mask=state.proto_mask,
            )
            rng = self.ctx.client_rng(cid, round_index, seeding.LANE_BATCH)
            trained = train_local(state.models[cid], features, labels, self.ctx.sgd, loss, rng)
            return trained, compute_prototypes(trained, features, labels, num_classes)

        results = self.ctx.map_clients(train_one, ordered)
        models = dict(state.models)
        uploads = []
        for cid, (trained, protos) in zip(ordered, results):
            models[cid] = trained
            uploads.append(protos)
        agg_vec, agg_support = aggregate_prototypes(uploads)
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

        def train_one(cid: int) -> BlockNetModel:
            features, labels = self.ctx.client_data(cid)
            rng = self.ctx.client_rng(cid, round_index, seeding.LANE_BATCH)
            return train_local(
                state.models[cid], features, labels, self.ctx.sgd,
                LossSpec(ce_heads=(state.models[cid].final_head,)), rng,
            )

        trained = self.ctx.map_clients(train_one, ordered)
        models = dict(state.models)
        for cid, model in zip(ordered, trained):
            models[cid] = model

        logit_sets = [forward(models[cid], public).logits[models[cid].final_head] for cid in ordered]
        consensus = consensus_logits(logit_sets)
        server_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_server_epochs)
        server = train_local(
            state.server_model, public, None, server_cfg,
            LossSpec(ce_heads=(), soft_targets=softmax(consensus)),
            self.ctx.server_rng(round_index),
        )

        teacher = softmax(forward(server, public).logits[server.final_head])
        client_cfg = replace(self.ctx.sgd, local_epochs=self.ctx.fed.fedet_client_epochs)
        for cid in ordered:
            rng = self.ctx.client_rng(cid, round_index, seeding.LANE_DISTILL)
            models[cid] = train_local(
                models[cid], public, None, client_cfg,
                LossSpec(ce_heads=(), soft_targets=teacher), rng,
            )

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
