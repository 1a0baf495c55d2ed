"""Device profiles, the analytic cost model, and constraint-based assignment.

The cost model prices each candidate model variant (FLOPs, bytes moved,
training-memory footprint) so that scenarios can hand every client the
largest variant its device can actually afford.

One rule prices training memory: κ × `training_memory` of the coordinates
the strategy trains, where `training_memory` counts every weight of the
model resident, a gradient and a momentum entry for each trained
coordinate, and the activation state of one batch, 8 bytes each. A pool
variant trains its whole model, DepthFL's with a head after every block;
a FeDepth segment trains its `nn.segment_slice`, so FeDepth's `full`
variant costs its longest single-block segment, the least memory any
segmentation of it fits in, and a client is assigned it if and only if
`fedepth_segments` finds one. κ (`resource.kappa_<strategy>`, 1 for
strategies without a key) stays only where the layer plan cannot see
the cost, FedRolex and FeDepth, from measured training footprints of
equal-proportion models against the static-width baseline's 593 MB:
FedRolex 780 MB and FeDepth 631 MB. DepthFL's measured 1220 MB is its
k-head plan's own (2.03× static width at the shipped configs' model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .nn import BlockNetSpec

CONSTRAINTS = ("computation", "communication", "memory")

WIDTH_STRATEGIES = ("fjord", "sheterofl", "fedrolex")
DEPTH_STRATEGIES = ("fedepth", "inclusivefl", "depthfl")
TOPOLOGY_STRATEGIES = ("fedproto", "fedet")
BASELINE_STRATEGIES = ("fedavg_full", "fedavg_smallest")

# The config key that sets each level's ladder.
LADDER_KEYS = {"width": "pool.rates", "depth": "pool.depths", "topology": "pool.family"}

# Each strategy's default κ: its measured training footprint over the
# static-width baseline's (see the module docstring).
DEFAULT_KAPPA = {
    "fedrolex": 780.0 / 593.0,
    "fedepth": 631.0 / 593.0,
}

FLOAT_BYTES = 8


class InfeasibleScenarioError(RuntimeError):
    """No pool variant satisfies a client's active constraints."""


@dataclass(frozen=True)
class DeviceProfile:
    device_id: int
    compute_rate: float      # FLOP/s
    bandwidth: float         # bytes/s
    memory_capacity: float   # bytes
    tier_label: str = ""

    def __post_init__(self) -> None:
        if self.compute_rate <= 0 or self.bandwidth <= 0 or self.memory_capacity <= 0:
            raise ValueError("device capacities must be strictly positive")


@dataclass(frozen=True)
class VariantStats:
    params: int
    flops_per_sample: float
    memory_bytes: float
    comm_payload_bytes: float


@dataclass(frozen=True)
class Variant:
    variant_id: str
    kind: str                       # width | depth | full | topology
    spec: BlockNetSpec
    head_blocks: tuple[int, ...]
    stats: VariantStats
    rate: float | None = None
    depth: int | None = None


@dataclass
class ModelPool:
    strategy: str
    level: str
    variants: list[Variant]
    kappa: float = 1.0   # scales every memory price, the variants' and FeDepth's segments'

    def __post_init__(self) -> None:
        def describe(v: Variant) -> str:
            return (f"{v.variant_id} (hidden_dim {v.spec.hidden_dim}, {v.spec.num_blocks} "
                    f"{v.spec.block_kind} blocks, {v.stats.params} parameters)")

        for earlier, later in zip(self.variants[:-1], self.variants[1:]):
            if later.stats.params >= earlier.stats.params:
                raise ValueError(
                    f"{LADDER_KEYS[self.level]}: the {self.strategy} pool's variants must be strictly "
                    f"decreasing in parameter count, but {describe(earlier)} and {describe(later)} collide"
                )
        # Lockstep groups and evaluation sub-models are keyed by variant id.
        ids = [v.variant_id for v in self.variants]
        shared = [describe(v) for v in self.variants if ids.count(v.variant_id) > 1]
        if shared:
            raise ValueError(
                f"{LADDER_KEYS[self.level]}: the {self.strategy} pool's variants must have distinct ids, "
                f"but {' and '.join(shared)} share one"
            )

    @property
    def largest(self) -> Variant:
        return self.variants[0]


@dataclass(frozen=True)
class ScenarioConfig:
    constraints: tuple[str, ...] = ("memory",)
    t_compute: float | None = None
    t_comm: float = 200.0
    # Desk-scale capacities in the 16:4:1 shape of real device memory tiers.
    memory_tiers: tuple[tuple[float, float], ...] = ((1.6e6, 0.25), (4.0e5, 0.50), (1.0e5, 0.25))

    def __post_init__(self) -> None:
        # Each message names the config key that sets the value.
        if not self.constraints:
            raise ValueError("scenario.constraints: at least one constraint must be active")
        for i, c in enumerate(self.constraints):
            if c not in CONSTRAINTS:
                raise ValueError(f"scenario.constraints: unknown constraint {c!r}; choose from {CONSTRAINTS}")
            if c in self.constraints[:i]:
                raise ValueError(f"scenario.constraints: {c} is listed more than once")
        if "computation" in self.constraints and (self.t_compute is None or self.t_compute <= 0):
            raise ValueError(f"scenario.t_compute: must be > 0 when computation is active, got {self.t_compute}")
        if self.t_comm <= 0:
            raise ValueError(f"scenario.t_comm: must be > 0, got {self.t_comm}")
        if "memory" in self.constraints:
            if not self.memory_tiers:
                raise ValueError("scenario.memory_tiers: required when the memory constraint is active")
            total = sum(frac for _, frac in self.memory_tiers)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"scenario.memory_tiers: fractions must sum to 1, got {total}")
            if any(cap <= 0 or frac < 0 for cap, frac in self.memory_tiers):
                raise ValueError("scenario.memory_tiers: capacities must be positive and fractions >= 0")


@dataclass(frozen=True)
class ProfileDistribution:
    """Log-uniform capability ranges the synthetic device population is drawn from."""

    compute_min: float = 1e8
    compute_max: float = 1e9
    bandwidth_min: float = 1e5
    bandwidth_max: float = 1e6

    def __post_init__(self) -> None:
        # Each message names the config key that sets the value.
        for name in ("compute", "bandwidth"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if lo <= 0:
                raise ValueError(f"profiles.{name}_min: must be > 0, got {lo}")
            if hi < lo:
                raise ValueError(f"profiles.{name}_max: must be >= profiles.{name}_min ({lo}), got {hi}")


# ---------------------------------------------------------------------------
# cost model


def estimate_flops(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> float:
    """Forward-pass FLOPs per sample: 2 * multiply-accumulates."""
    return 2.0 * nn.mac_count(spec, head_blocks)


def training_memory(
    spec: BlockNetSpec,
    head_blocks: tuple[int, ...],
    batch_size: int,
    trained: slice = slice(None),
) -> float:
    """Training footprint in bytes, 8 * (params + 2 * trained params +
    batch * activations): all weights stay resident, gradients and momentum
    exist only for the coordinates in `trained` (the whole model by
    default), plus the activation state of one batch."""
    if batch_size < 0:
        raise ValueError("batch_size must be >= 0")
    params = nn.parameter_count(spec, head_blocks)
    start, stop, _ = trained.indices(params)
    acts = nn.activation_count(spec, head_blocks)
    return FLOAT_BYTES * (params + 2.0 * (stop - start) + float(batch_size) * acts)


def fedepth_segments(
    spec: BlockNetSpec,
    head_blocks: tuple[int, ...],
    batch_size: int,
    memory_capacity: float,
    kappa: float = 1.0,
) -> list[list[int]]:
    """Greedy block segmentation whose every segment footprint fits memory.

    A segment is priced at κ × the training memory of the coordinates it
    trains, its `nn.segment_slice`: its blocks, plus the stem with the
    first segment and every head with the last. Raises when even
    single-block segments do not fit.
    """
    def price(blocks: list[int]) -> float:
        return kappa * training_memory(spec, head_blocks, batch_size, nn.segment_slice(spec, head_blocks, blocks))

    segments: list[list[int]] = []
    current: list[int] = []
    for b in range(1, spec.num_blocks + 1):
        if current and price(current + [b]) > memory_capacity:
            segments.append(current)
            current = [b]
        else:
            current = current + [b]
    segments.append(current)
    if any(price(seg) > memory_capacity for seg in segments):
        raise InfeasibleScenarioError(f"even a single-block segment exceeds {memory_capacity:.0f} bytes of memory")
    return segments


def payload_bytes(strategy: str, numbers: int) -> float:
    """Bytes a client moves in one round when it uploads `numbers` float64
    numbers: a model goes up and one of the same size comes back, twice the
    upload, except FedProto's prototype table, priced once. The one payload
    rule: the cost model and the runner's check of each upload use it."""
    if strategy == "fedproto":
        return float(numbers * FLOAT_BYTES)
    return float(2 * numbers * FLOAT_BYTES)


def estimate_times(
    stats: VariantStats,
    profile: DeviceProfile,
    samples: int,
    epochs: int,
) -> tuple[float, float]:
    """(training seconds, communication seconds) for one round."""
    train = epochs * samples * 3.0 * stats.flops_per_sample / profile.compute_rate
    comm = stats.comm_payload_bytes / profile.bandwidth
    return train, comm


# ---------------------------------------------------------------------------
# pools


@dataclass(frozen=True)
class PoolConfig:
    rates: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
    depths: tuple[int, ...] = (4, 3, 2, 1)
    # (hidden_dim, num_blocks, kind), for the topology level
    family: tuple[tuple[int, int, str], ...] = ((16, 4, "bottleneck"), (16, 3, "plain"), (8, 2, "plain"))

    def __post_init__(self) -> None:
        # Each message names the config key; a config's lists become tuples.
        # Numbers are JSON's, so a true/false (a bool) is no rate or depth.
        if any(type(r) not in (int, float) or not 0 < r <= 1 for r in self.rates):
            raise ValueError("pool.rates: every rate must lie in (0, 1]")
        if any(type(d) is not int or d < 1 for d in self.depths):
            raise ValueError("pool.depths: every depth must be an integer >= 1")
        for entry in self.family:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                    or any(type(v) is not int for v in entry[:2]) or entry[2] not in nn.BLOCK_KINDS):
                raise ValueError("pool.family: entries must be [hidden_dim, num_blocks, kind]")
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "depths", tuple(self.depths))
        object.__setattr__(self, "family", tuple(tuple(entry) for entry in self.family))


def check_strategy(strategy: str, level: str) -> None:
    """Raise unless `strategy` is known and runs at `level`; the FedAvg
    baselines run at every level."""
    for own, ids in (("width", WIDTH_STRATEGIES), ("depth", DEPTH_STRATEGIES),
                     ("topology", TOPOLOGY_STRATEGIES), (level, BASELINE_STRATEGIES)):
        if strategy in ids:
            if own != level:
                raise ValueError(f"strategies: {strategy} belongs to the {own} level, not {level}")
            return
    raise ValueError(f"strategies: unknown strategy {strategy!r}")


def build_pool(
    strategy: str,
    level: str,
    model_spec: BlockNetSpec,
    pool_cfg: PoolConfig,
    batch_size: int,
    kappa: float = 1.0,
) -> ModelPool:
    """Candidate variants for one strategy, ordered largest to smallest,
    each priced at `kappa` × the training memory of what it trains.
    Every pool rule is checked here or in the calls it makes; each
    message names the config key at fault."""
    check_strategy(strategy, level)
    specs = ladder(model_spec, level, pool_cfg)

    def make(spec: BlockNetSpec, heads: tuple[int, ...], vid: str, kind: str, rate: float | None = None,
             depth: int | None = None, trained: slice = slice(None)) -> Variant:
        params = nn.parameter_count(spec, heads)
        # FedProto uploads its prototype table, num_classes * (proto_dim + 1)
        # numbers; every other strategy its model.
        numbers = spec.num_classes * (spec.proto_dim + 1) if strategy == "fedproto" else params
        memory = kappa * training_memory(spec, heads, batch_size, trained)
        stats = VariantStats(params, estimate_flops(spec, heads), memory, payload_bytes(strategy, numbers))
        return Variant(variant_id=vid, kind=kind, spec=spec, head_blocks=heads, stats=stats, rate=rate, depth=depth)

    if strategy in WIDTH_STRATEGIES:
        rates = sorted(set(pool_cfg.rates), reverse=True)
        variants = [make(spec, one_head(spec), f"w{int(round(100 * r))}", "width", rate=r)
                    for r, spec in zip(rates, specs)]
    elif strategy in ("depthfl", "inclusivefl"):
        variants = []
        for spec in specs:
            depth = spec.num_blocks
            heads = tuple(range(1, depth + 1)) if strategy == "depthfl" else one_head(spec)
            variants.append(make(spec, heads, f"d{depth}", "depth", depth=depth))
    elif strategy == "fedepth":
        # Every client trains the full model in segments, so the least memory
        # it fits in is its longest single-block segment's.
        heads = one_head(model_spec)
        longest = max((nn.segment_slice(model_spec, heads, [b]) for b in range(1, model_spec.num_blocks + 1)),
                      key=lambda part: part.stop - part.start)
        variants = [make(model_spec, heads, "full", "full", depth=model_spec.num_blocks, trained=longest)]
    elif strategy in TOPOLOGY_STRATEGIES:
        variants = [make(spec, one_head(spec), f"arch{q}", "topology") for q, spec in enumerate(specs)]
    else:  # fedavg baselines: one homogeneous variant, the ladder's largest or smallest
        # The smallest is the first of the smallest in ladder order, which
        # for tied family members is their config order.
        spec = specs[0] if strategy == "fedavg_full" else min(specs, key=_one_head_params)
        variants = [make(spec, one_head(spec), strategy.removeprefix("fedavg_"), "full")]
    return ModelPool(strategy, level, variants, kappa)


def one_head(spec: BlockNetSpec) -> tuple[int, ...]:
    """The pool's head rule: a variant carries one head, after its last
    block. Only DepthFL's variants differ, with a head after every block."""
    return (spec.num_blocks,)


def _one_head_params(spec: BlockNetSpec) -> int:
    return nn.parameter_count(spec, one_head(spec))


def width_channels(d: int, rate: float) -> int:
    """Channels of d kept at a width rate: ceil(rate * d), at least 1 for
    any rate in (0, 1]. The one rate-to-width rule: the width ladder and
    FjORD's fixed rate both use it."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"width rate must lie in (0, 1], got {rate}")
    return math.ceil(rate * d)


def ladder(model_spec: BlockNetSpec, level: str, pool_cfg: PoolConfig) -> list[BlockNetSpec]:
    """The level's specs, largest first: one per width rate, one per depth,
    or the topology family by parameter count with one head (ties keep
    config order).
    Raises, naming the key, when the ladder cannot be built."""
    if level == "width":
        if model_spec.block_kind == "bottleneck":
            raise ValueError("model.block_kind: width heterogeneity needs plain or skip blocks")
        rates = sorted(set(pool_cfg.rates), reverse=True)
        if not rates or rates[0] != 1.0:
            raise ValueError("pool.rates: the ladder must include 1.0")
        return [replace(model_spec, hidden_dim=width_channels(model_spec.hidden_dim, r)) for r in rates]
    if level == "depth":
        depths = sorted(set(pool_cfg.depths), reverse=True)
        if not depths or depths[0] != model_spec.num_blocks:
            raise ValueError("pool.depths: the ladder must span up to model.num_blocks")
        return [replace(model_spec, num_blocks=depth) for depth in depths]
    if not pool_cfg.family:
        raise ValueError("pool.family: the topology level needs at least one [hidden_dim, num_blocks, kind] entry")
    specs = family_specs(model_spec, pool_cfg.family)
    specs.sort(key=_one_head_params, reverse=True)
    return specs


def family_specs(model_spec: BlockNetSpec, family: tuple[tuple[int, int, str], ...]) -> list[BlockNetSpec]:
    """The base spec of each `pool.family` entry, in config order; an entry
    that does not build a valid base model raises, naming the entry."""
    specs = []
    for hidden, blocks, kind in family:
        try:
            spec = replace(model_spec, hidden_dim=hidden, num_blocks=blocks, block_kind=kind)
            nn.validate_base_spec(spec)
        except ValueError as exc:
            raise ValueError(f"pool.family: {json.dumps([hidden, blocks, kind])}: {exc}") from exc
        specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# profiles and assignment


def sample_profiles(
    dist: ProfileDistribution,
    scenario: ScenarioConfig,
    n: int,
    seed: int,
) -> list[DeviceProfile]:
    """Draw n device profiles; deterministic for a given seed.

    Compute rates and bandwidths are log-uniform in their ranges; memory
    comes from the scenario's tier table when the memory constraint is
    active, otherwise it is unbounded (`math.inf`), so no price reads a
    capacity that assignment did not check.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    compute = np.exp(rng.uniform(math.log(dist.compute_min), math.log(dist.compute_max), size=n))
    bandwidth = np.exp(rng.uniform(math.log(dist.bandwidth_min), math.log(dist.bandwidth_max), size=n))
    if "memory" in scenario.constraints:
        caps = np.array([cap for cap, _ in scenario.memory_tiers])
        fracs = np.array([frac for _, frac in scenario.memory_tiers])
        tier_idx = rng.choice(len(caps), size=n, p=fracs / fracs.sum())
        memory = caps[tier_idx]
        labels = [f"tier{int(t)}" for t in tier_idx]
    else:
        memory = np.full(n, math.inf)
        labels = ["unconstrained"] * n
    return [
        DeviceProfile(
            device_id=i,
            compute_rate=float(compute[i]),
            bandwidth=float(bandwidth[i]),
            memory_capacity=float(memory[i]),
            tier_label=labels[i],
        )
        for i in range(n)
    ]


def feasible(
    variant: Variant,
    profile: DeviceProfile,
    scenario: ScenarioConfig,
    samples: int,
    epochs: int,
) -> list[str]:
    """The active constraints the variant violates; empty when it fits."""
    train_s, comm_s = estimate_times(variant.stats, profile, samples, epochs)
    violations = []
    # Significant digits, not decimals: a sub-0.05 s deadline must not print as 0.0s.
    if "computation" in scenario.constraints and train_s > scenario.t_compute:
        violations.append(f"computation ({train_s:.3g}s > {scenario.t_compute:.3g}s)")
    if "communication" in scenario.constraints and comm_s > scenario.t_comm:
        violations.append(f"communication ({comm_s:.3g}s > {scenario.t_comm:.3g}s)")
    if "memory" in scenario.constraints and variant.stats.memory_bytes > profile.memory_capacity:
        violations.append(
            f"memory ({variant.stats.memory_bytes:.0f}B > {profile.memory_capacity:.0f}B)"
        )
    return violations


def assign_models(
    pool: ModelPool,
    profiles: list[DeviceProfile],
    scenario: ScenarioConfig,
    samples: list[int],
    epochs: int,
) -> list[Variant]:
    """Largest feasible variant per client; combined constraints intersect.
    Client i is priced at its own `samples[i]` rows, by the
    `estimate_times` call the clock charges it every round."""
    assignments: list[Variant] = []
    for profile, rows in zip(profiles, samples, strict=True):
        for variant in pool.variants:
            violations = feasible(variant, profile, scenario, rows, epochs)
            if not violations:
                assignments.append(variant)
                break
        else:
            raise InfeasibleScenarioError(
                f"client {profile.device_id}: no feasible variant in the {pool.strategy} pool; "
                f"smallest variant violates {', '.join(violations)}"
            )
    return assignments
