"""Device profiles, the analytic cost model, and constraint-based assignment.

The cost model prices each candidate model variant (FLOPs, bytes moved,
training-memory footprint) so that scenarios can hand every client the
largest variant its device can actually afford. Memory footprints carry
per-strategy calibration multipliers because measured footprints of equal
parameter-count models differ widely across aggregation schemes.
"""

from __future__ import annotations

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
STRATEGY_IDS = WIDTH_STRATEGIES + DEPTH_STRATEGIES + TOPOLOGY_STRATEGIES + BASELINE_STRATEGIES

# Footprint ratios vs the static-width baseline, calibrated to measured
# training footprints of equal-proportion models (1220/593, 780/593,
# 631/593 MB). Overridable through config.
DEFAULT_MEMORY_MULTIPLIERS = {
    "depthfl": 1220.0 / 593.0,
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

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("model pool must not be empty")
        params = [v.stats.params for v in self.variants]
        if any(later >= earlier for earlier, later in zip(params[:-1], params[1:])):
            raise ValueError("pool variants must be strictly decreasing in parameter count")

    @property
    def largest(self) -> Variant:
        return self.variants[0]

    @property
    def smallest(self) -> Variant:
        return self.variants[-1]


@dataclass(frozen=True)
class ScenarioConfig:
    constraints: tuple[str, ...]
    t_compute: float | None = None
    t_comm: float = 200.0
    memory_tiers: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("at least one constraint must be active")
        for c in self.constraints:
            if c not in CONSTRAINTS:
                raise ValueError(f"unknown constraint {c!r}; choose from {CONSTRAINTS}")
        if "computation" in self.constraints and (self.t_compute is None or self.t_compute <= 0):
            raise ValueError("t_compute is required (and > 0) when the computation constraint is active")
        if self.t_comm <= 0:
            raise ValueError("t_comm must be > 0")
        if "memory" in self.constraints:
            if not self.memory_tiers:
                raise ValueError("memory tiers are required when the memory constraint is active")
            total = sum(frac for _, frac in self.memory_tiers)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"memory tier fractions must sum to 1, got {total}")
            if any(cap <= 0 or frac < 0 for cap, frac in self.memory_tiers):
                raise ValueError("memory tier capacities must be positive and fractions >= 0")


@dataclass(frozen=True)
class ProfileDistribution:
    """Log-uniform capability ranges the synthetic device population is drawn from."""

    compute_min: float = 1e8
    compute_max: float = 1e9
    bandwidth_min: float = 1e5
    bandwidth_max: float = 1e6
    default_memory: float = 1e9   # used when the memory constraint is inactive

    def __post_init__(self) -> None:
        for lo, hi, name in (
            (self.compute_min, self.compute_max, "compute"),
            (self.bandwidth_min, self.bandwidth_max, "bandwidth"),
        ):
            if lo <= 0 or hi < lo:
                raise ValueError(f"{name} range must satisfy 0 < min <= max")
        if self.default_memory <= 0:
            raise ValueError("default_memory must be > 0")


# ---------------------------------------------------------------------------
# cost model


def estimate_flops(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> float:
    """Forward-pass FLOPs per sample: 2 * multiply-accumulates."""
    return 2.0 * nn.mac_count(spec, head_blocks)


def estimate_memory(
    spec: BlockNetSpec,
    batch_size: int,
    strategy: str = "sheterofl",
    head_blocks: tuple[int, ...] | None = None,
    multipliers: dict[str, float] | None = None,
) -> float:
    """Training footprint in bytes.

    base = 8 * (3 * params + batch * activations): weights, gradients and
    momentum plus the activation state of one batch, scaled by the
    strategy's calibration multiplier.
    """
    if batch_size < 0:
        raise ValueError("batch_size must be >= 0")
    table = DEFAULT_MEMORY_MULTIPLIERS if multipliers is None else multipliers
    kappa = table.get(strategy, 1.0)
    params = nn.parameter_count(spec, head_blocks)
    acts = nn.activation_count(spec, head_blocks)
    return kappa * FLOAT_BYTES * (3.0 * params + float(batch_size) * acts)


def segment_memory(
    spec: BlockNetSpec,
    batch_size: int,
    segment_params: int,
    head_blocks: tuple[int, ...] | None = None,
) -> float:
    """Footprint of training one frozen-rest segment of the full model.

    All weights stay resident, but gradients and momentum exist only for
    the segment's parameters.
    """
    params = nn.parameter_count(spec, head_blocks)
    acts = nn.activation_count(spec, head_blocks)
    return FLOAT_BYTES * (params + 2.0 * segment_params + float(batch_size) * acts)


def fedepth_segments(
    spec: BlockNetSpec,
    head_blocks: tuple[int, ...],
    batch_size: int,
    memory_capacity: float,
) -> list[list[int]]:
    """Greedy block segmentation whose every segment footprint fits memory.

    A segment is priced at the parameters it trains, the length of its
    `nn.segment_slice`: its blocks, plus the stem with the first segment
    and every head with the last. Raises when even single-block segments
    do not fit.
    """

    def seg_params(blocks: list[int]) -> int:
        part = nn.segment_slice(spec, head_blocks, blocks)
        return part.stop - part.start

    segments: list[list[int]] = []
    current: list[int] = []
    for b in range(1, spec.num_blocks + 1):
        candidate = current + [b]
        if current and segment_memory(spec, batch_size, seg_params(candidate), head_blocks) > memory_capacity:
            segments.append(current)
            current = [b]
        else:
            current = candidate
    segments.append(current)
    for seg in segments:
        if segment_memory(spec, batch_size, seg_params(seg), head_blocks) > memory_capacity:
            raise InfeasibleScenarioError(
                f"even a single-block segment exceeds {memory_capacity:.0f} bytes of memory"
            )
    return segments


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
    family: tuple[tuple[int, int, str], ...] = ()   # (hidden_dim, num_blocks, kind)


def _variant_stats(
    spec: BlockNetSpec,
    head_blocks: tuple[int, ...],
    strategy: str,
    batch_size: int,
    multipliers: dict[str, float] | None,
) -> VariantStats:
    params = nn.parameter_count(spec, head_blocks)
    if strategy == "fedproto":
        # Prototype table up and back: num_classes * (proto_dim + 1) numbers.
        payload = spec.num_classes * (spec.proto_dim + 1) * FLOAT_BYTES
    else:
        payload = 2 * params * FLOAT_BYTES
    return VariantStats(
        params=params,
        flops_per_sample=estimate_flops(spec, head_blocks),
        memory_bytes=estimate_memory(spec, batch_size, strategy, head_blocks, multipliers),
        comm_payload_bytes=float(payload),
    )


def strategy_level(strategy: str) -> str:
    if strategy in WIDTH_STRATEGIES:
        return "width"
    if strategy in DEPTH_STRATEGIES:
        return "depth"
    if strategy in TOPOLOGY_STRATEGIES:
        return "topology"
    if strategy in BASELINE_STRATEGIES:
        return "any"
    raise ValueError(f"unknown strategy {strategy!r}")


def build_pool(
    strategy: str,
    level: str,
    base_spec: BlockNetSpec,
    pool_cfg: PoolConfig,
    batch_size: int,
    multipliers: dict[str, float] | None = None,
) -> ModelPool:
    """Candidate variants for one strategy, ordered largest to smallest."""
    own_level = strategy_level(strategy)
    if own_level not in ("any", level):
        raise ValueError(f"strategy {strategy!r} belongs to the {own_level} level, not {level}")

    def make(spec: BlockNetSpec, heads: tuple[int, ...], vid: str, kind: str,
             rate: float | None = None, depth: int | None = None) -> Variant:
        return Variant(
            variant_id=vid,
            kind=kind,
            spec=spec,
            head_blocks=heads,
            stats=_variant_stats(spec, heads, strategy, batch_size, multipliers),
            rate=rate,
            depth=depth,
        )

    variants: list[Variant] = []
    if strategy in WIDTH_STRATEGIES:
        rates = tuple(sorted(set(pool_cfg.rates), reverse=True))
        if not rates or rates[0] != 1.0:
            raise ValueError("the width rate ladder must include 1.0")
        for r, spec in zip(rates, _ladder(base_spec, level, pool_cfg)):
            variants.append(make(spec, nn.default_heads(spec), f"w{int(round(100 * r))}", "width", rate=r))
    elif strategy in ("depthfl", "inclusivefl"):
        depths = tuple(sorted(set(pool_cfg.depths), reverse=True))
        if not depths or depths[0] != base_spec.num_blocks or depths[-1] < 1:
            raise ValueError("the depth ladder must span down from num_blocks and stay >= 1")
        for depth, spec in zip(depths, _ladder(base_spec, level, pool_cfg)):
            heads = tuple(range(1, depth + 1)) if strategy == "depthfl" else (depth,)
            variants.append(make(spec, heads, f"d{depth}", "depth", depth=depth))
    elif strategy == "fedepth":
        # Every client trains the full model; memory is absorbed by segmentation.
        variants.append(make(base_spec, nn.default_heads(base_spec), "full", "full",
                             depth=base_spec.num_blocks))
    elif strategy in TOPOLOGY_STRATEGIES:
        for q, spec in enumerate(_ladder(base_spec, level, pool_cfg)):
            nn.validate_base_spec(spec)
            variants.append(make(spec, nn.default_heads(spec), f"arch{q}", "topology"))
    else:  # fedavg baselines: a single homogeneous variant from the level's ladder
        ladder = _ladder(base_spec, level, pool_cfg)
        if strategy == "fedavg_full":
            spec = base_spec if level != "topology" else ladder[0]
            vid = "full"
        else:
            # The first of the smallest in ladder order, which for tied
            # family members is their config order.
            spec = min(ladder, key=nn.parameter_count)
            vid = "smallest"
        variants.append(make(spec, nn.default_heads(spec), vid, "full"))
    return ModelPool(strategy, level, variants)


def _ladder(base_spec: BlockNetSpec, level: str, pool_cfg: PoolConfig) -> list[BlockNetSpec]:
    """The level's specs, largest first: one per width rate, one per depth,
    or the topology family by parameter count (ties keep config order)."""
    if level == "width":
        rates = sorted(set(pool_cfg.rates), reverse=True)
        return [replace(base_spec, hidden_dim=max(1, math.ceil(r * base_spec.hidden_dim))) for r in rates]
    if level == "depth":
        return [replace(base_spec, num_blocks=depth) for depth in sorted(set(pool_cfg.depths), reverse=True)]
    if not pool_cfg.family:
        raise ValueError("the topology level needs a pool.family of (hidden, blocks, kind) triples")
    specs = [
        replace(base_spec, hidden_dim=int(h), num_blocks=int(b), block_kind=str(k))
        for h, b, k in pool_cfg.family
    ]
    specs.sort(key=nn.parameter_count, reverse=True)
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
    active, otherwise every device gets the ample default.
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
        memory = np.full(n, dist.default_memory)
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
) -> tuple[bool, list[str]]:
    """Whether the variant satisfies every active constraint, plus the violations."""
    train_s, comm_s = estimate_times(variant.stats, profile, samples, epochs)
    violations = []
    if "computation" in scenario.constraints and train_s > scenario.t_compute:
        violations.append(f"computation ({train_s:.1f}s > {scenario.t_compute:.1f}s)")
    if "communication" in scenario.constraints and comm_s > scenario.t_comm:
        violations.append(f"communication ({comm_s:.1f}s > {scenario.t_comm:.1f}s)")
    if "memory" in scenario.constraints and variant.stats.memory_bytes > profile.memory_capacity:
        violations.append(
            f"memory ({variant.stats.memory_bytes:.0f}B > {profile.memory_capacity:.0f}B)"
        )
    return not violations, violations


def assign_models(
    pool: ModelPool,
    profiles: list[DeviceProfile],
    scenario: ScenarioConfig,
    samples_per_client: int,
    epochs: int,
) -> list[Variant]:
    """Largest feasible variant per client; combined constraints intersect."""
    assignments: list[Variant] = []
    for profile in profiles:
        chosen: Variant | None = None
        last_violations: list[str] = []
        for variant in pool.variants:
            ok, violations = feasible(variant, profile, scenario, samples_per_client, epochs)
            if ok:
                chosen = variant
                break
            last_violations = violations
        if chosen is None:
            raise InfeasibleScenarioError(
                f"client {profile.device_id}: no feasible variant in the {pool.strategy} pool; "
                f"smallest variant violates {', '.join(last_violations)}"
            )
        assignments.append(chosen)
    return assignments
