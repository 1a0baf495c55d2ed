"""Experiment configuration: a strict dotted-key text format.

One `key = value` pair per line, `#` comments (a `#` inside a
double-quoted string is part of the string), values parsed as JSON with
a bare-word fallback for strings. Unknown keys are hard errors so a typo
can never silently skew a benchmark comparison.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .datasets import PARTITION_MODES, SYNTHETIC_KINDS
from .nn import BLOCK_KINDS, BlockNetSpec, SGDConfig, validate_base_spec
from .resources import (
    DEFAULT_MEMORY_MULTIPLIERS,
    STRATEGY_IDS,
    PoolConfig,
    ProfileDistribution,
    ScenarioConfig,
    strategy_level,
)
from .strategies import FederationConfig


class ConfigError(ValueError):
    """A config file key is unknown, missing, or holds an invalid value."""


_REQUIRED = object()

# key -> (type tag, default). Types: int, float, str, bool, list,
# float_or_null. Defaults marked _REQUIRED must be present in the file.
SCHEMA: dict[str, tuple[str, object]] = {
    "strategies": ("list", _REQUIRED),
    "level": ("str", _REQUIRED),
    "num_clients": ("int", 20),
    "sampling_fraction": ("float", 0.1),
    "num_rounds": ("int", 200),
    "repeats": ("int", 3),
    "master_seed": ("int", 0),
    "workers": ("int", 1),  # validated, no effect yet: reserved for job-level processes
    "output_dir": ("str", "results"),
    "include_baseline": ("bool", True),

    "model.input_dim": ("int", 8),
    "model.hidden_dim": ("int", 16),
    "model.num_blocks": ("int", 4),
    "model.block_kind": ("str", "plain"),
    "model.num_classes": ("int", 5),
    "model.proto_dim": ("int", 16),

    "pool.rates": ("list", [1.0, 0.75, 0.5, 0.25]),
    "pool.depths": ("list", [4, 3, 2, 1]),
    "pool.family": ("list", [[16, 4, "bottleneck"], [16, 3, "plain"], [8, 2, "plain"]]),

    "scenario.constraints": ("list", ["memory"]),
    "scenario.t_compute": ("float_or_null", None),
    "scenario.t_comm": ("float", 200.0),
    # Desk-scale capacities in the 16:4:1 shape of real device memory tiers.
    "scenario.memory_tiers": ("list", [[1.6e6, 0.25], [4.0e5, 0.50], [1.0e5, 0.25]]),

    "profiles.compute_min": ("float", 1e8),
    "profiles.compute_max": ("float", 1e9),
    "profiles.bandwidth_min": ("float", 1e5),
    "profiles.bandwidth_max": ("float", 1e6),
    "profiles.default_memory": ("float", 1e9),

    "data.source": ("str", "blobs"),
    "data.path": ("str", ""),
    "data.n": ("int", 2000),
    "data.noise": ("float", 0.5),
    "data.clusters_per_class": ("int", 1),
    "data.layout": ("str", "random"),
    "data.test_fraction": ("float", 0.2),
    "data.public_fraction": ("float", 0.1),

    "partition.mode": ("str", "iid"),
    "partition.alpha": ("float", 0.5),

    "sgd.learning_rate": ("float", 0.02),
    "sgd.batch_size": ("int", 32),
    "sgd.local_epochs": ("int", 1),
    "sgd.momentum": ("float", 0.0),

    "aggregation.weighting": ("str", "samples"),

    "algo.lambda_kd": ("float", 0.1),
    # 1.0 destabilizes the squared-L2 pull at desk scale (embedding outliers
    # blow past SGD's stability threshold); 0.1 trains reliably.
    "algo.lambda_proto": ("float", 0.1),
    "algo.fjord_fixed_p": ("float_or_null", None),
    "algo.fedet_server_epochs": ("int", 1),
    "algo.fedet_client_epochs": ("int", 1),

    "resource.kappa_depthfl": ("float", DEFAULT_MEMORY_MULTIPLIERS["depthfl"]),
    "resource.kappa_fedrolex": ("float", DEFAULT_MEMORY_MULTIPLIERS["fedrolex"]),
    "resource.kappa_fedepth": ("float", DEFAULT_MEMORY_MULTIPLIERS["fedepth"]),

    "eval.cadence": ("int", 10),
    "eval.tta_threshold": ("float", 0.5),
    "eval.per_client_csv": ("bool", False),
}


# A double-quoted string (escapes included), or a `#` outside every string.
_STRING_OR_COMMENT = re.compile(r'"(?:[^"\\]|\\.)*"|#')


def _strip_comment(line: str) -> str:
    """The line up to its first `#` outside a double-quoted string."""
    for match in _STRING_OR_COMMENT.finditer(line):
        if match.group() == "#":
            return line[: match.start()]
    return line


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Raw key -> value mapping from the dotted-key text format."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = json.loads(raw_value)
        except json.JSONDecodeError:
            values[key] = raw_value  # bare string
    return values


def _coerce(key: str, kind: str, value: object) -> object:
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        return float(value)
    if kind == "float_or_null":
        if value is None:
            return None
        return _coerce(key, "float", value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected true/false, got {value!r}")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a JSON list, got {value!r}")
        return value
    raise AssertionError(f"unknown schema kind {kind}")


@dataclass
class ExperimentConfig:
    """Fully-resolved experiment description."""

    strategies: list[str]
    level: str
    num_clients: int
    sampling_fraction: float
    num_rounds: int
    repeats: int
    master_seed: int
    workers: int
    output_dir: str
    include_baseline: bool
    model: BlockNetSpec
    pool: PoolConfig
    scenario: ScenarioConfig
    profiles: ProfileDistribution
    data_source: str
    data_path: str
    data_n: int
    data_noise: float
    data_clusters: int
    data_layout: str
    test_fraction: float
    public_fraction: float
    partition_mode: str
    partition_alpha: float
    sgd: SGDConfig
    fed: FederationConfig
    memory_multipliers: dict[str, float]
    eval_cadence: int
    tta_threshold: float
    per_client_csv: bool
    raw: dict[str, object] = field(default_factory=dict)

    def hash(self) -> str:
        return config_hash(self.raw)


def canonical_lines(resolved: dict[str, object]) -> list[str]:
    return [f"{key} = {json.dumps(resolved[key], sort_keys=True)}" for key in sorted(resolved)]


def config_hash(resolved: dict[str, object]) -> str:
    digest = hashlib.sha256("\n".join(canonical_lines(resolved)).encode("utf-8"))
    return digest.hexdigest()


def resolve_config(raw: dict[str, object], source: str = "<config>") -> ExperimentConfig:
    """Validate raw values against the schema and build the typed config."""
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"{source}: unknown config keys: {', '.join(unknown)}")

    resolved: dict[str, object] = {}
    for key, (kind, default) in SCHEMA.items():
        if key in raw:
            resolved[key] = _coerce(key, kind, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            resolved[key] = default

    strategies = [str(s) for s in resolved["strategies"]]
    if not strategies:
        raise ConfigError("strategies: must list at least one strategy")
    level = resolved["level"]
    if level not in ("width", "depth", "topology"):
        raise ConfigError(f"level: must be width, depth or topology, got {level!r}")
    for sid in strategies:
        if sid not in STRATEGY_IDS:
            raise ConfigError(f"strategies: unknown strategy {sid!r}")
        own = strategy_level(sid)
        if own not in ("any", level):
            raise ConfigError(f"strategies: {sid} belongs to the {own} level, not {level}")

    if not 0.0 < resolved["sampling_fraction"] <= 1.0:
        raise ConfigError("sampling_fraction: must lie in (0, 1]")
    for key in ("num_clients", "num_rounds", "repeats", "workers"):
        if resolved[key] < 1:
            raise ConfigError(f"{key}: must be >= 1")

    try:
        spec = BlockNetSpec(
            input_dim=resolved["model.input_dim"],
            hidden_dim=resolved["model.hidden_dim"],
            num_blocks=resolved["model.num_blocks"],
            block_kind=resolved["model.block_kind"],
            num_classes=resolved["model.num_classes"],
            proto_dim=resolved["model.proto_dim"],
        )
        validate_base_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"model.*: {exc}") from exc
    if level == "width" and spec.block_kind == "bottleneck":
        raise ConfigError("model.block_kind: width heterogeneity needs plain or skip blocks")

    rates = resolved["pool.rates"]
    if any(not isinstance(r, (int, float)) or not 0 < r <= 1 for r in rates):
        raise ConfigError("pool.rates: every rate must lie in (0, 1]")
    if level == "width" and 1.0 not in [float(r) for r in rates]:
        raise ConfigError("pool.rates: the ladder must include 1.0")
    depths = resolved["pool.depths"]
    if any(not isinstance(d, int) or d < 1 for d in depths):
        raise ConfigError("pool.depths: every depth must be an integer >= 1")
    if level == "depth":
        if max(depths) != spec.num_blocks:
            raise ConfigError("pool.depths: the ladder must span up to model.num_blocks")
    family_entries: list[tuple[int, int, str]] = []
    for entry in resolved["pool.family"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], int)
            or entry[2] not in BLOCK_KINDS
        ):
            raise ConfigError("pool.family: entries must be [hidden_dim, num_blocks, kind]")
        family_entries.append((entry[0], entry[1], str(entry[2])))
    pool_cfg = PoolConfig(
        rates=tuple(float(r) for r in rates),
        depths=tuple(int(d) for d in depths),
        family=tuple(family_entries),
    )

    constraints = tuple(str(c) for c in resolved["scenario.constraints"])
    tiers = []
    for entry in resolved["scenario.memory_tiers"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError("scenario.memory_tiers: entries must be [capacity_bytes, fraction]")
        tiers.append((float(entry[0]), float(entry[1])))
    try:
        scenario = ScenarioConfig(
            constraints=constraints,
            t_compute=resolved["scenario.t_compute"],
            t_comm=resolved["scenario.t_comm"],
            memory_tiers=tuple(tiers),
        )
        profiles = ProfileDistribution(
            compute_min=resolved["profiles.compute_min"],
            compute_max=resolved["profiles.compute_max"],
            bandwidth_min=resolved["profiles.bandwidth_min"],
            bandwidth_max=resolved["profiles.bandwidth_max"],
            default_memory=resolved["profiles.default_memory"],
        )
    except ValueError as exc:
        raise ConfigError(f"scenario/profiles: {exc}") from exc

    if resolved["data.source"] not in SYNTHETIC_KINDS + ("csv",):
        raise ConfigError(f"data.source: must be one of {SYNTHETIC_KINDS + ('csv',)}")
    if resolved["data.source"] == "csv" and not resolved["data.path"]:
        raise ConfigError("data.path: required when data.source = csv")
    if resolved["data.layout"] not in ("random", "lattice"):
        raise ConfigError("data.layout: must be 'random' or 'lattice'")
    if resolved["data.source"] == "spiral" and spec.input_dim < 2:
        raise ConfigError("data.source: spiral needs model.input_dim >= 2")
    if resolved["data.source"] == "blobs" and resolved["data.layout"] == "lattice":
        corners = spec.num_classes * resolved["data.clusters_per_class"]
        if 2 ** spec.input_dim < corners:
            raise ConfigError(
                "data.layout: lattice needs model.input_dim >= log2(num_classes * clusters_per_class)"
            )
    n = resolved["data.n"]
    train_size = n - int(round(resolved["data.test_fraction"] * n)) - int(
        round(resolved["data.public_fraction"] * n)
    )
    if resolved["data.source"] != "csv" and train_size < resolved["num_clients"]:
        raise ConfigError(
            f"data.n: the train pool ({train_size} samples after splits) cannot cover "
            f"{resolved['num_clients']} clients"
        )
    if resolved["partition.mode"] not in PARTITION_MODES:
        raise ConfigError(f"partition.mode: must be one of {PARTITION_MODES}")
    if resolved["partition.alpha"] <= 0:
        raise ConfigError("partition.alpha: must be > 0")
    if "fedet" in strategies and resolved["data.public_fraction"] <= 0:
        raise ConfigError("data.public_fraction: fedet needs a public split (> 0)")

    try:
        sgd = SGDConfig(
            learning_rate=resolved["sgd.learning_rate"],
            batch_size=resolved["sgd.batch_size"],
            local_epochs=resolved["sgd.local_epochs"],
            momentum=resolved["sgd.momentum"],
        )
        fed = FederationConfig(
            lambda_kd=resolved["algo.lambda_kd"],
            lambda_proto=resolved["algo.lambda_proto"],
            fjord_fixed_p=resolved["algo.fjord_fixed_p"],
            fedet_server_epochs=resolved["algo.fedet_server_epochs"],
            fedet_client_epochs=resolved["algo.fedet_client_epochs"],
            weighting=resolved["aggregation.weighting"],
        )
    except ValueError as exc:
        raise ConfigError(f"sgd/algo/aggregation: {exc}") from exc

    if resolved["eval.cadence"] < 1:
        raise ConfigError("eval.cadence: must be >= 1")

    multipliers = {
        "depthfl": resolved["resource.kappa_depthfl"],
        "fedrolex": resolved["resource.kappa_fedrolex"],
        "fedepth": resolved["resource.kappa_fedepth"],
    }

    return ExperimentConfig(
        strategies=strategies,
        level=level,
        num_clients=resolved["num_clients"],
        sampling_fraction=resolved["sampling_fraction"],
        num_rounds=resolved["num_rounds"],
        repeats=resolved["repeats"],
        master_seed=resolved["master_seed"],
        workers=resolved["workers"],
        output_dir=resolved["output_dir"],
        include_baseline=resolved["include_baseline"],
        model=spec,
        pool=pool_cfg,
        scenario=scenario,
        profiles=profiles,
        data_source=resolved["data.source"],
        data_path=resolved["data.path"],
        data_n=resolved["data.n"],
        data_noise=resolved["data.noise"],
        data_clusters=resolved["data.clusters_per_class"],
        data_layout=resolved["data.layout"],
        test_fraction=resolved["data.test_fraction"],
        public_fraction=resolved["data.public_fraction"],
        partition_mode=resolved["partition.mode"],
        partition_alpha=resolved["partition.alpha"],
        sgd=sgd,
        fed=fed,
        memory_multipliers=multipliers,
        eval_cadence=resolved["eval.cadence"],
        tta_threshold=resolved["eval.tta_threshold"],
        per_client_csv=resolved["eval.per_client_csv"],
        raw=resolved,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return resolve_config(parse_config_text(text, source=path), source=path)
