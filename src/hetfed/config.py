"""Experiment configuration: a strict dotted-key text format.

One `key = value` pair per line, `#` comments (a `#` inside a
double-quoted string is part of the string), values parsed as JSON with
a bare-word fallback for strings. Unknown keys are hard errors so a typo
can never silently skew a benchmark comparison. Most sections' rules live
in their dataclasses (`datasets.DataConfig` holds every `data.*` rule).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, fields, replace

from .datasets import DataConfig, PartitionConfig
from .nn import BLOCK_KINDS, BlockNetSpec, SGDConfig, validate_base_spec
from .resources import (
    CONSTRAINTS,
    DEFAULT_KAPPA,
    ModelPool,
    PoolConfig,
    ProfileDistribution,
    ScenarioConfig,
    build_pool,
    check_strategy,
    family_specs,
    ladder,
)
from .strategies import FederationConfig


class ConfigError(ValueError):
    """A config file key is unknown, missing, or holds an invalid value."""


# The smallest-model baseline that effectiveness is measured against.
BASELINE_ID = "fedavg_smallest"


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
    "workers": ("int", 1),  # validated and recorded in the manifest; nothing reads it
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

    "resource.kappa_depthfl": ("float", DEFAULT_KAPPA["depthfl"]),
    "resource.kappa_fedrolex": ("float", DEFAULT_KAPPA["fedrolex"]),
    "resource.kappa_fedepth": ("float", DEFAULT_KAPPA["fedepth"]),

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


def parse_config_text(
    text: str, source: str = "<config>", lines: dict[str, int] | None = None
) -> dict[str, object]:
    """Raw key -> value mapping from the dotted-key text format; `lines`,
    when given, receives each key's line number."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        key, equals, raw_value = line.partition("=")
        key = key.strip()
        if not equals or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        raw_value = raw_value.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = parse_value(raw_value)
        if lines is not None:
            lines[key] = lineno
    return values


def parse_value(text: str) -> object:
    """A config line's value: JSON, else the bare word as a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def override(raw: dict[str, object], axis: str, text: str, source: str) -> dict[str, object]:
    """A copy of `raw` with `axis` set to `text`. An axis is a SCHEMA key,
    whose text is read as a config line's value and checked against the
    key's type, or an alias: `alpha` sets `partition.alpha` under a
    Dirichlet partition, and `scenario` sets `scenario.constraints` from a
    `+`-joined set. An unknown axis or a value of the wrong type raises a
    ConfigError opening with `source`."""
    out = dict(raw)
    if axis == "scenario":
        out["scenario.constraints"] = text.split("+")
        return out
    key = axis
    if axis == "alpha":
        out["partition.mode"], key = "dirichlet", "partition.alpha"
    if key not in SCHEMA:
        raise ConfigError(f"{source}: not a config key, alpha or scenario")
    out[key] = parse_value(text)
    try:
        _coerce(key, SCHEMA[key][0], out[key])
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return out


def _is_number(value: object, types: type | tuple[type, ...]) -> bool:
    """Whether `value` is an instance of `types` and not a JSON true/false
    (Python's bool is an int)."""
    return isinstance(value, types) and not isinstance(value, bool)


def _coerce(key: str, kind: str, value: object) -> object:
    if kind == "int":
        if not _is_number(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return value
    if kind == "float":
        if not _is_number(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        # JSON's NaN and Infinity parse to floats; a range check such as
        # `alpha <= 0` is false for NaN and lets it through.
        if not math.isfinite(number):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return number
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
    num_clients: int
    sampling_fraction: float
    num_rounds: int
    repeats: int
    master_seed: int
    output_dir: str
    include_baseline: bool
    model: BlockNetSpec
    scenario: ScenarioConfig
    profiles: ProfileDistribution
    data: DataConfig
    partition: PartitionConfig  # seed 0; each repeat sets its own
    sgd: SGDConfig
    fed: FederationConfig
    eval_cadence: int
    tta_threshold: float
    per_client_csv: bool
    # Resolved, not a key: strategy id -> its model pool, in run order (the
    # configured strategies, then the baseline when it is included).
    pools: dict[str, ModelPool]
    raw: dict[str, object] = field(default_factory=dict)
    # Not a key: `path:line` of each key the config file sets (see `locate`).
    lines: dict[str, str] = field(default_factory=dict)

    def hash(self) -> str:
        return config_hash(self.raw)


def canonical_lines(resolved: dict[str, object]) -> list[str]:
    return [f"{key} = {json.dumps(resolved[key], sort_keys=True)}" for key in sorted(resolved)]


def config_hash(resolved: dict[str, object]) -> str:
    digest = hashlib.sha256("\n".join(canonical_lines(resolved)).encode("utf-8"))
    return digest.hexdigest()


def _rule(check, *args, **kwargs):
    """`check(*args, **kwargs)`, a rule whose ValueError message names the
    key (a pool, data, partition, scenario, profile, optimizer or algorithm
    rule), with that error raised as a ConfigError."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _keyed(cls, resolved: dict[str, object], prefix: str, **given):
    """`cls`, a dataclass whose messages name its keys, built through `_rule`
    from the `prefix.<field>` key of each field that `given` does not set."""
    keys = {f.name: resolved[f"{prefix}.{f.name}"] for f in fields(cls) if f.name not in given}
    return _rule(cls, **keys, **given)


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
    for i, sid in enumerate(strategies):
        _rule(check_strategy, sid, level)
        if sid in strategies[:i]:
            raise ConfigError(f"strategies: {sid} is listed more than once")

    if not 0.0 < resolved["sampling_fraction"] <= 1.0:
        raise ConfigError("sampling_fraction: must lie in (0, 1]")
    for key in ("num_rounds", "repeats", "workers"):
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

    rates = resolved["pool.rates"]
    if any(not _is_number(r, (int, float)) or not 0 < r <= 1 for r in rates):
        raise ConfigError("pool.rates: every rate must lie in (0, 1]")
    depths = resolved["pool.depths"]
    if any(not _is_number(d, int) or d < 1 for d in depths):
        raise ConfigError("pool.depths: every depth must be an integer >= 1")
    family_entries: list[tuple[int, int, str]] = []
    for entry in resolved["pool.family"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(_is_number(v, int) for v in entry[:2])
            or entry[2] not in BLOCK_KINDS
        ):
            raise ConfigError("pool.family: entries must be [hidden_dim, num_blocks, kind]")
        family_entries.append((entry[0], entry[1], str(entry[2])))
    pool_cfg = PoolConfig(
        rates=tuple(float(r) for r in rates),
        depths=tuple(int(d) for d in depths),
        family=tuple(family_entries),
    )
    # The level's ladder, and every family entry even where the level does
    # not use the family; the pools themselves need the batch size.
    _rule(ladder, spec, level, pool_cfg)
    _rule(family_specs, spec, pool_cfg.family)

    listed = tuple(str(c) for c in resolved["scenario.constraints"])
    tiers = []
    for entry in resolved["scenario.memory_tiers"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError("scenario.memory_tiers: entries must be [capacity_bytes, fraction]")
        tiers.append(tuple(_coerce("scenario.memory_tiers", "float", number) for number in entry))
    scenario = _keyed(ScenarioConfig, resolved, "scenario", constraints=listed, memory_tiers=tuple(tiers))
    # Kept in CONSTRAINTS order, so two orders of one set are one config.
    resolved["scenario.constraints"] = [c for c in CONSTRAINTS if c in listed]
    scenario = replace(scenario, constraints=tuple(resolved["scenario.constraints"]))
    profiles = _keyed(ProfileDistribution, resolved, "profiles")

    data = _keyed(DataConfig, resolved, "data", input_dim=spec.input_dim, num_classes=spec.num_classes,
                  num_clients=resolved["num_clients"], needs_public="fedet" in strategies)
    partition = _rule(PartitionConfig, resolved["partition.mode"], resolved["num_clients"], resolved["partition.alpha"])

    sgd = _keyed(SGDConfig, resolved, "sgd")
    fed = _keyed(FederationConfig, resolved, "algo", weighting=resolved["aggregation.weighting"])

    if resolved["eval.cadence"] < 1:
        raise ConfigError("eval.cadence: must be >= 1")
    if not 0.0 < resolved["eval.tta_threshold"] <= 1.0:
        raise ConfigError(f"eval.tta_threshold: must lie in (0, 1], got {resolved['eval.tta_threshold']}")

    for sid in DEFAULT_KAPPA:  # every strategy's, listed or not
        kappa = resolved[f"resource.kappa_{sid}"]
        if kappa <= 0:
            raise ConfigError(f"resource.kappa_{sid}: must be > 0, got {kappa}")
    baseline = [BASELINE_ID] if resolved["include_baseline"] and BASELINE_ID not in strategies else []
    # A strategy without a kappa key prices its memory unscaled.
    pools = {
        sid: _rule(build_pool, sid, level, spec, pool_cfg, sgd.batch_size, resolved.get(f"resource.kappa_{sid}", 1.0))
        for sid in strategies + baseline
    }

    return ExperimentConfig(
        strategies=strategies,
        num_clients=resolved["num_clients"],
        sampling_fraction=resolved["sampling_fraction"],
        num_rounds=resolved["num_rounds"],
        repeats=resolved["repeats"],
        master_seed=resolved["master_seed"],
        output_dir=resolved["output_dir"],
        include_baseline=resolved["include_baseline"],
        model=spec,
        scenario=scenario,
        profiles=profiles,
        data=data,
        partition=partition,
        sgd=sgd,
        fed=fed,
        eval_cadence=resolved["eval.cadence"],
        tta_threshold=resolved["eval.tta_threshold"],
        per_client_csv=resolved["eval.per_client_csv"],
        pools=pools,
        raw=resolved,
    )


def locate(exc: ConfigError, lines: dict[str, str]) -> ConfigError:
    """`exc`, opened by `path:line:` of the key its message opens with when
    the config file sets that key (`lines`, as `ExperimentConfig.lines`)."""
    key = str(exc).partition(":")[0]
    return ConfigError(f"{lines[key]}: {exc}") if key in lines else exc


def load_config(path: str, seed: str | None = None) -> ExperimentConfig:
    """The config at `path`, with `seed` (the text of HETFED_SEED), when
    given, set as its master_seed before it resolves, so its pools are built
    once. An error whose message opens with a key of the file opens with
    `path:line:`, here and when a job reads the data (`locate`)."""
    numbers: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), path, numbers)
    if seed is not None:
        raw = override(raw, "master_seed", seed, "HETFED_SEED")
        numbers.pop("master_seed", None)
    lines = {key: f"{path}:{number}" for key, number in numbers.items()}
    try:
        return replace(resolve_config(raw, source=path), lines=lines)
    except ConfigError as exc:
        raise locate(exc, lines) from None
