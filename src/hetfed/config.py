"""Experiment configuration: a strict dotted-key text format.

One `key = value` pair per line, `#` comments (a `#` inside a
double-quoted string is part of the string), values parsed as JSON with
a bare-word fallback for strings. Unknown keys are hard errors so a typo
can never silently skew a benchmark comparison. Each key is a field of the
dataclass that holds its value (`datasets.DataConfig` holds every `data.*`
rule), which gives the key its kind, its default and its rules (see `SCHEMA`).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_origin, get_type_hints

from .datasets import DataConfig, PartitionConfig
from .nn import BlockNetSpec, SGDConfig, validate_base_spec
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

# The schema kind of each annotation a section dataclass may use; any
# `tuple[...]` is a list.
_KINDS = {int: "int", float: "float", str: "str", bool: "bool", float | None: "float_or_null"}


def _key(f, prefix: str) -> str:
    """The config key of field `f` of a section: its `key` metadata, else
    `prefix.<name>` (the bare name when the prefix is empty)."""
    return f.metadata.get("key") or ".".join(filter(None, (prefix, f.name)))


def _section(cls, prefix: str, *given: str) -> dict[str, tuple[str, object]]:
    """The rows of `cls`, a dataclass whose field defaults are the config's:
    one per field but those `given` by resolve_config, its kind read from
    the field's annotation and its default stored as JSON reads it."""
    hints = get_type_hints(cls)
    rows = {}
    for f in fields(cls):
        if f.name in given:
            continue
        kind = "list" if get_origin(hints[f.name]) is tuple else _KINDS.get(hints[f.name])
        if kind is None or f.default is MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a config key needs a default and a kind in {list(_KINDS)}")
        rows[_key(f, prefix)] = (kind, json.loads(json.dumps(f.default)))
    return rows


@dataclass(kw_only=True)
class RunConfig:
    """The run and eval keys, each with its rule."""

    num_clients: int = 20
    sampling_fraction: float = 0.1
    num_rounds: int = 200
    repeats: int = 3
    master_seed: int = 0
    output_dir: str = "results"
    include_baseline: bool = True
    eval_cadence: int = field(default=10, metadata={"key": "eval.cadence"})
    tta_threshold: float = field(default=0.5, metadata={"key": "eval.tta_threshold"})
    per_client_csv: bool = field(default=False, metadata={"key": "eval.per_client_csv"})

    def __post_init__(self) -> None:
        # Each message names the config key; num_clients is partition's rule.
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError(f"sampling_fraction: must lie in (0, 1], got {self.sampling_fraction}")
        for key, value in (("num_rounds", self.num_rounds), ("repeats", self.repeats),
                           ("eval.cadence", self.eval_cadence)):
            if value < 1:
                raise ValueError(f"{key}: must be >= 1, got {value}")
        if not self.output_dir:
            raise ValueError("output_dir: must not be empty")
        if not 0.0 < self.tta_threshold <= 1.0:
            raise ValueError(f"eval.tta_threshold: must lie in (0, 1], got {self.tta_threshold}")


# key -> (type tag, default). Types: int, float, str, bool, list,
# float_or_null. Defaults marked _REQUIRED must be present in the file.
# Every row but `strategies`, `level`, `workers` and the `resource.kappa_*`
# rows (from DEFAULT_KAPPA) is a field of the dataclass that holds its
# value: RunConfig, nn.BlockNetSpec, resources.PoolConfig,
# resources.ScenarioConfig, resources.ProfileDistribution,
# datasets.DataConfig, datasets.PartitionConfig, nn.SGDConfig and
# strategies.FederationConfig.
SCHEMA: dict[str, tuple[str, object]] = {
    "strategies": ("list", _REQUIRED),
    "level": ("str", _REQUIRED),
    "workers": ("int", 1),  # validated and recorded in the manifest; nothing reads it
    **_section(RunConfig, ""),
    **_section(BlockNetSpec, "model"),
    **_section(PoolConfig, "pool"),
    **_section(ScenarioConfig, "scenario"),
    **_section(ProfileDistribution, "profiles"),
    **_section(DataConfig, "data", "input_dim", "num_classes", "num_clients", "needs_public"),
    **_section(PartitionConfig, "partition", "num_clients", "seed"),
    **_section(SGDConfig, "sgd"),
    **_section(FederationConfig, "algo"),
    **{f"resource.kappa_{sid}": ("float", kappa) for sid, kappa in DEFAULT_KAPPA.items()},
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
class ExperimentConfig(RunConfig):
    """Fully-resolved experiment description."""

    strategies: list[str]
    model: BlockNetSpec
    scenario: ScenarioConfig
    profiles: ProfileDistribution
    data: DataConfig
    partition: PartitionConfig  # seed 0; each repeat sets its own
    sgd: SGDConfig
    fed: FederationConfig
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
    key (a run, pool, data, partition, scenario, profile, optimizer or
    algorithm rule), with that error raised as a ConfigError."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _keyed(cls, resolved: dict[str, object], prefix: str, **given):
    """`cls`, a dataclass whose messages name its keys, built through `_rule`
    from the key of each field that `given` does not set."""
    keys = {f.name: resolved[_key(f, prefix)] for f in fields(cls) if f.name not in given}
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

    if resolved["workers"] < 1:
        raise ConfigError(f"workers: must be >= 1, got {resolved['workers']}")

    try:
        spec = BlockNetSpec(**{f.name: resolved[_key(f, "model")] for f in fields(BlockNetSpec)})
        validate_base_spec(spec)
    except ValueError as exc:  # each message opens with its field, so this names its key
        raise ConfigError(f"model.{exc}") from exc
    pool_cfg = _keyed(PoolConfig, resolved, "pool")
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
    partition = _keyed(PartitionConfig, resolved, "partition", num_clients=resolved["num_clients"], seed=0)

    sgd = _keyed(SGDConfig, resolved, "sgd")
    fed = _keyed(FederationConfig, resolved, "algo")

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

    return _keyed(ExperimentConfig, resolved, "", strategies=strategies, model=spec, scenario=scenario,
                  profiles=profiles, data=data, partition=partition, sgd=sgd, fed=fed, pools=pools,
                  raw=resolved, lines={})


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
