"""Experiment orchestration: repeats, the federated round loop, persistence.

Every output byte is a function of (config, master_seed): seeds derive
from the documented mixing hash, files carry no timestamps or absolute
paths, and writes go through a temp-file rename so partial outputs never
masquerade as complete runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, seeding
from .config import BASELINE_ID, ConfigError, ExperimentConfig, _rule, locate, override, resolve_config
from .datasets import Dataset, partition, split_global
from .metrics import (
    METRICS,
    RoundRecord,
    advance_clock,
    build_report,
    csv_cell,
    csv_text,
    model_accuracy,
    records_csv,
)
from .resources import assign_models, estimate_times, payload_bytes, sample_profiles
from .nn import DivergenceError, one_hot
from .strategies import ClientState, FederationContext, Strategy, make_strategy, sample_clients

@dataclass
class RepeatOutcome:
    repeat: int
    seed: int
    records: list[RoundRecord]


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _repeat_data(
    cfg: ExperimentConfig, repeat: int
) -> tuple[int, Dataset, Dataset, np.ndarray, list[np.ndarray]]:
    """Seed, train pool, test set, public features and client partition of
    one repeat; every strategy of the repeat sees the same data."""
    seed_r = seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, repeat)
    try:
        dataset = _rule(cfg.data.build, seeding.mix_seed(seed_r, seeding.TAG_DATA, 0))
    except ConfigError as exc:
        raise locate(exc, cfg.lines) from None
    train, test, public = split_global(
        dataset, cfg.data.test_fraction, cfg.data.public_fraction, seeding.mix_seed(seed_r, seeding.TAG_DATA, 1)
    )
    parts = partition(train, replace(cfg.partition, seed=seeding.mix_seed(seed_r, seeding.TAG_PARTITION)))
    return seed_r, train, test, public, parts


def run_strategy_repeat(cfg: ExperimentConfig, strategy_id: str, repeat: int) -> RepeatOutcome:
    """One full federated run of one strategy under one repeat seed."""
    seed_r, train, test, public, parts = _repeat_data(cfg, repeat)
    # Read-only test rows let `nn.predict` walk each read-only model once
    # for all of its heads, however many clients share it; `test` owns its
    # rows.
    test.features.setflags(write=False)
    test.labels.setflags(write=False)
    scenario = cfg.scenario
    profiles = sample_profiles(
        cfg.profiles, scenario, cfg.num_clients, seeding.mix_seed(seed_r, seeding.TAG_PROFILES)
    )
    pool = cfg.pools[strategy_id]
    assignments = assign_models(pool, profiles, scenario, [p.size for p in parts], cfg.sgd.local_epochs)

    clients = [
        ClientState(cid, parts[cid], profiles[cid], assignments[cid])
        for cid in range(cfg.num_clients)
    ]
    ctx = FederationContext(
        pool=pool,
        clients=clients,
        train_features=train.features,
        train_labels=train.labels,
        train_targets=one_hot(train.labels, cfg.model.num_classes),
        public_features=public,
        sgd=cfg.sgd,
        fed=cfg.fed,
        repeat_seed=seed_r,
    )
    strategy = make_strategy(strategy_id, ctx)
    state = strategy.initial_state()

    records: list[RoundRecord] = []
    clock = 0.0
    for round_index in range(1, cfg.num_rounds + 1):
        sampled = sample_clients(
            cfg.num_clients,
            cfg.sampling_fraction,
            seeding.rng_from(seed_r, seeding.TAG_SAMPLE, round_index),
        )
        state, uploads = strategy.run_round(state, sampled, round_index)

        client_times: dict[int, tuple[float, float]] = {}
        for cid in sampled:
            client = clients[cid]
            expected = client.variant.stats.comm_payload_bytes
            observed = payload_bytes(strategy_id, uploads[cid])
            if not math.isclose(observed, expected, rel_tol=1e-9):
                raise RuntimeError(
                    f"{strategy_id}: round {round_index} client {cid} uploaded "
                    f"{observed:.0f}B but the cost model prices {expected:.0f}B"
                )
            client_times[cid] = estimate_times(
                client.variant.stats, client.profile, client.num_samples, cfg.sgd.local_epochs
            )
        duration, max_train, max_comm = advance_clock(client_times)
        clock += duration

        if round_index % cfg.eval_cadence == 0 or round_index == cfg.num_rounds:
            global_accuracy, per_client = _evaluate(strategy, state, round_index, test)
            records.append(
                RoundRecord(
                    round=round_index,
                    sim_time_s=clock,
                    global_accuracy=global_accuracy,
                    per_client_accuracy=per_client,
                    max_train_s=max_train,
                    max_comm_s=max_comm,
                )
            )
    return RepeatOutcome(repeat, seed_r, records)


def _evaluate(strategy: Strategy, state, round_index: int, test: Dataset) -> tuple[float, dict[int, float]]:
    """The global accuracy and every client's accuracy on the test set. A
    non-finite logit raises `DivergenceError` naming the strategy, the
    round and the scored model."""
    targets = {
        c.client_id: strategy.client_eval_model(state, c.client_id, round_index) for c in strategy.ctx.clients
    }
    scored = None  # the client being scored; None for the global model
    try:
        per_client = {}
        for scored, (model, head) in targets.items():
            per_client[scored] = model_accuracy(model, test.features, test.labels, head)
        scored = None
        return strategy.evaluate_global(state, test.features, test.labels), per_client
    except DivergenceError as exc:
        owner = "the global model" if scored is None else f"client {scored}"
        raise DivergenceError(f"{strategy.id}: round {round_index}: scoring {owner}: {exc}") from None


def _mean_or_none(values: list[float | None]) -> float | None:
    """Mean of the values present; None when every value is missing."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def _run_jobs(cfg: ExperimentConfig) -> dict[str, list[RepeatOutcome]]:
    """Every (strategy, repeat) job of the run, in run order; writes nothing."""
    return {sid: [run_strategy_repeat(cfg, sid, r) for r in range(cfg.repeats)] for sid in cfg.pools}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run every configured strategy (plus the smallest-model baseline when
    effectiveness is wanted) across repeats; write CSVs, summary, manifest.
    The output directory is made only once every job has finished, so a
    run that fails leaves none behind."""
    out = _output_dir(cfg, out_dir)
    return _write_run(cfg, _run_jobs(cfg), out)


def _output_dir(cfg: ExperimentConfig, out_dir: str | None) -> str:
    """`out_dir`, else the config's `output_dir`; an empty one is refused
    before any job runs, which would run every job and then fail the write."""
    out = out_dir if out_dir is not None else cfg.output_dir
    if not out:
        raise ConfigError("out_dir: must not be empty")
    return out


def _write_run(cfg: ExperimentConfig, outcomes: dict[str, list[RepeatOutcome]], out: str) -> dict:
    """Write one finished run's rounds CSVs, summary and manifest into `out`."""
    os.makedirs(out, exist_ok=True)
    artifacts: list[str] = []
    for sid, repeats in outcomes.items():
        for outcome in repeats:
            name = f"rounds_{sid}_r{outcome.repeat}.csv"
            atomic_write_text(os.path.join(out, name), records_csv(outcome.records, cfg.per_client_csv))
            artifacts.append(name)

    baseline_finals = [None] * cfg.repeats
    if BASELINE_ID in outcomes:
        baseline_finals = [o.records[-1].global_accuracy for o in outcomes[BASELINE_ID]]
    summary: dict = {"config_hash": cfg.hash(), "scenario": "+".join(cfg.scenario.constraints), "strategies": {}}
    for sid in outcomes:
        reports = [build_report(o.records, cfg.tta_threshold, baseline_finals[o.repeat]) for o in outcomes[sid]]
        entry = {m.name: _mean_or_none([r[m.name] for r in reports]) for m in METRICS}
        entry["time_to_accuracy_reached"] = sum(1 for r in reports if r["time_to_accuracy_s"] is not None)
        entry["repeats"] = reports
        summary["strategies"][sid] = entry

    manifest = {
        "version": __version__,
        "config_hash": cfg.hash(),
        "master_seed": cfg.master_seed,
        # Every strategy's repeats share the seeds.
        "repeat_seeds": [o.seed for o in next(iter(outcomes.values()))],
        "config": {k: v for k, v in sorted(cfg.raw.items())},
        "artifacts": sorted(artifacts) + ["summary.json"],
    }
    atomic_write_text(os.path.join(out, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    atomic_write_text(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# sweeps


def sweep_experiment(cfg: ExperimentConfig, axis: str, values: list[str], out_dir: str | None = None) -> str:
    """One run per axis value (see `config.override`), each a distinct
    config, under shared seeds; returns the merged CSV text."""
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    out = _output_dir(cfg, out_dir)
    source = f"sweep axis {axis}"
    sub_cfgs = []
    for value in values:
        raw = override(cfg.raw, axis, value, source)
        try:
            sub_cfg = resolve_config(raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        # The file still sets every key the value leaves as it was.
        sub_cfgs.append(replace(sub_cfg, lines={k: at for k, at in cfg.lines.items() if raw[k] == cfg.raw[k]}))
    hashes = [sub_cfg.hash() for sub_cfg in sub_cfgs]
    for i, first in enumerate(hashes.index(digest) for digest in hashes):
        if first != i:
            raise ConfigError(f"{source}: values {values[first]!r} and {values[i]!r} give the same config")
    # Each value's run lands in its own directory directly under the output
    # directory: a name with a separator would nest or escape it, and two
    # values with one name would overwrite each other.
    names = [f"{axis}_{value.replace('+', '-')}" for value in values]
    for i, (value, name) in enumerate(zip(values, names)):
        if any(sep and sep in name for sep in (os.sep, os.altsep)):
            raise ConfigError(f"{source}: value {value!r} is not a single directory name")
        if names.index(name) != i:
            raise ConfigError(f"{source}: values {values[names.index(name)]!r} and {value!r} share the directory {name!r}")
    # Every value's jobs finish before anything is written, so a sweep that
    # fails leaves no directory behind, as a run does.
    outcomes = [_run_jobs(sub_cfg) for sub_cfg in sub_cfgs]
    rows = []
    for value, name, sub_cfg, sub_outcomes in zip(values, names, sub_cfgs, outcomes):
        strategies = _write_run(sub_cfg, sub_outcomes, os.path.join(out, name))["strategies"]
        for sid in sorted(strategies):
            rows.append([axis, value, sid, *(csv_cell(strategies[sid][m.name]) for m in METRICS)])
    text = csv_text(["axis", "value", "strategy", *(m.name for m in METRICS)], rows)
    atomic_write_text(os.path.join(out, "sweep.csv"), text)
    return text


# ---------------------------------------------------------------------------
# reporting over finished runs


class SummaryError(ValueError):
    """A report input is not a hetfed summary.json."""


def load_summaries(paths: list[str]) -> list[dict]:
    """Each run's summary.json (the file or its run directory). One that is
    not JSON (the message gives the line and column), has no per-strategy
    report metrics, has a metric that is not a finite number (or null where
    a metric may be missing), or has a scenario that is not a string raises
    SummaryError naming the file."""
    summaries = []
    for path in paths:
        if os.path.isdir(path):
            path = os.path.join(path, "summary.json")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                summary = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise SummaryError(f"{path}: not valid JSON: {exc}") from None
        strategies = summary.get("strategies") if isinstance(summary, dict) else None
        if not isinstance(strategies, dict) or not all(
            isinstance(entry, dict) and all(m.name in entry for m in METRICS) for entry in strategies.values()
        ):
            raise SummaryError(f"{path}: not a hetfed summary: no per-strategy metrics under 'strategies'")
        scenario = summary.get("scenario", "")
        if not isinstance(scenario, str):
            raise SummaryError(f"{path}: scenario must be a string, got {scenario!r}")
        for sid, entry in strategies.items():
            for m in METRICS:
                value = entry[m.name]
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not number and not (value is None and m.nullable):
                    wanted = "a number or null" if m.nullable else "a number"
                    raise SummaryError(f"{path}: strategy {sid!r}: {m.name} must be {wanted}, got {value!r}")
                # JSON's NaN and Infinity parse to floats that rank arbitrarily.
                if isinstance(value, float) and not math.isfinite(value):
                    raise SummaryError(f"{path}: strategy {sid!r}: {m.name} must be finite, got {value!r}")
        summaries.append(summary)
    return summaries


def report_rows(summaries: list[dict]) -> list[dict]:
    """One row per (run, strategy): its strategy, scenario and metrics,
    the first metric's best value first."""
    rows = [
        {"strategy": sid, "scenario": summary.get("scenario", ""), **{m.name: entry[m.name] for m in METRICS}}
        for summary in summaries
        for sid, entry in summary["strategies"].items()
    ]
    rows.sort(key=lambda r: (METRICS[0].rank(r[METRICS[0].name]), r["strategy"], r["scenario"]))
    return rows


def format_report(rows: list[dict]) -> str:
    def fmt(value) -> str:
        return "not-reached" if value is None else f"{value:.4f}"

    def line(strategy: str, scenario: str, cells: list[str]) -> str:
        padded = [f"{cell:>{m.width}}" for m, cell in zip(METRICS, cells)]
        return " ".join([f"{strategy:<16}", f"{scenario:<28}", *padded])

    lines = [line("strategy", "scenario", [m.label for m in METRICS])]
    for r in rows:
        lines.append(line(r["strategy"], r["scenario"], [fmt(r[m.name]) for m in METRICS]))
    lines.append("")
    for m in METRICS:
        scored = [r for r in rows if r[m.name] is not None]
        if scored:
            best = min(scored, key=lambda r: m.rank(r[m.name]))
            lines.append(f"best {m.name}: {best['strategy']} ({fmt(best[m.name])})")
    return "\n".join(lines) + "\n"


def report_csv(rows: list[dict]) -> str:
    cells = [[r["strategy"], r["scenario"], *(csv_cell(r[m.name]) for m in METRICS)] for r in rows]
    return csv_text(["strategy", "scenario", *(m.name for m in METRICS)], cells)


# ---------------------------------------------------------------------------
# inspection tables for the pool/partition subcommands


def pool_csv(cfg: ExperimentConfig) -> str:
    header = ["strategy", "variant_id", "kind", "rate", "depth", "hidden_dim", "num_blocks", "params"]
    header += ["flops_per_sample", "memory_bytes", "comm_payload_bytes"]
    rows = []
    for sid, pool in cfg.pools.items():
        for v in pool.variants:
            depth = "" if v.depth is None else str(v.depth)
            sizes = [str(v.spec.hidden_dim), str(v.spec.num_blocks), str(v.stats.params)]
            costs = [v.stats.flops_per_sample, v.stats.memory_bytes, v.stats.comm_payload_bytes]
            rows.append([sid, v.variant_id, v.kind, csv_cell(v.rate), depth, *sizes, *map(csv_cell, costs)])
    return csv_text(header, rows)


def partition_csv(cfg: ExperimentConfig) -> str:
    """Per-client class counts for repeat 0, for eyeballing the partition."""
    _, train, _, _, parts = _repeat_data(cfg, 0)
    classes = cfg.model.num_classes
    header = ["client_id", "n_samples", *(f"class_{c}" for c in range(classes))]
    rows = [
        [str(cid), str(idx.size), *(str(int(c)) for c in np.bincount(train.labels[idx], minlength=classes))]
        for cid, idx in enumerate(parts)
    ]
    return csv_text(header, rows)
