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
from dataclasses import dataclass

import numpy as np

from . import __version__, seeding
from .config import ConfigError, ExperimentConfig, resolve_config
from .datasets import Dataset, PartitionConfig, gen_synthetic, load_csv, partition, split_global
from .metrics import MetricsReport, RoundRecord, advance_clock, build_report, model_accuracy, records_csv
from .resources import assign_models, build_pool, estimate_times, sample_profiles
from .strategies import ClientState, FederationContext, make_strategy, sample_clients

SWEEP_AXES = ("num_clients", "alpha", "scenario")
BASELINE_ID = "fedavg_smallest"


@dataclass
class RepeatOutcome:
    repeat: int
    seed: int
    records: list[RoundRecord]
    final_accuracy: float


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _build_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.data_source == "csv":
        try:
            dataset = load_csv(cfg.data_path)
        except ValueError as exc:
            raise ConfigError(f"data.path: {exc}") from exc
        if dataset.input_dim != cfg.model.input_dim:
            raise ConfigError(
                f"data.path: csv has {dataset.input_dim} features, model.input_dim is {cfg.model.input_dim}"
            )
        if dataset.labels.max() >= cfg.model.num_classes:
            raise ConfigError("data.path: csv labels exceed model.num_classes")
        return dataset
    return gen_synthetic(
        cfg.data_source,
        cfg.data_n,
        cfg.model.input_dim,
        cfg.model.num_classes,
        cfg.data_noise,
        seed,
        cfg.data_clusters,
        cfg.data_layout,
    )


def _repeat_data(
    cfg: ExperimentConfig, repeat: int
) -> tuple[int, Dataset, Dataset, Dataset, np.ndarray, list[np.ndarray]]:
    """Seed, source dataset, train pool, test set, public features and
    client partition of one repeat; every strategy of the repeat sees the
    same data."""
    seed_r = seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, repeat)
    dataset = _build_dataset(cfg, seeding.mix_seed(seed_r, seeding.TAG_DATA, 0))
    train, test, public = split_global(
        dataset, cfg.test_fraction, cfg.public_fraction, seeding.mix_seed(seed_r, seeding.TAG_DATA, 1)
    )
    parts = partition(
        train,
        PartitionConfig(
            mode=cfg.partition_mode,
            num_clients=cfg.num_clients,
            alpha=cfg.partition_alpha,
            seed=seeding.mix_seed(seed_r, seeding.TAG_PARTITION),
        ),
    )
    return seed_r, dataset, train, test, public, parts


def _strategy_ids(cfg: ExperimentConfig) -> list[str]:
    """The configured strategies, plus the smallest-model baseline when
    effectiveness is wanted."""
    if cfg.include_baseline and BASELINE_ID not in cfg.strategies:
        return [*cfg.strategies, BASELINE_ID]
    return list(cfg.strategies)


def run_strategy_repeat(cfg: ExperimentConfig, strategy_id: str, repeat: int) -> RepeatOutcome:
    """One full federated run of one strategy under one repeat seed."""
    # The source dataset stays referenced for the whole job. Freeing it
    # here left glibc trimming and regrowing the heap around every
    # evaluation forward pass: about 2M minor page faults in one 30 s
    # depth_eval bench run, against 14k with it held.
    seed_r, source, train, test, public, parts = _repeat_data(cfg, repeat)
    scenario = cfg.scenario
    profiles = sample_profiles(
        cfg.profiles, scenario, cfg.num_clients, seeding.mix_seed(seed_r, seeding.TAG_PROFILES)
    )
    pool = build_pool(
        strategy_id, cfg.level, cfg.model, cfg.pool, cfg.sgd.batch_size, cfg.memory_multipliers
    )
    nominal_samples = math.ceil(train.n / cfg.num_clients)
    assignments = assign_models(pool, profiles, scenario, nominal_samples, cfg.sgd.local_epochs)

    clients = [
        ClientState(cid, parts[cid], profiles[cid], assignments[cid])
        for cid in range(cfg.num_clients)
    ]
    ctx = FederationContext(
        level=cfg.level,
        base_spec=cfg.model,
        pool=pool,
        clients=clients,
        train_features=train.features,
        train_labels=train.labels,
        public_features=public if public.shape[0] else None,
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
        state, artifacts = strategy.run_round(state, sampled, round_index)

        client_times: dict[int, tuple[float, float]] = {}
        for cid in sampled:
            client = clients[cid]
            expected = client.variant.stats.comm_payload_bytes
            observed = artifacts.payload_bytes[cid]
            if not math.isclose(observed, expected, rel_tol=1e-9):
                raise RuntimeError(
                    f"{strategy_id}: round {round_index} client {cid} uploaded "
                    f"{observed:.0f}B but the cost model prices {expected:.0f}B"
                )
            client_times[cid] = estimate_times(
                client.variant.stats, client.profile, artifacts.sample_counts[cid], cfg.sgd.local_epochs
            )
        duration, max_train, max_comm = advance_clock(client_times)
        clock += duration

        if round_index % cfg.eval_cadence == 0 or round_index == cfg.num_rounds:
            per_client = {
                c.client_id: model_accuracy(
                    strategy.client_eval_model(state, c.client_id, round_index),
                    test.features,
                    test.labels,
                )
                for c in clients
            }
            records.append(
                RoundRecord(
                    round=round_index,
                    sim_time_s=clock,
                    global_accuracy=strategy.evaluate_global(state, test.features, test.labels),
                    per_client_accuracy=per_client,
                    max_train_s=max_train,
                    max_comm_s=max_comm,
                )
            )
    return RepeatOutcome(repeat, seed_r, records, records[-1].global_accuracy)


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run every configured strategy (plus the smallest-model baseline when
    effectiveness is wanted) across repeats; write CSVs, summary, manifest."""
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)

    strategy_ids = _strategy_ids(cfg)
    outcomes: dict[str, list[RepeatOutcome]] = {}
    artifacts: list[str] = []
    for sid in strategy_ids:
        outcomes[sid] = [run_strategy_repeat(cfg, sid, r) for r in range(cfg.repeats)]
        for outcome in outcomes[sid]:
            name = f"rounds_{sid}_r{outcome.repeat}.csv"
            atomic_write_text(os.path.join(out, name), records_csv(outcome.records, cfg.per_client_csv))
            artifacts.append(name)

    baseline_finals = (
        [o.final_accuracy for o in outcomes[BASELINE_ID]] if BASELINE_ID in outcomes else None
    )
    summary: dict = {"config_hash": cfg.hash(), "scenario": "+".join(cfg.scenario.constraints), "strategies": {}}
    for sid in strategy_ids:
        reports: list[MetricsReport] = []
        for outcome in outcomes[sid]:
            baseline_acc = baseline_finals[outcome.repeat] if baseline_finals is not None else None
            reports.append(build_report(outcome.records, cfg.tta_threshold, baseline_acc))
        ttas = [r.time_to_accuracy_s for r in reports]
        deltas = [r.effectiveness_delta for r in reports]
        summary["strategies"][sid] = {
            "final_global_accuracy": float(np.mean([r.final_global_accuracy for r in reports])),
            "time_to_accuracy_s": _mean_or_none(ttas),
            "time_to_accuracy_reached": sum(1 for t in ttas if t is not None),
            "stability_variance": float(np.mean([r.stability_variance for r in reports])),
            "effectiveness_delta": _mean_or_none(deltas),
            "repeats": [r.to_dict() for r in reports],
        }

    manifest = {
        "version": __version__,
        "config_hash": cfg.hash(),
        "master_seed": cfg.master_seed,
        "repeat_seeds": [seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, r) for r in range(cfg.repeats)],
        "config": {k: v for k, v in sorted(cfg.raw.items())},
        "artifacts": sorted(artifacts) + ["summary.json"],
    }
    atomic_write_text(os.path.join(out, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    atomic_write_text(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# sweeps


def _axis_override(raw: dict[str, object], axis: str, value: str) -> dict[str, object]:
    out = dict(raw)
    if axis == "num_clients":
        out["num_clients"] = int(value)
    elif axis == "alpha":
        out["partition.mode"] = "dirichlet"
        out["partition.alpha"] = float(value)
    elif axis == "scenario":
        out["scenario.constraints"] = value.split("+")
    else:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    return out


def sweep_experiment(cfg: ExperimentConfig, axis: str, values: list[str], out_dir: str | None = None) -> str:
    """One run per axis value under shared seeds; returns the merged CSV text."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    lines = [
        "axis,value,strategy,final_global_accuracy,time_to_accuracy_s,stability_variance,effectiveness_delta"
    ]
    for value in values:
        sub_cfg = resolve_config(_axis_override(cfg.raw, axis, value))
        sub_dir = os.path.join(out, f"{axis}_{value.replace('+', '-')}")
        summary = run_experiment(sub_cfg, sub_dir)
        for sid in sorted(summary["strategies"]):
            row = summary["strategies"][sid]
            lines.append(
                ",".join(
                    [
                        axis,
                        value,
                        sid,
                        repr(row["final_global_accuracy"]),
                        "" if row["time_to_accuracy_s"] is None else repr(row["time_to_accuracy_s"]),
                        repr(row["stability_variance"]),
                        "" if row["effectiveness_delta"] is None else repr(row["effectiveness_delta"]),
                    ]
                )
            )
    text = "\n".join(lines) + "\n"
    atomic_write_text(os.path.join(out, "sweep.csv"), text)
    return text


# ---------------------------------------------------------------------------
# reporting over finished runs


METRIC_COLUMNS = (
    ("final_global_accuracy", "max"),
    ("time_to_accuracy_s", "min"),
    ("stability_variance", "min"),
    ("effectiveness_delta", "max"),
)


def load_summaries(paths: list[str]) -> list[dict]:
    summaries = []
    for path in paths:
        if os.path.isdir(path):
            path = os.path.join(path, "summary.json")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing report input: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    return summaries


def report_rows(summaries: list[dict]) -> list[dict]:
    rows = []
    for summary in summaries:
        scenario = summary.get("scenario", "")
        for sid, metrics in summary["strategies"].items():
            rows.append(
                {
                    "strategy": sid,
                    "scenario": scenario,
                    "final_global_accuracy": metrics["final_global_accuracy"],
                    "time_to_accuracy_s": metrics["time_to_accuracy_s"],
                    "stability_variance": metrics["stability_variance"],
                    "effectiveness_delta": metrics["effectiveness_delta"],
                }
            )
    rows.sort(key=lambda r: (-r["final_global_accuracy"], r["strategy"], r["scenario"]))
    return rows


def format_report(rows: list[dict]) -> str:
    def fmt(value) -> str:
        if value is None:
            return "not-reached"
        return f"{value:.4f}"

    lines = [
        f"{'strategy':<16} {'scenario':<28} {'final_acc':>10} {'tta_s':>12} {'stability':>10} {'effect':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r['strategy']:<16} {r['scenario']:<28} {fmt(r['final_global_accuracy']):>10} "
            f"{fmt(r['time_to_accuracy_s']):>12} {fmt(r['stability_variance']):>10} "
            f"{fmt(r['effectiveness_delta']):>8}"
        )
    lines.append("")
    for metric, mode in METRIC_COLUMNS:
        scored = [r for r in rows if r[metric] is not None]
        if not scored:
            continue
        best = min(scored, key=lambda r: r[metric]) if mode == "min" else max(scored, key=lambda r: r[metric])
        lines.append(f"best {metric}: {best['strategy']} ({fmt(best[metric])})")
    return "\n".join(lines) + "\n"


def report_csv(rows: list[dict]) -> str:
    lines = ["strategy,scenario,final_global_accuracy,time_to_accuracy_s,stability_variance,effectiveness_delta"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r["strategy"],
                    r["scenario"],
                    repr(float(r["final_global_accuracy"])),
                    "" if r["time_to_accuracy_s"] is None else repr(float(r["time_to_accuracy_s"])),
                    repr(float(r["stability_variance"])),
                    "" if r["effectiveness_delta"] is None else repr(float(r["effectiveness_delta"])),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inspection tables for the pool/partition subcommands


def pool_csv(cfg: ExperimentConfig) -> str:
    lines = [
        "strategy,variant_id,kind,rate,depth,hidden_dim,num_blocks,params,flops_per_sample,memory_bytes,comm_payload_bytes"
    ]
    for sid in _strategy_ids(cfg):
        pool = build_pool(sid, cfg.level, cfg.model, cfg.pool, cfg.sgd.batch_size, cfg.memory_multipliers)
        for v in pool.variants:
            lines.append(
                ",".join(
                    [
                        sid,
                        v.variant_id,
                        v.kind,
                        "" if v.rate is None else repr(float(v.rate)),
                        "" if v.depth is None else str(v.depth),
                        str(v.spec.hidden_dim),
                        str(v.spec.num_blocks),
                        str(v.stats.params),
                        repr(float(v.stats.flops_per_sample)),
                        repr(float(v.stats.memory_bytes)),
                        repr(float(v.stats.comm_payload_bytes)),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def partition_csv(cfg: ExperimentConfig) -> str:
    """Per-client class counts for repeat 0, for eyeballing the partition."""
    _, _, train, _, _, parts = _repeat_data(cfg, 0)
    classes = cfg.model.num_classes
    lines = ["client_id,n_samples," + ",".join(f"class_{c}" for c in range(classes))]
    for cid, idx in enumerate(parts):
        counts = np.bincount(train.labels[idx], minlength=classes)
        lines.append(f"{cid},{idx.size}," + ",".join(str(int(c)) for c in counts))
    return "\n".join(lines) + "\n"
