"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are stated inline next to each assertion.
"""

import os
import time

import numpy as np
import pytest

from hetfed import nn, seeding
from hetfed.config import parse_config_text, resolve_config
from hetfed.datasets import (
    PartitionConfig,
    gen_synthetic,
    partition,
)
from hetfed.extract import (
    extract_depth,
    extract_width,
    new_accumulator,
    normalize,
    scatter_update,
    select_channels,
    width_channels,
)
from hetfed.metrics import RoundRecord, effectiveness, stability, time_to_accuracy
from hetfed.nn import BlockNetSpec, LossSpec
from hetfed.resources import (
    DeviceProfile,
    InfeasibleScenarioError,
    ModelPool,
    ScenarioConfig,
    Variant,
    VariantStats,
    assign_models,
    estimate_memory,
    feasible,
)
from hetfed.runner import run_experiment
from hetfed.strategies import FederationConfig, make_strategy, sample_clients

from oracles import (
    brute_force_aggregate,
    class_histogram,
    finite_difference_grads,
    label_divergence,
    max_relative_error,
    perturb_params,
)
from test_strategies import make_ctx, largest


def report(criterion: int, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion} ({name}): PASS")


def test_criterion_1_gradient_correctness():
    # 100 random (spec, batch) cases: analytic vs central finite differences,
    # relative error < 1e-4 on every coordinate, in under 30 seconds.
    start = time.time()
    rng = np.random.default_rng(2024)
    kinds = ["plain", "skip", "bottleneck"]
    worst = 0.0
    for case in range(100):
        kind = kinds[case % 3]
        hidden = 8 if kind == "bottleneck" else int(rng.integers(2, 7))
        spec = BlockNetSpec(
            input_dim=int(rng.integers(2, 5)),
            hidden_dim=hidden,
            num_blocks=int(rng.integers(1, 4)),
            block_kind=kind,
            num_classes=int(rng.integers(2, 5)),
            proto_dim=int(rng.integers(2, 6)),
        )
        heads = None
        if kind != "bottleneck" and case % 5 == 0:
            heads = tuple(range(1, spec.num_blocks + 1))
        model = perturb_params(nn.init_model(spec, rng, heads), rng)
        batch = rng.normal(size=(int(rng.integers(1, 5)), spec.input_dim))
        labels = rng.integers(0, spec.num_classes, size=batch.shape[0])
        if case % 4 == 3:
            loss = LossSpec(
                proto_weight=float(rng.uniform(0.2, 1.0)),
                proto_targets=rng.normal(size=(spec.num_classes, spec.proto_dim)),
                proto_mask=rng.random(spec.num_classes) > 0.3,
            )
        elif case % 4 == 2:
            loss = LossSpec(ce_heads=(), soft_targets=rng.dirichlet(
                np.ones(spec.num_classes), size=batch.shape[0]))
            labels = None
        else:
            loss = LossSpec()
        _, analytic = nn.backward(model, batch, labels, loss)
        numeric = finite_difference_grads(model, batch, labels, loss)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - start
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(1, f"gradient correctness, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_aggregation_oracle():
    # 200 random mixed-width/depth cases (<= 5 clients, hidden <= 8):
    # scatter/normalize equals the per-coordinate contributor mean within 1e-12.
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(200):
        blocks = int(rng.integers(1, 4))
        spec = BlockNetSpec(
            input_dim=int(rng.integers(2, 5)),
            hidden_dim=int(rng.integers(2, 9)),
            num_blocks=blocks,
            block_kind="plain",
            num_classes=int(rng.integers(2, 4)),
            proto_dim=int(rng.integers(2, 5)),
        )
        heads = tuple(range(1, blocks + 1))
        global_model = nn.init_model(spec, rng, heads)
        acc = new_accumulator(global_model)
        contributions = []
        for _ in range(int(rng.integers(1, 6))):
            weight = float(rng.integers(1, 30))
            if rng.random() < 0.5:
                sub, smap = extract_width(
                    global_model, float(rng.uniform(0.1, 1.0)),
                    "rolling" if rng.random() < 0.5 else "static_prefix",
                    int(rng.integers(0, 6)),
                )
            else:
                sub, smap = extract_depth(global_model, int(rng.integers(1, blocks + 1)), True)
            params = {k: rng.normal(size=v.shape) for k, v in sub.params.items()}
            scatter_update(acc, params, smap, weight)
            contributions.append((params, smap, weight))
        merged = normalize(acc, global_model)
        expected = brute_force_aggregate(global_model, contributions)
        for k in merged.params:
            worst = max(worst, float(np.max(np.abs(merged.params[k] - expected[k]))))
    assert worst < 1e-12, f"worst coordinate error {worst}"
    report(2, f"aggregation vs brute-force oracle, worst err {worst:.2e}")


def test_criterion_3_fedavg_degeneracy():
    # All clients at full capacity: sheterofl, fjord (p pinned to 1) and
    # fedrolex match fedavg_full parameter trajectories within 1e-9 over 5
    # rounds under shared seeds.
    trajectories = {}
    for sid in ("fedavg_full", "sheterofl", "fedrolex", "fjord"):
        ctx = make_ctx(sid, "width", largest, num_clients=6, n=180,
                       fed=FederationConfig(fjord_fixed_p=1.0), seed=3)
        strategy = make_strategy(sid, ctx)
        state = strategy.initial_state()
        per_round = []
        for t in range(1, 6):
            sampled = sample_clients(6, 0.5, seeding.rng_from(ctx.repeat_seed, seeding.TAG_SAMPLE, t))
            state, _ = strategy.run_round(state, sampled, t)
            per_round.append({k: v.copy() for k, v in state.params.items()})
        trajectories[sid] = per_round
    reference = trajectories["fedavg_full"]
    worst = 0.0
    for sid in ("sheterofl", "fedrolex", "fjord"):
        for t in range(5):
            for k in reference[t]:
                diff = float(np.max(np.abs(trajectories[sid][t][k] - reference[t][k])))
                worst = max(worst, diff)
    assert worst < 1e-9, f"max trajectory divergence {worst}"
    report(3, f"full-capacity degeneracy to FedAvg, max divergence {worst:.2e}")


def test_criterion_4_rolling_coverage():
    # For every d <= 32 and rate in {.25, .5, .75}: over d consecutive
    # rounds each channel index is selected exactly ceil(rate*d) times.
    for d in range(1, 33):
        for rate in (0.25, 0.5, 0.75):
            k = width_channels(d, rate)
            counts = np.zeros(d, dtype=int)
            for t in range(d):
                counts[select_channels(d, rate, "rolling", t)] += 1
            assert np.all(counts == k), f"d={d} rate={rate}: {counts}"
    report(4, "rolling selector uniform coverage for all d <= 32")


def test_criterion_5_cost_model_calibration():
    # Memory-estimate ratios at equal spec reproduce the measured-footprint
    # ratios 1220/593, 780/593 and 631/593 within 10%.
    spec = BlockNetSpec(8, 16, 4, "plain", 5, 16)
    base = estimate_memory(spec, 32, "sheterofl")
    targets = {"depthfl": 1220 / 593, "fedrolex": 780 / 593, "fedepth": 631 / 593}
    for strategy, target in targets.items():
        ratio = estimate_memory(spec, 32, strategy) / base
        assert abs(ratio - target) / target < 0.10, f"{strategy}: {ratio} vs {target}"
    report(5, "memory multiplier calibration within 10%")


def test_criterion_6_assignment_monotonicity():
    # 500 random profiles/pools: raising any single capacity never shrinks
    # the assigned variant, and combined-constraint assignment equals
    # largest-feasible over the intersection of single-constraint sets.
    rng = np.random.default_rng(11)
    spec = BlockNetSpec(8, 16, 2, "plain", 4, 16)
    checked = 0
    for _ in range(500):
        count = int(rng.integers(2, 6))
        params = sorted(set(rng.integers(100, 20000, size=count).tolist()), reverse=True)
        variants = [
            Variant(
                variant_id=f"v{q}", kind="width", spec=spec, head_blocks=(2,),
                stats=VariantStats(
                    params=p,
                    flops_per_sample=2.0 * p,
                    memory_bytes=24.0 * p,
                    comm_payload_bytes=16.0 * p,
                ),
            )
            for q, p in enumerate(params)
        ]
        pool = ModelPool("sheterofl", "width", variants)
        scenario = ScenarioConfig(
            constraints=("computation", "communication", "memory"),
            t_compute=float(rng.uniform(5, 3000)),
            t_comm=float(rng.uniform(5, 3000)),
            memory_tiers=((1e9, 1.0),),
        )
        profile = DeviceProfile(
            0,
            compute_rate=float(rng.uniform(1e2, 1e6)),
            bandwidth=float(rng.uniform(1e1, 1e5)),
            memory_capacity=float(rng.uniform(1e3, 1e6)),
        )
        samples, epochs = int(rng.integers(1, 80)), int(rng.integers(1, 4))

        def assigned(p):
            try:
                return assign_models(pool, [p], scenario, samples, epochs)[0]
            except InfeasibleScenarioError:
                return None

        combined = assigned(profile)
        feasible_sets = []
        for single in ("computation", "communication", "memory"):
            sub_scenario = ScenarioConfig(
                constraints=(single,), t_compute=scenario.t_compute,
                t_comm=scenario.t_comm, memory_tiers=scenario.memory_tiers,
            )
            feasible_sets.append({
                v.variant_id for v in pool.variants
                if feasible(v, profile, sub_scenario, samples, epochs)[0]
            })
        allowed = set.intersection(*feasible_sets)
        expected = next((v for v in pool.variants if v.variant_id in allowed), None)
        assert (combined.variant_id if combined else None) == (
            expected.variant_id if expected else None
        )

        if combined is not None:
            for boost in ("compute_rate", "bandwidth", "memory_capacity"):
                richer = DeviceProfile(
                    0,
                    compute_rate=profile.compute_rate * (4 if boost == "compute_rate" else 1),
                    bandwidth=profile.bandwidth * (4 if boost == "bandwidth" else 1),
                    memory_capacity=profile.memory_capacity * (4 if boost == "memory_capacity" else 1),
                )
                richer_variant = assigned(richer)
                assert richer_variant is not None
                assert richer_variant.stats.params >= combined.stats.params
            checked += 1
    assert checked > 0
    report(6, f"assignment monotonicity + intersection semantics over 500 cases")


CRITERION_7_BASE = """
num_clients = 20
sampling_fraction = 0.1
num_rounds = 200
repeats = 3
master_seed = 0
data.n = 2000
data.noise = 0.4
data.clusters_per_class = 6
data.layout = lattice
model.input_dim = 8
model.hidden_dim = 8
model.num_blocks = 4
model.block_kind = skip
model.num_classes = 5
partition.mode = dirichlet
partition.alpha = 0.5
sgd.batch_size = 32
sgd.local_epochs = 2
algo.lambda_kd = 0.1
eval.cadence = 50
scenario.constraints = ["memory"]
scenario.memory_tiers = [[135000.0, 0.4], [75000.0, 0.4], [45000.0, 0.2]]
"""


def test_criterion_7_directional_effectiveness(tmp_path):
    # Memory-limited 3-tier scenario on capacity-hungry blobs (n=2000,
    # 5 classes, dirichlet alpha=0.5), 20 clients, 200 rounds, 3 seeds:
    # sheterofl and depthfl each beat the smallest-homogeneous baseline on
    # mean effectiveness, inside the 10-minute budget.
    start = time.time()
    deltas = {}
    for sid, level in (("sheterofl", "width"), ("depthfl", "depth")):
        cfg = resolve_config(parse_config_text(
            CRITERION_7_BASE + f'strategies = ["{sid}"]\nlevel = {level}\n'
        ))
        summary = run_experiment(cfg, str(tmp_path / sid))
        deltas[sid] = summary["strategies"][sid]["effectiveness_delta"]
    elapsed = time.time() - start
    assert deltas["sheterofl"] > 0.0, deltas
    assert deltas["depthfl"] > 0.0, deltas
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report(7, f"directional effectiveness sheterofl {deltas['sheterofl']:+.3f}, "
              f"depthfl {deltas['depthfl']:+.3f} in {elapsed:.0f}s")


def test_criterion_8_metric_oracles():
    # 0.8 and 0.6 are not exact binary floats, so "exactly 0.01" means the
    # population-variance value up to representation error (1e-15 floor);
    # the sample variance would give 0.02 and fail loudly.
    assert stability([0.8, 0.6]) == pytest.approx(0.01, abs=1e-15)
    records = [
        RoundRecord(i + 1, 12.0 * (i + 1), acc, {0: acc}, 1.0, 1.0)
        for i, acc in enumerate((0.5, 0.6, 0.72, 0.71))
    ]
    assert time_to_accuracy(records, 0.7) == 36.0
    assert effectiveness(0.7, 0.7) == 0.0
    report(8, "metric oracles: stability 0.01, tta 36s, self-effectiveness 0")


def test_criterion_9_determinism(tmp_path):
    # The same config (with the accepted `workers` key set) produces
    # byte-identical CSV/JSON outputs on every run.
    text = """
strategies = ["sheterofl", "fedrolex"]
level = width
num_clients = 6
sampling_fraction = 0.4
num_rounds = 6
repeats = 2
workers = 3
data.n = 150
data.test_fraction = 0.2
data.public_fraction = 0.1
model.num_classes = 3
model.num_blocks = 2
pool.depths = [2, 1]
sgd.batch_size = 8
eval.cadence = 2
scenario.constraints = ["memory"]
scenario.memory_tiers = [[1e9, 0.5], [1e5, 0.5]]
"""
    cfg = resolve_config(parse_config_text(text))
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, dir_a)
    run_experiment(cfg, dir_b)
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
    report(9, f"byte-identical outputs across runs ({len(names)} files, workers=3)")


def test_criterion_10_dirichlet_partition():
    # alpha = 1e6 reproduces the global histogram within 2% absolute
    # (5 seeds); alpha = 0.5 diverges strictly more than alpha = 5.
    worst_dev = 0.0
    for seed in range(5):
        ds = gen_synthetic("blobs", 1000, 4, 5, 0.5, seed=seed)
        global_hist = class_histogram(ds.labels, 5)
        parts = partition(ds, PartitionConfig("dirichlet", num_clients=5, alpha=1e6, seed=seed))
        for p in parts:
            dev = float(np.abs(class_histogram(ds.labels[p], 5) - global_hist).max())
            worst_dev = max(worst_dev, dev)
    assert worst_dev < 0.02, f"worst histogram deviation {worst_dev}"

    low, high = [], []
    for seed in range(5):
        ds = gen_synthetic("blobs", 1000, 4, 5, 0.5, seed=seed)
        global_hist = class_histogram(ds.labels, 5)
        for alpha, bucket in ((0.5, low), (5.0, high)):
            parts = partition(ds, PartitionConfig("dirichlet", num_clients=10, alpha=alpha, seed=seed))
            bucket.append(np.mean([label_divergence(ds.labels[p], global_hist) for p in parts]))
    assert float(np.mean(low)) > float(np.mean(high))
    report(10, f"dirichlet: alpha=1e6 dev {worst_dev:.4f} < 2%, "
               f"KL(alpha=.5)={np.mean(low):.3f} > KL(alpha=5)={np.mean(high):.3f}")
