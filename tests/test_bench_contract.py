"""The benchmark's instrumentation still fits the package.

`bench/tracing.py` wraps hetfed functions and methods from outside, by
name, and reads their arguments and results. A refactor that renames a
wrapped function, changes its arguments or stops calling it would leave
`bench.py --trace 1` without its per-module figures; these tests run the
hooks on small runs of each federated level and catch that.
"""

import importlib.util
import os
import sys

import pytest

import hetfed
import hetfed.runner  # noqa: F401  (imports every module the runner uses)
from hetfed.datasets import gen_synthetic

from oracles import save_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMON = """
num_clients = 4
sampling_fraction = 0.5
num_rounds = 2
repeats = 1
workers = 1
include_baseline = false
model.input_dim = 4
model.hidden_dim = 8
model.num_blocks = 3
model.num_classes = 3
model.proto_dim = 4
sgd.batch_size = 8
eval.cadence = 1
"""

RUNS = {
    # fjord's masked steps run the engine's walk copy.
    "width": 'strategies = ["sheterofl", "fjord"]\nlevel = width\ndata.n = 120\n',
    "depth": 'strategies = ["depthfl", "fedepth"]\nlevel = depth\npool.depths = [3, 2, 1]\ndata.n = 120\n',
    # fedet needs a public split; a CSV source reaches `load_csv`.
    "topology": (
        'strategies = ["fedet"]\nlevel = topology\n'
        'pool.family = [[8, 3, "bottleneck"], [8, 2, "plain"]]\n'
        'data.source = csv\ndata.path = "{csv}"\ndata.public_fraction = 0.2\n'
    ),
}

# Every name `Tracer` wraps; the runs above reach each of them.
TRACED = [
    "config.load_config",
    "datasets.gen_synthetic",
    "datasets.load_csv",
    "datasets.split_global",
    "datasets.partition",
    "resources.sample_profiles",
    "resources.build_pool",
    "resources.assign_models",
    "resources.estimate_times",
    "resources.fedepth_segments",
    "nn.backward",
    "nn.train_local",
    "nn.forward",
    "nn.predict",
    "extract.extract_width",
    "extract.extract_channels",
    "extract.extract_depth",
    "extract.scatter_update",
    "extract.normalize",
    "metrics.model_accuracy",
    "runner.atomic_write_text",
    "runner.run_strategy_repeat",
    "strategies.run_round",
    "strategies.client_eval_model",
]


def load_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def patchable_objects() -> dict:
    """Every attribute of the hetfed modules and every strategy method the
    hooks can replace, by identity."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "hetfed" or name.startswith("hetfed."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for cls in hetfed.strategies.STRATEGY_CLASSES.values():
        for base in cls.__mro__:
            for method in ("run_round", "client_eval_model"):
                if method in base.__dict__:
                    found[(base.__qualname__, method)] = base.__dict__[method]
    return found


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tracing = load_tracing()
    tmp = tmp_path_factory.mktemp("bench_contract")
    csv_path = str(tmp / "data.csv")
    save_csv(gen_synthetic("blobs", 120, 4, 3, 0.5, seed=5), csv_path)
    before = patchable_objects()
    patches = tracing.Patches()
    clock = tracing.JobClock()
    clock.install(patches, hetfed.runner, hetfed.strategies.STRATEGY_CLASSES.values())
    tracer = tracing.Tracer("contract", hetfed.resources.estimate_flops)
    tracer.install(patches, hetfed)
    try:
        for level, text in RUNS.items():
            cfg_path = tmp / f"{level}.cfg"
            cfg_path.write_text(COMMON + text.format(csv=csv_path), encoding="utf-8")
            cfg = hetfed.config.load_config(str(cfg_path))
            hetfed.runner.run_experiment(cfg, str(tmp / level))
    finally:
        patches.restore()
    return tracing, clock, tracer, before, patchable_objects()


class TestBenchContract:
    def test_every_wrapped_name_records_calls(self, traced_runs):
        tracing, _, tracer, _, _ = traced_runs
        assert None not in tracer.spans  # every span closed
        stats = tracing.aggregate(tracer.spans)
        missing = [name for name in TRACED if name not in stats]
        assert missing == []
        assert set(stats) == set(TRACED)

    def test_per_call_counts_read_the_arguments(self, traced_runs):
        tracing, _, tracer, _, _ = traced_runs
        stats = tracing.aggregate(tracer.spans)
        for rows, flops in stats["nn.backward"].extras:
            assert rows > 0 and flops > 0
        assert all(rows > 0 for rows in stats["metrics.model_accuracy"].extras)
        assert all(coords > 0 for coords in stats["extract.scatter_update"].extras)
        assert [job[1] for job in tracer.jobs] == ["sheterofl", "fjord", "depthfl", "fedepth", "fedet"]

    def test_each_job_builds_its_data_once(self, traced_runs):
        # bench.py's `datasets.build.calls == n_jobs` check: every job makes
        # or reads its dataset itself, so a build that is hoisted out of the
        # job or cached across jobs fails here.
        tracing, _, tracer, _, _ = traced_runs
        stats = tracing.aggregate(tracer.spans)
        builds = stats["datasets.gen_synthetic"].calls + stats["datasets.load_csv"].calls
        assert builds == len(tracer.jobs) == 5

    def test_eval_calls_once_per_client_per_eval_round(self, traced_runs):
        # The bench's coverage check: every job scores every client once
        # per eval round (rounds 1 and 2 at cadence 1), plus one global
        # evaluation per eval round (none of these runs is fedproto).
        _, _, tracer, _, _ = traced_runs
        clients, eval_rounds = 4, 2
        for job in range(len(tracer.jobs)):
            names = [span[0] for span in tracer.spans if span[4] == job]
            assert names.count("strategies.client_eval_model") == clients * eval_rounds
            assert names.count("metrics.model_accuracy") == clients * eval_rounds + eval_rounds

    def test_job_clock_sees_every_job(self, traced_runs):
        _, clock, _, _, _ = traced_runs
        assert [job.strategy for job in clock.jobs] == ["sheterofl", "fjord", "depthfl", "fedepth", "fedet"]
        for job in clock.jobs:
            assert job.first_round is not None and job.setup_s >= 0
            assert job.updates == 2 * 2  # 2 rounds of 2 sampled clients

    def test_restore_puts_back_the_original_objects(self, traced_runs):
        _, _, _, before, after = traced_runs
        assert after.keys() == before.keys()
        changed = [key for key in before if after[key] is not before[key]]
        assert changed == []
