import dataclasses
import glob
import json
import os
import sys

import pytest

from hetfed import datasets, nn, resources, runner, seeding, strategies
from hetfed.cli import EXIT_CONFIG, EXIT_OK, main
from hetfed.config import SCHEMA, ConfigError, load_config, override, parse_config_text, resolve_config
from hetfed.datasets import gen_synthetic, split_global
from hetfed.metrics import model_accuracy
from hetfed.runner import (
    atomic_write_text,
    partition_csv,
    pool_csv,
    run_experiment,
    run_strategy_repeat,
    sweep_experiment,
)

from oracles import at_key_line, save_csv

def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SMALL = """
strategies = ["sheterofl"]
level = width
num_clients = 4
sampling_fraction = 0.5
num_rounds = 3
repeats = 1
data.n = 80
data.test_fraction = 0.25
data.public_fraction = 0.0
model.num_classes = 3
model.num_blocks = 2
pool.depths = [2, 1]
sgd.batch_size = 8
eval.cadence = 1
scenario.constraints = ["memory"]
scenario.memory_tiers = [[1e9, 1.0]]
"""


# A knob a strategy reads only mid-run must fail at load time.
ALGO_KNOB_ERRORS = [
    ("algo.fjord_fixed_p = 1.5", "algo.fjord_fixed_p: must lie in (0, 1] or be null, got 1.5"),
    ("algo.fjord_fixed_p = 0", "algo.fjord_fixed_p: must lie in (0, 1] or be null, got 0.0"),
    ("algo.fjord_fixed_p = -0.2", "algo.fjord_fixed_p: must lie in (0, 1] or be null, got -0.2"),
    ("algo.fedet_server_epochs = 0", "algo.fedet_server_epochs: must be >= 1, got 0"),
    ("algo.fedet_client_epochs = 0", "algo.fedet_client_epochs: must be >= 1, got 0"),
    ("aggregation.weighting = median", "aggregation.weighting: must be 'samples' or 'uniform', got 'median'"),
]

# Values that used to load and then crash a run (or `hetfed pool`) with a
# traceback, or silently skew it.
LOAD_ERRORS = [
    ('strategies = ["sheterofl", "sheterofl"]', "strategies: sheterofl is listed more than once"),
    ('pool.family = [[6, 2, "bottleneck"]]',
     'pool.family: [6, 2, "bottleneck"]: bottleneck blocks need hidden_dim divisible by 4'),
    ('pool.family = [[2, 2, "plain"]]', 'pool.family: [2, 2, "plain"]: base models need hidden_dim >= 4, got 2'),
    ('pool.family = [[8, 0, "plain"]]', 'pool.family: [8, 0, "plain"]: num_blocks must be >= 1, got 0'),
    ('pool.family = [[true, 2, "plain"]]', "pool.family: entries must be [hidden_dim, num_blocks, kind]"),
    ("pool.rates = [true, 0.5]", "pool.rates: every rate must lie in (0, 1]"),
    ("pool.depths = [2, true]", "pool.depths: every depth must be an integer >= 1"),
    ("data.test_fraction = 0.0", "data.test_fraction: must lie in (0, 1)"),
    ("data.public_fraction = -0.1", "data.public_fraction: must lie in [0, 1)"),
    ("data.test_fraction = 0.001",
     "data.n: the data has 80 rows, which split into 0 test, 0 public and 80 train rows; "
     "at least 1 test row and 4 train rows (one per client) are needed"),
    # A kappa of a strategy the config does not list is checked too.
    ("resource.kappa_fedrolex = -2.0", "resource.kappa_fedrolex: must be > 0, got -2.0"),
    ("resource.kappa_depthfl = 0", "resource.kappa_depthfl: must be > 0, got 0.0"),
    ("eval.tta_threshold = 7.5", "eval.tta_threshold: must lie in (0, 1], got 7.5"),
    ("eval.tta_threshold = 0", "eval.tta_threshold: must lie in (0, 1], got 0.0"),
]

NON_FINITE_ERRORS = [
    ("partition.alpha = NaN", "partition.alpha: expected a finite number, got nan"),
    ("sgd.learning_rate = Infinity", "sgd.learning_rate: expected a finite number, got inf"),
    ("scenario.t_compute = -Infinity", "scenario.t_compute: expected a finite number, got -inf"),
    ("data.noise = 1e999", "data.noise: expected a finite number, got inf"),
    (f"data.noise = {10**400}", f"data.noise: expected a finite number, got {10**400}"),
]

MEMORY_TIER_ERRORS = [
    ("[[1e9, NaN]]", "scenario.memory_tiers: expected a finite number, got nan"),
    ("[[Infinity, 1.0]]", "scenario.memory_tiers: expected a finite number, got inf"),
    ('[["1e9", 1.0]]', "scenario.memory_tiers: expected a number, got '1e9'"),
]

# One case per data or partition rule. Each is checked when the config
# loads, without building data, so `run`, `sweep`, `pool` and `partition`
# all stop before any output. A csv source is held to the rules that do
# not need its rows; the path below is never opened.
DATA_RULE_ERRORS = [
    ("data.source = rings", "data.source: must be one of ('blobs', 'spiral', 'csv'), got 'rings'"),
    ("data.source = csv", "data.path: required when data.source = csv"),
    ("data.n = 0", "data.n: must be >= 1, got 0"),
    ("data.noise = -1", "data.noise: must be >= 0, got -1.0"),
    ("data.clusters_per_class = 0", "data.clusters_per_class: must be >= 1, got 0"),
    ("data.layout = grid", "data.layout: must be 'random' or 'lattice', got 'grid'"),
    ('data.source = csv\ndata.path = "absent.csv"\ndata.layout = grid',
     "data.layout: must be 'random' or 'lattice', got 'grid'"),
    ("data.source = spiral\nmodel.input_dim = 1", "data.source: spiral needs model.input_dim >= 2, got 1"),
    ("data.layout = lattice\ndata.clusters_per_class = 3\nmodel.input_dim = 2",
     "data.layout: lattice needs model.input_dim >= log2(num_classes * clusters_per_class), got 2"),
    ("data.test_fraction = 1.0", "data.test_fraction: must lie in (0, 1)"),
    ("data.public_fraction = 1.0", "data.public_fraction: must lie in [0, 1)"),
    ('data.source = csv\ndata.path = "absent.csv"\ndata.test_fraction = 0',
     "data.test_fraction: must lie in (0, 1)"),
    ("data.test_fraction = 0.005",
     "data.n: the data has 80 rows, which split into 0 test, 0 public and 80 train rows; "
     "at least 1 test row and 4 train rows (one per client) are needed"),
    ("data.n = 10\nnum_clients = 9",
     "data.n: the data has 10 rows, which split into 2 test, 0 public and 8 train rows; "
     "at least 1 test row and 9 train rows (one per client) are needed"),
    ('strategies = ["fedet"]\nlevel = topology\npool.family = [[8, 2, "plain"]]\ndata.public_fraction = 0.001',
     "data.public_fraction: fedet needs at least 1 public row, but 0.001 of 80 rows is 0"),
    ("num_clients = 0", "num_clients: must be >= 1, got 0"),
    ("partition.mode = pathological", "partition.mode: must be one of ('iid', 'dirichlet'), got 'pathological'"),
    ("partition.alpha = 0", "partition.alpha: must be > 0, got 0.0"),
]

# Scenario, profile and optimizer rules live with their dataclasses, whose
# messages name the exact key.
KEYED_RULE_ERRORS = [
    ("scenario.t_comm = 0", "scenario.t_comm: must be > 0, got 0.0"),
    ('scenario.constraints = ["thermal"]',
     "scenario.constraints: unknown constraint 'thermal'; choose from ('computation', 'communication', 'memory')"),
    ('scenario.constraints = ["computation"]',
     "scenario.t_compute: must be > 0 when computation is active, got None"),
    ("scenario.memory_tiers = [[1e9, 0.5]]", "scenario.memory_tiers: fractions must sum to 1, got 0.5"),
    ('scenario.constraints = ["memory", "memory"]', "scenario.constraints: memory is listed more than once"),
    ("profiles.compute_min = 0", "profiles.compute_min: must be > 0, got 0.0"),
    ("profiles.bandwidth_max = 1e4",
     "profiles.bandwidth_max: must be >= profiles.bandwidth_min (100000.0), got 10000.0"),
    ("profiles.default_memory = -1", "profiles.default_memory: must be > 0, got -1.0"),
    ("sgd.learning_rate = -0.1", "sgd.learning_rate: must be >= 0, got -0.1"),
    ("sgd.batch_size = 0", "sgd.batch_size: must be >= 1, got 0"),
    ("sgd.local_epochs = 0", "sgd.local_epochs: must be >= 1, got 0"),
    ("sgd.momentum = 1", "sgd.momentum: must lie in [0, 1), got 1.0"),
]


def small_config(extra: str = ""):
    raw = parse_config_text(SMALL)
    raw.update(parse_config_text(extra))
    return resolve_config(raw)


class TestConfigParsing:
    def test_values_json_and_bare_strings(self):
        raw = parse_config_text('a = [1, 2]\nb = plain  # comment\nc = 1.5\nd = true\n')
        assert raw == {"a": [1, 2], "b": "plain", "c": 1.5, "d": True}

    def test_hash_inside_quoted_string_is_not_a_comment(self):
        raw = parse_config_text('data.path = "a#b.csv"  # note\n')
        assert raw == {"data.path": "a#b.csv"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    @pytest.mark.parametrize("text,message", [
        ("just words", r"^b\.cfg:1: expected 'key = value', got 'just words'$"),
        ("a = 1\n\n= 3\n", r"^b\.cfg:3: expected 'key = value', got '= 3'$"),
    ], ids=["no_equals", "empty_key"])
    def test_missing_equals_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text, "b.cfg")

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config keys: samplingfraction"):
            resolve_config(parse_config_text(SMALL + "samplingfraction = 0.2\n"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="strategies"):
            resolve_config({"level": "width"})

    def test_type_errors_are_path_qualified(self):
        with pytest.raises(ConfigError, match="num_rounds"):
            resolve_config(parse_config_text(SMALL.replace("num_rounds = 3", "num_rounds = 3.5")))

    def test_level_strategy_mismatch(self):
        with pytest.raises(ConfigError, match="depthfl"):
            resolve_config(parse_config_text(SMALL.replace('["sheterofl"]', '["depthfl"]')))

    def test_fedet_needs_public_split(self):
        bad = SMALL.replace('["sheterofl"]', '["fedet"]').replace("level = width", "level = topology")
        with pytest.raises(ConfigError, match="public"):
            resolve_config(parse_config_text(bad))

    def test_computation_needs_deadline(self):
        with pytest.raises(ConfigError, match="t_compute"):
            resolve_config(parse_config_text(SMALL.replace('["memory"]', '["computation"]')))

    @pytest.mark.parametrize("extra,message", NON_FINITE_ERRORS)
    def test_non_finite_number_rejected(self, extra, message):
        with pytest.raises(ConfigError) as excinfo:
            small_config(extra)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("tiers,message", MEMORY_TIER_ERRORS)
    def test_memory_tier_entries_must_be_finite_numbers(self, tiers, message):
        with pytest.raises(ConfigError) as excinfo:
            resolve_config(parse_config_text(SMALL.replace("[[1e9, 1.0]]", tiers)))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("extra,message", ALGO_KNOB_ERRORS)
    def test_algo_knob_out_of_range_names_its_key(self, extra, message):
        with pytest.raises(ConfigError) as excinfo:
            small_config(extra)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("extra,message", LOAD_ERRORS)
    def test_value_a_run_cannot_use_is_rejected_at_load(self, extra, message):
        with pytest.raises(ConfigError) as excinfo:
            small_config(extra)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("extra,message", KEYED_RULE_ERRORS)
    def test_scenario_profile_and_sgd_messages_name_their_key(self, extra, message):
        with pytest.raises(ConfigError) as excinfo:
            small_config(extra)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("message", [
        message
        for table in (LOAD_ERRORS, ALGO_KNOB_ERRORS, NON_FINITE_ERRORS, MEMORY_TIER_ERRORS,
                      DATA_RULE_ERRORS, KEYED_RULE_ERRORS)
        for _, message in table
    ])
    def test_every_pinned_message_opens_with_a_key(self, message):
        key, colon, _ = message.partition(":")
        assert colon and key in SCHEMA

    def test_every_family_entry_builds_a_base_spec(self):
        cfg = small_config('level = topology\nstrategies = ["fedproto"]\n'
                           'pool.family = [[4, 1, "plain"], [8, 3, "bottleneck"], [12, 2, "skip"]]')
        specs = [(v.spec.hidden_dim, v.spec.num_blocks, v.spec.block_kind) for v in cfg.pools["fedproto"].variants]
        assert sorted(specs) == [(4, 1, "plain"), (8, 3, "bottleneck"), (12, 2, "skip")]

    def test_null_compute_deadline_still_allowed(self):
        assert small_config("scenario.t_compute = null").scenario.t_compute is None

    def test_hash_stable_under_key_order(self):
        a = resolve_config(parse_config_text(SMALL))
        reordered = "\n".join(reversed([l for l in SMALL.strip().splitlines()]))
        b = resolve_config(parse_config_text(reordered))
        assert a.hash() == b.hash()
        c = resolve_config(parse_config_text(SMALL + "master_seed = 9\n"))
        assert a.hash() != c.hash()


class TestRunner:
    def test_pools_are_built_once_at_load(self, monkeypatch, tmp_path):
        # One build per strategy while the config resolves; no job of the
        # run (two repeats of two strategies) builds one again.
        built = []
        original = resources.build_pool

        def counted_build(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("hetfed") and getattr(module, "build_pool", None) is original:
                monkeypatch.setattr(module, "build_pool", counted_build)
        cfg = small_config("repeats = 2\n")
        assert list(cfg.pools) == built == ["sheterofl", "fedavg_smallest"]
        summary = run_experiment(cfg, str(tmp_path / "run"))
        assert sorted(summary["strategies"]) == ["fedavg_smallest", "sheterofl"]
        assert built == list(cfg.pools)

    def test_load_builds_no_data(self, monkeypatch):
        # The data rules run at load without making, reading, splitting or
        # partitioning any data: each repeat's job does that, once.
        def forbidden(*args, **kwargs):
            raise AssertionError("load built data")

        for name in ("gen_synthetic", "load_csv", "split_global", "partition"):
            original = getattr(datasets, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("hetfed") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, forbidden)
        assert small_config().partition == datasets.PartitionConfig("iid", num_clients=4, alpha=0.5)
        assert small_config('data.source = csv\ndata.path = "absent.csv"').data.source == "csv"

    def test_data_config_fields_are_the_data_keys(self):
        # Every `data.*` key reaches `DataConfig`, the one home of the data
        # rules; its other fields are the values `resolve_config` gives it.
        keys = {key.removeprefix("data.") for key in SCHEMA if key.startswith("data.")}
        given = {"input_dim", "num_classes", "num_clients", "needs_public"}
        assert {f.name for f in dataclasses.fields(datasets.DataConfig)} == keys | given
        assert not keys & given

    def test_lr_zero_is_noop_training(self, tmp_path):
        cfg = small_config("sgd.learning_rate = 0.0\nsampling_fraction = 1.0\nnum_rounds = 1\n")
        outcome = run_strategy_repeat(cfg, "sheterofl", 0)
        # rebuild the pipeline's init model and test split independently
        seed_r = seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, 0)
        dataset = cfg.data.build(seeding.mix_seed(seed_r, seeding.TAG_DATA, 0))
        _, test, _ = split_global(dataset, cfg.data.test_fraction, cfg.data.public_fraction,
                                  seeding.mix_seed(seed_r, seeding.TAG_DATA, 1))
        init = nn.init_model(cfg.model, seeding.rng_from(seed_r, seeding.TAG_INIT), (cfg.model.num_blocks,))
        assert outcome.records[-1].global_accuracy == model_accuracy(init, test.features, test.labels)

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = small_config()
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(cfg, dir_a)
        run_experiment(cfg, dir_b)
        for name in sorted(os.listdir(dir_a)):
            with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_parallel_workers_identical_output(self, tmp_path):
        # The workers knob changes the config hash but must not change any
        # simulated result.
        cfg_serial = small_config("workers = 1\n")
        cfg_parallel = small_config("workers = 4\n")
        dir_a, dir_b = str(tmp_path / "serial"), str(tmp_path / "parallel")
        run_experiment(cfg_serial, dir_a)
        run_experiment(cfg_parallel, dir_b)
        for name in sorted(os.listdir(dir_a)):
            if name.endswith(".csv"):
                with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
                    assert fa.read() == fb.read(), name
        sa = read_json(os.path.join(dir_a, "summary.json"))
        sb = read_json(os.path.join(dir_b, "summary.json"))
        sa.pop("config_hash"), sb.pop("config_hash")
        assert sa == sb

    def test_summary_includes_baseline_effectiveness(self, tmp_path):
        cfg = small_config()
        summary = run_experiment(cfg, str(tmp_path / "run"))
        assert "fedavg_smallest" in summary["strategies"]
        assert summary["strategies"]["fedavg_smallest"]["effectiveness_delta"] == 0.0
        assert summary["strategies"]["sheterofl"]["effectiveness_delta"] is not None

    def test_manifest_contents(self, tmp_path):
        cfg = small_config()
        out = str(tmp_path / "run")
        run_experiment(cfg, out)
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config_hash"] == cfg.hash()
        assert len(manifest["repeat_seeds"]) == cfg.repeats
        for name in manifest["artifacts"]:
            assert os.path.exists(os.path.join(out, name))

    def test_atomic_write_replaces_not_appends(self, tmp_path):
        path = str(tmp_path / "file.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as fh:
            assert fh.read() == "second"
        assert not os.path.exists(path + ".tmp")

    def test_repeat_seeds_differ(self):
        cfg = small_config("repeats = 3\n")
        seeds = {seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, r) for r in range(3)}
        assert len(seeds) == 3

    def test_csv_round_schema(self, tmp_path):
        cfg = small_config()
        out = str(tmp_path / "run")
        run_experiment(cfg, out)
        with open(os.path.join(out, "rounds_sheterofl_r0.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "round,sim_time_s,global_acc,stability_var,mean_client_acc"
        assert len(lines) == 1 + cfg.num_rounds  # cadence 1

    def test_upload_the_cost_model_does_not_price_stops_the_run(self, tmp_path, monkeypatch):
        # A round that reports one number more than the first sampled
        # client's variant is priced at.
        first = []

        class Overreporting(strategies.SHeteroFL):
            def run_round(self, state, sampled, round_index):
                state, uploads = super().run_round(state, sampled, round_index)
                first.append(min(uploads))
                uploads[first[-1]] += 1
                return state, uploads

        monkeypatch.setitem(strategies.STRATEGY_CLASSES, "sheterofl", Overreporting)
        cfg = small_config()
        w100 = next(l for l in pool_csv(cfg).splitlines() if l.startswith("sheterofl,w100,"))
        priced = float(w100.split(",")[-1])  # every client holds w100 under 1e9 B of memory
        with pytest.raises(RuntimeError) as err:
            run_experiment(cfg, str(tmp_path / "run"))
        assert str(err.value) == (
            f"sheterofl: round 1 client {first[0]} uploaded {priced + 16:.0f}B "
            f"but the cost model prices {priced:.0f}B"
        )

    def test_evaluation_runs_one_walk_per_eval_round(self, monkeypatch):
        # model_accuracy still scores every client and the global model once
        # per eval round, but every depthfl and fedepth client is scored on
        # the read-only global model at its variant's deepest head, so one
        # walk of the global model per eval round serves every score.
        cfg = small_config(
            'strategies = ["depthfl", "fedepth"]\nlevel = depth\ninclude_baseline = false\n'
            "num_clients = 8\nscenario.memory_tiers = [[1e5, 0.5], [5e4, 0.5]]\n"
        )
        # `backward` runs the same walk, so only the walks made inside
        # model_accuracy count.
        walks, scored = [0], []
        walk, accuracy = nn._run_forward, runner.model_accuracy

        def counted_walk(*args, **kwargs):
            walks[0] += 1
            return walk(*args, **kwargs)

        def counted_accuracy(model, features, labels, head=None):
            start = walks[0]
            result = accuracy(model, features, labels, head)
            scored.append((model, head, walks[0] - start))
            return result

        monkeypatch.setattr(nn, "_run_forward", counted_walk)
        monkeypatch.setattr(runner, "model_accuracy", counted_accuracy)
        monkeypatch.setattr(strategies, "model_accuracy", counted_accuracy)
        clients, eval_rounds = 8, 3
        for sid, heads in (("depthfl", {1, 2}), ("fedepth", {2})):
            scored.clear()
            run_strategy_repeat(cfg, sid, 0)
            assert len(scored) == eval_rounds * (clients + 1)
            assert sum(count for _, _, count in scored) == eval_rounds
            for start in range(0, len(scored), clients + 1):
                *client_scores, (global_model, global_head, _) = scored[start:start + clients + 1]
                assert global_head is None
                assert all(model is global_model for model, _, _ in client_scores)
                assert {head for _, head, _ in client_scores} == heads
                assert sum(count for _, _, count in scored[start:start + clients + 1]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_non_finite_global_logits_name_the_global_model(self, monkeypatch):
        # Clients are scored on the finite initial model; the global model
        # is the trained one scaled by 1e160, finite but with NaN logits.
        class Exploding(strategies.FedAvg):
            def initial_state(self):
                self.initial = super().initial_state()
                return self.initial

            def run_round(self, state, sampled, round_index):
                state, uploads = super().run_round(state, sampled, round_index)
                huge = nn.BlockNetModel(state.spec, state.head_blocks, state.vector * 1e160)
                return strategies._frozen(huge), uploads

            def _eval_target(self, state, client, round_index):
                return strategies.EvalTarget(self.initial, self.initial.final_head)

        monkeypatch.setitem(strategies.STRATEGY_CLASSES, "fedavg_full", Exploding)
        cfg = small_config('strategies = ["fedavg_full"]\ninclude_baseline = false\neval.cadence = 1\n')
        with pytest.raises(strategies.DivergenceError) as err:
            run_strategy_repeat(cfg, "fedavg_full", 0)
        assert str(err.value) == "fedavg_full: round 1: scoring the global model: logits of head 2 are not finite"


def assert_command_stops_at_load(tmp_path, capsys, command, extra, message):
    """`command` on SMALL with `extra`'s keys replaced exits 2 with `message`,
    opened by the file and the line of its key when the file sets that key,
    on stderr alone and leaves no output directory."""
    keys = set(parse_config_text(extra))
    kept = [line for line in SMALL.splitlines() if line.partition("=")[0].strip() not in keys]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(kept) + "\n" + extra + "\n")
    out = tmp_path / "o"
    args = {
        "run": ["run", str(path), "--out", str(out)],
        "sweep": ["sweep", str(path), "--axis", "alpha", "--values", "0.5", "--out", str(out)],
        "pool": ["pool", str(path)],
        "partition": ["partition", str(path)],
    }[command]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {at_key_line(path, path.read_text(), message)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "pool", "partition"])
@pytest.mark.parametrize("extra,message", [
    ("num_clients = 2.5", "bad.cfg:17: num_clients: expected an integer, got 2.5"),
    ("sgd.momentum = 1.5", "bad.cfg:18: sgd.momentum: must lie in [0, 1), got 1.5"),
], ids=["type", "rule"])
def test_value_error_names_the_file_and_line(tmp_path, capsys, command, extra, message):
    # SMALL opens with a blank line and sets 16 keys; `extra` is the last
    # line, after the 15 kept keys or after all 16. The message already
    # opens with the path, which is no key, so the helper keeps it as is.
    assert_command_stops_at_load(tmp_path, capsys, command, extra, f"{tmp_path}/{message}")


@pytest.mark.parametrize("command", ["run", "sweep", "pool", "partition"])
@pytest.mark.parametrize("extra,message", DATA_RULE_ERRORS)
def test_data_rule_stops_every_command_at_load(tmp_path, capsys, command, extra, message):
    assert_command_stops_at_load(tmp_path, capsys, command, extra, message)


@pytest.mark.parametrize("command", ["run", "pool"])
@pytest.mark.parametrize("extra,message", ALGO_KNOB_ERRORS + NON_FINITE_ERRORS + LOAD_ERRORS)
def test_value_a_run_cannot_use_stops_run_and_pool_at_load(tmp_path, capsys, command, extra, message):
    assert_command_stops_at_load(tmp_path, capsys, command, extra, message)


class TestSweep:
    def test_singleton_axis_equals_run(self, tmp_path):
        cfg = small_config()
        text = sweep_experiment(cfg, "num_clients", ["4"], str(tmp_path / "sweep"))
        lines = text.strip().splitlines()
        assert lines[0].startswith("axis,value,strategy")
        assert len(lines) == 1 + 2  # sheterofl + baseline
        direct = run_experiment(cfg, str(tmp_path / "direct"))
        swept = read_json(os.path.join(tmp_path, "sweep", "num_clients_4", "summary.json"))
        assert swept["strategies"]["sheterofl"]["final_global_accuracy"] == pytest.approx(
            direct["strategies"]["sheterofl"]["final_global_accuracy"]
        )

    def test_client_sweep_rows(self, tmp_path):
        cfg = small_config()
        text = sweep_experiment(cfg, "num_clients", ["4", "8", "10"], str(tmp_path / "s"))
        rows = [l for l in text.strip().splitlines()[1:] if l.startswith("num_clients")]
        assert len(rows) == 3 * 2  # 3 values x (strategy + baseline)

    def test_alpha_sweep_switches_to_dirichlet(self, tmp_path):
        cfg = small_config()
        text = sweep_experiment(cfg, "alpha", ["0.5", "5"], str(tmp_path / "s"))
        assert len([l for l in text.strip().splitlines()[1:]]) == 4
        sub = read_json(os.path.join(tmp_path, "s", "alpha_0.5", "manifest.json"))
        assert sub["config"]["partition.mode"] == "dirichlet"
        assert sub["config"]["partition.alpha"] == 0.5

    def test_scenario_axis_parses_combinations(self, tmp_path):
        cfg = small_config("scenario.t_compute = 1e9\n")
        text = sweep_experiment(cfg, "scenario", ["memory", "computation+memory"], str(tmp_path / "s"))
        assert "computation+memory" in text

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_experiment(small_config(), "flavor", ["x"], str(tmp_path / "s"))

    @pytest.mark.parametrize("key", [key for key, (kind, _) in SCHEMA.items() if kind != "list"])
    def test_any_key_set_to_its_own_value_keeps_the_config(self, key):
        # A string as its bare word, anything else as its JSON text: the two
        # ways a config line writes a value.
        cfg = small_config()
        value = cfg.raw[key]
        text = value if isinstance(value, str) else json.dumps(value)
        assert resolve_config(override(cfg.raw, key, text, "test")).hash() == cfg.hash()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = [
    path
    for folder in ("configs", os.path.join("tests", "golden"), os.path.join("bench", "workloads"))
    for path in sorted(glob.glob(os.path.join(ROOT, folder, "*.cfg")))
]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: os.path.relpath(p, ROOT))
def test_shipped_config_loads_and_prices_its_pool(path):
    # Every key a shipped, golden or bench config sets must stay accepted,
    # and every pool it builds must keep each model's deepest head on its
    # last block.
    cfg = load_config(path)
    table = pool_csv(cfg)
    print(table)
    listed = {line.split(",")[0] for line in table.splitlines()[1:]}
    assert set(cfg.strategies) <= listed
    # Every pool rule is checked at load, so `hetfed pool` must pass too.
    assert main(["pool", path]) == EXIT_OK


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: os.path.relpath(p, ROOT))
def test_shipped_pools_price_memory_by_the_one_rule(path):
    # A variant's memory is its strategy's kappa times the training memory
    # of its whole model, which at kappa = 1 is weights, gradients and
    # momentum plus one batch of activations.
    cfg = load_config(path)
    batch = cfg.sgd.batch_size
    for sid, pool in cfg.pools.items():
        kappa = cfg.raw.get(f"resource.kappa_{sid}", 1.0)
        for v in pool.variants:
            whole = resources.training_memory(v.spec, v.head_blocks, batch)
            assert whole == pytest.approx(v.stats.memory_bytes / kappa, rel=1e-15), (sid, v.variant_id)
            if kappa == 1.0:
                acts = nn.activation_count(v.spec, v.head_blocks)
                assert v.stats.memory_bytes == whole == 8 * (3 * v.stats.params + batch * acts), (sid, v.variant_id)


# Shipped (configs/) strategies that get one variant on repeat 0, each
# with its reason; each config names its own in a comment.
ONE_VARIANT = {
    ("depth_memory", "inclusivefl"): "the depth-level conflict: tiers that split its d4 leave depthfl's d1 infeasible",
    ("depth_memory", "fedepth"): "one full variant by design; its clients differ by segmentation",
    ("quick", "sheterofl"): "a smoke config",
}


class _Assigned(Exception):
    """Stops a job once its clients are assigned."""


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))),
                         ids=lambda p: os.path.relpath(p, ROOT))
def test_shipped_memory_scenarios_bind(path, monkeypatch):
    # Every listed strategy gets at least 2 distinct variants on repeat 0,
    # as assigned by the run itself, unless it is a named exception.
    def assign_models(*args):
        raise _Assigned({v.variant_id for v in resources.assign_models(*args)})

    monkeypatch.setattr(runner, "assign_models", assign_models)
    cfg = load_config(path)
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh:
        comments = "".join(line for line in fh if line.startswith("#"))
    for sid in cfg.strategies:
        with pytest.raises(_Assigned) as assigned:
            run_strategy_repeat(cfg, sid, 0)
        variants = assigned.value.args[0]
        if (name, sid) in ONE_VARIANT:
            assert len(variants) == 1 and sid in comments, (sid, variants)
        else:
            assert len(variants) >= 2, (sid, variants)


class TestInspectionTables:
    def test_pool_csv_lists_every_variant(self):
        cfg = small_config()
        lines = pool_csv(cfg).strip().splitlines()
        assert lines[0].startswith("strategy,variant_id")
        body = [l for l in lines[1:]]
        assert len(body) == 4 + 1  # sheterofl ladder + smallest baseline
        assert any(l.startswith("sheterofl,w100") for l in body)

    def test_partition_csv_counts_sum_to_train_size(self):
        cfg = small_config()
        lines = partition_csv(cfg).strip().splitlines()
        assert lines[0] == "client_id,n_samples,class_0,class_1,class_2"
        total = sum(int(l.split(",")[1]) for l in lines[1:])
        assert total == 60  # 80 * 0.75 train pool


class TestFairnessAndFlags:
    def test_profiles_shared_across_strategies(self):
        # Every strategy in one run sees the same device population: the
        # profile stream depends only on (master seed, repeat).
        from hetfed.resources import sample_profiles

        cfg = small_config()
        seed_r = seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, 0)
        a = sample_profiles(cfg.profiles, cfg.scenario, cfg.num_clients,
                            seeding.mix_seed(seed_r, seeding.TAG_PROFILES))
        b = sample_profiles(cfg.profiles, cfg.scenario, cfg.num_clients,
                            seeding.mix_seed(seed_r, seeding.TAG_PROFILES))
        assert a == b

    def test_per_client_csv_flag(self, tmp_path):
        cfg = small_config("eval.per_client_csv = true\n")
        out = str(tmp_path / "run")
        run_experiment(cfg, out)
        with open(os.path.join(out, "rounds_sheterofl_r0.csv")) as fh:
            header = fh.readline().strip()
        assert header.endswith("client_0,client_1,client_2,client_3")

    def test_lattice_needs_enough_input_dims(self):
        with pytest.raises(ConfigError, match="lattice"):
            small_config("data.layout = lattice\ndata.clusters_per_class = 3\n"
                         "model.input_dim = 2\nmodel.num_classes = 3\n")

    def test_train_pool_must_cover_clients(self):
        with pytest.raises(ConfigError, match=r"4 train rows; at least 1 test row and 5 train rows \(one per client\)"):
            small_config("data.n = 5\nnum_clients = 5\n")

    def test_csv_too_small_for_its_splits_or_clients_is_config_error(self, tmp_path):
        path = tmp_path / "small.csv"
        save_csv(gen_synthetic("blobs", 12, 2, 3, 0.5, seed=0), str(path))
        for extra, message in (
            ("num_clients = 20", "data.path: csv has 12 rows, which split into 3 test, 0 public and 9 train rows; "
                                 "at least 1 test row and 20 train rows (one per client) are needed"),
            ("data.test_fraction = 0.01\nnum_clients = 2",
             "data.path: csv has 12 rows, which split into 0 test, 0 public and 12 train rows; "
             "at least 1 test row and 2 train rows (one per client) are needed"),
            ('strategies = ["fedet"]\nlevel = topology\npool.family = [[8, 2, "plain"]]\ndata.public_fraction = 0.01',
             "data.public_fraction: fedet needs at least 1 public row, but 0.01 of 12 rows is 0"),
        ):
            cfg = small_config(f'data.source = csv\ndata.path = "{path}"\nmodel.input_dim = 2\n{extra}\n')
            with pytest.raises(ConfigError) as excinfo:
                partition_csv(cfg)
            assert str(excinfo.value) == message
        # Nine train rows cover nine clients.
        cfg = small_config(f'data.source = csv\ndata.path = "{path}"\nmodel.input_dim = 2\nnum_clients = 9\n')
        assert partition_csv(cfg).count("\n") == 10

    def test_malformed_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label\n1.0,0\n")
        cfg = small_config(f'data.source = csv\ndata.path = "{bad}"\nmodel.input_dim = 2\n')
        with pytest.raises(ConfigError, match="line 2"):
            partition_csv(cfg)
