import json
import os

import pytest

from hetfed import nn, seeding
from hetfed.config import ConfigError, parse_config_text, resolve_config
from hetfed.datasets import split_global
from hetfed.metrics import model_accuracy
from hetfed.runner import (
    _build_dataset,
    atomic_write_text,
    partition_csv,
    pool_csv,
    run_experiment,
    run_strategy_repeat,
    sweep_experiment,
)

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

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words")

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

    def test_hash_stable_under_key_order(self):
        a = resolve_config(parse_config_text(SMALL))
        reordered = "\n".join(reversed([l for l in SMALL.strip().splitlines()]))
        b = resolve_config(parse_config_text(reordered))
        assert a.hash() == b.hash()
        c = resolve_config(parse_config_text(SMALL + "master_seed = 9\n"))
        assert a.hash() != c.hash()


class TestRunner:
    def test_lr_zero_is_noop_training(self, tmp_path):
        cfg = small_config("sgd.learning_rate = 0.0\nsampling_fraction = 1.0\nnum_rounds = 1\n")
        outcome = run_strategy_repeat(cfg, "sheterofl", 0)
        # rebuild the pipeline's init model and test split independently
        seed_r = seeding.mix_seed(cfg.master_seed, seeding.TAG_REPEAT, 0)
        dataset = _build_dataset(cfg, seeding.mix_seed(seed_r, seeding.TAG_DATA, 0))
        _, test, _ = split_global(dataset, cfg.test_fraction, cfg.public_fraction,
                                  seeding.mix_seed(seed_r, seeding.TAG_DATA, 1))
        init = nn.init_model(cfg.model, seeding.rng_from(seed_r, seeding.TAG_INIT))
        assert outcome.final_accuracy == model_accuracy(init, test.features, test.labels)

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
        sa = json.load(open(os.path.join(dir_a, "summary.json")))
        sb = json.load(open(os.path.join(dir_b, "summary.json")))
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


class TestSweep:
    def test_singleton_axis_equals_run(self, tmp_path):
        cfg = small_config()
        text = sweep_experiment(cfg, "num_clients", ["4"], str(tmp_path / "sweep"))
        lines = text.strip().splitlines()
        assert lines[0].startswith("axis,value,strategy")
        assert len(lines) == 1 + 2  # sheterofl + baseline
        direct = run_experiment(cfg, str(tmp_path / "direct"))
        swept = json.load(open(os.path.join(tmp_path, "sweep", "num_clients_4", "summary.json")))
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
        sub = json.load(open(os.path.join(tmp_path, "s", "alpha_0.5", "manifest.json")))
        assert sub["config"]["partition.mode"] == "dirichlet"
        assert sub["config"]["partition.alpha"] == 0.5

    def test_scenario_axis_parses_combinations(self, tmp_path):
        cfg = small_config("scenario.t_compute = 1e9\n")
        text = sweep_experiment(cfg, "scenario", ["memory", "computation+memory"], str(tmp_path / "s"))
        assert "computation+memory" in text

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_experiment(small_config(), "flavor", ["x"], str(tmp_path / "s"))


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
        with pytest.raises(ConfigError, match="train pool"):
            small_config("data.n = 5\nnum_clients = 5\n")

    def test_malformed_csv_is_config_error(self, tmp_path):
        from hetfed.runner import _build_dataset
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label\n1.0,0\n")
        cfg = small_config(f'data.source = csv\ndata.path = "{bad}"\nmodel.input_dim = 2\n')
        with pytest.raises(ConfigError, match="line 2"):
            _build_dataset(cfg, seed=0)
