import json
import os
import re
import subprocess
import sys

import pytest

import hetfed
from hetfed import resources, strategies
from hetfed.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, main
from hetfed.datasets import gen_synthetic
from hetfed.nn import BlockNetModel

from oracles import at_key_line, save_csv

CONFIG = """
strategies = ["sheterofl"]
level = width
num_clients = 4
sampling_fraction = 0.5
num_rounds = 2
repeats = 1
data.n = 60
data.test_fraction = 0.25
data.public_fraction = 0.0
model.num_classes = 3
model.num_blocks = 2
pool.depths = [2, 1]
sgd.batch_size = 8
eval.cadence = 2
scenario.constraints = ["memory"]
scenario.memory_tiers = [[1e9, 1.0]]
"""

# FeDepth alone under tiers where half the clients pass assignment but fit
# no segmentation.
FEDEPTH_TIGHT = """
strategies = ["fedepth"]
level = depth
include_baseline = false
num_clients = 8
sampling_fraction = 0.25
num_rounds = {rounds}
repeats = 1
model.input_dim = 4
model.hidden_dim = 8
model.num_blocks = 3
model.block_kind = skip
model.num_classes = 3
model.proto_dim = 4
pool.depths = [3, 2, 1]
data.n = 160
data.noise = 0.4
partition.mode = dirichlet
sgd.batch_size = 8
eval.cadence = 1
scenario.constraints = ["memory"]
scenario.memory_tiers = [[14000.0, 0.5], [3100.0, 0.5]]
resource.kappa_fedepth = 0.3
"""


# Pools that loaded and then crashed `run` and `pool` with a traceback.
# The first item says whether the config moves to fedproto at the
# topology level.
UNBUILDABLE_POOLS = [
    (True, "pool.family = []",
     "pool.family: the topology level needs at least one [hidden_dim, num_blocks, kind] entry"),
    (False, "model.hidden_dim = 8\npool.rates = [1.0, 0.9]",
     "pool.rates: the sheterofl pool's variants must be strictly decreasing in parameter count, but "
     "w100 (hidden_dim 8, 2 plain blocks, 411 parameters) and w90 (hidden_dim 8, 2 plain blocks, 411 parameters) "
     "collide"),
    (False, "model.hidden_dim = 8\npool.rates = [1.0, 0.504, 0.5]",
     "pool.rates: the sheterofl pool's variants must have distinct ids, but "
     "w50 (hidden_dim 5, 2 plain blocks, 252 parameters) and w50 (hidden_dim 4, 2 plain blocks, 207 parameters) "
     "share one"),
    (True, 'pool.family = [[8, 2, "plain"], [8, 2, "plain"]]',
     "pool.family: the fedproto pool's variants must be strictly decreasing in parameter count, but "
     "arch0 (hidden_dim 8, 2 plain blocks, 411 parameters) and arch1 (hidden_dim 8, 2 plain blocks, 411 parameters) "
     "collide"),
]


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("HETFED_SEED", raising=False)
    monkeypatch.delenv("HETFED_OUT", raising=False)


class TestRunCommand:
    def test_run_success(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", config_path, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "summary.json"))
        printed = capsys.readouterr().out
        assert "sheterofl" in printed and "best final_global_accuracy" in printed

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "mystery_key = 1\n")
        assert main(["run", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "partition"])
    @pytest.mark.parametrize("old,new,message", [
        pytest.param("num_clients = 4", "num_clients = 20",
                     "data.path: csv has 12 rows, which split into 3 test, 0 public and 9 train rows; "
                     "at least 1 test row and 20 train rows (one per client) are needed", id="clients"),
        pytest.param('strategies = ["sheterofl"]\nlevel = width',
                     'strategies = ["fedet"]\nlevel = topology\npool.family = [[8, 2, "plain"]]',
                     "data.public_fraction: fedet needs at least 1 public row, but 0.0 of 12 rows is 0",
                     id="fedet-public-rows"),
    ])
    def test_csv_too_small_for_its_clients_is_config_error(self, tmp_path, capsys, command, old, new, message):
        data = tmp_path / "small.csv"
        save_csv(gen_synthetic("blobs", 12, 2, 3, 0.5, seed=0), str(data))
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace(old, new) + f'data.source = csv\ndata.path = "{data}"\nmodel.input_dim = 2\n')
        out = tmp_path / "o"
        args = [command, str(bad)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {at_key_line(bad, bad.read_text(), message)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "partition", "sweep"])
    @pytest.mark.parametrize("features,classes,message", [
        pytest.param(3, 3, "data.path: csv has 3 features, model.input_dim is 2", id="features"),
        pytest.param(2, 2, "data.path: csv labels exceed model.num_classes", id="labels"),
    ])
    def test_csv_that_does_not_fit_the_model_names_its_line(self, tmp_path, capsys, command, features, classes,
                                                            message):
        # Found when a job first reads the file (3 classes, `features`
        # columns), yet located as a load-time error is: by the line that
        # sets data.path.
        data = tmp_path / "data.csv"
        save_csv(gen_synthetic("blobs", 60, features, 3, 0.5, seed=0), str(data))
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("model.num_classes = 3", f"model.num_classes = {classes}")
                       + f'data.source = csv\ndata.path = "{data}"\nmodel.input_dim = 2\n')
        out = tmp_path / "o"
        args = {
            "run": ["run", str(bad), "--out", str(out)],
            "partition": ["partition", str(bad)],
            "sweep": ["sweep", str(bad), "--axis", "sgd.batch_size", "--values", "4,8", "--out", str(out)],
        }[command]
        assert main(args) == EXIT_CONFIG
        located = at_key_line(bad, bad.read_text(), message)
        assert located.startswith(f"{bad}:") and capsys.readouterr() == ("", f"config error: {located}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "pool", "partition", "sweep"])
    @pytest.mark.parametrize("topology,lines,message", UNBUILDABLE_POOLS)
    def test_pool_that_cannot_be_built_stops_at_load(self, tmp_path, capsys, command, topology, lines, message):
        text = CONFIG
        if topology:
            text = text.replace('["sheterofl"]', '["fedproto"]').replace("level = width", "level = topology")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + lines + "\n")
        out = tmp_path / "o"
        args = {
            "run": ["run", str(bad), "--out", str(out)],
            "pool": ["pool", str(bad)],
            "partition": ["partition", str(bad)],
            "sweep": ["sweep", str(bad), "--axis", "alpha", "--values", "0.5", "--out", str(out)],
        }[command]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {at_key_line(bad, bad.read_text(), message)}\n")
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path):
        bad = tmp_path / "tight.cfg"
        bad.write_text(CONFIG.replace("[[1e9, 1.0]]", "[[10.0, 1.0]]"))
        out = tmp_path / "o"
        assert main(["run", str(bad), "--out", str(out)]) == EXIT_INFEASIBLE
        assert not out.exists()

    @pytest.mark.parametrize("rounds", [3, 6])
    def test_fedepth_client_that_no_segmentation_fits_stops_before_round_1(self, tmp_path, capsys, rounds):
        # Assignment prices the `full` variant at 3,036 B, so the 3,100 B
        # tier passes it, but one block alone needs more than 4,000 B to
        # train. Clients 3 and 5 get that tier and are first sampled in
        # round 4; both round counts stop before round 1.
        tight = tmp_path / "fedepth.cfg"
        tight.write_text(FEDEPTH_TIGHT.format(rounds=rounds))
        out = tmp_path / "o"
        assert main(["run", str(tight), "--out", str(out)]) == EXIT_INFEASIBLE
        assert capsys.readouterr() == (
            "", "infeasible scenario: client 3: fedepth: even a single-block segment exceeds 3100 bytes of memory\n"
        )
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_IO

    def test_diverged_training_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "huge_lr.cfg"
        bad.write_text(CONFIG + "sgd.learning_rate = 1e30\n")
        out = tmp_path / "o"
        assert main(["run", str(bad), "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert re.fullmatch(r"diverged: sheterofl: round \d+: client \d+ diverged; parameter \S+ is not finite\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "alpha", "--values", "0.5"]])
    def test_diverged_run_prints_the_diagnosis_alone(self, tmp_path, command):
        # A fresh interpreter shows what a user sees: the overflow on the way
        # to non-finite parameters prints no numpy warning, so stderr is the
        # one diagnosis line.
        bad = tmp_path / "huge_lr.cfg"
        bad.write_text(CONFIG + "sgd.learning_rate = 1e30\n")
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(hetfed.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "hetfed.cli", command[0], str(bad), *command[1:], "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
        )
        assert done.returncode == EXIT_DIVERGED
        assert re.fullmatch(r"diverged: sheterofl: round \d+: client \d+ diverged; parameter \S+ is not finite\n",
                            done.stderr)
        assert not out.exists()

    def test_non_finite_test_logits_exit_code(self, tmp_path, capsys, monkeypatch):
        # A finite global model scaled by 1e160 gives NaN logits, which would
        # argmax to class 0 everywhere; scoring its first client fails
        # instead, naming the client and the head it is scored at.
        run_round = strategies.DepthFL.run_round

        def exploding(self, state, sampled, round_index):
            state, uploads = run_round(self, state, sampled, round_index)
            return strategies._frozen(BlockNetModel(state.spec, state.head_blocks, state.vector * 1e160)), uploads

        monkeypatch.setattr(strategies.DepthFL, "run_round", exploding)
        path = tmp_path / "depth.cfg"
        path.write_text(CONFIG.replace('["sheterofl"]', '["depthfl"]').replace("level = width", "level = depth")
                        .replace("eval.cadence = 2", "eval.cadence = 1") + "include_baseline = false\n")
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "diverged: depthfl: round 1: scoring client 0: logits of head 2 are not finite\n"
        )
        assert not out.exists()

    def test_env_overrides(self, config_path, tmp_path, monkeypatch):
        out = str(tmp_path / "env_out")
        monkeypatch.setenv("HETFED_OUT", out)
        monkeypatch.setenv("HETFED_SEED", "123")
        assert main(["run", config_path]) == EXIT_OK
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["master_seed"] == 123

    def test_env_overrides_resolve_the_config_once(self, config_path, tmp_path, monkeypatch):
        built = []
        original = resources.build_pool

        def counted_build(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("hetfed") and getattr(module, "build_pool", None) is original:
                monkeypatch.setattr(module, "build_pool", counted_build)
        monkeypatch.setenv("HETFED_OUT", str(tmp_path / "env_out"))
        assert main(["pool", config_path]) == EXIT_OK
        assert built == ["sheterofl", "fedavg_smallest"]  # one build per pool

    @pytest.mark.parametrize("value", ["not-a-number", "1_0"])
    def test_bad_env_seed_is_config_error(self, config_path, monkeypatch, capsys, value):
        # HETFED_SEED is read by the rule of a config line, which rejects
        # `master_seed = 1_0`.
        monkeypatch.setenv("HETFED_SEED", value)
        assert main(["run", config_path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: HETFED_SEED: master_seed: expected an integer, got {value!r}\n"
        )

    def test_env_out_picks_the_directory_only(self, config_path, tmp_path, monkeypatch):
        # Runs into different HETFED_OUT directories, relative or absolute,
        # write the bytes of a --out run: the variable is no part of the
        # config, so neither the manifest nor the config hash sees it.
        monkeypatch.chdir(tmp_path)
        outs = ["a", "b", str(tmp_path / "c")]
        for out in outs:
            monkeypatch.setenv("HETFED_OUT", out)
            assert main(["run", config_path]) == EXIT_OK
        monkeypatch.delenv("HETFED_OUT")
        assert main(["run", config_path, "--out", "d"]) == EXIT_OK
        for name in ("summary.json", "manifest.json"):
            written = {(tmp_path / out / name).read_bytes() for out in outs + ["d"]}
            assert len(written) == 1, name
        assert not (tmp_path / "results").exists()


class TestOtherCommands:
    def test_pool_prints_csv(self, config_path, capsys):
        assert main(["pool", config_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("strategy,variant_id")
        assert "sheterofl,w100" in out

    def test_partition_prints_csv(self, config_path, capsys):
        assert main(["partition", config_path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("client_id,n_samples")

    def test_sweep_writes_merged_csv(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["sweep", config_path, "--axis", "alpha", "--values", "0.5,5", "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        assert "alpha,0.5" in capsys.readouterr().out

    def test_sweep_that_fails_on_a_later_value_leaves_no_directory(self, tmp_path, capsys):
        # The memory value runs; the communication value cannot place one
        # client under a 1 ns deadline.
        path = tmp_path / "tight.cfg"
        path.write_text(CONFIG + "scenario.t_comm = 1e-9\n")
        out = tmp_path / "sweep"
        args = ["sweep", str(path), "--axis", "scenario", "--values", "memory,communication", "--out", str(out)]
        assert main(args) == EXIT_INFEASIBLE
        assert not out.exists()
        err = capsys.readouterr().err
        seconds = re.fullmatch(r"infeasible scenario: client 0: .* violates communication \((\S+)s > (\S+)s\)\n", err)
        assert seconds and seconds[1] != seconds[2] and float(seconds[1]) > float(seconds[2]) == 1e-9

    @pytest.mark.parametrize("axis,value,message", [
        # Each value is read by the rule of a config line.
        ("alpha", "abc", "sweep axis alpha: partition.alpha: expected a number, got 'abc'"),
        ("num_clients", "2.5", "sweep axis num_clients: num_clients: expected an integer, got 2.5"),
        ("alpha", "nan", "sweep axis alpha: partition.alpha: expected a number, got 'nan'"),
        ("alpha", "NaN", "sweep axis alpha: partition.alpha: expected a finite number, got nan"),
        ("alpha", "1_0", "sweep axis alpha: partition.alpha: expected a number, got '1_0'"),
        ("num_clients", "1_0", "sweep axis num_clients: num_clients: expected an integer, got '1_0'"),
        # Any config key is an axis, and a rule error names the axis too.
        ("sgd.learning_rate", "yes", "sweep axis sgd.learning_rate: sgd.learning_rate: expected a number, got 'yes'"),
        ("alpha", "-1", "sweep axis alpha: partition.alpha: must be > 0, got -1.0"),
        ("num_clients", "0", "sweep axis num_clients: num_clients: must be >= 1, got 0"),
        ("sgd.learning_rate", "-1", "sweep axis sgd.learning_rate: sgd.learning_rate: must be >= 0, got -1.0"),
        ("flavor", "1", "sweep axis flavor: not a config key, alpha or scenario"),
    ])
    def test_sweep_bad_axis_value_is_config_error(self, config_path, tmp_path, capsys, axis, value, message):
        out = tmp_path / "sweep"
        assert main(["sweep", config_path, "--axis", axis, "--values", f"2,{value}", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()  # every value is checked before the first run

    @pytest.mark.parametrize("values,message", [
        ("x,a/b", "value 'a/b' is not a single directory name"),
        ("x,../x", "value '../x' is not a single directory name"),
        ("x,a+b,a-b", "values 'a+b' and 'a-b' share the directory 'output_dir_a-b'"),
    ])
    def test_sweep_value_without_a_directory_of_its_own_is_config_error(self, config_path, tmp_path, capsys,
                                                                         values, message):
        # Each value's run is written to `<axis>_<value>` directly under --out.
        out = tmp_path / "sweep"
        args = ["sweep", config_path, "--axis", "output_dir", "--values", values, "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: sweep axis output_dir: {message}\n"
        assert not out.exists() and os.listdir(tmp_path) == [os.path.basename(config_path)]

    def test_sweep_over_a_key_equals_runs_with_it_set(self, tmp_path, capsys):
        # The deadline binds: the tight value leaves clients on smaller
        # variants than the loose one.
        text = CONFIG.replace('["memory"]', '["communication"]')
        path = tmp_path / "comm.cfg"
        path.write_text(text)
        out = tmp_path / "sweep"
        args = ["sweep", str(path), "--axis", "scenario.t_comm", "--values", "0.02,200", "--out", str(out)]
        assert main(args) == EXIT_OK
        for value in ("0.02", "200"):
            path.write_text(text + f"scenario.t_comm = {value}\n")
            assert main(["run", str(path), "--out", str(tmp_path / value)]) == EXIT_OK
            for name in ("summary.json", "manifest.json"):
                swept = (out / f"scenario.t_comm_{value}" / name).read_bytes()
                assert swept == (tmp_path / value / name).read_bytes(), (value, name)

    @pytest.mark.parametrize("axis,values,message", [
        ("alpha", "0.5,0.5", "values '0.5' and '0.5'"),
        ("alpha", "5,0.5,5.0", "values '5' and '5.0'"),
        ("alpha", "5,5e0", "values '5' and '5e0'"),
        # Constraints are kept in one order, so a reordered set is the same scenario.
        ("scenario", "memory+communication,communication+memory",
         "values 'memory+communication' and 'communication+memory'"),
    ])
    def test_sweep_values_that_give_one_config_are_config_error(self, config_path, tmp_path, capsys, axis,
                                                                 values, message):
        out = tmp_path / "sweep"
        assert main(["sweep", config_path, "--axis", axis, "--values", values, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: sweep axis {axis}: {message} give the same config\n"
        assert not out.exists()

    def test_report_over_runs_sorted_descending(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["run", config_path, "--out", out])
        capsys.readouterr()
        csv_out = str(tmp_path / "report.csv")
        assert main(["report", out, "--csv", csv_out]) == EXIT_OK
        printed = capsys.readouterr().out
        rows = [l for l in printed.splitlines() if l and not l.startswith(("strategy", "best"))]
        accs = [float(r.split()[2]) for r in rows]
        assert accs == sorted(accs, reverse=True)
        assert os.path.exists(csv_out)

    def test_report_missing_file_is_io_error(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_report_truncated_summary_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text('{"strategies": {"sheterofl": {"final_global_accuracy": 0.5,\n  "time_to')
        assert main(["report", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"i/o error: {path}: not valid JSON: Unterminated string starting at: line 2 column 3 ")

    def test_report_foreign_json_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text('{"x": 1}')
        assert main(["report", str(tmp_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: {path}: not a hetfed summary: no per-strategy metrics under 'strategies'\n"

    METRICS = {"final_global_accuracy": 0.5, "time_to_accuracy_s": None,
               "stability_variance": 0, "effectiveness_delta": None}

    @pytest.mark.parametrize("key,value,wanted", [
        ("final_global_accuracy", "x", "a number"),
        ("final_global_accuracy", None, "a number"),
        ("stability_variance", True, "a number"),
        ("time_to_accuracy_s", "12.5", "a number or null"),
        ("effectiveness_delta", [0.1], "a number or null"),
        ("final_global_accuracy", float("nan"), "finite"),
        ("effectiveness_delta", float("inf"), "finite"),
    ])
    def test_report_non_numeric_metric_is_io_error(self, tmp_path, capsys, key, value, wanted):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"strategies": {"fedet": self.METRICS, "sheterofl": {**self.METRICS, key: value}}}))
        assert main(["report", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: {path}: strategy 'sheterofl': {key} must be {wanted}, got {value!r}\n"

    def test_report_non_string_scenario_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"scenario": ["memory"], "strategies": {"sheterofl": self.METRICS}}))
        assert main(["report", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: {path}: scenario must be a string, got ['memory']\n"

    def test_report_takes_integers_and_null_where_a_metric_may_be_missing(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"strategies": {"sheterofl": self.METRICS}}))
        csv_out = tmp_path / "report.csv"
        csv_out.write_text("stale contents that are longer than the report\n" * 9)
        assert main(["report", str(path), "--csv", str(csv_out)]) == EXIT_OK
        assert "not-reached" in capsys.readouterr().out
        assert csv_out.read_text() == (
            "strategy,scenario,final_global_accuracy,time_to_accuracy_s,stability_variance,effectiveness_delta\n"
            "sheterofl,,0.5,,0.0,\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["report.csv", "summary.json"]
