import json
import os
import re

import pytest

from hetfed.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, main

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

    def test_infeasible_exit_code(self, tmp_path):
        bad = tmp_path / "tight.cfg"
        bad.write_text(CONFIG.replace("[[1e9, 1.0]]", "[[10.0, 1.0]]"))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_IO

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_diverged_training_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "huge_lr.cfg"
        bad.write_text(CONFIG + "sgd.learning_rate = 1e30\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert re.fullmatch(r"diverged: sheterofl: round \d+: client \d+ diverged; parameter \S+ is not finite\n", err)

    def test_workers_flag_is_accepted(self, config_path, tmp_path):
        assert main(["run", config_path, "--out", str(tmp_path / "o"), "--workers", "3"]) == EXIT_OK

    def test_env_overrides(self, config_path, tmp_path, monkeypatch):
        out = str(tmp_path / "env_out")
        monkeypatch.setenv("HETFED_OUT", out)
        monkeypatch.setenv("HETFED_SEED", "123")
        assert main(["run", config_path]) == EXIT_OK
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["master_seed"] == 123

    def test_bad_env_seed_is_config_error(self, config_path, monkeypatch):
        monkeypatch.setenv("HETFED_SEED", "not-a-number")
        assert main(["run", config_path]) == EXIT_CONFIG


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
