"""Exact bytes of every report and CSV writer, on hand-built inputs.

The other tests check prefixes and sort order; these pin each character,
so a change to how a metric is named, ordered, padded or printed shows
here first.
"""

from hetfed import runner
from hetfed.config import parse_config_text, resolve_config
from hetfed.metrics import RoundRecord, records_csv
from hetfed.runner import format_report, pool_csv, report_csv, report_rows, sweep_experiment

CONFIG = """
strategies = ["sheterofl"]
level = width
num_clients = 2
num_rounds = 1
repeats = 1
data.n = 40
data.public_fraction = 0.0
model.num_classes = 3
model.num_blocks = 2
pool.rates = [1.0, 0.5]
pool.depths = [2, 1]
scenario.constraints = ["memory"]
scenario.memory_tiers = [[1e9, 1.0]]
"""

# One strategy never reached the threshold and had no baseline; the other
# carries integers, as a hand-edited summary.json may.
SUMMARIES = [
    {
        "scenario": "memory",
        "strategies": {
            "sheterofl": {
                "final_global_accuracy": 0.8125,
                "time_to_accuracy_s": None,
                "stability_variance": 0.0021875,
                "effectiveness_delta": None,
            },
        },
    },
    {
        "scenario": "memory+communication",
        "strategies": {
            "fedrolex": {
                "final_global_accuracy": 1,
                "time_to_accuracy_s": 12.5,
                "stability_variance": 0,
                "effectiveness_delta": -0.25,
            },
        },
    },
]


def config():
    return resolve_config(parse_config_text(CONFIG))


def test_format_report_text():
    assert format_report(report_rows(SUMMARIES)) == (
        "strategy         scenario                      final_acc        tta_s  stability   effect\n"
        "fedrolex         memory+communication             1.0000      12.5000     0.0000  -0.2500\n"
        "sheterofl        memory                           0.8125  not-reached     0.0022 not-reached\n"
        "\n"
        "best final_global_accuracy: fedrolex (1.0000)\n"
        "best time_to_accuracy_s: fedrolex (12.5000)\n"
        "best stability_variance: fedrolex (0.0000)\n"
        "best effectiveness_delta: fedrolex (-0.2500)\n"
    )


def test_report_csv_text():
    assert report_csv(report_rows(SUMMARIES)) == (
        "strategy,scenario,final_global_accuracy,time_to_accuracy_s,stability_variance,effectiveness_delta\n"
        "fedrolex,memory+communication,1.0,12.5,0.0,-0.25\n"
        "sheterofl,memory,0.8125,,0.0021875,\n"
    )


def as_run_summary(summary):
    """The summary as `run_experiment` returns it: every metric a float or None."""
    return {
        "scenario": summary["scenario"],
        "strategies": {
            sid: {k: None if v is None else float(v) for k, v in metrics.items()}
            for sid, metrics in summary["strategies"].items()
        },
    }


def test_sweep_csv_text(tmp_path, monkeypatch):
    # The sweep runs every value's jobs first, then writes each value's run.
    def fake_write(cfg, outcomes, out_dir):
        return as_run_summary(SUMMARIES[0] if cfg.num_clients == 2 else SUMMARIES[1])

    monkeypatch.setattr(runner, "_run_jobs", lambda cfg: {})
    monkeypatch.setattr(runner, "_write_run", fake_write)
    text = sweep_experiment(config(), "num_clients", ["2", "3"], str(tmp_path))
    assert text == (
        "axis,value,strategy,final_global_accuracy,time_to_accuracy_s,stability_variance,effectiveness_delta\n"
        "num_clients,2,sheterofl,0.8125,,0.0021875,\n"
        "num_clients,3,fedrolex,1.0,12.5,0.0,-0.25\n"
    )
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8") == text


def test_pool_csv_header():
    assert pool_csv(config()).splitlines()[0] == (
        "strategy,variant_id,kind,rate,depth,hidden_dim,num_blocks,params,"
        "flops_per_sample,memory_bytes,comm_payload_bytes"
    )


def test_records_csv_text_with_clients():
    records = [
        RoundRecord(5, 1.25, 0.75, {0: 0.5, 1: 1.0}, 1.0, 0.25),
        RoundRecord(10, 2.5, 0.875, {0: 1.0, 1: 0.75}, 1.0, 0.25),
    ]
    assert records_csv(records, include_clients=True) == (
        "round,sim_time_s,global_acc,stability_var,mean_client_acc,client_0,client_1\n"
        "5,1.25,0.75,0.0625,0.75,0.5,1.0\n"
        "10,2.5,0.875,0.015625,0.875,1.0,0.75\n"
    )
