"""Command line entry point.

Subcommands: run, sweep, pool, partition, report. Exit codes: 0 success,
2 config error, 3 infeasible scenario, 4 I/O error or a report input that
is not a hetfed summary, 5 diverged training. HETFED_SEED and HETFED_OUT
override the config's master_seed and output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, parse_config_text, resolve_config
from .resources import InfeasibleScenarioError
from .runner import (
    SWEEP_AXES,
    SummaryError,
    atomic_write_text,
    format_report,
    load_summaries,
    partition_csv,
    pool_csv,
    report_csv,
    report_rows,
    run_experiment,
    sweep_experiment,
)
from .nn import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_DIVERGED = 5


def _load_with_env(path: str) -> ExperimentConfig:
    """The config at `path` with the environment overrides applied before
    it resolves, so its pools are built once."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), source=path)
    if "HETFED_SEED" in os.environ:
        try:
            raw["master_seed"] = int(os.environ["HETFED_SEED"])
        except ValueError as exc:
            raise ConfigError(f"HETFED_SEED must be an integer: {exc}") from exc
    if "HETFED_OUT" in os.environ:
        raw["output_dir"] = os.environ["HETFED_OUT"]
    return resolve_config(raw, source=path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetfed",
        description="Deterministic desk-scale simulator for model-heterogeneous federated learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Run the configured experiment.")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="Output directory (overrides config/output_dir).")

    p_sweep = sub.add_parser("sweep", help="Run the experiment across one axis of values.")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="Comma-separated axis values.")
    p_sweep.add_argument("--out", default=None)

    p_pool = sub.add_parser("pool", help="Print the model pool variant statistics as CSV.")
    p_pool.add_argument("config")

    p_part = sub.add_parser("partition", help="Print per-client class counts as CSV.")
    p_part.add_argument("config")

    p_report = sub.add_parser("report", help="Summarize finished runs.")
    p_report.add_argument("paths", nargs="+", help="summary.json files or run directories.")
    p_report.add_argument("--csv", default=None, help="Also write the long-format CSV here.")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_with_env(args.config)
            summary = run_experiment(cfg, args.out)
            rows = report_rows([summary])
            sys.stdout.write(format_report(rows))
        elif args.command == "sweep":
            cfg = _load_with_env(args.config)
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            text = sweep_experiment(cfg, args.axis, values, args.out)
            sys.stdout.write(text)
        elif args.command == "pool":
            sys.stdout.write(pool_csv(_load_with_env(args.config)))
        elif args.command == "partition":
            sys.stdout.write(partition_csv(_load_with_env(args.config)))
        elif args.command == "report":
            rows = report_rows(load_summaries(args.paths))
            sys.stdout.write(format_report(rows))
            if args.csv:
                atomic_write_text(args.csv, report_csv(rows))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, SummaryError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
