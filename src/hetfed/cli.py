"""Command line entry point.

Subcommands: run, sweep, pool, partition, report. Exit codes: 0 success,
2 config error, 3 infeasible scenario, 4 I/O error or a report input that
is not a hetfed summary, 5 diverged training. HETFED_SEED overrides the
config's master_seed; HETFED_OUT, unless --out is given, picks the output
directory of run and sweep without entering the config.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .resources import InfeasibleScenarioError
from .runner import (
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
    p_sweep.add_argument("--axis", required=True, help="A config key, alpha or scenario.")
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
        if args.command == "report":
            rows = report_rows(load_summaries(args.paths))
            sys.stdout.write(format_report(rows))
            if args.csv:
                atomic_write_text(args.csv, report_csv(rows))
            return EXIT_OK
        cfg = load_config(args.config, os.environ.get("HETFED_SEED"))
        if args.command == "pool":
            text = pool_csv(cfg)
        elif args.command == "partition":
            text = partition_csv(cfg)
        else:
            # HETFED_OUT, like --out, picks the directory and is no part of the config.
            out = args.out if args.out is not None else os.environ.get("HETFED_OUT")
            if out == "":
                raise ConfigError(f"{'--out' if args.out is not None else 'HETFED_OUT'}: must not be empty")
            # A diverging run overflows on its way to a non-finite value,
            # which the engine's finite checks report as one diagnosis, so
            # numpy's floating-point warnings would only precede it.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if args.command == "run":
                    text = format_report(report_rows([run_experiment(cfg, out)]))
                else:
                    values = [v.strip() for v in args.values.split(",") if v.strip()]
                    text = sweep_experiment(cfg, args.axis, values, out)
        sys.stdout.write(text)
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
