"""The four evaluation metrics and the simulated wall clock.

Rounds are priced by the slowest sampled client (synchronous aggregation
under a submission deadline); accuracies are always measured on the shared
global test set so devices are compared on one yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nn import BlockNetModel, predict


@dataclass
class RoundRecord:
    round: int
    sim_time_s: float                      # cumulative simulated seconds
    global_accuracy: float
    per_client_accuracy: dict[int, float]
    max_train_s: float
    max_comm_s: float

    @property
    def mean_client_accuracy(self) -> float:
        return float(np.mean(list(self.per_client_accuracy.values())))

    @property
    def stability_variance(self) -> float:
        return stability(self.per_client_accuracy.values())


@dataclass(frozen=True)
class Metric:
    """One report metric: its key in summary.json and the CSVs, whether a
    higher value is better, its `hetfed report` column label and width,
    whether it may be null (threshold never reached, or no baseline), and
    its value for one repeat's records, given the time-to-accuracy threshold
    and the baseline's final accuracy (None without a baseline)."""

    name: str
    higher_is_better: bool
    label: str
    width: int
    nullable: bool
    value: Callable[[list[RoundRecord], float, float | None], float | None]

    def rank(self, value: float) -> float:
        """Sort key that puts the best value first."""
        return -value if self.higher_is_better else value


# The per-strategy metrics of summary.json, the sweep CSV and `hetfed
# report`, in column order. A new report column is one row here.
METRICS = (
    Metric("final_global_accuracy", True, "final_acc", 10, False,
           lambda records, tta, baseline: records[-1].global_accuracy),
    Metric("time_to_accuracy_s", False, "tta_s", 12, True,
           lambda records, tta, baseline: time_to_accuracy(records, tta)),
    Metric("stability_variance", False, "stability", 10, False,
           lambda records, tta, baseline: records[-1].stability_variance),
    Metric("effectiveness_delta", True, "effect", 8, True,
           lambda records, tta, baseline: None if baseline is None
           else effectiveness(records[-1].global_accuracy, baseline)),
)


def advance_clock(client_times: dict[int, tuple[float, float]]) -> tuple[float, float, float]:
    """Round duration under synchronous aggregation.

    client_times maps client id -> (train seconds, comm seconds); the round
    lasts as long as its slowest participant. Returns (duration, max train,
    max comm).
    """
    if not client_times:
        raise ValueError("a round needs at least one participating client")
    duration = max(t + c for t, c in client_times.values())
    max_train = max(t for t, _ in client_times.values())
    max_comm = max(c for _, c in client_times.values())
    return duration, max_train, max_comm


def model_accuracy(
    model: BlockNetModel, features: np.ndarray, labels: np.ndarray, head: int | None = None
) -> float:
    """Fraction of correct argmax predictions of one head (default: the
    deepest; ties to the lowest class)."""
    correct = predict(model, features, head) == labels
    return np.count_nonzero(correct) / correct.size


def time_to_accuracy(records: list[RoundRecord], threshold: float) -> float | None:
    """Simulated time at the first evaluated round reaching the threshold."""
    for record in records:
        if record.global_accuracy >= threshold:
            return record.sim_time_s
    return None


def stability(per_client_accuracies) -> float:
    """Population variance of per-client accuracies."""
    values = np.asarray(list(per_client_accuracies), dtype=float)
    if values.size == 0:
        raise ValueError("stability needs at least one client accuracy")
    if np.ptp(values) == 0.0:  # constant inputs have exactly zero variance
        return 0.0
    return float(np.var(values))


def effectiveness(strategy_accuracy: float, baseline_accuracy: float) -> float:
    """Final-accuracy improvement over the smallest-homogeneous baseline."""
    return strategy_accuracy - baseline_accuracy


def build_report(
    records: list[RoundRecord],
    tta_threshold: float,
    baseline_final_accuracy: float | None = None,
) -> dict[str, float | None]:
    """One repeat's metric name -> value, in METRICS order."""
    if not records:
        raise ValueError("cannot build a report from zero records")
    return {m.name: m.value(records, tta_threshold, baseline_final_accuracy) for m in METRICS}


# ---------------------------------------------------------------------------
# CSV emission: every CSV hetfed writes goes through csv_cell and csv_text


def csv_cell(value: float | None) -> str:
    """A number cell: empty for a missing value, else the shortest repr of
    the float that round-trips. Integer columns use str(int) instead."""
    return "" if value is None else repr(float(value))


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    """Comma-joined lines, each ending in a newline."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def records_csv(records: list[RoundRecord], include_clients: bool = False) -> str:
    """One row per evaluated round; with include_clients, one column per
    client's accuracy after the fixed ones."""
    client_ids = sorted(records[0].per_client_accuracy) if include_clients and records else []
    header = ["round", "sim_time_s", "global_acc", "stability_var", "mean_client_acc"]
    header.extend(f"client_{cid}" for cid in client_ids)
    rows = []
    for r in records:
        numbers = [r.sim_time_s, r.global_accuracy, r.stability_variance, r.mean_client_accuracy]
        numbers.extend(r.per_client_accuracy[cid] for cid in client_ids)
        rows.append([str(r.round), *map(csv_cell, numbers)])
    return csv_text(header, rows)
