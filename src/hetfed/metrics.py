"""The four evaluation metrics and the simulated wall clock.

Rounds are priced by the slowest sampled client (synchronous aggregation
under a submission deadline); accuracies are always measured on the shared
global test set so devices are compared on one yardstick.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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


@dataclass
class MetricsReport:
    final_global_accuracy: float
    time_to_accuracy_s: float | None
    stability_variance: float
    effectiveness_delta: float | None = None


@dataclass(frozen=True)
class Metric:
    """One report metric: its key in summary.json and the CSVs, whether a
    higher value is better, its `hetfed report` column label and width, and
    whether it may be null (threshold never reached, or no baseline)."""

    name: str
    higher_is_better: bool
    label: str
    width: int
    nullable: bool

    def rank(self, value: float) -> float:
        """Sort key that puts the best value first."""
        return -value if self.higher_is_better else value


# The per-strategy metrics of summary.json, the sweep CSV and `hetfed
# report`, in column order; one per MetricsReport field. A new report
# column is one row here plus the field that build_report fills.
METRICS = (
    Metric("final_global_accuracy", True, "final_acc", 10, False),
    Metric("time_to_accuracy_s", False, "tta_s", 12, True),
    Metric("stability_variance", False, "stability", 10, False),
    Metric("effectiveness_delta", True, "effect", 8, True),
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


# Accuracies of read-only predictions against read-only labels: id of the
# prediction -> (weak reference to it, weak reference to the labels,
# accuracy). The memo keeps no array alive; an entry whose prediction or
# labels died no longer matches, even if a new array reuses the id. An
# eval round shares a few distinct predictions among its clients, and a
# full memo is emptied.
_ACCURACIES: dict[int, tuple[weakref.ref, weakref.ref, float]] = {}
_MAX_ACCURACIES = 8


def model_accuracy(
    model: BlockNetModel, features: np.ndarray, labels: np.ndarray, head: int | None = None
) -> float:
    """Fraction of correct argmax predictions of one head (default: the
    deepest; ties to the lowest class). A read-only prediction (`predict`
    remembers one per head of a read-only model) is compared once with
    the same read-only `labels` object."""
    predicted = predict(model, features, head)
    frozen = not (predicted.flags.writeable or labels.flags.writeable)
    if frozen:
        memo = _ACCURACIES.get(id(predicted))
        if memo is not None and memo[0]() is predicted and memo[1]() is labels:
            return memo[2]
    correct = predicted == labels
    accuracy = np.count_nonzero(correct) / correct.size
    if frozen:
        if len(_ACCURACIES) >= _MAX_ACCURACIES:
            _ACCURACIES.clear()
        _ACCURACIES[id(predicted)] = (weakref.ref(predicted), weakref.ref(labels), accuracy)
    return accuracy


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
) -> MetricsReport:
    if not records:
        raise ValueError("cannot build a report from zero records")
    final = records[-1]
    delta = None
    if baseline_final_accuracy is not None:
        delta = effectiveness(final.global_accuracy, baseline_final_accuracy)
    return MetricsReport(
        final_global_accuracy=final.global_accuracy,
        time_to_accuracy_s=time_to_accuracy(records, tta_threshold),
        stability_variance=final.stability_variance,
        effectiveness_delta=delta,
    )


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
