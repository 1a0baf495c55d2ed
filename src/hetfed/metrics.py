"""The four evaluation metrics and the simulated wall clock.

Rounds are priced by the slowest sampled client (synchronous aggregation
under a submission deadline); accuracies are always measured on the shared
global test set so devices are compared on one yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import BlockNetModel, predict

NOT_REACHED = None


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

    def to_dict(self) -> dict:
        return {
            "final_global_accuracy": self.final_global_accuracy,
            "time_to_accuracy_s": self.time_to_accuracy_s,
            "stability_variance": self.stability_variance,
            "effectiveness_delta": self.effectiveness_delta,
        }


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


def model_accuracy(model: BlockNetModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions (ties to the lowest class)."""
    correct = predict(model, features) == labels
    return np.count_nonzero(correct) / correct.size


def time_to_accuracy(records: list[RoundRecord], threshold: float) -> float | None:
    """Simulated time at the first evaluated round reaching the threshold."""
    for record in records:
        if record.global_accuracy >= threshold:
            return record.sim_time_s
    return NOT_REACHED


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
# CSV emission (schema: round,sim_time_s,global_acc,stability_var,mean_client_acc)


def records_csv(records: list[RoundRecord], include_clients: bool = False) -> str:
    header = ["round", "sim_time_s", "global_acc", "stability_var", "mean_client_acc"]
    client_ids: list[int] = []
    if include_clients and records:
        client_ids = sorted(records[0].per_client_accuracy)
        header.extend(f"client_{cid}" for cid in client_ids)
    lines = [",".join(header)]
    for r in records:
        row = [
            str(r.round),
            repr(float(r.sim_time_s)),
            repr(float(r.global_accuracy)),
            repr(float(r.stability_variance)),
            repr(float(r.mean_client_accuracy)),
        ]
        row.extend(repr(float(r.per_client_accuracy[cid])) for cid in client_ids)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
