import numpy as np
import pytest

from hetfed import metrics, nn
from hetfed.metrics import (
    METRICS,
    RoundRecord,
    advance_clock,
    build_report,
    effectiveness,
    model_accuracy,
    records_csv,
    stability,
    time_to_accuracy,
)
from hetfed.nn import BlockNetSpec

from oracles import model_from_params, param_shapes, zero_model


def record(round_index, time_s, acc, client_accs=(0.5, 0.5)):
    return RoundRecord(
        round=round_index,
        sim_time_s=time_s,
        global_accuracy=acc,
        per_client_accuracy={i: a for i, a in enumerate(client_accs)},
        max_train_s=1.0,
        max_comm_s=1.0,
    )


class TestClock:
    def test_single_client_sum(self):
        duration, train, comm = advance_clock({0: (1.0, 8.0)})
        assert (duration, train, comm) == (9.0, 1.0, 8.0)

    def test_max_over_clients(self):
        duration, _, _ = advance_clock({0: (5.0, 4.0), 1: (3.0, 1.0)})
        assert duration == 9.0

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError):
            advance_clock({})

    def test_additivity(self):
        durations = [advance_clock({0: (t, 2.0)})[0] for t in (1.0, 2.5, 4.0)]
        assert sum(durations) == pytest.approx(1.0 + 2.5 + 4.0 + 3 * 2.0)


class TestAccuracy:
    def test_all_correct_and_fraction(self):
        spec = BlockNetSpec(2, 4, 1, "plain", 2, 4)
        shapes = param_shapes(spec, (1,))
        params = {k: np.zeros(s) for k, s in shapes.items()}
        # route feature 0 straight to the logits so sign(x0) decides
        params["stem.w"][0, 0] = 1.0
        params["block1.w"][0, 0] = 1.0
        params["head1.neck.w"][0, 0] = 1.0
        params["head1.fc.w"][0, 1] = 1.0
        model = model_from_params(spec, (1,), params)
        x = np.array([[2.0, 0.0], [3.0, 0.0], [-1.0, 0.0], [4.0, 0.0]])
        y = np.array([1, 1, 0, 1])
        assert model_accuracy(model, x, y) == 1.0
        y_bad = np.array([1, 0, 0, 1])  # 3 of 4 correct
        assert model_accuracy(model, x, y_bad) == 0.75

    def test_zero_model_ties_break_to_class_zero(self):
        spec = BlockNetSpec(2, 4, 1, "plain", 4, 4)
        model = zero_model(spec, (1,))
        x = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([0, 1, 2, 3] * 2)  # balanced 4-class labels
        assert model_accuracy(model, x, y) == 0.25  # 1/k via lowest-index ties

    def test_scoring_does_not_depend_on_what_was_scored_before(self, monkeypatch):
        # Scores of other read-only models on other read-only rows leave
        # nothing behind: a read-only model scored at every head afterwards
        # walks once, compares on every call and gets the accuracies that
        # walking each head of a writable copy gives.
        spec = BlockNetSpec(3, 4, 3, "plain", 3, 4)
        heads = (1, 2, 3)

        def frozen(*arrays):
            for array in arrays:
                array.setflags(write=False)
            return arrays

        def rows(seed):
            rng = np.random.default_rng(seed)
            return frozen(rng.normal(size=(30, 3)), rng.integers(0, 3, size=30))

        x, y = rows(100)
        model = nn.init_model(spec, np.random.default_rng(100), heads)
        want = {j: np.count_nonzero(nn.predict(model, x.copy(), j) == y) / 30 for j in heads}
        frozen(model.vector)
        kept = []  # half stay alive, half are freed and their ids reused
        for seed in range(10):
            other = nn.init_model(spec, np.random.default_rng(seed), heads)
            frozen(other.vector)
            other_x, other_y = rows(seed)
            for j in heads:
                model_accuracy(other, other_x, other_y, j)
            if seed % 2:
                kept.append((other, other_x, other_y))
        walks, compared = [], []
        walk, count_nonzero = nn._run_forward, np.count_nonzero

        def counted_walk(stack, batch, keep=True):
            walks.append(stack.head_blocks)
            return walk(stack, batch, keep)

        def counted_compare(correct):
            compared.append(correct.size)
            return count_nonzero(correct)

        monkeypatch.setattr(nn, "_run_forward", counted_walk)
        monkeypatch.setattr(metrics.np, "count_nonzero", counted_compare)
        for _ in range(2):
            assert {j: model_accuracy(model, x, y, j) for j in heads} == want
        assert model_accuracy(model, x, y) == want[3]
        assert walks == [heads]
        assert compared == [30] * 7


class TestTimeToAccuracy:
    RECORDS = [record(1, 12.0, 0.5), record(2, 24.0, 0.6),
               record(3, 36.0, 0.72), record(4, 48.0, 0.71)]

    def test_first_crossing(self):
        assert time_to_accuracy(self.RECORDS, 0.7) == 36.0

    def test_threshold_zero_first_round(self):
        assert time_to_accuracy(self.RECORDS, 0.0) == 12.0

    def test_unreachable_threshold(self):
        assert time_to_accuracy(self.RECORDS, 1.1) is None

    def test_monotone_in_threshold(self):
        previous = -1.0
        for threshold in (0.0, 0.5, 0.6, 0.7, 0.72):
            t = time_to_accuracy(self.RECORDS, threshold)
            assert t is not None and t >= previous
            previous = t


class TestStability:
    def test_all_equal_zero(self):
        assert stability([0.7, 0.7, 0.7]) == 0.0

    def test_two_point_hand_value(self):
        assert stability([0.8, 0.6]) == pytest.approx(0.01, abs=1e-15)

    def test_three_point_hand_value(self):
        assert stability([0.9, 0.7, 0.5]) == pytest.approx(0.02666666666666666, abs=1e-12)

    def test_permutation_invariant(self):
        values = [0.3, 0.9, 0.5, 0.7]
        assert stability(values) == stability(list(reversed(values)))


class TestEffectiveness:
    def test_equal_is_zero(self):
        assert effectiveness(0.7, 0.7) == 0.0

    def test_positive_improvement(self):
        assert effectiveness(0.75, 0.70) == pytest.approx(0.05)

    def test_negative_allowed(self):
        assert effectiveness(0.6, 0.7) == pytest.approx(-0.1)


class TestReportAndCsv:
    def test_report_fields(self):
        records = [record(1, 10.0, 0.4, (0.3, 0.5)), record(2, 20.0, 0.8, (0.8, 0.6))]
        report = build_report(records, tta_threshold=0.7, baseline_final_accuracy=0.7)
        assert list(report) == [m.name for m in METRICS]
        assert report["final_global_accuracy"] == 0.8
        assert report["time_to_accuracy_s"] == 20.0
        assert report["stability_variance"] == pytest.approx(0.01)
        assert report["effectiveness_delta"] == pytest.approx(0.1)
        assert build_report(records, tta_threshold=0.9)["time_to_accuracy_s"] is None
        assert build_report(records, tta_threshold=0.9)["effectiveness_delta"] is None

    def test_csv_schema(self):
        text = records_csv([record(1, 10.0, 0.4), record(2, 20.0, 0.8)])
        lines = text.strip().split("\n")
        assert lines[0] == "round,sim_time_s,global_acc,stability_var,mean_client_acc"
        assert lines[1].startswith("1,10.0,0.4,")

    def test_csv_per_client_columns(self):
        text = records_csv([record(1, 10.0, 0.4, (0.25, 0.75))], include_clients=True)
        lines = text.strip().split("\n")
        assert lines[0].endswith("client_0,client_1")
        assert lines[1].endswith("0.25,0.75")
