"""The paired-benchmark summary, on fixed run results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.24}]


def result(wall, rate, failed=0, attempted=5):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def pair(parent, change):
    return {"parent": parent, "change": change}


RUNS = [pair(result(1.0, 10.0), result(0.9, 11.0)),
        pair(result(1.2, 12.0), result(1.3, 9.0, failed=1)),
        pair(result(1.1, 8.0), result(1.0, 13.0)),
        pair(result(1.4, 9.0), result(1.2, 10.0)),
        pair({"error": "exit 2: boom"}, result(0.1, 99.0))]


def test_medians_iqrs_and_pairs_won():
    out = bench_pairs.summarize(RUNS, METRICS)
    assert out["pairs"] == 5 and out["complete_pairs"] == 4
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [1.0, 1.2, 1.1, 1.4]
    # inclusive quartiles of 1.0, 1.1, 1.2, 1.4 and of 0.9, 1.0, 1.2, 1.3
    assert wall["parent"]["median"] == pytest.approx(1.15)
    assert wall["parent"]["iqr"] == pytest.approx(1.25 - 1.075)
    assert wall["change"]["median"] == pytest.approx(1.1)
    assert wall["change"]["iqr"] == pytest.approx(1.225 - 0.975)
    assert wall["change_over_parent"] == pytest.approx(1.1 / 1.15)
    assert wall["pairs_won"] == 3
    # higher is better: the change won pairs 1, 3 and 4
    assert out["metrics"]["rate"]["pairs_won"] == 3
    assert out["metrics"]["rate"]["change"]["median"] == pytest.approx(10.5)


def test_failures_are_reported():
    out = bench_pairs.summarize(RUNS, METRICS)
    assert out["failed_runs"] == {"parent": 1, "change": 0}
    assert out["failed_ops"] == {"parent": 0, "change": 1}
    assert out["attempted_ops"] == {"parent": 20, "change": 25}


def test_ties_are_not_won_and_one_pair_has_no_spread():
    out = bench_pairs.summarize([pair(result(1.0, 2.0), result(1.0, 2.0))],
                                METRICS)
    for row in out["metrics"].values():
        assert row["pairs_won"] == 0
        assert row["parent"]["iqr"] == row["change"]["iqr"] == 0.0


def test_no_complete_pair_gives_no_metrics():
    out = bench_pairs.summarize([pair({"error": "x"}, result(1.0, 1.0))],
                                METRICS)
    assert out["metrics"] == {} and out["failed_runs"]["parent"] == 1


#: ten parent runs: median 1.045, IQR 0.045, so IQR / median 0.043
PARENT = [1.0 + 0.01 * i for i in range(10)]
#: ten runs with IQR / median 0.31, above the bound of 0.24
WIDE = [1.0 + 0.1 * i for i in range(10)]


def verdicts(parent, change):
    """{metric: verdict} with both metrics reading the same values."""
    runs = [pair(result(p, p), result(c, c)) for p, c in zip(parent, change)]
    out = bench_pairs.summarize(runs, METRICS)
    return {name: row["verdict"] for name, row in out["metrics"].items()}


@pytest.mark.parametrize("change, wall_s, rate", [
    # the median 30% up: worse where lower is better, better where higher
    ([p * 1.3 for p in PARENT], "worse", "better"),
    ([p * 0.7 for p in PARENT], "better", "worse"),
    # 0.1 apart, more than the parent's IQR, in all ten pairs
    ([p - 0.1 for p in PARENT], "better", "no_worse"),
    # ten pairs won by 0.01, within the parent's IQR
    ([p - 0.01 for p in PARENT], "no_worse", "no_worse"),
    # 0.1 apart in only eight pairs of ten
    ([p - 0.1 for p in PARENT[:8]] + PARENT[8:], "no_worse", "no_worse"),
    # the parent's median, with IQR / median 0.43
    ([0.6, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.04, 1.05],
     "unresolved", "unresolved")])
def test_verdicts(change, wall_s, rate):
    assert verdicts(PARENT, change) == {"wall_s": wall_s, "rate": rate}


def test_wide_spread_is_resolved_when_every_change_run_wins():
    # the parent's spread exceeds the bound; every change run is below 1.0
    assert verdicts(WIDE, [0.5 + 0.04 * i for i in range(10)]) == {
        "wall_s": "better", "rate": "worse"}


def test_flagged_names_worse_and_unresolved_metrics():
    out = {"a": bench_pairs.summarize(
               [pair(result(p, p), result(c, c))
                for p, c in zip(PARENT, [p * 1.3 for p in PARENT])], METRICS),
           "b": bench_pairs.summarize(
               [pair(result(p, p), result(p, p)) for p in WIDE], METRICS)}
    assert bench_pairs.flagged(out) == [
        {"workload": "a", "metric": "wall_s", "verdict": "worse"},
        {"workload": "b", "metric": "wall_s", "verdict": "unresolved"},
        {"workload": "b", "metric": "rate", "verdict": "unresolved"}]
