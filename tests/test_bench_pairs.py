"""The paired-benchmark summary, on fixed run results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


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
