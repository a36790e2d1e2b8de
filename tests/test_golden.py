"""CLI output contract: replay tests/golden/corpus.json through ``cli.run``.

Record the corpus with ``PYTHONPATH=src python tests/record_golden.py``.
"""

import io
import json
import math
from pathlib import Path

import pytest

from rnpm import cli
from record_golden import CORPUS, report_changes, run_case

DOC = json.loads(CORPUS.read_text())


def first_difference(want: str, got: str) -> str:
    """Where two outputs first differ: line, CSV column, distance in ulp."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines)):
        if w == g:
            continue
        where = f"line {i + 1}: {w!r} != {g!r}"
        header = want_lines[0].split(",")
        for col, a, b in zip(header, w.split(","), g.split(",")):
            if a != b:
                where += f"; column {col}"
                try:
                    x, y = float(a), float(b)
                    where += f", {abs(x - y) / math.ulp(x):.3g} ulp"
                except (ValueError, ZeroDivisionError):
                    pass
                break
        return where
    return f"{len(want_lines)} lines != {len(got_lines)} lines"


@pytest.mark.parametrize("case", DOC["cases"], ids=lambda c: c["name"])
def test_output_matches_corpus(tmp_path, case):
    stdout, code, stderr = run_case(cli, case["argv"], case["config"], tmp_path)
    recorded = f"(recorded on Python {DOC['python']}, numpy {DOC['numpy']})"
    assert code == case["exit"], recorded
    assert stdout == case["stdout"], first_difference(case["stdout"], stdout)
    assert stderr == case["stderr"], recorded


def test_corpus_covers_the_contract():
    cases = DOC["cases"]
    assert {c["exit"] for c in cases} == {0, 2, 3}
    for command in ("perf", "repeater", "distill", "montecarlo", "optics"):
        for fmt in ("csv", "json"):
            for det in ("number_resolving", "single_photon", "threshold"):
                for kind in ("midpoint", "endpoint"):
                    assert any(
                        c["argv"] == [command, "--format", fmt]
                        and c["config"]["hardware"]["detector"] == det
                        and c["config"]["geometry"]["kind"] == kind
                        for c in cases if "hardware" in c["config"]
                        and "geometry" in c["config"])
    assert CORPUS.stat().st_size < 200 * 1024


def test_report_names_each_change_with_per_column_counts():
    case = {"name": "a", "argv": ["perf"], "config": {}, "exit": 0,
            "stderr": "", "stdout": "x,y,z\n1.0,2.0,q\n1.5,3.0,r\n"}
    as_json = dict(case, name="j", stdout='[{"y": 1.0, "z": null}]')
    old = [case, as_json, dict(case, name="same"), dict(case, name="gone")]
    new = [dict(case, stdout="x,y,z\n1.0,2.5,q\n1.5,3.25,s\n"),
           dict(as_json, stdout='[{"y": 1.25, "z": null}]'),
           dict(case, name="same"),
           dict(case, name="b", exit=2, stdout="")]
    out = io.StringIO()
    report_changes(old, new, out)
    assert out.getvalue().splitlines() == [
        "a: y 2 cells, largest move 0.5; z 1 cells, largest move inf",
        "j: y 1 cells, largest move 0.25",
        "b: new, exit 2",
        "gone: removed",
        "total y: 3 cells in 2 cases, largest move 0.5",
        "total z: 1 cells in 1 cases, largest move inf"]
