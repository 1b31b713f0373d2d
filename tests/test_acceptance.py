"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

The criteria live in spectacle.verify (shared with the verify-all CLI); every
tolerance and runtime budget is pinned there.  The runner is tested here too:
the matrix it runs, and that a raising criterion or ``python -O`` fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectacle
import spectacle.verify
from spectacle.cli import main
from spectacle.verify import CRITERIA, criterion_lvalue_periods, criterion_plus_space

# (function, printed name) of every criterion, in the order verify-all runs them
MATRIX = [
    ("criterion_cap_double_path", "cap double-path oracle"),
    ("criterion_worked_cap_example", "worked cap example (both cusps)"),
    ("criterion_siegel_weil", "level-one Eisenstein comparison"),
    ("criterion_main_theorem", "generating-series identity"),
    ("criterion_plus_space", "half-integral weight proportionality"),
    ("criterion_lvalue_periods", "completed L-value periods"),
    ("criterion_intersection_oracle", "intersection-sign oracle"),
    ("criterion_rep_theory", "representation-theory identities"),
    ("criterion_vanishing", "vanishing laws"),
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_acceptance(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.detail


def test_plus_space_detail_prints_lambda_as_rationals():
    assert criterion_plus_space().detail.endswith("lambda = 1: 10, 3: -2")


def test_periods_detail_counts_each_closed_pair_once():
    # every |j| <= k-1 of weights 4-46 is one (k, j), its two caps checked
    assert criterion_lvalue_periods().detail.endswith("all 484 (k, j) of weights 4-46")


def _result_lines(out):
    """(status, name, detail) of each PASS/FAIL line of verify-all's stdout."""
    rows = []
    for line in out.splitlines():
        if line.startswith(("PASS  ", "FAIL  ")):
            status, name, _seconds, detail = line.split("  ", 3)
            rows.append((status, name, detail))
    return rows


def test_verify_all_runs_the_pinned_matrix(capsys):
    assert [c.__name__ for c in CRITERIA] == [f for f, _ in MATRIX]
    assert main(["verify-all"]) == 0
    out, err = capsys.readouterr()
    rows = _result_lines(out)
    assert [(status, name) for status, name, _ in rows] == [("PASS", n) for _, n in MATRIX]
    assert out.splitlines()[-1] == f"all {len(MATRIX)} criteria passed"
    assert err == ""


def test_a_raising_criterion_is_one_fail_line(monkeypatch, capsys):
    def planted(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(spectacle.verify, "plus_space_check", planted)
    assert main(["verify-all"]) == 1
    out, err = capsys.readouterr()
    rows = _result_lines(out)
    assert [name for _, name, _ in rows] == [n for _, n in MATRIX]
    failed = [(name, detail) for status, name, detail in rows if status == "FAIL"]
    assert failed == [("half-integral weight proportionality", "raised ValueError: planted")]
    assert err == "1 criterion(s) FAILED\n"


def test_nothing_passes_with_assertions_stripped():
    src = str(Path(spectacle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-m", "spectacle", "verify-all"], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 1
    rows = _result_lines(done.stdout)
    assert [name for _, name, _ in rows] == [n for _, n in MATRIX]
    assert all(status == "FAIL" and "python -O" in detail for status, _, detail in rows)
    assert done.stderr == f"{len(MATRIX)} criterion(s) FAILED\n"
