"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

The criteria live in spectacle.verify (shared with the verify-all CLI); every
tolerance and runtime budget is pinned there.
"""

import pytest

from spectacle.verify import CRITERIA, criterion_plus_space


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_acceptance(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.detail


def test_plus_space_detail_prints_lambda_as_rationals():
    assert criterion_plus_space().detail.endswith("lambda = 1: 10, 3: -2")
