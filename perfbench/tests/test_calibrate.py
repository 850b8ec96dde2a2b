"""Bounds from spread, and the verdicts ``compare`` hands out."""

import pytest

from perfbench import END_TO_END
from perfbench.calibrate import LIMITS, derived_bound, verdict


def test_bound_is_three_spreads_clamped():
    assert derived_bound(0.001, 0.03, 0.10) == 0.03
    assert derived_bound(0.02, 0.03, 0.10) == pytest.approx(0.06)
    assert derived_bound(0.2, 0.03, 0.10) == 0.10


def row(median, spread=0.0):
    return {"median": median, "spread": spread}


def test_verdicts():
    assert verdict(row(100), row(104), "lower", 0.05) == "unchanged"
    assert verdict(row(100), row(106), "lower", 0.05) == "worse"
    assert verdict(row(100), row(90), "lower", 0.05) == "unchanged"
    assert verdict(row(100), row(94), "higher", 0.05) == "worse"
    assert verdict(row(100), row(110), "higher", 0.05) == "unchanged"
    # A side noisier than the bound cannot show "unchanged".
    assert verdict(row(100, 0.08), row(101), "lower", 0.05) \
        == "unresolved"
    assert verdict(row(100, 0.08), row(120), "lower", 0.05) == "worse"


def test_no_bound_exceeds_the_contract():
    assert set(LIMITS) == set(END_TO_END)
    for floor, cap in LIMITS.values():
        assert 0 < floor <= cap <= 0.25
