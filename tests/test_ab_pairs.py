"""The gain and regression verdicts of tools/ab_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]


def test_clear_gain_on_ten_pairs():
    change = [0.70 + 0.001 * i for i in range(10)]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["gain"]
    assert v["regression"] == "none"


def test_higher_is_better_flips_the_sign():
    v = verdict(PARENT, [0.7] * 10, "higher", 0.25)
    assert v["wins"] == 0 and not v["gain"]
    assert v["regression"] == "regression"
    v = verdict(PARENT, [1.3] * 10, "higher", 0.25)
    assert v["wins"] == 10 and v["gain"]
    assert v["regression"] == "none"


def test_no_gain_below_ten_pairs():
    v = verdict(PARENT[:9], [0.7] * 9, "lower", 0.25)
    assert v["wins"] == 9 and not v["gain"]


def test_no_gain_when_the_change_fails_more_fingerprints():
    change = [0.7] * 10
    assert verdict(PARENT, change, "lower", 0.25, failed=(1, 1))["gain"]
    assert not verdict(PARENT, change, "lower", 0.25, failed=(0, 1))["gain"]


def test_no_gain_when_the_gap_is_within_the_parent_spread():
    parent = [1.0, 1.4] * 5
    change = [0.95, 1.35] * 5  # wins every pair, gap 0.05 < IQR 0.4
    v = verdict(parent, change, "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_nine_of_ten_wins_suffice_for_a_gain():
    change = [0.7] * 9 + [1.5]
    assert verdict(PARENT, change, "lower", 0.25)["gain"]
    change = [0.7] * 8 + [1.5] * 2
    assert not verdict(PARENT, change, "lower", 0.25)["gain"]


def test_regression_beyond_the_bound():
    v = verdict(PARENT, [1.3] * 10, "lower", 0.25)
    assert v["regression"] == "regression"
    assert verdict(PARENT, [1.2] * 10, "lower", 0.25)["regression"] == "none"


@pytest.mark.parametrize("wide", ["parent", "change"])
def test_spread_wider_than_the_bound_is_unresolved(wide):
    narrow = [1.0] * 10
    spread = [0.5, 1.5] * 5  # IQR 1.0 against a bound of 0.05
    parent, change = (spread, narrow) if wide == "parent" else (narrow, spread)
    assert verdict(parent, change, "lower", 0.05)["regression"] == "unresolved"


def test_wide_spread_resolved_when_every_change_run_is_better():
    parent = [2.0, 3.0] * 5
    change = [0.5, 1.5] * 5
    assert verdict(parent, change, "lower", 0.05)["regression"] == "none"
    assert verdict(change, parent, "higher", 0.05)["regression"] == "none"
