"""The verdicts of `scripts/pairs.py` on canned paired values. The script
is loaded from its file; nothing here runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_script", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load_pairs()

EVALS = {"name": "evals_per_s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
NO_FAILS = (0.0, 0.0)
PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0]


def test_quartiles_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain():
    change = [p + 10.0 for p in PARENT]
    s = pairs.summarize(EVALS, PARENT, change, NO_FAILS)
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"][1] == 100.0 and s["change"][1] == 110.0
    assert s["gain"] and s["regression"] == "no"


def test_eight_wins_is_no_gain():
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    s = pairs.summarize(EVALS, PARENT, change, NO_FAILS)
    assert s["wins"] == 8
    assert not s["gain"]


def test_nine_wins_with_a_wide_gap_is_a_gain():
    change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    s = pairs.summarize(EVALS, PARENT, change, NO_FAILS)
    assert s["wins"] == 9
    assert s["gain"]


def test_gap_within_parent_iqr_is_no_gain():
    # the change wins every pair by 0.5, below the parent's IQR of 1.5
    change = [p + 0.5 for p in PARENT]
    s = pairs.summarize(EVALS, PARENT, change, NO_FAILS)
    assert s["wins"] == 10
    assert s["parent"][2] - s["parent"][0] == pytest.approx(1.5)
    assert not s["gain"]


def test_ties_are_not_wins():
    s = pairs.summarize(EVALS, PARENT, list(PARENT), NO_FAILS)
    assert s["wins"] == 0 and not s["gain"] and s["regression"] == "no"


def test_lower_is_better():
    parent = [0.16] * 10
    s = pairs.summarize(SETUP, parent, [0.15] * 10, NO_FAILS)
    assert s["wins"] == 10 and s["gain"] and s["regression"] == "no"
    # 0.21 is 31% above 0.16, past the 25% bound; 0.19 is within it
    assert pairs.summarize(SETUP, parent, [0.21] * 10, NO_FAILS)["regression"] == "yes"
    assert pairs.summarize(SETUP, parent, [0.19] * 10, NO_FAILS)["regression"] == "no"


def test_regression_bound_on_higher_is_better():
    assert pairs.summarize(EVALS, PARENT, [74.0] * 10, NO_FAILS)["regression"] == "yes"
    assert pairs.summarize(EVALS, PARENT, [76.0] * 10, NO_FAILS)["regression"] == "no"


def test_more_failures_is_no_gain():
    change = [p + 10.0 for p in PARENT]
    assert pairs.summarize(EVALS, PARENT, change, (0.0, 0.0))["gain"]
    assert pairs.summarize(EVALS, PARENT, change, (0.01, 0.01))["gain"]
    assert not pairs.summarize(EVALS, PARENT, change, (0.0, 0.01))["gain"]


def test_wide_parent_spread_is_unresolved():
    # parent quartiles 62.5 and 137.5 around a median of 100: an IQR of 75,
    # wider than the 25% bound, so a median within the bound tells nothing
    parent = [50.0, 50.0, 50.0, 100.0, 100.0, 100.0, 150.0, 150.0, 150.0, 100.0]
    s = pairs.summarize(EVALS, parent, [90.0] * 10, NO_FAILS)
    assert s["parent"][2] - s["parent"][0] == pytest.approx(75.0)
    assert s["regression"] == "unresolved"
    # past the bound it is a regression however wide the spread
    assert pairs.summarize(EVALS, parent, [70.0] * 10, NO_FAILS)["regression"] == "yes"
    # every change run better than every parent run settles it
    assert pairs.summarize(EVALS, parent, [151.0] * 10, NO_FAILS)["regression"] == "no"


def test_unpaired_values_are_rejected():
    with pytest.raises(ValueError):
        pairs.summarize(EVALS, PARENT, PARENT[:9], NO_FAILS)
    with pytest.raises(ValueError):
        pairs.summarize(EVALS, [], [], NO_FAILS)


def test_format_summary():
    s = pairs.summarize(EVALS, PARENT, [p + 10.0 for p in PARENT], NO_FAILS)
    line = pairs.format_summary(s)
    assert line.startswith("evals_per_s")
    assert "parent 100 [99.25, 100.75]" in line
    assert "change 110 [109.25, 110.75]" in line
    assert "won 10/10" in line and "gain yes" in line and "regression no" in line
