"""``tools/bench_pairs.py`` verdicts on synthetic paired runs."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "host_us_per_iter", "unit": "us/iter", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "jobs/s", "better": "higher", "bound": 0.25},
]

TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
WIDE = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]


def _runs(parent: list[float], change: list[float], rate=None) -> dict:
    def run(value: float, rate_value: float) -> dict:
        return {
            "metrics": {
                "host_us_per_iter": {"value": value},
                "rate": {"value": rate_value},
            },
            "digest": "abc",
            "correct": True,
            "failed": 0,
        }

    parent_rate, change_rate = rate or (TIGHT, TIGHT)
    return {
        "parent": [run(v, r) for v, r in zip(parent, parent_rate)],
        "change": [run(v, r) for v, r in zip(change, change_rate)],
    }


def _verdicts(runs: dict) -> dict[str, str]:
    lines = bench_pairs.summarise(METRICS, runs)
    return {
        line.split(" ", 1)[0]: line.rsplit("verdict: ", 1)[1]
        for line in lines
        if "verdict: " in line
    }


@pytest.mark.parametrize(
    "parent, change, want",
    [
        # 10/10 pairs won by 20 with a parent IQR under 1
        (TIGHT, [v - 20 for v in TIGHT], "gain"),
        # 8/10 pairs won: not enough for a gain, and within the bound
        (TIGHT, [v - 20 for v in TIGHT[:8]] + [v + 1 for v in TIGHT[8:]], "no worse"),
        # every pair won, but by less than the parent's IQR
        ([100.0, 110.0] * 5, [v - 1 for v in [100.0, 110.0] * 5], "no worse"),
        # 30 % slower against a 25 % bound
        (TIGHT, [v * 1.3 for v in TIGHT], "worse"),
        # within the bound but the parent spreads wider than the bound
        (WIDE, [v * 1.1 for v in WIDE], "unresolved"),
        # wide parent, every change run better than every parent run, but
        # the median gain is under the parent IQR: resolved, not a gain
        (WIDE, [59.0] * 10, "no worse"),
        # wide parent and a change that wins every pair yet not every run
        (WIDE, [v - 1 for v in WIDE], "unresolved"),
        (TIGHT, TIGHT, "no worse"),
    ],
)
def test_verdict_lower_is_better(parent, change, want):
    assert _verdicts(_runs(parent, change))["host_us_per_iter"] == want


def test_verdict_higher_is_better():
    up = [v * 1.2 for v in TIGHT]
    down = [v * 0.7 for v in TIGHT]
    assert _verdicts(_runs(TIGHT, TIGHT, rate=(TIGHT, up)))["rate"] == "gain"
    assert _verdicts(_runs(TIGHT, TIGHT, rate=(TIGHT, down)))["rate"] == "worse"


def test_ties_count_for_neither_side():
    change = list(TIGHT)
    change[0] -= 50  # one win, nine ties
    assert bench_pairs.verdict(TIGHT, change, lower=True, bound=0.25) == "no worse"


def test_without_a_bound_only_gain_or_no_worse():
    assert bench_pairs.verdict(TIGHT, [v * 3 for v in TIGHT], lower=True, bound=None) == "no worse"
    assert bench_pairs.verdict(TIGHT, [v / 3 for v in TIGHT], lower=True, bound=None) == "gain"


def test_summary_reports_digests_and_status():
    lines = bench_pairs.summarise(METRICS, _runs(TIGHT, TIGHT))
    assert lines[-2] == "parent: digests abc; all correct, 0 failed"
    assert lines[-1] == "change: digests abc; all correct, 0 failed"
