"""The two acceptance tests that ``scripts/bench_pairs.py`` records per end-to-end metric,
on hand-made runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0 + 0.1 * i for i in range(10)]  # median 1.45, q1 1.225, q3 1.675: q3 - q1 = 0.45


def test_bounds_are_read_from_the_benchmark_file():
    assert bench_pairs.BOUNDS == {"job_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


@pytest.mark.parametrize("shift, gain", [(0.5, True), (0.4, False)])
def test_gain_needs_the_median_to_move_past_the_parent_spread(shift, gain):
    entry = bench_pairs.compare(PARENT, [p - shift for p in PARENT], 0.25)
    assert entry["change_wins"] == 10 and entry["gain"] is gain


@pytest.mark.parametrize("ties, gain", [(1, True), (2, False)])
def test_gain_needs_nine_of_ten_pairs_and_a_tie_counts_for_neither(ties, gain):
    change = PARENT[:ties] + [p - 0.6 for p in PARENT[ties:]]
    entry = bench_pairs.compare(PARENT, change, 0.25)
    assert (entry["change_wins"], entry["ties"]) == (10 - ties, ties)
    assert entry["gain"] is gain


@pytest.mark.parametrize("change_median, within", [(1.8, True), (1.82, False)])  # bound 1.8125
def test_within_bound_caps_the_change_median(change_median, within):
    change = [change_median + 0.01 * (i - 4.5) for i in range(10)]
    entry = bench_pairs.compare(PARENT, change, 0.25)
    assert entry["change"]["median"] == pytest.approx(change_median, abs=1e-12)
    assert entry["within_bound"] is within and entry["gain"] is False
