"""The harness-performance narrative in benchmarks/results.md.

The narrative is a pure function of the committed BENCH_*.json files:
every comparison it makes is derived from the numbers it prints.
"""

from benchmarks.conftest import (
    NARRATIVE_TITLE,
    RESULTS_PATH,
    load_bench_json,
    performance_narrative,
)

PARALLEL = {
    "workers": 4, "scenario": "5x8 matrix", "parallel_s": 1.0, "serial_s": 1.5,
    "cpu_count": 2, "speedup": 1.5, "identical": True,
}
TELEMETRY = {
    "enabled_over_disabled": 1.2, "pair_ratios": [1.1, 1.2, 1.3], "max_ratio": 1.5,
    "pairs": 3, "enabled": {"engine_events_per_run": 100},
}
FORK = {
    "scenario": "4x22 matrix", "baseline_converges_cold": 88,
    "baseline_converges_forked": 4, "cold_cells_per_s": 9.0,
    "forked_cells_per_s": 18.0, "speedup": 2.0, "min_speedup": 1.5,
    "forked_repeats_identical": True,
}


def test_results_md_narrative_is_rebuilt_from_bench_files():
    text = RESULTS_PATH.read_text()
    heading = f"## {NARRATIVE_TITLE}\n"
    assert text.count(heading) == 1
    block = text[text.index(heading) + len(heading):]
    expected = performance_narrative(
        load_bench_json("telemetry_overhead"),
        load_bench_json("parallel_sweep"),
        load_bench_json("checkpoint_fork"),
    )
    assert block.strip() == "\n\n".join(expected)


def test_speedup_side_of_one_follows_the_number():
    (above,) = performance_narrative(None, PARALLEL, None)
    assert "1.50x, above 1x" in above
    (below,) = performance_narrative(None, {**PARALLEL, "speedup": 0.8}, None)
    assert "0.80x, below 1x" in below


def test_telemetry_bound_verdict_follows_the_ratio():
    (inside,) = performance_narrative(TELEMETRY, None, None)
    assert "1.20x" in inside and "inside the bench's 1.5x bound" in inside
    assert "1.10-1.30x" in inside
    (outside,) = performance_narrative(
        {**TELEMETRY, "enabled_over_disabled": 1.7}, None, None
    )
    assert "outside the bench's 1.5x bound" in outside


def test_fork_floor_verdict_follows_the_speedup():
    (above,) = performance_narrative(None, None, FORK)
    assert "2.00x speedup (above the 1.5x floor)" in above
    (below,) = performance_narrative(None, None, {**FORK, "speedup": 1.2})
    assert "1.20x speedup (below the 1.5x floor)" in below


def test_no_payloads_no_narrative():
    assert performance_narrative(None, None, None) == []
