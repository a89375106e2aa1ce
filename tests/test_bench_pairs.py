"""tools/bench_pairs.py summarises pairs of benchmark results by the rule
for a gain: the change wins nine pairs in ten, and the medians differ by
more than the parent's interquartile spread.  Checked on canned result
lines, without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(cpu_s, rss_mb, correct=True, failed=0):
    """A result line as perfbench/run.py prints it last."""
    metrics = {"cpu_s": (cpu_s, "s"), "setup_s": (0.36, "s"),
               "peak_rss_mb": (rss_mb, "MB"), "oracle_err": (5e-9, "abs")}
    return json.dumps({"correct": correct, "attempted": 8, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def test_the_metrics_are_the_benchmarks_end_to_end_rows():
    names = [name for name, _, _ in _tool().end_to_end_metrics()]
    assert names == ["cpu_s", "setup_s", "peak_rss_mb", "oracle_err"]


@pytest.mark.parametrize("change_cpu, wins, gain", [
    # lower in every pair, medians 1.405 apart against a spread of 0.45
    ([0.5 + 0.01 * k for k in range(10)], 10, "yes"),
    # lower in 8 pairs of 10: too few wins, however far apart the medians
    ([0.5] * 8 + [3.0, 3.0], 8, "no"),
    # lower in every pair, but by less than the parent's spread
    ([1.5 + 0.1 * k - 0.01 for k in range(10)], 10, "no"),
])
def test_summary_applies_the_rule_for_a_gain(change_cpu, wins, gain):
    tool = _tool()
    parent_cpu = [1.5 + 0.1 * k for k in range(10)]  # quartiles 1.725-2.175
    pairs = [(json.loads(_line(p, 100.0)), json.loads(_line(c, 100.0)))
             for p, c in zip(parent_cpu, change_cpu)]
    cpu, setup, rss, err = tool.summarize(pairs, tool.end_to_end_metrics())
    assert cpu.startswith("cpu_s (s, lower is better): parent median 1.95 "
                          "(quartiles 1.725-2.175)")
    assert f"change better in {wins}/10 pairs" in cpu
    assert "parent interquartile spread 0.45" in cpu
    assert cpu.endswith(f"gain: {gain}")
    # equal values are ties, won by neither side
    for line in (setup, rss, err):
        assert "change better in 0/10 pairs" in line
        assert line.endswith("gain: no")


def test_a_pair_line_gives_parent_then_change():
    tool = _tool()
    pair = (json.loads(_line(0.987, 100.8)), json.loads(_line(0.859, 100.7)))
    line = tool.pair_line(1, 502, False, pair, tool.end_to_end_metrics())
    assert line == ("pair 2, seed 502, change first: cpu_s 0.987/0.859 s, "
                    "setup_s 0.36/0.36 s, peak_rss_mb 100.8/100.7 MB, "
                    "oracle_err 5e-09/5e-09 abs")


def test_a_run_that_is_not_correct_or_fails_an_operation_is_flagged():
    tool = _tool()
    assert tool.problems(json.loads(_line(1.0, 100.0))) == ""
    assert tool.problems(json.loads(_line(1.0, 100.0, correct=False))) == (
        "correct is not true")
    assert tool.problems(json.loads(_line(1.0, 100.0, failed=2))) == (
        "2 failed operations")
