"""Benchmark for Figure 8: the dustbathing template vs its truncated prefix."""

from repro.experiments import run_experiment


def test_bench_figure8_dustbathing_templates(run_once):
    result = run_once(run_experiment, "figure8")
    assert result.n_dustbathing_bouts >= 20
    # Both templates detect essentially every bout with high precision, and
    # the difference between them is not statistically significant.
    assert result.full.recall >= 0.95
    assert result.truncated.recall >= 0.9
    assert result.full.precision >= 0.95
    assert not result.significance.significant
