"""Benchmark for Figure 9: the GunPoint prefix error-rate curve."""

from repro.experiments import run_experiment


def test_bench_figure9_prefix_curve(run_once):
    result = run_once(run_experiment, "figure9")
    # The paper's headline numbers: ~31% of the data matches full-length
    # accuracy and ~33% beats it; full-length error is ~0.09.
    assert result.fraction_needed <= 0.45
    assert result.curve.beats_full_length()
    assert result.best_length < 75
    assert result.full_length_error <= 0.2
    # Short prefixes (before the draw starts) are near chance.
    assert result.curve.error_rates[0] >= 0.3
