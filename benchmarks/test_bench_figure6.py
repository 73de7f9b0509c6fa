"""Benchmark for Figure 6: the denormalisation perturbation."""

from repro.experiments import run_experiment


def test_bench_figure6_denormalization(run_once):
    result = run_once(run_experiment, "figure6")
    # Re-normalising procedures are unaffected; the raw-prefix procedure is hurt.
    assert result.full_length_clean == result.full_length_denormalized
    assert result.prefix_renormalized_clean == result.prefix_renormalized_denormalized
    assert result.prefix_raw_denormalized < result.prefix_raw_clean
