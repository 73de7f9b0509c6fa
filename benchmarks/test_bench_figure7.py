"""Benchmark for Figure 7: raw ECG telemetry statistics."""

from repro.experiments import run_experiment


def test_bench_figure7_ecg_telemetry(run_once):
    result = run_once(run_experiment, "figure7")
    assert result.n_beats >= 12
    # Acquisition artefacts dominate the physiological variability.
    assert result.lead1_mean_range > 3 * result.clean_mean_range
    assert result.lead2_std_range > 1.5 * result.clean_std_range
