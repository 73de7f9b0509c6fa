"""Benchmark for Figure 3: TEASER and threshold-model trigger points."""

from repro.experiments import run_experiment


def test_bench_figure3_trigger_points(run_once):
    result = run_once(run_experiment, "figure3")
    teaser = result.trace_for("TEASER")
    threshold = result.trace_for("threshold=0.8")
    # Both framings commit well before the exemplar ends and get it right
    # (the paper's exemplar commits at 53/150 and 36/150 respectively).
    assert teaser.correct and threshold.correct
    assert teaser.fraction_seen <= 0.7
    assert threshold.fraction_seen <= 0.5
