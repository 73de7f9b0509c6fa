"""Benchmark for Table 1: six ETSC algorithms, normalised vs denormalised."""

from repro.experiments import run_experiment


def test_bench_table1_normalization_sensitivity(run_once):
    # Full-size split with table1's cheaper classifier settings.
    result = run_once(run_experiment, "table1", fast_classifiers=True)
    assert len(result.audits) == 6
    for audit in result.audits:
        # Every algorithm looks publishable on normalised data...
        assert audit.normalized.accuracy >= 0.75, audit.algorithm
        # ...and loses accuracy once the test data is trivially shifted.
        assert audit.denormalized.accuracy < audit.normalized.accuracy, audit.algorithm
    # The re-normalising full-length 1-NN control does not move at all.
    assert result.control_normalized == result.control_denormalized
