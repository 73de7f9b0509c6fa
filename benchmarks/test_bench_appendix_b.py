"""Benchmark for Appendix B: the streaming deployment and cost model."""

from repro.experiments import run_experiment


def test_bench_appendix_b_streaming_deployment(run_once):
    result = run_once(
        run_experiment,
        "appendix_b",
        n_events=12,
        gap_range=(1_500, 4_000),
        stride=15,
    )
    evaluation = result.evaluation
    # False positives dominate true positives, and the deployment loses money
    # under the paper's $1000 / $200 cost model.
    assert evaluation.false_positives > evaluation.true_positives
    assert not result.cost_criterion.passed
