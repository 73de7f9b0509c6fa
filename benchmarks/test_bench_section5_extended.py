"""Benchmarks for the Section 5 padding experiment and the extended Table 1."""

from repro.classifiers import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.experiments import run_experiment


def test_bench_section5_padding(run_once):
    """Section 5: how much apparent earliness is the right-padding convention."""
    result = run_once(run_experiment, "section5_padding")
    for comparison in result.comparisons:
        assert comparison.padding_share_of_savings >= 0.2
        assert comparison.padded.accuracy >= 0.8


def test_bench_table1_extended_algorithms(run_once, bench_metrics):
    """Table 1 protocol applied to the additional stopping rules in the library.

    TEASER and the plain probability threshold are not rows of the paper's
    Table 1, but they are part of the literature it critiques; the audit
    shows the same qualitative sensitivity.  Each audit's accuracy and
    earliness on both test conditions go to the benchmark record.
    """
    result = run_once(
        run_experiment,
        "table1",
        algorithms={
            "TEASER": lambda: TEASERClassifier(),
            "Threshold 0.8": lambda: ProbabilityThresholdClassifier(
                threshold=0.8, min_length=10, checkpoint_step=5
            ),
        },
    )
    for audit in result.audits:
        key = audit.algorithm.lower().replace(" ", "_").replace(".", "")
        for condition in ("normalized", "denormalized"):
            evaluation = getattr(audit, condition)
            bench_metrics[f"{key}_{condition}_accuracy"] = evaluation.accuracy
            bench_metrics[f"{key}_{condition}_earliness"] = evaluation.earliness
    assert len(result.audits) == 2
    for audit in result.audits:
        assert audit.normalized.accuracy >= 0.7, audit.algorithm
        assert audit.denormalized.accuracy <= audit.normalized.accuracy, audit.algorithm
