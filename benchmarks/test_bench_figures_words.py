"""Benchmarks for the word-domain artefacts: Figure 1 and Figure 2."""

from repro.experiments import run_experiment


def test_bench_figure1_ucr_format_dataset(run_once):
    """Figure 1: regenerate the aligned cat/dog UCR-format dataset."""
    result = run_once(run_experiment, "figure1")
    assert result.class_counts == {"cat": 30, "dog": 30}
    assert result.mean_within_class_correlation > 0.7
    assert result.holdout_accuracy >= 0.9


def test_bench_figure2_sentence_false_positives(run_once):
    """Figure 2: the Cathy's-dogmatic-catechism sentence fires the classifier."""
    result = run_once(run_experiment, "figure2")
    # The paper's six prefix confounders produce early false positives in
    # both classes.
    assert result.confounder_false_positives >= 5
    assert set(result.false_positives_by_class) == {"cat", "dog"}
