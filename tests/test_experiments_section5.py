"""Tests for the Section 5 padding experiment and the extended classifier set."""

import pytest

from repro.classifiers import ProbabilityThresholdClassifier, TEASERClassifier
from repro.experiments import run_experiment


class TestSection5Padding:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("section5_padding", n_per_class=15)

    def test_both_dataset_families_compared(self, result):
        names = {c.dataset_name for c in result.comparisons}
        assert names == {"CBF-like", "Trace-like"}

    def test_accuracy_not_sacrificed(self, result):
        for comparison in result.comparisons:
            assert comparison.padded.accuracy >= 0.8
            assert comparison.unpadded.accuracy >= 0.8

    def test_padding_inflates_apparent_savings(self, result):
        for comparison in result.comparisons:
            # The padded variant always looks at least as "early" as the
            # unpadded one, and a substantial share of its apparent savings is
            # attributable to the padding itself.
            assert comparison.apparent_savings_padded >= comparison.apparent_savings_unpadded - 0.05
            assert comparison.padding_share_of_savings >= 0.2

    def test_registered_in_registry(self):
        result = run_experiment("section5_padding", fast=True)
        assert result.comparisons
        assert "padding" in result.to_text()


class TestExtendedAlgorithmFamily:
    def test_table1_accepts_additional_algorithms(self, gunpoint_medium):
        # The Table 1 machinery is reusable for any early classifier; run it
        # with TEASER and the probability-threshold model at small scale.
        result = run_experiment(
            "table1",
            n_train_per_class=12,
            n_test_per_class=15,
            algorithms={
                "TEASER": lambda: TEASERClassifier(n_checkpoints=10),
                "Threshold 0.8": lambda: ProbabilityThresholdClassifier(
                    threshold=0.8, min_length=10, checkpoint_step=5
                ),
            },
        )
        assert len(result.audits) == 2
        for audit in result.audits:
            assert 0.0 <= audit.denormalized.accuracy <= audit.normalized.accuracy + 0.2
