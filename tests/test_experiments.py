"""Experiment-level tests: each table/figure regenerates with the right shape.

These run the reduced-scale ("fast") versions of the experiments and assert
the *qualitative* claims of the paper -- who wins, what collapses, what stays
flat -- rather than absolute numbers.
"""

import pytest

from repro.classifiers.teaser import TEASERClassifier
from repro.experiments import appendix_b, available_experiments, run_experiment
from repro.experiments.registry import SPECS


class TestRegistry:
    def test_every_figure_and_table_has_an_experiment(self):
        expected = {
            "figure1", "figure2", "figure3", "figure5", "figure6",
            "figure7", "figure8", "figure9", "table1", "appendix_b",
            "section5_padding", "multivariate",
        }
        assert expected == set(available_experiments())

    def test_fast_overrides_cover_all_experiments(self):
        assert [name for name, spec in SPECS.items() if not spec.fast_overrides] == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("figure4")

    def test_run_experiment_forwards_overrides(self):
        result = run_experiment("figure1", n_per_class=5)
        assert result.class_counts == {"cat": 5, "dog": 5}


class TestFigure1:
    def test_ucr_format_properties(self):
        result = run_experiment("figure1", n_per_class=8)
        assert result.series_length == 150
        assert result.class_counts == {"cat": 8, "dog": 8}
        # "carefully aligned": within-class traces are strongly correlated.
        assert result.mean_within_class_correlation > 0.7
        # And in this format the problem is easy.
        assert result.holdout_accuracy >= 0.85
        assert "Figure 1" in result.to_text()


class TestFigure2:
    def test_sentence_produces_false_positives_in_both_classes(self):
        result = run_experiment("figure2", n_per_class=10)
        # The paper's six prefix confounders all fire, three per class.
        assert result.confounder_false_positives >= 5
        assert result.false_positives_total >= result.confounder_false_positives
        assert set(result.false_positives_by_class) == {"cat", "dog"}
        assert "false positives" in result.to_text()

    def test_triggers_happen_early(self):
        result = run_experiment("figure2", n_per_class=10)
        confounder_outcomes = [o for o in result.outcomes if o.is_prefix_confounder and o.triggered]
        assert confounder_outcomes
        for outcome in confounder_outcomes:
            assert outcome.trigger_length < 150


class TestFigure3:
    def test_both_models_trigger_early_and_correctly(self):
        result = run_experiment("figure3", n_train_per_class=20, n_test_per_class=25)
        assert len(result.traces) == 2
        for trace in result.traces:
            assert trace.correct
            assert trace.trigger_length < trace.series_length
            assert trace.fraction_seen < 0.8
        teaser = result.trace_for("TEASER")
        assert teaser.probability_trajectory  # the plotted curve exists


class TestFigure5:
    def test_homophones_found_in_nongesture_corpora(self):
        result = run_experiment(
            "figure5",
            eog_points=60_000,
            random_walk_points=2 ** 17,
            epg_points=60_000,
            n_queries=2,
        )
        assert result.analysis.fraction_with_closer_homophone >= 0.5
        assert len(result.analysis.queries) == 2
        text = result.to_text()
        assert "random walk" in text


class TestFigure6:
    def test_only_the_raw_prefix_condition_collapses(self):
        result = run_experiment("figure6", n_train_per_class=20, n_test_per_class=30)
        # Full-length re-normalising 1-NN: identical on both test sets.
        assert result.full_length_clean == pytest.approx(result.full_length_denormalized)
        # Honest prefix re-normalisation: also identical.
        assert result.prefix_renormalized_clean == pytest.approx(
            result.prefix_renormalized_denormalized
        )
        # Raw prefix values: the perturbation costs accuracy.
        assert result.prefix_raw_denormalized < result.prefix_raw_clean


class TestFigure7:
    def test_acquisition_artefacts_dominate_physiology(self):
        result = run_experiment("figure7", duration_seconds=12.0)
        assert result.n_beats >= 8
        assert result.lead1_mean_range > 3 * result.clean_mean_range
        assert result.lead2_std_range > 1.5 * result.clean_std_range


class TestFigure8:
    def test_truncated_template_statistically_equivalent(self):
        result = run_experiment("figure8", n_points=150_000)
        assert result.n_dustbathing_bouts >= 5
        assert result.full.recall >= 0.9
        assert result.truncated.recall >= 0.9
        assert result.full.precision >= 0.9
        assert not result.significance.significant
        assert "NOT significantly different" in result.to_text()


class TestFigure9:
    def test_prefix_curve_shape(self):
        result = run_experiment(
            "figure9", n_train_per_class=20, n_test_per_class=30, step=5
        )
        # A prefix of roughly a third of the exemplar matches full accuracy...
        assert result.fraction_needed <= 0.5
        # ...and the best prefix is not the full exemplar.
        assert result.best_length < 150
        assert result.best_error <= result.full_length_error + 1e-9
        # Very short prefixes are near chance (error >= 0.3).
        assert result.curve.error_rates[0] >= 0.25


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        # The spec's fast overrides set table1's own ``fast`` flag.
        return run_experiment(
            "table1", fast=True, n_train_per_class=15, n_test_per_class=20
        )

    def test_all_six_algorithms_present(self, result):
        names = [audit.algorithm for audit in result.audits]
        assert len(names) == 6
        assert any("ECTS" in n for n in names)
        assert any("EDSC-CHE" in n for n in names)
        assert any("EDSC-KDE" in n for n in names)
        assert any("Rel. Class." in n for n in names)

    def test_every_algorithm_loses_accuracy_when_denormalized(self, result):
        for audit in result.audits:
            assert audit.denormalized.accuracy < audit.normalized.accuracy, audit.algorithm

    def test_algorithms_work_on_normalized_data(self, result):
        for audit in result.audits:
            assert audit.normalized.accuracy >= 0.7, audit.algorithm

    def test_control_is_unaffected(self, result):
        assert result.control_normalized == pytest.approx(result.control_denormalized)

    def test_rows_and_text(self, result):
        rows = result.rows()
        assert len(rows) == 6
        text = result.to_text()
        assert "Normalized" in text and "DeNormalized" in text


class TestAppendixB:
    def test_streaming_deployment_is_dominated_by_false_positives(self):
        result = run_experiment("appendix_b", n_events=8, gap_range=(800, 2000), stride=20)
        evaluation = result.evaluation
        assert evaluation.false_positives > evaluation.true_positives
        assert not result.cost_criterion.passed
        assert "loses money" in result.to_text()

    def test_a_supplied_classifier_must_already_be_fitted(self):
        prepared = appendix_b.prepare(n_events=2, gap_range=(200, 400), seed=1)
        assert prepared.default_classifier.is_fitted
        with pytest.raises(ValueError, match="must already be fitted"):
            appendix_b.compute(prepared, n_events=2, classifier=TEASERClassifier())
