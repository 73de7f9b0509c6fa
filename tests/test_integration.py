"""Integration tests: full pipelines spanning several packages."""

import numpy as np
import pytest

from repro.classifiers import (
    ECTSClassifier,
    EDSCClassifier,
    ProbabilityThresholdClassifier,
    TEASERClassifier,
)
from repro.core.criteria import CostBenefitCriterion, PriorProbabilityCriterion
from repro.core.homophone_analysis import homophone_analysis
from repro.core.inclusion_analysis import analyze_lexical_inclusions
from repro.core.normalization_audit import audit_normalization_sensitivity
from repro.core.prefix_accuracy import compute_prefix_accuracy_curve
from repro.core.prefix_analysis import analyze_lexical_prefixes
from repro.core.report import assess_meaningfulness
from repro.data.chicken import DUSTBATHING, ChickenBehaviorSimulator, dustbathing_template
from repro.data.random_walk import random_walk_background, smoothed_random_walk
from repro.data.stream import StreamComposer
from repro.data.words import LEXICON
from repro.evaluation import evaluate_early_classifier
from repro.streaming import CostModel, StreamingEarlyDetector, evaluate_alarms


class TestTrainDeployEvaluatePipeline:
    """UCR-style training -> streaming deployment -> cost model, end to end."""

    @pytest.fixture(scope="class")
    def pipeline(self, gunpoint_medium):
        train, test = gunpoint_medium
        classifier = TEASERClassifier(n_checkpoints=10)
        classifier.fit(train.series, train.labels)

        target_rows = test.exemplars_of_class("gun")[:6]
        composer = StreamComposer(
            background=random_walk_background(smoothing=16, step_scale=0.3),
            gap_range=(600, 1200),
            seed=13,
        )
        stream = composer.compose(list(target_rows), ["gun"] * len(target_rows))
        detector = StreamingEarlyDetector(classifier, stride=15, normalization="window")
        alarms = detector.detect(stream)
        evaluation = evaluate_alarms(
            [a for a in alarms if a.label == "gun"],
            stream,
            target_labels=("gun",),
            onset_tolerance=40,
        )
        return stream, alarms, evaluation

    def test_detector_raises_alarms(self, pipeline):
        _, alarms, _ = pipeline
        assert alarms

    def test_event_accounting_is_consistent(self, pipeline):
        stream, _, evaluation = pipeline
        n_target_events = len(stream.events_with_label("gun"))
        assert evaluation.true_positives + evaluation.false_negatives == n_target_events

    def test_cost_model_prices_the_deployment(self, pipeline):
        _, _, evaluation = pipeline
        outcome = CostModel().price(evaluation)
        assert outcome.baseline_cost == 1000.0 * (
            evaluation.true_positives + evaluation.false_negatives
        )
        criterion = CostBenefitCriterion().evaluate(evaluation)
        assert criterion.passed == outcome.breaks_even


class TestMeaningfulnessReportPipeline:
    """All four Section 6 criteria computed from scratch for two domains."""

    def test_word_domain_report_is_negative(self, gunpoint_medium):
        train, test = gunpoint_medium
        prefix_result = analyze_lexical_prefixes(["cat", "dog"], LEXICON)
        inclusion_result = analyze_lexical_inclusions(["cat", "dog"], LEXICON)
        audit = audit_normalization_sensitivity(
            lambda: ProbabilityThresholdClassifier(threshold=0.8, min_length=10, checkpoint_step=10),
            train,
            test.subset(range(20)),
            algorithm_name="threshold-0.8",
        )
        curve = compute_prefix_accuracy_curve(
            train, test, lengths=[30, 60, 90, 150], renormalize=True
        )
        report = assess_meaningfulness(
            domain="spoken keywords",
            prior_criterion=PriorProbabilityCriterion().evaluate(
                event_prior=0.001, per_window_false_positive_rate=0.02
            ),
            prefix_result=prefix_result,
            inclusion_result=inclusion_result,
            normalization_audit=audit,
            prefix_curve=curve,
            claimed_earliness=0.4,
        )
        assert not report.meaningful
        failed_names = {c.name for c in report.failed_criteria()}
        assert "confusability" in failed_names
        assert "prior_probability" in failed_names

    def test_chicken_domain_report_is_positive(self):
        # The paper's best-case domain: a cheap false positive, a reasonably
        # common behaviour, no lexical confounders, and a template detector
        # that does not rely on future normalisation.
        simulator = ChickenBehaviorSimulator(
            seed=5,
            behavior_weights={
                "resting": 0.4, "walking": 0.25, "pecking": 0.15, "preening": 0.1, DUSTBATHING: 0.1,
            },
        )
        stream = simulator.generate(80_000)
        template = dustbathing_template()
        from repro.distance.profile import distance_profile

        profile = distance_profile(template, stream.values)
        detections = profile <= 2.3
        dust_events = stream.events_with_label(DUSTBATHING)
        detected = sum(
            1 for e in dust_events if np.any(detections[max(e.start - 20, 0) : e.end])
        )
        dustbathing_fraction = sum(e.length for e in dust_events) / len(stream)
        prior_criterion = PriorProbabilityCriterion().evaluate(
            event_prior=dustbathing_fraction,
            per_window_false_positive_rate=0.001,
            per_window_true_positive_rate=detected / max(len(dust_events), 1),
        )
        prefix_result = analyze_lexical_prefixes(
            [DUSTBATHING], ["dustbathing", "walking", "pecking", "preening", "resting"]
        )
        report = assess_meaningfulness(
            domain="chicken dustbathing",
            prior_criterion=prior_criterion,
            prefix_result=prefix_result,
        )
        assert report.meaningful

    def test_homophone_analysis_feeds_report(self, gunpoint_small):
        _, test = gunpoint_small
        corpora = {"walk": smoothed_random_walk(2 ** 16, seed=9)}
        analysis = homophone_analysis(test, corpora, n_queries=2, seed=2)
        report = assess_meaningfulness(domain="gestures", homophone_result=analysis)
        assert report.criterion("confusability") is not None


class TestCrossClassifierConsistency:
    """All early classifiers satisfy the same behavioural contract."""

    @pytest.fixture(scope="class")
    def classifiers(self):
        return [
            ProbabilityThresholdClassifier(threshold=0.8, min_length=6, checkpoint_step=2),
            ECTSClassifier(checkpoint_step=2),
            EDSCClassifier(threshold_method="che"),
            TEASERClassifier(n_checkpoints=8),
        ]

    def test_predictions_are_known_classes_and_earliness_bounded(
        self, classifiers, tiny_two_class
    ):
        series, labels = tiny_two_class
        for classifier in classifiers:
            classifier.fit(series[::2], labels[::2])
            result = evaluate_early_classifier(classifier, series[1::2], labels[1::2])
            assert 0.0 <= result.earliness <= 1.0
            assert result.accuracy >= 0.8, type(classifier).__name__
            predictions = classifier.predict(series[1::2])
            assert set(predictions) <= set(classifier.classes_)

    def test_prefix_predictions_never_exceed_training_length(self, classifiers, tiny_two_class):
        series, labels = tiny_two_class
        for classifier in classifiers:
            if not classifier.is_fitted:
                classifier.fit(series[::2], labels[::2])
            with pytest.raises(ValueError):
                classifier.predict_early(np.zeros(series.shape[1] + 5))
