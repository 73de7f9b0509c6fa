"""Ablation benchmarks for the library's design choices.

Each ablation compares two settings of one knob and asserts the direction of
the difference, so the benchmark run doubles as a regression test on the
*reason* the knob exists.
"""

import numpy as np

from repro.classifiers.teaser import TEASERClassifier
from repro.core.prefix_accuracy import compute_prefix_accuracy_curve
from repro.data.denormalize import denormalize_dataset
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import random_walk_background
from repro.data.stream import StreamComposer
from repro.evaluation import evaluate_early_classifier
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.metrics import evaluate_alarms


def test_bench_ablation_prefix_renormalization(run_once):
    """Per-prefix re-normalisation vs consuming raw prefix values (Section 4)."""

    def ablation():
        train, test = make_gunpoint_dataset(znormalize=False)
        shifted = denormalize_dataset(test.z_normalized(), seed=11)
        honest = compute_prefix_accuracy_curve(
            train, test, lengths=[30, 50, 70, 100, 150], renormalize=True
        )
        # The dishonest variant: normalise at training time, then compare the
        # shifted raw test prefixes against it.
        dishonest = compute_prefix_accuracy_curve(
            train.z_normalized(), shifted, lengths=[30, 50, 70, 100, 150], renormalize=False
        )
        return honest, dishonest

    honest, dishonest = run_once(ablation)
    assert honest.accuracy_at(50) > dishonest.accuracy_at(50)


def test_bench_ablation_teaser_consistency_requirement(run_once):
    """TEASER's consecutive-agreement parameter v controls earliness vs safety."""

    def ablation():
        train, test = make_gunpoint_dataset()
        eager = TEASERClassifier(consecutive_required=1)
        eager.fit(train.series, train.labels)
        patient = TEASERClassifier(consecutive_required=4)
        patient.fit(train.series, train.labels)
        return (
            evaluate_early_classifier(eager, test.series, test.labels),
            evaluate_early_classifier(patient, test.series, test.labels),
        )

    eager_result, patient_result = run_once(ablation)
    # Requiring more consecutive agreements can only delay the trigger.
    assert patient_result.earliness >= eager_result.earliness - 1e-9


def test_bench_ablation_detector_stride(run_once):
    """Streaming-detector stride: denser candidate starts produce more alarms."""

    def ablation():
        train, test = make_gunpoint_dataset()
        classifier = TEASERClassifier()
        classifier.fit(train.series, train.labels)
        rows = test.exemplars_of_class("gun")[:6]
        composer = StreamComposer(
            background=random_walk_background(smoothing=16, step_scale=0.3),
            gap_range=(800, 1500),
            seed=23,
        )
        stream = composer.compose(list(rows), ["gun"] * len(rows))
        results = {}
        for stride in (40, 10):
            detector = StreamingEarlyDetector(
                classifier, stride=stride, normalization="window", refractory=40
            )
            alarms = detector.detect(stream)
            results[stride] = evaluate_alarms(
                [a for a in alarms if a.label == "gun"], stream, target_labels=("gun",),
                onset_tolerance=40,
            )
        return results

    results = run_once(ablation)
    dense, sparse = results[10], results[40]
    assert dense.n_alarms >= sparse.n_alarms
