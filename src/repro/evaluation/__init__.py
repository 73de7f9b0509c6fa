"""Offline (UCR-style) evaluation machinery.

Earliness-accuracy metrics, the two-proportion z-test used by the Fig. 8
claim ("not statistically significantly different"), and a small runner that
the experiment modules and benchmarks share.
"""

from repro.evaluation.earliness import (
    EarlinessAccuracyResult,
    evaluate_early_classifier,
    harmonic_mean_accuracy_earliness,
)
from repro.evaluation.significance import two_proportion_z_test
from repro.evaluation.runner import fit_and_score, prefix_accuracy_curve

__all__ = [
    "EarlinessAccuracyResult",
    "evaluate_early_classifier",
    "harmonic_mean_accuracy_earliness",
    "two_proportion_z_test",
    "fit_and_score",
    "prefix_accuracy_curve",
]
