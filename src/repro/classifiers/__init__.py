"""Early time-series classification (ETSC) algorithms.

These are the algorithms the paper critiques -- reimplemented here because the
critique cannot be reproduced without them.  All of them share the
:class:`~repro.classifiers.base.BaseEarlyClassifier` interface:

``fit(series, labels)``
    Train on a UCR-format training set (2-D array of equal-length exemplars).
``predict_partial(prefix)``
    Inspect a prefix of an incoming exemplar and return a
    :class:`~repro.classifiers.base.PartialPrediction` saying whether the
    model is ready to commit, and to which class.
``predict_early(series)``
    Feed an exemplar incrementally and return the
    :class:`~repro.classifiers.base.EarlyPrediction` made at the trigger
    point (or at full length if the model never triggers).
``predict_early_batch(series)``
    The same walk for a whole test set at once.  Every classifier answers
    its checkpoints from batched kernels, and ``predict_early`` is this walk
    on a batch of one row.

TEASER, ECDIRE, the cost-aware rule, the probability-threshold model and the
two baselines share one evaluator,
:class:`~repro.classifiers.prefix_probability.ProbabilisticEarlyClassifier`,
and each states only its checkpoints and its stopping rule.

Implemented algorithms (each module's docstring lists the simplifications
made relative to the original publication):

* :class:`~repro.classifiers.ects.ECTSClassifier` and
  :class:`~repro.classifiers.ects.RelaxedECTSClassifier` -- Xing et al., KAIS 2012.
* :class:`~repro.classifiers.edsc.EDSCClassifier` with Chebyshev (CHE) or
  kernel-density (KDE) thresholds -- Xing et al., SDM 2011.
* :class:`~repro.classifiers.reliable.ReliableEarlyClassifier` and
  :class:`~repro.classifiers.reliable.LDGReliableEarlyClassifier` -- Parrish
  et al., JMLR 2013.
* :class:`~repro.classifiers.teaser.TEASERClassifier` -- Schäfer & Leser, DMKD 2020.
* :class:`~repro.classifiers.ecdire.ECDIREClassifier` -- Mori et al., DMKD 2017
  (per-class safe timestamps + reliability thresholds).
* :class:`~repro.classifiers.cost_aware.CostAwareEarlyClassifier` -- the
  non-myopic cost-minimising stopping rule of Dachraoui et al. / Achenchabe
  et al. (the "cost-aware handful" the paper mentions).
* :class:`~repro.classifiers.threshold.ProbabilityThresholdClassifier` -- the
  generic "predict when the probability exceeds a user threshold" framing of
  Fig. 3 (right).
* :class:`~repro.classifiers.full.FullLengthClassifier` and
  :class:`~repro.classifiers.full.FixedTruncationClassifier` -- the plain
  classification baselines the paper says ETSC must be compared against.
"""

from repro.classifiers.base import (
    BaseEarlyClassifier,
    EarlyPrediction,
    PartialPrediction,
    default_checkpoints,
)
from repro.classifiers.full import FixedTruncationClassifier, FullLengthClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.ecdire import ECDIREClassifier
from repro.classifiers.cost_aware import CostAwareEarlyClassifier

__all__ = [
    "BaseEarlyClassifier",
    "EarlyPrediction",
    "PartialPrediction",
    "default_checkpoints",
    "FullLengthClassifier",
    "FixedTruncationClassifier",
    "ProbabilityThresholdClassifier",
    "ECTSClassifier",
    "RelaxedECTSClassifier",
    "EDSCClassifier",
    "ReliableEarlyClassifier",
    "LDGReliableEarlyClassifier",
    "TEASERClassifier",
    "ECDIREClassifier",
    "CostAwareEarlyClassifier",
]
