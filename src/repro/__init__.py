"""repro -- a reproduction of *When is Early Classification of Time Series Meaningful?*

(Wu, Der & Keogh, ICDE 2022 extended abstract / arXiv:2102.11487.)

The package is organised in layers (see docs/ARCHITECTURE.md for the full
inventory):

* :mod:`repro.distance` -- z-normalisation, Euclidean distances, sliding
  distance profiles, the 1-NN Euclidean classifier.
* :mod:`repro.data` -- synthetic stand-ins for the datasets the paper draws
  its evidence from (GunPoint, spoken words, ECG, chicken accelerometer, EOG,
  EPG, random walks), plus the UCR-format container and a stream composer.
* :mod:`repro.classifiers` -- the early-classification algorithms the paper
  critiques (ECTS, RelaxedECTS, EDSC-CHE/KDE, Reliable/LDG, TEASER, a generic
  probability-threshold model).
* :mod:`repro.streaming` -- running an early classifier over a stream: the
  online detection engine (completed candidate windows classified in
  batches, batched causal normalisation), alarm/ground-truth matching,
  false positive accounting and the Appendix B cost model.
* :mod:`repro.evaluation` -- earliness-accuracy metrics and the significance
  test for the offline (UCR-style) experiments.
* :mod:`repro.core` -- the paper's actual contribution: the meaningfulness
  criteria (prefix / inclusion / homophone analysis, normalisation audit,
  cost and prior-probability criteria) combined into a per-domain report.
* :mod:`repro.experiments` -- one module per table/figure of the paper; each
  regenerates the corresponding numbers from scratch.
* :mod:`repro.runtime` -- the experiment runtime: declarative specs, a
  process-parallel scheduler, a prepare-stage cache and JSON artifacts.
* :mod:`repro.serving` -- the multi-tenant serving layer: a per-tenant
  model registry with fingerprinted warm reloads, a batching scheduler
  coalescing candidate evaluations across streams and tenants, load
  shedding and backpressure metrics -- with alarms identical to dedicated
  per-stream streaming sessions.
"""

from repro._version import __version__
from repro.distance.engine import (
    PrefixDistanceEngine,
    batch_prefix_distances,
    pairwise_prefix_distances,
)

#: Public top-level API.  The distance engine is re-exported here because it
#: is the substrate every prefix-length sweep in the package rests on; the
#: rest of the API is intentionally reached through its subpackage
#: (``repro.classifiers``, ``repro.core``, ...) to keep the layering visible.
__all__ = [
    "__version__",
    "PrefixDistanceEngine",
    "batch_prefix_distances",
    "pairwise_prefix_distances",
]
