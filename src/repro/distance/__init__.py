"""Distance and normalisation substrate.

Everything the ETSC algorithms and the meaningfulness analyses rest on:

* :mod:`repro.distance.znorm` -- whole-exemplar z-normalisation, which is
  also the honest prefix normaliser when applied to a prefix alone.  The
  third mode, causal normalisation, is
  :func:`repro.streaming.online.causal_znormalize_batch`.  The distinction
  between the modes is the core of Section 4 of the paper ("peeking into the
  future").
* :mod:`repro.distance.euclidean` -- Euclidean and z-normalised Euclidean
  distances between equal-length series.
* :mod:`repro.distance.profile` -- sliding-window z-normalised distance
  profiles (MASS-style, FFT based), used by the homophone search (Fig. 5) and
  the chicken-template experiment (Fig. 8).
* :mod:`repro.distance.engine` -- the incremental prefix-distance engine:
  running squared-Euclidean partial sums that let a prefix grow from length
  ``t`` to ``t + 1`` in O(n_train) instead of O(n_train * t).  Every
  per-prefix-length sweep in the classifiers and experiments rides on it.
* :mod:`repro.distance.neighbors` -- the 1-NN Euclidean classifier,
  including a batched prefix-sweep prediction path.
"""

from repro.distance.engine import (
    PrefixDistanceEngine,
    batch_prefix_distances,
    iter_prefix_distances,
    pairwise_prefix_distances,
)
from repro.distance.euclidean import (
    euclidean_distance,
    znormalized_euclidean_distance,
)
from repro.distance.znorm import znormalize
from repro.distance.profile import (
    distance_profile,
    sliding_mean_std,
    top_k_nearest_subsequences,
)
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

__all__ = [
    "euclidean_distance",
    "znormalized_euclidean_distance",
    "znormalize",
    "distance_profile",
    "sliding_mean_std",
    "top_k_nearest_subsequences",
    "PrefixDistanceEngine",
    "batch_prefix_distances",
    "iter_prefix_distances",
    "pairwise_prefix_distances",
    "KNeighborsTimeSeriesClassifier",
]
