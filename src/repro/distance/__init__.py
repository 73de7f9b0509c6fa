"""Distance and normalisation substrate.

Everything the ETSC algorithms and the meaningfulness analyses rest on:

* :mod:`repro.distance.znorm` -- z-normalisation in its batch, prefix-safe and
  causal (rolling) variants.  The distinction between these variants is the
  core of Section 4 of the paper ("peeking into the future").
* :mod:`repro.distance.euclidean` -- Euclidean and z-normalised Euclidean
  distances between equal-length series.
* :mod:`repro.distance.dtw` -- dynamic time warping with an optional
  Sakoe-Chiba band, plus its z-normalised variant.
* :mod:`repro.distance.profile` -- sliding-window z-normalised distance
  profiles (MASS-style, FFT based), used by the homophone search (Fig. 5) and
  the chicken-template experiment (Fig. 8).
* :mod:`repro.distance.engine` -- the incremental prefix-distance engine:
  running squared-Euclidean partial sums that let a prefix grow from length
  ``t`` to ``t + 1`` in O(n_train) instead of O(n_train * t), plus the
  batched all-pairs DTW matrix.  Every per-prefix-length sweep in the
  classifiers and experiments rides on it.
* :mod:`repro.distance.neighbors` -- 1-NN / k-NN classifiers over any of the
  above distances, including a batched prefix-sweep prediction path.
* :mod:`repro.distance.dtw_search` -- DTW k-NN search through the
  UCR-suite cascade (LB_Kim -> LB_Keogh in both envelope directions ->
  early-abandoning DP), bit-identical to the dense all-pairs selection.
"""

from repro.distance.dtw_search import DTWSearchStats, dtw_nearest_neighbors
from repro.distance.engine import (
    PrefixDistanceEngine,
    batch_prefix_distances,
    dtw_pairwise_distances,
    iter_prefix_distances,
    pairwise_prefix_distances,
)
from repro.distance.euclidean import (
    euclidean_distance,
    squared_euclidean_distance,
    znormalized_euclidean_distance,
)
from repro.distance.dtw import (
    EnvelopeCache,
    dtw_band_envelopes,
    dtw_distance,
    lb_keogh,
    lb_kim,
    znormalized_dtw_distance,
)
from repro.distance.znorm import (
    causal_znormalize,
    is_znormalized,
    znormalize,
    znormalize_prefix,
)
from repro.distance.profile import (
    DistanceProfileIndex,
    distance_profile,
    sliding_mean_std,
    top_k_nearest_subsequences,
)
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier, NearestNeighborResult

__all__ = [
    "euclidean_distance",
    "squared_euclidean_distance",
    "znormalized_euclidean_distance",
    "dtw_distance",
    "znormalized_dtw_distance",
    "dtw_band_envelopes",
    "lb_kim",
    "lb_keogh",
    "DTWSearchStats",
    "EnvelopeCache",
    "dtw_nearest_neighbors",
    "znormalize",
    "znormalize_prefix",
    "causal_znormalize",
    "is_znormalized",
    "distance_profile",
    "sliding_mean_std",
    "top_k_nearest_subsequences",
    "DistanceProfileIndex",
    "PrefixDistanceEngine",
    "batch_prefix_distances",
    "dtw_pairwise_distances",
    "iter_prefix_distances",
    "pairwise_prefix_distances",
    "KNeighborsTimeSeriesClassifier",
    "NearestNeighborResult",
]
