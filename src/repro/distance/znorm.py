"""Z-normalisation.

The paper's Section 4 ("Peeking into the future") hinges on the distinction
between three ways of normalising a time-series exemplar.  Each has one
implementation:

* **whole exemplar** -- :func:`znormalize`: subtract the mean and divide by
  the standard deviation of the *whole* exemplar.  This is how the UCR
  archive is prepared, and it is only possible once the whole exemplar has
  been observed.
* **honest prefix** -- :func:`znormalize` of the observed prefix alone, so
  its statistics come from the prefix only.  This is the only honest option
  for an early classifier (the suffix does not exist yet), and it is what
  :meth:`repro.data.ucr_format.UCRDataset.truncated` does with
  ``renormalize=True``.
* **causal** -- :func:`repro.streaming.online.causal_znormalize_batch`:
  sample ``i`` of a window is normalised with the statistics of the samples
  up to and including ``i``.  This is what a streaming deployment has to do.

Most published ETSC algorithms implicitly assume the first option while
claiming to operate in a setting where only the second or third is available;
quantifying the damage this does is the purpose of
:mod:`repro.core.normalization_audit` and the Table 1 experiment.

Axis convention
---------------
:func:`znormalize` reads its input by rank:

* 1-D ``(length,)`` -- a single univariate series (time on axis 0).
* 2-D ``(n_series, length)`` -- a batch of univariate rows (axis 0 =
  series, axis 1 = time).
* 3-D ``(n_series, length, n_channels)`` -- a batch of multichannel series
  (axis 0 = series, axis 1 = time, axis 2 = channel).  Statistics are per
  exemplar *and* per channel, over the time axis; a single ``(length,
  n_channels)`` exemplar is normalised as a batch of one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["znormalize", "EPSILON"]

#: Standard deviations below this value are treated as zero (constant series).
EPSILON = 1e-12


def znormalize(series: np.ndarray) -> np.ndarray:
    """Z-normalise a series (or each row / channel of a batch).

    Constant (zero-variance) series are returned as all zeros rather than
    raising, matching the convention used by the UCR archive tooling.  The
    standard deviation is the population one, as in the UCR archive.

    Parameters
    ----------
    series:
        A 1-D array ``(length,)``, a 2-D array of ``(n_series, length)``
        univariate rows, or a 3-D array ``(n_series, length, n_channels)``.

    Returns
    -------
    numpy.ndarray
        Array of the same shape with zero mean and unit variance per series
        (univariate) or per series per channel (multichannel).
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim not in (1, 2, 3):
        raise ValueError(
            "series must be 1-D (length,), 2-D (n_series, length) rows or 3-D "
            f"(n_series, length, n_channels); got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ValueError("series must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    if arr.ndim == 1:
        mean = arr.mean()
        std = arr.std()
        if std < EPSILON:
            return np.zeros_like(arr)
        return (arr - mean) / std

    if arr.ndim == 2:
        mean = arr.mean(axis=1, keepdims=True)
        std = arr.std(axis=1, keepdims=True)
        nonconstant = (std >= EPSILON).ravel()
        if nonconstant.all():
            return (arr - mean) / std
        out = np.zeros_like(arr)
        if np.any(nonconstant):
            out[nonconstant] = (arr[nonconstant] - mean[nonconstant]) / std[nonconstant]
        return out

    # Multichannel: statistics over the time axis, independently per
    # exemplar and channel; constant channels map to zeros.
    mean = arr.mean(axis=1, keepdims=True)
    std = arr.std(axis=1, keepdims=True)
    constant = std < EPSILON
    return np.where(constant, 0.0, (arr - mean) / np.where(constant, 1.0, std))
