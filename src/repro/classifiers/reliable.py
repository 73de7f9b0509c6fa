"""Reliable early classification (Parrish et al., JMLR 2013).

Parrish et al. frame early classification as *classification with incomplete
information*: a base classifier is defined on the full-length exemplar, and an
early decision is issued only when the decision made from the observed prefix
is **reliable** -- i.e. when the probability that it agrees with the decision
the base classifier *would* make once the whole exemplar has arrived exceeds a
user threshold.  Table 1 of the paper evaluates two of their variants, the
global quadratic-discriminant model ("Rel. Class.") and the local
discriminative Gaussian model ("LDG Rel. Class."), both at ``tau = 0.1``.

Implementation notes (the simplifications relative to the publication):

* The base classifier is a regularised Gaussian (quadratic-discriminant)
  model with shrinkage towards its diagonal.  The original paper uses exactly
  this family for its Gaussian instantiation.
* The reliability of a prefix decision is estimated by Monte Carlo: the
  unseen suffix is sampled from the class-conditional Gaussian distribution
  of the suffix given the observed prefix, mixed over classes with the
  posterior given the prefix, and the base classifier is applied to each
  completed exemplar.  The reliability is the fraction of completions on
  which the full-data decision equals the prefix decision.  The original
  derives analytic bounds for this quantity; Monte Carlo reproduces its
  behaviour without the algebra.
* The LDG variant fits the Gaussians locally: only the ``n_local`` training
  exemplars nearest to the observed prefix participate in the estimate.

Inference is organised around two properties:

* every class covariance is diagonal plus low rank, ``D + U U^T``, and the
  prefix density, the conditional suffix distribution and the density of
  every completion come from a small core matrix per prefix length (see
  :class:`_GaussianClassModel`);
* the Monte Carlo noise of a prefix is drawn from its own generator, seeded
  with ``(random_state, digest of the prefix bytes, prefix length)``.  An
  answer therefore depends only on the fitted model and the prefix -- not on
  call history, row order or the other rows of a batch -- which is what lets
  ``predict_early_batch`` evaluate each checkpoint for every row that has not
  triggered yet in one pass, while :meth:`ReliableEarlyClassifier.predict_partial`
  runs the same evaluator on a batch of one.

The estimator never re-normalises the prefix -- like the published method it
implicitly assumes the exemplar arrives already normalised, which is what the
Table 1 denormalisation experiment exposes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction
from repro.distance.euclidean import pairwise_euclidean

__all__ = ["ReliableEarlyClassifier", "LDGReliableEarlyClassifier"]

#: Byte budget of one block of Monte Carlo completions (the float64
#: ``(draws, suffix length)`` arrays); rows are chunked to respect it.
_MC_BLOCK_BYTES = 2**20

_LOG_2PI = float(np.log(2.0 * np.pi))


class _Conditioned(NamedTuple):
    """One class model's view of equal-length prefixes, one entry per prefix.

    ``quadratic`` (``d^T D_p^-1 d``) and ``projection`` (``y``) are the
    prefix's share of the density of each of its completions, in the
    notation of :class:`_GaussianClassModel`.
    """

    log_density: np.ndarray
    suffix_mean: np.ndarray
    quadratic: np.ndarray
    projection: np.ndarray


@dataclass
class _GaussianClassModel:
    """Mean, diagonal-plus-low-rank covariance and prior of one class.

    The covariance is ``D + U U^T``: ``diagonal`` holds ``D`` and ``factor``
    is the ``n x r`` matrix ``U``.  Split at a prefix length ``L`` into
    prefix rows ``p`` and suffix rows ``s``, the Woodbury identity gives
    every quantity inference needs from the ``r x r`` core
    ``K_p = I + U_p^T D_p^-1 U_p``:

    * the prefix marginal has quadratic form ``d^T D_p^-1 d - y^T K_p^-1 y``
      and log-determinant ``sum(log D_p) + log det K_p``, for the residual
      ``d = x_p - mean_p`` and ``y = U_p^T D_p^-1 d``;
    * the suffix given the prefix has mean ``mean_s + U_s K_p^-1 y`` and
      covariance ``D_s + U_s K_p^-1 U_s^T`` (the Schur complement);
    * a completion ``[x_p, x_s]`` has full-length quadratic form
      ``d^T D_p^-1 d + e^T D_s^-1 e - z^T K^-1 z``, with ``e = x_s - mean_s``,
      ``z = y + U_s^T D_s^-1 e`` and ``K`` the full-length core, so its
      prefix terms are shared by all its completions and each completion
      costs ``O(suffix length x r)``.

    The suffix sampler alone is dense: the lower Cholesky factor of the
    Schur complement plus a small ridge.  It maps each prefix's standard
    normal draws, one per suffix sample, to a completion, and keeping that
    mapping keeps every Monte Carlo outcome.
    """

    label: object
    mean: np.ndarray
    diagonal: np.ndarray
    factor: np.ndarray
    prior: float
    _cores: dict = field(init=False, default_factory=dict, repr=False)
    _samplers: dict = field(init=False, default_factory=dict, repr=False)

    def _core(self, length: int) -> tuple[np.ndarray, float]:
        """``K^-1`` and the covariance log-determinant of the leading ``length`` samples.

        Neither depends on the prefix values, so both are cached per length.
        """
        core = self._cores.get(length)
        if core is None:
            factor, diagonal = self.factor[:length], self.diagonal[:length]
            inner = np.eye(factor.shape[1]) + factor.T @ (factor / diagonal[:, None])
            log_det = float(np.sum(np.log(diagonal)) + np.linalg.slogdet(inner)[1])
            core = self._cores[length] = (np.linalg.inv(inner), log_det)
        return core

    def condition(self, prefixes: np.ndarray) -> _Conditioned:
        """Prefix log densities and conditional suffix means, one per row of ``prefixes``."""
        length = prefixes.shape[1]
        core_inv, log_det = self._core(length)
        residual = prefixes - self.mean[:length]
        scaled = residual / self.diagonal[:length]
        quadratic = np.einsum("ij,ij->i", residual, scaled)
        projection = scaled @ self.factor[:length]
        weights = projection @ core_inv
        marginal = quadratic - np.einsum("ij,ij->i", weights, projection)
        return _Conditioned(
            log_density=-0.5 * (length * _LOG_2PI + log_det + marginal),
            suffix_mean=self.mean[length:] + weights @ self.factor[length:].T,
            quadratic=quadratic,
            projection=projection,
        )

    def suffix_sampler(self, length: int) -> np.ndarray:
        """Lower factor of the conditional suffix covariance plus a small ridge.

        The conditional covariance does not depend on the prefix values, so
        its factor is cached per prefix length.
        """
        sampler = self._samplers.get(length)
        if sampler is None:
            core_inv, _ = self._core(length)
            suffix = self.factor[length:]
            trace = self.diagonal.sum() + np.sum(self.factor**2)
            ridge = 1e-6 * trace / self.mean.shape[0]
            covariance = suffix @ core_inv @ suffix.T + np.diag(self.diagonal[length:] + ridge)
            sampler = self._samplers[length] = np.linalg.cholesky(covariance)
        return sampler

    def log_density_completions(
        self, prefixes: _Conditioned, suffixes: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Full-length log density of completions of conditioned prefixes.

        Row ``k`` of ``suffixes`` completes prefix ``owner[k]`` of
        ``prefixes``, which this model conditioned.
        """
        full = self.mean.shape[0]
        length = full - suffixes.shape[1]
        core_inv, log_det = self._core(full)
        residual = suffixes - self.mean[length:]
        scaled = residual / self.diagonal[length:]
        projection = prefixes.projection[owner] + scaled @ self.factor[length:]
        quadratic = (
            prefixes.quadratic[owner]
            + np.einsum("ij,ij->i", residual, scaled)
            - np.einsum("ij,ij->i", projection @ core_inv, projection)
        )
        return -0.5 * (full * _LOG_2PI + log_det + quadratic)


class ReliableEarlyClassifier(BaseEarlyClassifier):
    """Gaussian reliability-based early classifier ("Rel. Class." in Table 1).

    Parameters
    ----------
    tau:
        Reliability slack: an early decision is issued when the estimated
        probability of agreeing with the full-data decision is at least
        ``1 - tau``.  Table 1 uses ``tau = 0.1``.
    shrinkage:
        Covariance shrinkage coefficient in [0, 1]; the class covariance is
        ``(1 - shrinkage) * S + shrinkage * diag(S)`` plus a small ridge.
    n_monte_carlo:
        Number of suffix completions sampled per reliability estimate.
    checkpoint_fractions:
        Prefix lengths (as fractions of the exemplar) at which the stopping
        rule is evaluated.
    posterior_tempering:
        Scale of the likelihood tempering applied to the *prefix* posterior
        (0 disables tempering).  See :meth:`_posteriors`.
    random_state:
        Non-negative integer seed of the Monte Carlo sampler.  Each prefix
        draws its noise from a generator seeded with ``(random_state, digest
        of the prefix bytes, prefix length)``, so the same prefix always gets
        the same answer.
    """

    #: Univariate-only: the per-length statistics this algorithm is
    #: built on are defined over scalar samples, so multichannel
    #: (n, L, d>1) training data is rejected with a named-axis error.
    supports_multichannel = False

    def __init__(
        self,
        tau: float = 0.1,
        shrinkage: float = 0.6,
        n_monte_carlo: int = 100,
        checkpoint_fractions: Sequence[float] = tuple(np.arange(0.1, 1.01, 0.05)),
        posterior_tempering: float = 1.0,
        random_state: int = 19,
    ) -> None:
        super().__init__()
        if not 0.0 <= tau < 0.5:
            raise ValueError("tau must be in [0, 0.5)")
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError("shrinkage must be in [0, 1]")
        if n_monte_carlo < 10:
            raise ValueError("n_monte_carlo must be at least 10")
        if not checkpoint_fractions:
            raise ValueError("need at least one checkpoint fraction")
        if posterior_tempering < 0:
            raise ValueError("posterior_tempering must be non-negative")
        if (
            isinstance(random_state, bool)
            or not isinstance(random_state, (int, np.integer))
            or random_state < 0
        ):
            raise ValueError("random_state must be a non-negative integer")
        self.tau = tau
        self.shrinkage = shrinkage
        self.n_monte_carlo = n_monte_carlo
        self.checkpoint_fractions = tuple(checkpoint_fractions)
        self.posterior_tempering = posterior_tempering
        self.random_state = random_state
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._models: list[_GaussianClassModel] = []

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "ReliableEarlyClassifier":
        """Learn one regularised Gaussian per class."""
        data, label_arr = self._validate_training_data(series, labels)
        self._train = data
        self._labels = label_arr
        self._store_training_shape(data, label_arr)
        self._models = self._fit_gaussians(data, label_arr)
        return self

    def _fit_gaussians(
        self, data: np.ndarray, labels: np.ndarray
    ) -> list[_GaussianClassModel]:
        """One Gaussian per class, its covariance shrunk towards the diagonal plus a ridge.

        For ``m`` centred class rows ``Xc`` the biased sample covariance is
        ``S = Xc^T Xc / m = R^T R / m``, ``R`` being the thin QR factor of
        ``Xc``, so the shrunk covariance is ``D + U U^T`` with
        ``D = shrinkage * diag(S) + ridge`` and
        ``U = sqrt((1 - shrinkage) / m) R^T`` of rank at most ``min(m, n)``.
        Shrinking keeps the trace, so the ridge is ``1e-3`` times the mean
        sample variance.  A single-row class gets the identity plus the ridge.
        """
        models = []
        n_total, length = data.shape
        for cls in np.unique(labels):
            rows = data[labels == cls]
            mean = rows.mean(axis=0)
            if rows.shape[0] > 1:
                centred = rows - mean
                variances = np.mean(centred**2, axis=0)
                diagonal = self.shrinkage * variances + 1e-3 * variances.mean()
                scale = np.sqrt((1.0 - self.shrinkage) / rows.shape[0])
                factor = scale * np.linalg.qr(centred, mode="r").T
            else:
                diagonal = np.full(length, 1.0 + 1e-3)
                factor = np.empty((length, 0))
            models.append(
                _GaussianClassModel(
                    label=cls,
                    mean=mean,
                    diagonal=diagonal,
                    factor=factor,
                    prior=rows.shape[0] / n_total,
                )
            )
        return models

    # ------------------------------------------------------------ inference helpers
    def _class_models(
        self, prefixes: np.ndarray
    ) -> Iterator[tuple[np.ndarray, list[_GaussianClassModel]]]:
        """Yield ``(rows, models)``: which class models evaluate which rows.

        The global variant evaluates every row with the fitted models; the
        LDG subclass groups rows by their local neighbour set.
        """
        yield np.arange(prefixes.shape[0]), self._models

    def _posteriors(self, log_joint: np.ndarray, length: int) -> np.ndarray:
        """Class posteriors from per-row ``log p(prefix | class) + log prior``.

        With a handful of training exemplars per class, the raw Gaussian
        likelihood ratio saturates after a few dimensions, which would make
        the reliability estimate certain about a decision taken from an
        almost-uninformative prefix.  Dividing the log-likelihood by
        ``posterior_tempering * length`` keeps the posterior on a per-sample
        evidence scale.
        """
        if self.posterior_tempering > 0:
            log_joint = log_joint / max(1.0, self.posterior_tempering * length)
        weights = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        return weights / weights.sum(axis=1, keepdims=True)

    def _noise(self, prefix: np.ndarray, n_draws: int, suffix_dim: int) -> np.ndarray:
        """Standard normal draws owned by one prefix: the same prefix, the same draws."""
        digest = hashlib.blake2b(prefix.tobytes(), digest_size=8).digest()
        rng = np.random.default_rng(
            [self.random_state, int.from_bytes(digest, "little"), prefix.shape[0]]
        )
        return rng.standard_normal((n_draws, suffix_dim))

    def _evaluate(self, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Posteriors, confidences and readiness of equal-length prefixes.

        The one evaluation path: :meth:`predict_partial` calls it with one
        row, the batched checkpoint walk with every row still walking.  Each
        row's result depends on that row alone.
        """
        n_rows, length = prefixes.shape
        # The whole exemplar is seen: the decision is final, no Monte Carlo.
        complete = length >= self.train_length_
        posteriors = np.empty((n_rows, len(self._models)))
        confidence = np.empty(n_rows)
        for rows, models in self._class_models(prefixes):
            group = prefixes[rows]
            conditioned = [model.condition(group) for model in models]
            log_joint = np.stack(
                [c.log_density + np.log(model.prior) for model, c in zip(models, conditioned)],
                axis=1,
            )
            group_posteriors = self._posteriors(log_joint, length)
            posteriors[rows] = group_posteriors
            if complete:
                confidence[rows] = group_posteriors.max(axis=1)
            else:
                confidence[rows] = self._reliability(
                    group, models, conditioned, group_posteriors
                )
        ready = np.full(n_rows, complete) | (confidence >= 1.0 - self.tau)
        return posteriors, confidence, ready

    def _reliability(
        self,
        prefixes: np.ndarray,
        models: list[_GaussianClassModel],
        conditioned: list[_Conditioned],
        posteriors: np.ndarray,
    ) -> np.ndarray:
        """Monte Carlo estimate of P(full-data decision == prefix decision | prefix).

        Row ``i`` draws ``round(posteriors[i, c] * n_monte_carlo)`` suffixes
        from class ``c``'s conditional distribution, completes its prefix
        with each, and scores every completion under every class model.
        Rows are processed in blocks of about ``_MC_BLOCK_BYTES`` of
        completions, with one GEMM per class for the draws and one product
        with the rank-``r`` factor per class for the densities.
        """
        n_rows, length = prefixes.shape
        suffix_dim = self.train_length_ - length
        n_classes = len(models)
        counts = np.rint(posteriors * self.n_monte_carlo).astype(np.intp)
        decisions = np.argmax(posteriors, axis=1)
        samplers = [model.suffix_sampler(length) for model in models]
        reliability = np.zeros(n_rows)
        block = max(1, _MC_BLOCK_BYTES // (8 * self.n_monte_carlo * suffix_dim))
        for start in range(0, n_rows, block):
            rows = np.arange(start, min(start + block, n_rows))
            totals = counts[rows].sum(axis=1)
            # Completions are laid out row by row, class by class within a
            # row, matching the order of each row's own draws.
            owner = np.repeat(rows, totals)
            source = np.repeat(
                np.tile(np.arange(n_classes), rows.size), counts[rows].ravel()
            )
            noise = np.concatenate(
                [self._noise(prefixes[i], int(n), suffix_dim) for i, n in zip(rows, totals)]
            )
            suffixes = np.empty_like(noise)
            for c in range(n_classes):
                drawn = source == c
                suffix_mean = conditioned[c].suffix_mean[owner[drawn]]
                suffixes[drawn] = suffix_mean + noise[drawn] @ samplers[c].T
            scores = np.stack(
                [
                    model.log_density_completions(view, suffixes, owner)
                    + np.log(model.prior)
                    for model, view in zip(models, conditioned)
                ]
            )
            agree = np.argmax(scores, axis=0) == decisions[owner]
            hits = np.bincount(owner - start, weights=agree, minlength=rows.size)
            reliability[rows] = np.where(totals > 0, hits / np.maximum(totals, 1), 0.0)
        return reliability

    def _partial_prediction(
        self, posteriors: np.ndarray, confidence: float, ready: bool, length: int
    ) -> PartialPrediction:
        labels = [model.label for model in self._models]
        return PartialPrediction(
            label=labels[int(np.argmax(posteriors))],
            ready=bool(ready),
            confidence=float(confidence),
            prefix_length=length,
            probabilities={label: float(p) for label, p in zip(labels, posteriors)},
        )

    # ------------------------------------------------------------ prediction
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ready once the dominant class is reliably separated."""
        arr = self._validate_prefix(prefix)
        posteriors, confidence, ready = self._evaluate(arr[None, :])
        return self._partial_prediction(posteriors[0], confidence[0], ready[0], arr.shape[0])

    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """One lazily evaluated checkpoint per length, batched over the walking rows.

        ``ready(rows)`` runs :meth:`_evaluate` once on the requested rows not
        evaluated yet, so a checkpoint costs one GEMM per class (per
        neighbour group for LDG) for all rows that have not triggered, and
        rows that triggered earlier draw no Monte Carlo samples.
        """
        lengths = [c for c in self.checkpoints() if c <= data.shape[1]]
        n_rows = data.shape[0]

        def make(length: int) -> BatchCheckpoint:
            posteriors = np.empty((n_rows, len(self._models)))
            confidence = np.empty(n_rows)
            ready = np.empty(n_rows, dtype=bool)
            done = np.zeros(n_rows, dtype=bool)

            def evaluate(rows: np.ndarray) -> np.ndarray:
                pending = rows[~done[rows]]
                if pending.size:
                    values = self._evaluate(data[pending, :length])
                    posteriors[pending], confidence[pending], ready[pending] = values
                    done[pending] = True
                return ready[rows]

            def partial(i: int) -> PartialPrediction:
                evaluate(np.asarray([i]))
                return self._partial_prediction(posteriors[i], confidence[i], ready[i], length)

            return BatchCheckpoint(length=length, partial=partial, ready=evaluate)

        return [make(length) for length in lengths]

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time."""
        self._require_fitted()
        lengths = sorted(
            {
                min(self.train_length_, max(3, int(round(f * self.train_length_))))
                for f in self.checkpoint_fractions
            }
        )
        if lengths[-1] != self.train_length_:
            lengths.append(self.train_length_)
        return lengths


class LDGReliableEarlyClassifier(ReliableEarlyClassifier):
    """Local discriminative Gaussian variant ("LDG Rel. Class." in Table 1).

    Instead of one Gaussian per class fitted on the whole training set, the
    class models are re-fitted on the ``n_local`` training exemplars nearest
    to the observed prefix, which lets the reliability estimate adapt to the
    local geometry of the data.

    Parameters
    ----------
    n_local:
        Number of nearest training exemplars used to fit the local models.
    (all other parameters as in :class:`ReliableEarlyClassifier`)
    """

    def __init__(
        self,
        tau: float = 0.1,
        n_local: int = 30,
        shrinkage: float = 0.7,
        n_monte_carlo: int = 100,
        checkpoint_fractions: Sequence[float] = tuple(np.arange(0.1, 1.01, 0.05)),
        posterior_tempering: float = 1.0,
        random_state: int = 19,
    ) -> None:
        super().__init__(
            tau=tau,
            shrinkage=shrinkage,
            n_monte_carlo=n_monte_carlo,
            checkpoint_fractions=checkpoint_fractions,
            posterior_tempering=posterior_tempering,
            random_state=random_state,
        )
        if n_local < 4:
            raise ValueError("n_local must be at least 4")
        self.n_local = n_local

    def _class_models(
        self, prefixes: np.ndarray
    ) -> Iterator[tuple[np.ndarray, list[_GaussianClassModel]]]:
        """Group rows by local neighbour set; fit each group's models once."""
        assert self._train is not None and self._labels is not None
        length = prefixes.shape[1]
        distances = pairwise_euclidean(prefixes, self._train[:, :length])
        groups: dict[tuple[int, ...], list[int]] = {}
        for row, row_distances in enumerate(distances):
            groups.setdefault(self._neighbour_set(row_distances), []).append(row)
        for selected, rows in groups.items():
            picked = np.asarray(selected)
            yield np.asarray(rows), self._fit_gaussians(
                self._train[picked], self._labels[picked]
            )

    def _neighbour_set(self, distances: np.ndarray) -> tuple[int, ...]:
        """The ``n_local`` nearest training exemplars, topped up to two per class.

        Every class keeps at least two members, otherwise the local
        Gaussians cannot be fitted.
        """
        assert self._labels is not None
        selected = [int(i) for i in np.argsort(distances, kind="stable")[: self.n_local]]
        for cls in self.classes_:
            if np.count_nonzero(self._labels[selected] == cls) < 2:
                members = np.flatnonzero(self._labels == cls)
                nearest = members[np.argsort(distances[members], kind="stable")][:2]
                selected.extend(int(i) for i in nearest)
        return tuple(sorted(set(selected)))
