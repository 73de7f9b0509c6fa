"""Unit tests for the Reliable / LDG early classifiers."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import multivariate_normal

from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.distance.euclidean import pairwise_euclidean

FAST = dict(n_monte_carlo=30, checkpoint_fractions=(0.2, 0.4, 0.6, 0.8, 1.0))

#: Relative tolerance of the Woodbury formulas against the textbook dense ones.
ORACLE_RTOL = 1e-9


def _assert_close(got, want):
    """Agreement to ``ORACLE_RTOL`` relative to the largest reference entry."""
    want = np.asarray(want)
    got = np.asarray(got)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= ORACLE_RTOL * scale


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(tau=0.6)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(shrinkage=1.5)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(n_monte_carlo=5)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(checkpoint_fractions=())
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(posterior_tempering=-1.0)
        with pytest.raises(ValueError):
            LDGReliableEarlyClassifier(n_local=2)

    @pytest.mark.parametrize("seed", [-1, None, 1.5, True])
    def test_random_state_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(random_state=seed)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ReliableEarlyClassifier().predict_partial(np.zeros(10))


def _oracle_covariance(rows, shrinkage):
    """The textbook dense class covariance: the biased sample covariance of
    the raw class rows shrunk towards its diagonal, plus a ``1e-3`` ridge
    (the identity plus the ridge for a single row)."""
    if rows.shape[0] > 1:
        cov = np.atleast_2d(np.cov(rows, rowvar=False, bias=True))
    else:
        cov = np.eye(rows.shape[1])
    cov = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
    return cov + 1e-3 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])


class TestGaussianModel:
    def test_class_models_fitted_per_class(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        assert len(model._models) == 2
        priors = [m.prior for m in model._models]
        assert sum(priors) == pytest.approx(1.0)
        for class_model in model._models:
            rows = series[labels == class_model.label]
            assert class_model.mean.shape == (series.shape[1],)
            assert class_model.diagonal.shape == (series.shape[1],)
            assert class_model.factor.shape == (series.shape[1], rows.shape[0])
            covariance = (
                np.diag(class_model.diagonal) + class_model.factor @ class_model.factor.T
            )
            _assert_close(covariance, _oracle_covariance(rows, model.shrinkage))

    def test_posterior_sums_to_one(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        posteriors, _, _ = model._evaluate(series[:, :10])
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0)


def _many_rows_per_class():
    """Two classes of 45 random-walk rows each, more rows than the 40 samples."""
    series = np.random.default_rng(5).standard_normal((90, 40)).cumsum(axis=1)
    return series, np.repeat(["a", "b"], 45)


def _class_model_case(case, tiny_two_class):
    """``(class model, raw rows it was fitted on, shrinkage, prefixes to score)``."""
    series, labels = tiny_two_class
    if case == "ldg-group":
        ldg = LDGReliableEarlyClassifier(n_local=6, **FAST).fit(series, labels)
        rows, models = next(ldg._class_models(series[:, :10]))
        distances = pairwise_euclidean(series[rows[:1], :10], series[:, :10])[0]
        picked = np.asarray(ldg._neighbour_set(distances))
        assert picked.size < series.shape[0]  # a local group, not the training set
        model = models[0]
        return model, series[picked][labels[picked] == model.label], ldg.shrinkage, series
    if case == "more-rows-than-samples":
        series, labels = _many_rows_per_class()
    shrinkage = {"shrinkage-0": 0.0, "shrinkage-1": 1.0}.get(case, 0.6)
    classifier = ReliableEarlyClassifier(shrinkage=shrinkage, **FAST)
    if case == "single-row":
        # Nine "up" rows and one "down" row: the "down" model sees one row.
        fit_series, fit_labels = series[1:11], labels[1:11]
        models = classifier._fit_gaussians(fit_series, fit_labels)
    else:
        fit_series, fit_labels = series, labels
        models = classifier.fit(series, labels)._models
    model = models[0]
    return model, fit_series[fit_labels == model.label], shrinkage, series


ORACLE_CASES = [
    "global",
    "ldg-group",
    "more-rows-than-samples",
    "single-row",
    "shrinkage-0",
    "shrinkage-1",
]

#: Prefix lengths of the 40-sample series, up to the complete series.
ORACLE_LENGTHS = [1, 12, 39, 40]


class TestWoodburyAlgebra:
    """Every quantity from ``D + U U^T``, against the textbook dense formulas."""

    @pytest.fixture(params=ORACLE_CASES)
    def case(self, request, tiny_two_class):
        """``(class model, raw rows it was fitted on, oracle covariance, prefixes to score)``."""
        model, rows, shrinkage, series = _class_model_case(request.param, tiny_two_class)
        return model, rows, _oracle_covariance(rows, shrinkage), series

    def test_rank_at_most_rows_and_length(self, case):
        model, rows, cov, _ = case
        n_rows, length = rows.shape
        assert model.factor.shape == (length, min(n_rows, length) if n_rows > 1 else 0)
        _assert_close(np.diag(model.diagonal) + model.factor @ model.factor.T, cov)

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_prefix_log_density_matches_scipy_marginal(self, case, length):
        model, rows, cov, series = case
        mean = rows.mean(axis=0)
        prefixes = series[:, :length]
        got = model.condition(prefixes).log_density
        marginal = multivariate_normal(mean[:length], cov[:length, :length])
        _assert_close(got, np.atleast_1d(marginal.logpdf(prefixes)))

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_conditional_suffix_matches_schur_complement(self, case, length):
        model, rows, cov, series = case
        mean = rows.mean(axis=0)
        prefixes = series[:, :length]
        cov_pp, cov_sp = cov[:length, :length], cov[length:, :length]
        cov_ss = cov[length:, length:]

        want_mean = mean[length:] + (
            cov_sp @ np.linalg.solve(cov_pp, (prefixes - mean[:length]).T)
        ).T
        _assert_close(model.condition(prefixes).suffix_mean, want_mean)

        ridge = 1e-6 * np.trace(cov) / cov.shape[0]
        want_cov = cov_ss - cov_sp @ np.linalg.solve(cov_pp, cov_sp.T)
        want_cov = want_cov + ridge * np.eye(cov_ss.shape[0])
        sampler = model.suffix_sampler(length)
        assert np.array_equal(sampler, np.tril(sampler))
        _assert_close(sampler @ sampler.T, want_cov)
        assert model.suffix_sampler(length) is sampler  # cached per length

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_completion_density_matches_full_solve(self, case, length):
        model, rows, cov, series = case
        mean = rows.mean(axis=0)
        prefixes = series[:6, :length]
        conditioned = model.condition(prefixes)
        owner = np.repeat(np.arange(6), 2)  # two completions per prefix
        suffix_means = conditioned.suffix_mean[owner]
        suffixes = suffix_means + np.random.default_rng(3).standard_normal(suffix_means.shape)
        got = model.log_density_completions(conditioned, suffixes, owner)

        full = np.hstack([prefixes[owner], suffixes])
        factor = cho_factor(cov, lower=True)
        diffs = full - mean
        quadratic = np.sum(diffs * cho_solve(factor, diffs.T).T, axis=1)
        log_det = 2.0 * np.sum(np.log(np.diag(factor[0])))
        want = -0.5 * (full.shape[1] * np.log(2 * np.pi) + log_det + quadratic)
        _assert_close(got, want)


class TestPrediction:
    def test_separable_problem_accuracy(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_triggers_early_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series[::2], labels[::2])
        assert model.average_earliness(series[1::2]) < 1.0

    def test_full_prefix_is_always_ready(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        partial = model.predict_partial(series[0])
        assert partial.ready

    def test_smaller_tau_never_triggers_earlier(self, tiny_two_class):
        series, labels = tiny_two_class
        lenient = ReliableEarlyClassifier(tau=0.3, random_state=5, **FAST).fit(series[::2], labels[::2])
        strict = ReliableEarlyClassifier(tau=0.01, random_state=5, **FAST).fit(series[::2], labels[::2])
        lenient_earliness = lenient.average_earliness(series[1::2])
        strict_earliness = strict.average_earliness(series[1::2])
        assert strict_earliness >= lenient_earliness - 0.05

    def test_ldg_variant_works(self, tiny_two_class):
        series, labels = tiny_two_class
        model = LDGReliableEarlyClassifier(n_local=8, **FAST).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_ldg_local_models_cover_both_classes(self, tiny_two_class):
        series, labels = tiny_two_class
        model = LDGReliableEarlyClassifier(n_local=6, **FAST).fit(series, labels)
        groups = list(model._class_models(series[:, :10]))
        assert sorted(np.concatenate([rows for rows, _ in groups])) == list(range(len(series)))
        for _, local_models in groups:
            assert {m.label for m in local_models} == set(model.classes_)

    def test_reliability_estimate_in_unit_interval(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        _, reliability, ready = model._evaluate(series[:, :12])
        assert np.all((reliability >= 0.0) & (reliability <= 1.0))
        np.testing.assert_array_equal(ready, reliability >= 1.0 - model.tau)

    @pytest.mark.parametrize("cls", [ReliableEarlyClassifier, LDGReliableEarlyClassifier])
    def test_predict_partial_ignores_call_history(self, tiny_two_class, cls):
        series, labels = tiny_two_class
        model = cls(**FAST).fit(series, labels)
        first = model.predict_partial(series[3][:12])
        for row in series:
            model.predict_partial(row[:12])
        again = model.predict_partial(series[3][:12])
        assert again == first

    def test_noise_is_owned_by_the_prefix(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        prefix = series[0][:12]
        draws = model._noise(prefix, 5, 28)
        np.testing.assert_array_equal(model._noise(prefix.copy(), 5, 28), draws)
        assert not np.array_equal(model._noise(series[1][:12], 5, 28), draws)
        reseeded = ReliableEarlyClassifier(random_state=20, **FAST).fit(series, labels)
        assert not np.array_equal(reseeded._noise(prefix, 5, 28), draws)
