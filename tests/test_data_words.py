"""Unit tests for the spoken-word synthesiser."""

import numpy as np
import pytest

from repro.data.words import (
    LEXICON,
    PHONEME_INVENTORY,
    WordSynthesizer,
    make_word_dataset,
)
from repro.distance.euclidean import znormalized_euclidean_distance
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.experiments.figure2 import FIG2_SENTENCE


def _resampled(trace: np.ndarray, length: int) -> np.ndarray:
    """Linear resampling to ``length`` samples, so two utterances compare."""
    return np.interp(
        np.linspace(0.0, 1.0, length), np.linspace(0.0, 1.0, trace.shape[0]), trace
    )


class TestLexicon:
    def test_all_lexicon_phonemes_exist(self):
        for word, phonemes in LEXICON.items():
            for phoneme in phonemes:
                assert phoneme in PHONEME_INVENTORY, f"{word} uses unknown phoneme {phoneme}"

    def test_prefix_families_share_leading_phonemes(self):
        # catalog, cattle and catechism all start with cat's phonemes.
        cat = LEXICON["cat"]
        for word in ("catalog", "cattle", "catechism"):
            assert LEXICON[word][: len(cat)] == cat
        dog = LEXICON["dog"]
        for word in ("dogmatic", "dogmatized", "doggery"):
            assert LEXICON[word][: len(dog)] == dog

    def test_homophone_pairs_have_identical_phonemes(self):
        assert LEXICON["flower"] == LEXICON["flour"]
        assert LEXICON["wither"] == LEXICON["whither"]

    def test_inclusion_family(self):
        weight = LEXICON["weight"]
        assert LEXICON["lightweight"][-len(weight):] == weight
        assert LEXICON["paperweight"][-len(weight):] == weight


class TestWordSynthesizer:
    def test_unknown_word_raises(self):
        with pytest.raises(KeyError):
            WordSynthesizer().synthesize_word("xylophone")

    def test_same_word_utterances_are_similar(self):
        synth = WordSynthesizer(seed=1)
        rng = np.random.default_rng(1)
        a = synth.synthesize_word("cat", rng=rng)
        b = synth.synthesize_word("cat", rng=rng)
        fixed_a = _resampled(a, 150)
        fixed_b = _resampled(b, 150)
        different = _resampled(synth.synthesize_word("dog", rng=rng), 150)
        same_distance = znormalized_euclidean_distance(fixed_a, fixed_b)
        cross_distance = znormalized_euclidean_distance(fixed_a, different)
        assert same_distance < cross_distance

    def test_word_is_prefix_of_longer_word(self):
        # The core prefix-problem property: the trace of "cat" and the first
        # part of the trace of "catalog" are generated from the same phonemes.
        synth = WordSynthesizer(seed=2, duration_jitter=0.0, noise_scale=0.0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        cat = synth.synthesize_word("cat", rng=rng_a)
        catalog = synth.synthesize_word("catalog", rng=rng_b)
        overlap = min(cat.shape[0], catalog.shape[0])
        correlation = np.corrcoef(cat[:overlap], catalog[:overlap])[0, 1]
        assert correlation > 0.95

    def test_normalize_token_strips_punctuation(self):
        assert WordSynthesizer.normalize_token("Cathy's") == "cathy"
        assert WordSynthesizer.normalize_token("doggery.") == "doggery"


class TestFigure2Sentence:
    def test_every_token_normalises_to_a_lexicon_word(self):
        words = [WordSynthesizer.normalize_token(token) for token in FIG2_SENTENCE.split()]
        assert all(word in LEXICON for word in words)
        assert words == [
            "it", "was", "said", "that", "cathy",
            "dogmatic", "catechism", "dogmatized", "catholic", "doggery",
        ]

    @pytest.mark.parametrize(
        "token, word",
        [
            ("Cathy's", "cathy"),
            ("doggery.", "doggery"),
            ("dog's", "dog"),
            ("WAS", "was"),
            ("it,", "it"),
            ("Catholic!", "catholic"),
            ("cats", "cat"),
        ],
    )
    def test_tokens_normalise_to_lexicon_words(self, token, word):
        assert WordSynthesizer.normalize_token(token) == word
        assert word in LEXICON

    def test_possessive_of_a_lexicon_word_drops_the_s(self):
        assert WordSynthesizer.normalize_token("dog's") == "dog"
        assert WordSynthesizer.normalize_token("was") == "was"


class TestMakeWordDataset:
    def test_shape_and_labels(self):
        dataset = make_word_dataset(n_per_class=5, length=150)
        assert dataset.series.shape == (10, 150)
        assert dataset.class_counts() == {"cat": 5, "dog": 5}

    def test_znormalized_by_default(self):
        dataset = make_word_dataset(n_per_class=3)
        assert dataset.znormalized
        np.testing.assert_allclose(dataset.series.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(dataset.series.std(axis=1), 1.0, atol=1e-9)

    def test_separable_in_ucr_format(self, word_dataset_small):
        dataset = word_dataset_small
        train = dataset.subset(range(0, dataset.n_exemplars, 2))
        test = dataset.subset(range(1, dataset.n_exemplars, 2))
        model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
        assert model.score(test.series, test.labels) >= 0.9

    def test_utterances_are_padded_not_resampled(self):
        # Each utterance keeps its natural time scale: the first samples of
        # an exemplar are the synthesiser's trace, then low-level padding.
        dataset = make_word_dataset(n_per_class=2, length=150, znormalize=False, seed=4)
        synth = WordSynthesizer(seed=4)
        rng = np.random.default_rng(4)
        trace = synth.synthesize_word("cat", rng=rng)
        assert trace.shape[0] < 150
        assert np.array_equal(dataset.series[0, : trace.shape[0]], trace)
        padding = dataset.series[0, trace.shape[0] :]
        assert np.abs(padding).max() < 10 * synth.noise_scale

    def test_long_utterances_are_truncated(self):
        dataset = make_word_dataset(n_per_class=2, length=20, znormalize=False, seed=4)
        synth = WordSynthesizer(seed=4)
        trace = synth.synthesize_word("cat", rng=np.random.default_rng(4))
        assert np.array_equal(dataset.series[0], trace[:20])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            make_word_dataset(words=("cat",))
