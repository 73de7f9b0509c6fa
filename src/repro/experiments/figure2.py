"""Figure 2: one valid sentence, six early false positives.

    "Consider what would happen when we test on the utterance 'It was said
    that Cathy's dogmatic catechism dogmatized catholic doggery'.  This
    sentence will produce six false positives: three in each class."

The experiment trains an early classifier on isolated *cat* / *dog*
utterances (the idealised Fig. 1 dataset) and then feeds it each word of the
sentence, from that word's onset, exactly as a streaming deployment would
encounter them.  Every trigger is a false positive: the sentence contains no
isolated *cat* or *dog*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.words import WordSynthesizer, make_word_dataset

__all__ = [
    "Figure2Prepared",
    "Figure2Result",
    "WordTriggerOutcome",
    "prepare",
    "compute",
    "metrics",
]

#: The sentence from the paper's Fig. 2 caption.
FIG2_SENTENCE = "it was said that cathy's dogmatic catechism dogmatized catholic doggery"

#: The six words the paper points to: each begins with a target word.
PREFIX_CONFOUNDERS = (
    "cathy",
    "dogmatic",
    "catechism",
    "dogmatized",
    "catholic",
    "doggery",
)


@dataclass(frozen=True)
class WordTriggerOutcome:
    """What the early classifier did when it heard one sentence word."""

    word: str
    triggered: bool
    predicted_label: object | None
    trigger_length: int | None
    confidence: float | None
    is_prefix_confounder: bool


@dataclass(frozen=True)
class Figure2Result:
    """Outcome of streaming the Fig. 2 sentence through a cat/dog early classifier.

    Attributes
    ----------
    outcomes:
        Per-word outcomes, in sentence order.
    false_positives_total:
        Number of sentence words that caused a trigger (none of them is a
        target, so every trigger is a false positive).
    false_positives_by_class:
        Breakdown of those triggers by predicted class.
    confounder_false_positives:
        Triggers among the six prefix-confounder words (the paper's "six
        false positives: three in each class").
    """

    outcomes: tuple[WordTriggerOutcome, ...]
    false_positives_total: int
    false_positives_by_class: dict
    confounder_false_positives: int

    def to_text(self) -> str:
        lines = [
            "Figure 2 -- early false positives on a single valid sentence",
            f'  sentence: "{FIG2_SENTENCE}"',
            f"  total false positives: {self.false_positives_total} "
            f"(by predicted class: {self.false_positives_by_class})",
            f"  false positives among the six prefix-confounder words: "
            f"{self.confounder_false_positives} / {len(PREFIX_CONFOUNDERS)}",
            "",
            f"  {'word':<12s} {'triggered':<10s} {'as class':<9s} {'after #samples':>14s}",
        ]
        for outcome in self.outcomes:
            label = str(outcome.predicted_label) if outcome.triggered else "-"
            length = str(outcome.trigger_length) if outcome.triggered else "-"
            lines.append(
                f"  {outcome.word:<12s} {str(outcome.triggered):<10s} {label:<9s} {length:>14s}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure2Prepared:
    """Prepared inputs: the fitted cat/dog early classifier."""

    classifier: ProbabilityThresholdClassifier


def prepare(
    n_per_class: int = 30,
    length: int = 150,
    threshold: float = 0.8,
    min_length: int = 20,
    seed: int = 3,
) -> Figure2Prepared:
    """Synthesise the training utterances and fit the early classifier.

    Parameters
    ----------
    n_per_class:
        Training utterances per class.
    length:
        UCR-format exemplar length (padding included).
    threshold:
        Probability threshold of the early classifier (Fig. 3's framing).
    min_length:
        Smallest prefix at which the classifier may trigger.
    seed:
        Seed shared by the synthesiser and the classifier.
    """
    # The dataset is kept in raw units: the prefix problem is independent of
    # the normalisation problem (Section 4), and keeping the units physical
    # isolates it.
    dataset = make_word_dataset(
        n_per_class=n_per_class, length=length, seed=seed, znormalize=False
    )
    classifier = ProbabilityThresholdClassifier(
        threshold=threshold, min_length=min_length, checkpoint_step=2
    )
    classifier.fit(dataset.series, dataset.labels)
    return Figure2Prepared(classifier=classifier)


def compute(
    prepared: Figure2Prepared,
    length: int = 150,
    seed: int = 3,
) -> Figure2Result:
    """Stream each word of the Fig. 2 sentence through the fitted classifier.

    ``length`` and ``seed`` are as for :func:`prepare`.
    """
    classifier = prepared.classifier
    synthesizer = WordSynthesizer(seed=seed)
    rng = np.random.default_rng(seed + 100)
    sentence_words = [
        synthesizer.normalize_token(token) for token in FIG2_SENTENCE.split()
    ]

    outcomes = []
    by_class: dict = {}
    confounder_hits = 0
    for word in sentence_words:
        trace = synthesizer.synthesize_word(word, rng=rng)
        if trace.shape[0] >= length:
            window = trace[:length]
        else:
            padding = rng.normal(0.0, synthesizer.noise_scale * 0.5, size=length - trace.shape[0])
            window = np.concatenate([trace, padding])
        prediction = classifier.predict_early(window)
        triggered = prediction.triggered
        outcome = WordTriggerOutcome(
            word=word,
            triggered=triggered,
            predicted_label=prediction.label if triggered else None,
            trigger_length=prediction.trigger_length if triggered else None,
            confidence=prediction.confidence if triggered else None,
            is_prefix_confounder=word in PREFIX_CONFOUNDERS,
        )
        outcomes.append(outcome)
        if triggered:
            key = str(prediction.label)
            by_class[key] = by_class.get(key, 0) + 1
            if outcome.is_prefix_confounder:
                confounder_hits += 1

    return Figure2Result(
        outcomes=tuple(outcomes),
        false_positives_total=sum(1 for o in outcomes if o.triggered),
        false_positives_by_class=by_class,
        confounder_false_positives=confounder_hits,
    )


def metrics(result: Figure2Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "false_positives_total": result.false_positives_total,
        "confounder_false_positives": result.confounder_false_positives,
        "n_words": len(result.outcomes),
        "false_positives_by_class": dict(result.false_positives_by_class),
    }
