"""Figure 3: how ETSC algorithms frame the problem.

(left) TEASER correctly predicts the class of a GunPoint exemplar after
seeing only 53 of 150 data points; (right) a model that predicts once a
user-specified probability threshold (0.8) is exceeded commits after only 36
data points.  The experiment reproduces both framings on the synthetic
GunPoint data and reports the trigger points and the probability trajectory
leading up to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.ucr_format import UCRDataset

__all__ = [
    "Figure3Prepared",
    "Figure3Result",
    "ModelTrace",
    "prepare",
    "compute",
    "metrics",
]


@dataclass(frozen=True)
class ModelTrace:
    """The incremental behaviour of one model on one exemplar.

    Attributes
    ----------
    model:
        Model name.
    trigger_length:
        Number of samples seen when the model committed.
    series_length:
        Full exemplar length.
    predicted_label, true_label:
        Committed and ground-truth classes.
    correct:
        Whether they agree.
    probability_trajectory:
        ``(prefix length, winning-class probability)`` pairs recorded at each
        checkpoint up to the trigger -- the curves drawn in the figure.
    """

    model: str
    trigger_length: int
    series_length: int
    predicted_label: object
    true_label: object
    correct: bool
    probability_trajectory: tuple[tuple[int, float], ...]

    @property
    def fraction_seen(self) -> float:
        return self.trigger_length / self.series_length


@dataclass(frozen=True)
class Figure3Result:
    """Trigger behaviour of TEASER and the probability-threshold model."""

    traces: tuple[ModelTrace, ...]

    def trace_for(self, model: str) -> ModelTrace:
        for trace in self.traces:
            if trace.model == model:
                return trace
        raise KeyError(f"no trace for model {model!r}")

    def to_text(self) -> str:
        lines = ["Figure 3 -- early classification trigger points on one GunPoint exemplar"]
        for trace in self.traces:
            lines.append(
                f"  {trace.model}: committed to '{trace.predicted_label}' after "
                f"{trace.trigger_length} of {trace.series_length} samples "
                f"({trace.fraction_seen:.0%} of the exemplar); "
                f"{'correct' if trace.correct else 'incorrect'}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure3Prepared:
    """Prepared inputs: the GunPoint split and both fitted models."""

    test: UCRDataset
    teaser: TEASERClassifier
    threshold_model: ProbabilityThresholdClassifier


def prepare(
    threshold: float = 0.8,
    n_train_per_class: int = 25,
    n_test_per_class: int = 75,
    seed: int = 7,
) -> Figure3Prepared:
    """Synthesise GunPoint and fit TEASER plus the threshold model.

    Parameters
    ----------
    threshold:
        The user threshold of the right-hand panel.
    n_train_per_class, n_test_per_class, seed:
        Dataset parameters.
    """
    train, test = make_gunpoint_dataset(
        n_train_per_class=n_train_per_class,
        n_test_per_class=n_test_per_class,
        seed=seed,
    )

    teaser = TEASERClassifier()
    teaser.fit(train.series, train.labels)
    threshold_model = ProbabilityThresholdClassifier(
        threshold=threshold, min_length=10, checkpoint_step=1
    )
    threshold_model.fit(train.series, train.labels)
    return Figure3Prepared(test=test, teaser=teaser, threshold_model=threshold_model)


def compute(
    prepared: Figure3Prepared,
    exemplar_index: int | None = None,
    threshold: float = 0.8,
) -> Figure3Result:
    """Trace both fitted models on one test exemplar.

    Parameters
    ----------
    exemplar_index:
        Index of the test exemplar to trace.  ``None`` picks the first test
        exemplar that both models classify correctly, mirroring the figure
        (which shows a success case).
    threshold:
        As for :func:`prepare`; names the threshold model's trace.
    """
    test = prepared.test
    teaser = prepared.teaser
    threshold_model = prepared.threshold_model

    def trace_models(index: int) -> list[ModelTrace]:
        row = test.series[index]
        true_label = test.labels[index]
        traces = []
        for name, model in (("TEASER", teaser), (f"threshold={threshold}", threshold_model)):
            outcome = model.predict_early(row, keep_history=True)
            trajectory = tuple(
                (partial.prefix_length, float(partial.confidence)) for partial in outcome.history
            )
            traces.append(
                ModelTrace(
                    model=name,
                    trigger_length=outcome.trigger_length,
                    series_length=outcome.series_length,
                    predicted_label=outcome.label,
                    true_label=true_label,
                    correct=bool(outcome.label == true_label),
                    probability_trajectory=trajectory,
                )
            )
        return traces

    if exemplar_index is not None:
        traces = trace_models(int(exemplar_index))
    else:
        traces = trace_models(0)
        for index in range(test.n_exemplars):
            candidate = trace_models(index)
            if all(t.correct and t.trigger_length < t.series_length for t in candidate):
                traces = candidate
                break
    return Figure3Result(traces=tuple(traces))


def metrics(result: Figure3Result) -> dict:
    """Key numbers for the JSON artifact."""
    values: dict = {"n_models": len(result.traces)}
    for trace in result.traces:
        key = trace.model.replace("=", "_").replace(".", "_")
        values[f"{key}_trigger_length"] = trace.trigger_length
        values[f"{key}_fraction_seen"] = trace.fraction_seen
        values[f"{key}_correct"] = trace.correct
    return values
