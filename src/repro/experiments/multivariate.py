"""Multichannel early classification: six-axis motion and mel-frame keywords.

The paper's audit is framed on univariate UCR data, but the deployments it
criticises -- gesture recognition from inertial sensors, keyword spotting
from audio frames -- are natively *multivariate*: every time step is a
``d``-vector (six IMU axes, a dozen mel bands).  This experiment exercises
the multichannel ``(n, L, d)`` data model end to end on two synthetic
problems shaped like those deployments:

* **six-axis motion** -- one CBF-style physical event seen by six lagged,
  gain-scaled channels (:class:`~repro.data.ucr_like.MultichannelCBFGenerator`);
* **mel-frame keywords** -- log-mel-spectrogram-like exemplars whose
  spectral peak follows a keyword-specific trajectory
  (:class:`~repro.data.ucr_like.MelFrameSynthesizer`).

For each problem the same early classifier is fitted twice: on all channels
(the channel-summed distance kernels) and on every single channel alone.
If pooling evidence across the channel axis earns its keep, the
multichannel model should beat the *best* single channel -- a stronger
baseline than the average one.  The mel-frame problem is then re-run
frame by frame through the push-based stream interface, pinning the
batch/stream equivalence the streaming keyword-spotting example relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.ucr_format import UCRDataset, train_test_split
from repro.data.ucr_like import make_keyword_dataset, make_multichannel_cbf_dataset
from repro.evaluation.earliness import EarlinessAccuracyResult
from repro.evaluation.runner import fit_and_score

__all__ = [
    "ChannelAblation",
    "MultivariatePrepared",
    "MultivariateResult",
    "prepare",
    "compute",
    "metrics",
]


@dataclass(frozen=True)
class ChannelAblation:
    """One dataset's multichannel result against its single-channel baselines.

    Attributes
    ----------
    dataset_name:
        Which multivariate problem the ablation is on.
    n_channels:
        Channels per time step in the full problem.
    multichannel:
        Early-classification result using every channel (channel-summed
        distances).
    best_channel:
        Index of the strongest single channel.
    best_single:
        Early-classification result of that strongest channel alone.
    mean_single_accuracy:
        Accuracy averaged over all single-channel models.
    """

    dataset_name: str
    n_channels: int
    multichannel: EarlinessAccuracyResult
    best_channel: int
    best_single: EarlinessAccuracyResult
    mean_single_accuracy: float


@dataclass(frozen=True)
class MultivariateResult:
    """The channel ablations plus the mel-frame streaming equivalence check."""

    ablations: tuple[ChannelAblation, ...]
    n_streamed: int
    n_stream_matches: int

    def to_text(self) -> str:
        lines = [
            "Multichannel early classification -- does pooling channels earn its keep?",
            f"  {'dataset':<20s} {'variant':<20s} {'accuracy':>9s} {'earliness':>10s} "
            f"{'harmonic':>9s}",
        ]
        for ablation in self.ablations:
            rows = (
                (f"all {ablation.n_channels} channels", ablation.multichannel),
                (f"best single (ch {ablation.best_channel})", ablation.best_single),
            )
            for variant, result in rows:
                lines.append(
                    f"  {ablation.dataset_name:<20s} {variant:<20s} "
                    f"{result.accuracy:>9.1%} {result.earliness:>10.1%} "
                    f"{result.harmonic_mean:>9.1%}"
                )
            lines.append(
                f"  -> mean single-channel accuracy {ablation.mean_single_accuracy:.1%}"
            )
        lines.append(
            f"  streaming check: {self.n_stream_matches}/{self.n_streamed} mel-frame "
            "streams reproduce the batch decision frame for frame"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class MultivariatePrepared:
    """Prepared inputs: train/test splits of both multivariate problems."""

    imu_train: UCRDataset
    imu_test: UCRDataset
    keywords_train: UCRDataset
    keywords_test: UCRDataset


def _classifier(threshold: float) -> ProbabilityThresholdClassifier:
    return ProbabilityThresholdClassifier(
        threshold=threshold, min_length=8, checkpoint_step=2
    )


def _single_channel(dataset: UCRDataset, channel: int) -> UCRDataset:
    """The univariate dataset of one channel (axis 2 index) of ``dataset``."""
    return replace(
        dataset,
        series=np.ascontiguousarray(dataset.series[:, :, channel]),
        metadata={**dataset.metadata, "channel": channel},
    )


def _ablate(
    name: str, train: UCRDataset, test: UCRDataset, threshold: float
) -> ChannelAblation:
    multichannel = fit_and_score(_classifier(threshold), train, test)
    singles = [
        fit_and_score(
            _classifier(threshold),
            _single_channel(train, channel),
            _single_channel(test, channel),
        )
        for channel in range(train.n_channels)
    ]
    accuracies = [result.accuracy for result in singles]
    best = int(np.argmax(accuracies))  # ties break to the lowest index
    return ChannelAblation(
        dataset_name=name,
        n_channels=train.n_channels,
        multichannel=multichannel,
        best_channel=best,
        best_single=singles[best],
        mean_single_accuracy=float(np.mean(accuracies)),
    )


def _stream_equivalence(
    train: UCRDataset, test: UCRDataset, threshold: float
) -> tuple[int, int]:
    """Replay each test exemplar frame by frame; count batch/stream matches."""
    model = _classifier(threshold)
    model.fit(train.series, train.labels)
    batch = model.predict_early_batch(test.series)
    matches = 0
    for exemplar, expected in zip(test.series, batch):
        stream = model.open_stream()
        for frame in exemplar:
            stream.push(frame)
            if stream.outcome is not None:
                break
        outcome = stream.outcome
        if (
            outcome is not None
            and outcome.label == expected.label
            and outcome.trigger_length == expected.trigger_length
        ):
            matches += 1
    return len(test), matches


def prepare(
    n_per_class: int = 25,
    length: int = 128,
    n_channels: int = 6,
    n_frames: int = 48,
    n_mels: int = 12,
    seed: int = 41,
) -> MultivariatePrepared:
    """Generate and split the six-axis and mel-frame datasets.

    Parameters
    ----------
    n_per_class:
        Exemplars per class in each dataset.
    length:
        Time steps per six-axis exemplar.
    n_channels:
        Channels of the six-axis problem (default 6).
    n_frames / n_mels:
        Frames and mel bands per keyword exemplar.
    seed:
        Generator seed (offset per dataset family).
    """
    imu = make_multichannel_cbf_dataset(
        n_per_class=n_per_class, length=length, n_channels=n_channels, seed=seed
    )
    # Mel frames stay in raw energy units: z-normalising every band per
    # exemplar would erase the band-energy profile that distinguishes the
    # keywords -- the same "normalisation throws away the signal" trap the
    # paper documents for univariate amplitudes.
    keywords = make_keyword_dataset(
        n_per_class=n_per_class,
        n_frames=n_frames,
        n_mels=n_mels,
        seed=seed + 1,
        znormalize=False,
    )
    imu_train, imu_test = train_test_split(imu, train_fraction=0.4)
    kw_train, kw_test = train_test_split(keywords, train_fraction=0.4)
    return MultivariatePrepared(
        imu_train=imu_train,
        imu_test=imu_test,
        keywords_train=kw_train,
        keywords_test=kw_test,
    )


def compute(
    prepared: MultivariatePrepared,
    threshold: float = 0.55,
) -> MultivariateResult:
    """Run both channel ablations and the mel-frame streaming check.

    ``threshold`` is the probability threshold of the early classifier.
    """
    ablations = (
        _ablate("six-axis motion", prepared.imu_train, prepared.imu_test, threshold),
        _ablate(
            "mel-frame keywords",
            prepared.keywords_train,
            prepared.keywords_test,
            threshold,
        ),
    )
    n_streamed, n_matches = _stream_equivalence(
        prepared.keywords_train, prepared.keywords_test, threshold
    )
    return MultivariateResult(
        ablations=ablations, n_streamed=n_streamed, n_stream_matches=n_matches
    )


def metrics(result: MultivariateResult) -> dict:
    """Key numbers for the JSON artifact."""
    values: dict = {
        "n_streamed": result.n_streamed,
        "n_stream_matches": result.n_stream_matches,
    }
    for ablation in result.ablations:
        key = ablation.dataset_name.replace("-", "_").replace(" ", "_")
        values[f"{key}_n_channels"] = ablation.n_channels
        values[f"{key}_multichannel_accuracy"] = ablation.multichannel.accuracy
        values[f"{key}_multichannel_earliness"] = ablation.multichannel.earliness
        values[f"{key}_best_single_accuracy"] = ablation.best_single.accuracy
        values[f"{key}_mean_single_accuracy"] = ablation.mean_single_accuracy
    return values
