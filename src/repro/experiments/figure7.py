"""Figure 7: raw ECG telemetry has wandering per-beat means and deviations.

    "ECG1 shows dramatic but medically meaningless variation in the mean of
    individual beats.  ECG2 shows equally dramatic but also medically
    meaningless variation in the standard deviation of individual beats."

The experiment generates two-lead telemetry, segments it into beats and
reports how much the per-beat mean (lead 1) and per-beat standard deviation
(lead 2) vary -- compared against the same statistics computed on telemetry
with the acquisition artefacts (baseline wander, amplitude modulation) turned
off, which isolates how much of the variation is physiological.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ecg import ECGGenerator, beat_statistics

__all__ = ["Figure7Prepared", "Figure7Result", "prepare", "compute", "metrics"]


@dataclass(frozen=True)
class Figure7Result:
    """Per-beat statistics of the regenerated two-lead telemetry.

    Attributes
    ----------
    n_beats:
        Number of beats in the telemetry window.
    duration_seconds:
        Length of the telemetry window.
    lead1_mean_range, lead1_mean_std:
        Spread of the per-beat mean on lead 1 (the baseline-wander lead).
    lead2_std_range, lead2_std_std:
        Spread of the per-beat standard deviation on lead 2 (the
        amplitude-modulated lead).
    raw_mean_range:
        Spread of the per-beat mean on lead 1 (same as ``lead1_mean_range``,
        kept for symmetry with the clean reference values below).
    clean_mean_range, clean_std_range:
        The same per-beat statistics computed on telemetry generated without
        baseline wander or amplitude modulation -- the physiological
        variability alone, for comparison.
    """

    n_beats: int
    duration_seconds: float
    lead1_mean_range: float
    lead1_mean_std: float
    lead2_std_range: float
    lead2_std_std: float
    raw_mean_range: float
    clean_mean_range: float
    clean_std_range: float

    def to_text(self) -> str:
        return "\n".join(
            [
                "Figure 7 -- raw two-lead ECG telemetry",
                f"  beats analysed: {self.n_beats} over {self.duration_seconds:.0f} s",
                f"  lead 1 per-beat mean: range {self.lead1_mean_range:.2f}, "
                f"std {self.lead1_mean_std:.2f}  (medically meaningless wander)",
                f"  lead 2 per-beat std : range {self.lead2_std_range:.2f}, "
                f"std {self.lead2_std_std:.2f}  (medically meaningless modulation)",
                "  reference: the same beats with wander/modulation removed have",
                f"    per-beat mean range {self.clean_mean_range:.2f} and "
                f"per-beat std range {self.clean_std_range:.2f}",
                "  so the variation in the raw telemetry is an artefact of acquisition, "
                "not physiology -- yet it is exactly what a streaming prefix sees.",
            ]
        )


@dataclass(frozen=True)
class Figure7Prepared:
    """Prepared inputs: raw and artefact-free two-lead telemetry."""

    signal: np.ndarray
    beats: tuple
    clean_signal: np.ndarray
    clean_beats: tuple


def prepare(
    duration_seconds: float = 15.0,
    sampling_rate: int = 128,
    seed: int = 23,
) -> Figure7Prepared:
    """Generate the raw telemetry and its artefact-free reference."""
    generator = ECGGenerator(sampling_rate=sampling_rate, seed=seed)
    signal, beats = generator.telemetry(duration_seconds, n_leads=2)

    # Reference: the same generator with the acquisition artefacts switched
    # off, i.e. the physiological variability alone.
    clean_generator = ECGGenerator(sampling_rate=sampling_rate, seed=seed)
    clean_signal, clean_beats = clean_generator.telemetry(
        duration_seconds, n_leads=2, baseline_wander=False, amplitude_modulation=False
    )
    return Figure7Prepared(
        signal=signal,
        beats=tuple(beats),
        clean_signal=clean_signal,
        clean_beats=tuple(clean_beats),
    )


def compute(
    prepared: Figure7Prepared,
    duration_seconds: float = 15.0,
) -> Figure7Result:
    """Per-beat statistics of the prepared telemetry."""
    signal, beats = prepared.signal, list(prepared.beats)
    if len(beats) < 3:
        raise RuntimeError("telemetry window too short to contain enough beats")

    lead1_means, _ = beat_statistics(signal[0], beats)
    _, lead2_stds = beat_statistics(signal[1], beats)

    clean_means, _ = beat_statistics(prepared.clean_signal[0], list(prepared.clean_beats))
    _, clean_stds = beat_statistics(prepared.clean_signal[1], list(prepared.clean_beats))

    return Figure7Result(
        n_beats=len(beats),
        duration_seconds=float(duration_seconds),
        lead1_mean_range=float(np.ptp(lead1_means)),
        lead1_mean_std=float(np.std(lead1_means)),
        lead2_std_range=float(np.ptp(lead2_stds)),
        lead2_std_std=float(np.std(lead2_stds)),
        raw_mean_range=float(np.ptp(lead1_means)),
        clean_mean_range=float(np.ptp(clean_means)),
        clean_std_range=float(np.ptp(clean_stds)),
    )


def metrics(result: Figure7Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "n_beats": result.n_beats,
        "duration_seconds": result.duration_seconds,
        "lead1_mean_range": result.lead1_mean_range,
        "lead2_std_range": result.lead2_std_range,
        "clean_mean_range": result.clean_mean_range,
        "clean_std_range": result.clean_std_range,
    }
