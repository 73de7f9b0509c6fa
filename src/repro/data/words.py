"""Synthetic spoken-word traces (the paper's "MFCC coefficient 2" analogy).

Figures 1 and 2 and Sections 3.1-3.2 use spoken words as the motivating
example: *cat* vs *dog* exemplars look like an ideal UCR-format problem, but a
streaming deployment will also hear *Cathy's dogmatic catechism dogmatized
catholic doggery*, each of which begins exactly like a target word.

The generator models each word as a concatenation of **phoneme segments**.
Each phoneme is a short parameterised waveform (a smooth bump, an oscillation,
a fricative burst, ...), and words that share a spelled prefix share the same
leading phonemes and therefore -- by construction -- the same time-series
prefix.  Homophone pairs (*flower*/*flour*, *wither*/*whither*) map to the
same phoneme sequence, so their traces differ only by noise.

The absolute values are not MFCCs computed from audio; they do not need to
be.  The argument in the paper only requires that (a) exemplars of the same
word are close in z-normalised Euclidean distance, (b) a word's trace is a
prefix of the trace of any word it is a spelled prefix of, and (c) target
words embedded in longer words or sentences are locally indistinguishable from
isolated target words.  The test-suite verifies all three properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.ucr_format import UCRDataset

__all__ = [
    "PHONEME_INVENTORY",
    "LEXICON",
    "WordSynthesizer",
    "make_word_dataset",
]


# ---------------------------------------------------------------------------
# Phoneme inventory
# ---------------------------------------------------------------------------
#: Each phoneme is described by (kind, base_length, amplitude, frequency).
#: ``kind`` selects the waveform family:
#:   "stop"      -- brief silence followed by a sharp release burst
#:   "fricative" -- sustained high-frequency low-amplitude oscillation
#:   "vowel"     -- smooth voiced bump with formant-like slow oscillation
#:   "nasal"     -- low-amplitude rounded bump
#:   "liquid"    -- gliding ramp between levels
PHONEME_INVENTORY: dict[str, tuple[str, int, float, float]] = {
    # consonants
    "k": ("stop", 22, 0.9, 0.55),
    "g": ("stop", 24, 0.8, 0.40),
    "t": ("stop", 20, 1.0, 0.65),
    "d": ("stop", 22, 0.85, 0.45),
    "p": ("stop", 20, 0.95, 0.60),
    "b": ("stop", 22, 0.8, 0.42),
    "s": ("fricative", 26, 0.45, 0.85),
    "z": ("fricative", 26, 0.40, 0.70),
    "f": ("fricative", 24, 0.35, 0.80),
    "v": ("fricative", 24, 0.33, 0.60),
    "th": ("fricative", 24, 0.30, 0.75),
    "sh": ("fricative", 28, 0.50, 0.90),
    "ch": ("stop", 26, 0.9, 0.80),
    "h": ("fricative", 18, 0.25, 0.50),
    "m": ("nasal", 24, 0.55, 0.30),
    "n": ("nasal", 22, 0.50, 0.35),
    "ng": ("nasal", 24, 0.52, 0.32),
    "l": ("liquid", 22, 0.60, 0.28),
    "r": ("liquid", 24, 0.58, 0.26),
    "w": ("liquid", 20, 0.55, 0.24),
    "y": ("liquid", 18, 0.50, 0.30),
    # vowels (frequencies spread out so different vowels have visibly
    # different formant ripple counts after synthesis)
    "ae": ("vowel", 34, 1.00, 0.50),   # cat
    "ao": ("vowel", 34, 0.95, 0.125),  # dog
    "ah": ("vowel", 30, 0.85, 0.25),
    "eh": ("vowel", 30, 0.90, 0.40),
    "ih": ("vowel", 26, 0.80, 0.60),
    "iy": ("vowel", 30, 0.88, 0.75),
    "uh": ("vowel", 26, 0.78, 0.20),
    "uw": ("vowel", 30, 0.82, 0.10),
    "ay": ("vowel", 36, 0.95, 0.35),
    "aw": ("vowel", 36, 0.92, 0.30),
    "ow": ("vowel", 34, 0.90, 0.15),
    "er": ("vowel", 30, 0.75, 0.45),
    "oy": ("vowel", 36, 0.93, 0.55),
}


# ---------------------------------------------------------------------------
# Lexicon: word -> phoneme sequence
# ---------------------------------------------------------------------------
#: The lexicon covers every word family the paper's examples draw on:
#: the cat/dog targets and their prefix/inclusion confounders (Fig. 2),
#: the gun/point families (§3.1-3.2), lightweight/paperweight (§3.2),
#: and the homophone pairs flower/flour, wither/whither (§3.3).
LEXICON: dict[str, tuple[str, ...]] = {
    # --- cat family ---------------------------------------------------------
    "cat": ("k", "ae", "t"),
    "cathy": ("k", "ae", "th", "iy"),
    "cattle": ("k", "ae", "t", "ah", "l"),
    "catalog": ("k", "ae", "t", "ah", "l", "ao", "g"),
    "catechism": ("k", "ae", "t", "ah", "k", "ih", "z", "ah", "m"),
    "catholic": ("k", "ae", "th", "l", "ih", "k"),
    # --- dog family ---------------------------------------------------------
    "dog": ("d", "ao", "g"),
    "dogmatic": ("d", "ao", "g", "m", "ae", "t", "ih", "k"),
    "dogmatized": ("d", "ao", "g", "m", "ah", "t", "ay", "z", "d"),
    "doggery": ("d", "ao", "g", "er", "iy"),
    "doggedness": ("d", "ao", "g", "ih", "d", "n", "eh", "s"),
    # --- gun family ---------------------------------------------------------
    "gun": ("g", "ah", "n"),
    "gunk": ("g", "ah", "n", "k"),
    "gunnysack": ("g", "ah", "n", "iy", "s", "ae", "k"),
    "gunwales": ("g", "ah", "n", "ah", "l", "z"),
    "begun": ("b", "ih", "g", "ah", "n"),
    "burgundy": ("b", "er", "g", "ah", "n", "d", "iy"),
    "gunderson": ("g", "ah", "n", "d", "er", "s", "ah", "n"),
    # --- point family -------------------------------------------------------
    "point": ("p", "oy", "n", "t"),
    "pointless": ("p", "oy", "n", "t", "l", "eh", "s"),
    "pointedly": ("p", "oy", "n", "t", "ih", "d", "l", "iy"),
    "pointman": ("p", "oy", "n", "t", "m", "ae", "n"),
    "appointment": ("ah", "p", "oy", "n", "t", "m", "ah", "n", "t"),
    "disappointing": ("d", "ih", "s", "ah", "p", "oy", "n", "t", "ih", "ng"),
    "ballpoints": ("b", "ao", "l", "p", "oy", "n", "t", "s"),
    "pointe": ("p", "oy", "n", "t"),
    "pint": ("p", "ay", "n", "t"),
    # --- weight family (inclusion example) ----------------------------------
    "light": ("l", "ay", "t"),
    "paper": ("p", "ae", "p", "er"),
    "weight": ("w", "ay", "t"),
    "lightweight": ("l", "ay", "t", "w", "ay", "t"),
    "paperweight": ("p", "ae", "p", "er", "w", "ay", "t"),
    "papercut": ("p", "ae", "p", "er", "k", "ah", "t"),
    # --- homophones (§3.3) ---------------------------------------------------
    "flower": ("f", "l", "aw", "er"),
    "flour": ("f", "l", "aw", "er"),
    "flowerpot": ("f", "l", "aw", "er", "p", "ao", "t"),
    "deflowered": ("d", "ih", "f", "l", "aw", "er", "d"),
    "wither": ("w", "ih", "th", "er"),
    "whither": ("w", "ih", "th", "er"),
    "witheringly": ("w", "ih", "th", "er", "ih", "ng", "l", "iy"),
    "swithering": ("s", "w", "ih", "th", "er", "ih", "ng"),
    # --- filler vocabulary for sentences -------------------------------------
    "it": ("ih", "t"),
    "was": ("w", "ah", "z"),
    "said": ("s", "eh", "d"),
    "that": ("th", "ae", "t"),
    "the": ("th", "ah"),
    "a": ("ah",),
    "in": ("ih", "n"),
    "of": ("ah", "v"),
    "and": ("ae", "n", "d"),
    "morning": ("m", "ao", "r", "n", "ih", "ng"),
    "could": ("k", "uh", "d"),
    "see": ("s", "iy"),
    "got": ("g", "ao", "t"),
    "from": ("f", "r", "ah", "m"),
    "wrapped": ("r", "ae", "p", "t"),
    "amy": ("ae", "m", "iy"),
    "thought": ("th", "ao", "t"),
    "to": ("t", "uw"),
    "go": ("g", "ow"),
    "on": ("ao", "n"),
    "before": ("b", "ih", "f", "ao", "r"),
    "she": ("sh", "iy"),
    "had": ("h", "ae", "d"),
    "her": ("h", "er"),
    "ballet": ("b", "ae", "l", "ae"),
    "shoes": ("sh", "uw", "z"),
    "cleaned": ("k", "l", "iy", "n", "d"),
    "off": ("ao", "f"),
    "all": ("ao", "l"),
    "i": ("ay",),
}


@dataclass
class WordSynthesizer:
    """Synthesise word traces from the phoneme inventory.

    Parameters
    ----------
    samples_per_unit:
        Scale factor applied to every phoneme's base length (controls how many
        samples a typical word occupies).
    noise_scale:
        Standard deviation of the additive smooth noise (utterance-to-utterance
        variability).
    duration_jitter:
        Fractional jitter applied to each phoneme's duration (speech-rate
        variability).
    coarticulation:
        Width (in samples) of the smoothing kernel applied across phoneme
        boundaries, so segments blend into each other as real speech does.
    seed:
        Seed for the internal random generator.
    """

    samples_per_unit: float = 1.0
    noise_scale: float = 0.04
    duration_jitter: float = 0.12
    coarticulation: int = 5
    seed: int = 3
    lexicon: dict[str, tuple[str, ...]] = field(default_factory=lambda: dict(LEXICON))

    def __post_init__(self) -> None:
        if self.samples_per_unit <= 0:
            raise ValueError("samples_per_unit must be positive")
        if not 0 <= self.duration_jitter < 1:
            raise ValueError("duration_jitter must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------ phonemes
    def _phoneme_segment(
        self, phoneme: str, rng: np.random.Generator
    ) -> np.ndarray:
        if phoneme not in PHONEME_INVENTORY:
            raise KeyError(f"unknown phoneme {phoneme!r}")
        kind, base_length, amplitude, frequency = PHONEME_INVENTORY[phoneme]
        length = max(
            6,
            int(round(base_length * self.samples_per_unit * (1.0 + rng.uniform(-self.duration_jitter, self.duration_jitter)))),
        )
        t = np.linspace(0.0, 1.0, length)
        amplitude = amplitude * (1.0 + rng.normal(0.0, 0.05))

        # Every waveform below is deterministic apart from the amplitude and
        # duration jitter above: utterances of the same word must be close in
        # z-normalised distance, so the carriers have fixed phase.
        if kind == "stop":
            # Closure (near zero) then a release burst whose ring-down
            # frequency distinguishes the different stops.
            release_at = 0.5
            after = np.clip(t - release_at, 0.0, None)
            burst = amplitude * np.exp(-7.0 * after / (1.0 - release_at)) * np.cos(
                2 * np.pi * frequency * 5.0 * after
            )
            segment = np.where(t < release_at, 0.03 * amplitude * np.sin(np.pi * t / release_at), burst)
        elif kind == "fricative":
            envelope = np.sin(np.pi * t) ** 0.7
            carrier = np.cos(2 * np.pi * frequency * 6.0 * t)
            segment = amplitude * envelope * (0.4 + 0.6 * carrier)
        elif kind == "vowel":
            envelope = np.sin(np.pi * t) ** 0.8
            formant = 0.45 * np.sin(2 * np.pi * frequency * 4.0 * t)
            segment = amplitude * envelope * (1.0 + formant)
        elif kind == "nasal":
            envelope = np.sin(np.pi * t)
            segment = amplitude * 0.7 * envelope * (1.0 + 0.2 * np.sin(2 * np.pi * frequency * 3.0 * t))
        elif kind == "liquid":
            segment = amplitude * (0.25 + 0.75 * np.sin(np.pi * t) ** 1.2) * (
                1.0 + 0.3 * np.sin(2 * np.pi * frequency * 2.0 * t)
            )
        else:  # pragma: no cover - inventory is closed
            raise ValueError(f"unknown phoneme kind {kind!r}")
        return segment

    # ------------------------------------------------------------ words
    def phonemes_for(self, word: str) -> tuple[str, ...]:
        """Phoneme sequence of a word (lower-cased lookup in the lexicon)."""
        key = word.lower()
        if key not in self.lexicon:
            raise KeyError(f"word {word!r} is not in the lexicon")
        return self.lexicon[key]

    def synthesize_word(
        self, word: str, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Synthesise one utterance of ``word`` as a 1-D trace."""
        rng = rng or self._rng
        segments = [self._phoneme_segment(p, rng) for p in self.phonemes_for(word)]
        trace = np.concatenate(segments)
        if self.coarticulation > 1:
            kernel = np.ones(self.coarticulation) / self.coarticulation
            trace = np.convolve(trace, kernel, mode="same")
        trace = trace + rng.normal(0.0, self.noise_scale, size=trace.shape[0])
        return trace

    @staticmethod
    def normalize_token(token: str) -> str:
        """Strip punctuation/possessives so raw sentence text can be used."""
        cleaned = "".join(ch for ch in token.lower() if ch.isalpha())
        if cleaned.endswith("s") and cleaned[:-1] in LEXICON and cleaned not in LEXICON:
            cleaned = cleaned[:-1]
        return cleaned


def make_word_dataset(
    words: tuple[str, ...] = ("cat", "dog"),
    n_per_class: int = 30,
    length: int = 150,
    seed: int = 3,
    znormalize: bool = True,
    synthesizer: WordSynthesizer | None = None,
) -> UCRDataset:
    """Build a UCR-format dataset of word utterances (Fig. 1).

    Each utterance is synthesised at its natural (variable) duration and then
    forced to a common ``length`` -- which is precisely the "forcing into the
    UCR format" step the paper discusses.  The utterance keeps its natural
    time scale and is padded on the right with low-level silence (or
    truncated).  This is the convention of the archive's word datasets and
    the one that makes streaming confounders comparable to training
    exemplars.
    """
    if len(words) < 2:
        raise ValueError("need at least two word classes")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    synth = synthesizer or WordSynthesizer(seed=seed)
    rng = np.random.default_rng(seed)
    series = []
    labels = []
    for word in words:
        for _ in range(n_per_class):
            trace = synth.synthesize_word(word, rng=rng)
            if trace.shape[0] >= length:
                fixed = trace[:length]
            else:
                padding = rng.normal(0.0, synth.noise_scale * 0.5, size=length - trace.shape[0])
                fixed = np.concatenate([trace, padding])
            series.append(fixed)
            labels.append(word)
    dataset = UCRDataset(
        name="SyntheticSpokenWords",
        series=np.asarray(series),
        labels=np.asarray(labels),
        znormalized=False,
        metadata={
            "words": list(words),
            "n_per_class": n_per_class,
            "length": length,
        },
    )
    return dataset.z_normalized() if znormalize else dataset
