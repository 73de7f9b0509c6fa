"""Dataset substrates.

The paper's evidence is drawn from GunPoint, spoken-word MFCC traces, ECG
telemetry, chicken-accelerometer behaviour, EOG, insect EPG and long random
walks.  None of those archives are available offline, so each is replaced by a
parameterised synthetic generator that preserves the structural property the
paper's argument relies on.

All generators are deterministic given a seed and produce either

* a :class:`~repro.data.ucr_format.UCRDataset` -- fixed-length, aligned,
  optionally z-normalised exemplars (the "UCR format" the paper critiques), or
* a long 1-D stream plus ground-truth event annotations (the format a
  real-world deployment actually sees), built with
  :class:`~repro.data.stream.StreamComposer`.

:mod:`repro.data.shards` stores a dataset on disk as fixed-size npy shards
of series and labels behind a hashed manifest, for archive-scale sweeps that
must not hold every dataset in memory.
"""

from repro.data.ucr_format import UCRDataset, train_test_split
from repro.data.gunpoint import GunPointGenerator, make_gunpoint_dataset
from repro.data.words import WordSynthesizer, make_word_dataset, LEXICON
from repro.data.ecg import ECGGenerator, make_ecg_beat_dataset
from repro.data.chicken import ChickenBehaviorSimulator, dustbathing_template
from repro.data.eog import generate_eog
from repro.data.epg import generate_epg
from repro.data.random_walk import smoothed_random_walk
from repro.data.stream import ComposedStream, GroundTruthEvent, StreamComposer
from repro.data.denormalize import denormalize_dataset, denormalize_series
from repro.data.ucr_like import (
    CBFGenerator,
    TraceLikeGenerator,
    make_cbf_dataset,
    make_trace_dataset,
)
from repro.data.shards import (
    ShardedDataset,
    ShardIntegrityError,
    synthesize_sharded_archive,
    write_shards,
)

__all__ = [
    "UCRDataset",
    "train_test_split",
    "GunPointGenerator",
    "make_gunpoint_dataset",
    "WordSynthesizer",
    "make_word_dataset",
    "LEXICON",
    "ECGGenerator",
    "make_ecg_beat_dataset",
    "ChickenBehaviorSimulator",
    "dustbathing_template",
    "generate_eog",
    "generate_epg",
    "smoothed_random_walk",
    "StreamComposer",
    "ComposedStream",
    "GroundTruthEvent",
    "denormalize_dataset",
    "denormalize_series",
    "CBFGenerator",
    "TraceLikeGenerator",
    "make_cbf_dataset",
    "make_trace_dataset",
    "ShardedDataset",
    "ShardIntegrityError",
    "synthesize_sharded_archive",
    "write_shards",
]
