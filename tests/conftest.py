"""Shared fixtures: small, fast synthetic datasets reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gunpoint import GunPointGenerator
from repro.data.ucr_format import UCRDataset
from repro.data.words import make_word_dataset


def _small_gunpoint(n_train_per_class: int, n_test_per_class: int, length: int, znormalize: bool):
    generator = GunPointGenerator(length=length, seed=7)
    full = generator.generate(n_per_class=n_train_per_class + n_test_per_class, seed=7)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in full.classes:
        cls_idx = np.flatnonzero(full.labels == cls)
        train_idx.extend(cls_idx[:n_train_per_class].tolist())
        test_idx.extend(cls_idx[n_train_per_class:].tolist())
    train = full.subset(train_idx)
    test = full.subset(test_idx)
    if znormalize:
        return train.z_normalized(), test.z_normalized()
    return train, test


@pytest.fixture(scope="session")
def gunpoint_small() -> tuple[UCRDataset, UCRDataset]:
    """A small z-normalised GunPoint-like split (10+10 train, 15+15 test, length 60)."""
    return _small_gunpoint(10, 15, 60, znormalize=True)


@pytest.fixture(scope="session")
def gunpoint_small_raw() -> tuple[UCRDataset, UCRDataset]:
    """The same split in raw (not z-normalised) units."""
    return _small_gunpoint(10, 15, 60, znormalize=False)


@pytest.fixture(scope="session")
def gunpoint_medium() -> tuple[UCRDataset, UCRDataset]:
    """A medium z-normalised split (20+20 train, 30+30 test, length 150)."""
    return _small_gunpoint(20, 30, 150, znormalize=True)


@pytest.fixture(scope="session")
def gunpoint_medium_raw() -> tuple[UCRDataset, UCRDataset]:
    """The same medium split in raw (not z-normalised) units."""
    return _small_gunpoint(20, 30, 150, znormalize=False)


@pytest.fixture(scope="session")
def word_dataset_small() -> UCRDataset:
    """A small cat/dog word dataset in the UCR (z-normalised, padded) format."""
    return make_word_dataset(n_per_class=12, length=150, seed=3)


@pytest.fixture(scope="session")
def tiny_two_class() -> tuple[np.ndarray, np.ndarray]:
    """A trivially separable two-class toy problem.

    Both classes are flat with a localised bump early in the series (upward
    for class "up", downward for class "down"), so every family of early
    classifier in the package -- instance based, shapelet based, Gaussian
    based -- can solve it, and can solve it from an early prefix.
    """
    rng = np.random.default_rng(0)
    length = 40
    t = np.arange(length, dtype=float)
    bump = np.exp(-0.5 * ((t - 12.0) / 3.0) ** 2)

    def noisy(sign: float) -> np.ndarray:
        return sign * bump + 0.05 * rng.standard_normal(length)

    up = np.stack([noisy(+1.0) for _ in range(10)])
    down = np.stack([noisy(-1.0) for _ in range(10)])
    series = np.vstack([up, down])
    labels = np.asarray(["up"] * 10 + ["down"] * 10)
    return series, labels
