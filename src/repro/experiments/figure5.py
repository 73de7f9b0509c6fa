"""Figure 5: time-series homophones exist.

    "We randomly selected two examples from the GunPoint dataset, and for
    each of them, we searched for its three nearest neighbors ... within
    three datasets that do not have gestures.  Note that in every case, there
    is non-gesture data that is much closer to one member of the target
    class, than the other example from the target class."

The experiment regenerates the three non-gesture corpora (eye movement,
smoothed random walk, insect EPG), runs the nearest-neighbour searches and
reports, for each query, the in-class reference distance and the distance of
the closest subsequence of each corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.homophone_analysis import HomophoneAnalysisResult, homophone_analysis
from repro.data.eog import generate_eog
from repro.data.epg import generate_epg
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import smoothed_random_walk
from repro.data.ucr_format import UCRDataset

__all__ = ["Figure5Prepared", "Figure5Result", "prepare", "compute", "metrics"]


@dataclass(frozen=True)
class Figure5Result:
    """Wrapper around the homophone analysis with figure-style reporting."""

    analysis: HomophoneAnalysisResult

    def to_text(self) -> str:
        lines = [
            "Figure 5 -- nearest non-gesture neighbours of GunPoint exemplars",
            f"  corpora searched (samples): {self.analysis.corpora_sizes}",
            f"  queries with a closer non-gesture neighbour than their in-class "
            f"reference: {self.analysis.fraction_with_closer_homophone:.0%}",
            "",
        ]
        for query in self.analysis.queries:
            lines.append(
                f"  query #{query.query_index} (class '{query.query_label}'): "
                f"in-class reference distance {query.in_class_distance:.2f}"
            )
            for corpus, neighbors in query.corpus_neighbors.items():
                nearest = neighbors[0][1] if neighbors else float("nan")
                lines.append(f"    nearest in {corpus:<22s}: {nearest:.2f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure5Prepared:
    """Prepared inputs: the query dataset and the three non-gesture corpora."""

    test: UCRDataset
    corpora: dict[str, np.ndarray]


def prepare(
    eog_points: int = 216_000,
    random_walk_points: int = 2 ** 20,
    epg_points: int = 360_000,
    seed: int = 5,
) -> Figure5Prepared:
    """Synthesise the GunPoint queries and the three searched corpora.

    Parameters
    ----------
    eog_points:
        Length of the eye-movement corpus (216 000 = one hour at 60 Hz, the
        paper's "one hour of eye movement data").
    random_walk_points:
        Length of the smoothed random walk (the paper uses 2^24; the default
        here is 2^20, which preserves the phenomenon at laptop scale -- the
        density of near matches only increases with length).
    epg_points:
        Length of the insect-behaviour corpus (the paper uses eight hours;
        the default is one hour at 100 Hz).
    seed:
        Seed controlling corpus generation and query selection.
    """
    _, test = make_gunpoint_dataset(seed=7)
    corpora = {
        "EOG (eye movement)": generate_eog(eog_points, seed=seed + 1),
        "smoothed random walk": smoothed_random_walk(random_walk_points, seed=seed + 2),
        "EPG (insect behaviour)": generate_epg(epg_points, seed=seed + 3),
    }
    return Figure5Prepared(test=test, corpora=corpora)


def compute(
    prepared: Figure5Prepared,
    n_queries: int = 2,
    k: int = 3,
    seed: int = 5,
) -> Figure5Result:
    """Run the nearest-neighbour homophone search over the corpora.

    Parameters
    ----------
    n_queries:
        Number of random GunPoint exemplars to use as queries (the paper uses
        two).
    k:
        Nearest neighbours per corpus (the paper shows three).
    seed:
        As for :func:`prepare`.
    """
    analysis = homophone_analysis(
        prepared.test, prepared.corpora, n_queries=n_queries, k=k, seed=seed
    )
    return Figure5Result(analysis=analysis)


def metrics(result: Figure5Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "fraction_with_closer_homophone": result.analysis.fraction_with_closer_homophone,
        "n_queries": len(result.analysis.queries),
        "corpora_sizes": dict(result.analysis.corpora_sizes),
    }
