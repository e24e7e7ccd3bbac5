"""Turn learned factor matrices into a global feature ranking and a subset."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureRanking:
    """(view index, feature index, l2 row-norm score), sorted descending by
    score with ties broken by (view, feature) ascending."""

    entries: tuple


def score_features(u_list) -> FeatureRanking:
    rows = []
    for v, u in enumerate(u_list):
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValueError(f"factor matrix of view {v} has non-finite entries")
        norms = np.linalg.norm(u, axis=1)
        rows.extend((v, f, float(norms[f])) for f in range(u.shape[0]))
    rows.sort(key=lambda e: (-e[2], e[0], e[1]))
    return FeatureRanking(tuple(rows))


def select_top(ranking: FeatureRanking, ratio=None, count=None):
    """Top-h entries of the global ranking; h = ceil(ratio * total) when a
    ratio is given."""
    total = len(ranking.entries)
    if (ratio is None) == (count is None):
        raise ValueError("give exactly one of ratio or count")
    h = int(math.ceil(ratio * total)) if ratio is not None else int(count)
    if not (0 < h <= total):
        raise ValueError(f"selection size {h} outside (0, {total}]")
    return [(v, f) for v, f, _ in ranking.entries[:h]]


def save_selection(ranking: FeatureRanking, selected, path: str) -> None:
    """Lines of 'view_index feature_index score' for the selected features."""
    scores = {(v, f): s for v, f, s in ranking.entries}
    with open(path, "w") as fh:
        for v, f in selected:
            fh.write(f"{v} {f} {scores[(v, f)]:.12g}\n")
