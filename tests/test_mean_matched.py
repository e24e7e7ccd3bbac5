"""The mean-matched regime: planted features that only the clustering can find.

Each planted feature has the noise features' mean (2) and variance (4/3), so
no ranking by magnitude separates them; only their spread between clusters
does. From the true labels as its start, the model finds them: U reads V.
"""

import numpy as np
import pytest

from mvufs import evaluation, solver
from mvufs.datamodel import MultiViewDataset, simulate_missing
from mvufs.selection import score_features, select_top

LEVELS = (-1.5, -0.5, 0.5, 1.5)  # one per cluster: mean 0, mean square 1.25


def mean_matched(n, sep, seed, n_views=3, features=50, planted=5):
    """A dataset of 4 balanced clusters, masked at ratio 0.3, and per view
    the sorted indices of its planted features.

    Noise rows are uniform(0, 4). Planted row f is 2 + sep * level[label],
    with a permutation of LEVELS drawn per row, plus uniform(-a, a) noise,
    a = sqrt(3 (4/3 - 1.25 sep^2)), clipped at 0.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % len(LEVELS))
    a = np.sqrt(3.0 * (4.0 / 3.0 - 1.25 * sep ** 2))
    views, planted_rows = [], []
    for _ in range(n_views):
        x = rng.uniform(0.0, 4.0, size=(features, n))
        rows = np.sort(rng.choice(features, planted, replace=False))
        for f in rows:
            level = rng.permutation(LEVELS)
            x[f] = np.clip(2.0 + sep * level[labels] + rng.uniform(-a, a, n), 0.0, None)
        views.append(x)
        planted_rows.append(rows)
    complete = MultiViewDataset(tuple(views), np.ones((n, n_views), dtype=int), labels)
    return simulate_missing(complete, 0.3, seed), planted_rows


def test_planted_features_match_the_noise_in_mean_and_variance():
    ds, planted_rows = mean_matched(4000, 0.9, 11)
    for x, rows in zip(ds.views, planted_rows):
        noise = np.delete(x, rows, axis=0)
        for part in (x[rows], noise):
            assert np.all(np.abs(part.mean(axis=1) - 2.0) < 0.1)
            assert np.all(np.abs(part.var(axis=1) - 4.0 / 3.0) < 0.15)


@pytest.mark.parametrize("seed", [7000, 7001, 7002, 7003])
def test_true_labels_find_the_planted_features(monkeypatch, seed):
    ds, planted_rows = mean_matched(400, 0.9, seed)
    # the start's k-means gives the true labels; nothing else calls it here
    monkeypatch.setattr(evaluation, "kmeans", lambda data, c, seeds: (ds.labels[None],))
    hyper = solver.Hyperparameters(lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=4,
                                   max_iter=30, seed=7)
    selected = select_top(score_features(solver.fit(ds, hyper).state.u), count=15)
    planted = {(v, int(f)) for v, rows in enumerate(planted_rows) for f in rows}
    assert len(planted & set(selected)) >= 14
