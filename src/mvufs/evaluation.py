"""Downstream clustering on selected features plus ACC/NMI with repeat averaging.

The protocol runs k-means `repeats` times on the selected-feature matrix.
Each repeat is seeded (k-means++) from its own generator, exactly as a run
on its own would be; Lloyd's iterations then run for all repeats at once on
one stacked distance array, and a repeat leaves the batch when its
assignment stops changing. Each repeat's contingency table is one bincount,
shared by its ACC and NMI. Given a `reports` dict, the protocol remembers
each report under the exact input of its clustering, so a grid whose cells
select the same features clusters them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import MultiViewDataset, present_means
# Unused here but kept bound: perfbench/tracing.py wraps this name in this module.
from .datamodel import impute_missing  # noqa: F401

# Bound on the entries (repeats x instances x features) that the k-means
# repeats of one protocol chunk stack up: about 2 MB per stacked array.
CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ClusteringRun:
    assignments: np.ndarray
    inertia: float
    seed: int


@dataclass(frozen=True)
class EvaluationReport:
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float
    repeats: int


def _kmeanspp_centers(points: np.ndarray, c: int, rngs) -> np.ndarray:
    """k-means++ seeds, one (c, features) set per generator in `rngs`.

    Each generator makes the same draws, in the same order, as it would
    seeding alone; only the distance work is shared across the repeats.
    """
    n = points.shape[0]
    centers = np.empty((len(rngs), c, points.shape[1]))
    centers[:, 0] = points[[rng.integers(n) for rng in rngs]]
    with np.errstate(over="ignore"):
        diff = points - centers[:, :1]  # reused: one (repeats, N, features) buffer
        d2 = np.square(diff, out=diff).sum(axis=2)
        for j in range(1, c):
            totals = d2.sum(axis=1)
            if not np.isfinite(totals).all():
                raise ValueError(
                    "k-means++ seeding overflowed: the squared distances between "
                    "instances exceed the floating-point range; rescale the data"
                )
            centers[:, j] = points[[
                rng.integers(n) if total <= 0 else rng.choice(n, p=row / total)
                for rng, row, total in zip(rngs, d2, totals)
            ]]
            np.subtract(points, centers[:, j, None], out=diff)
            d2 = np.minimum(d2, np.square(diff, out=diff).sum(axis=2))
    return centers


def _reseed_empty(d2: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> None:
    """Fill each empty cluster, in index order, with the point farthest from
    its centre among those whose cluster keeps another member; updates
    `assign` and `counts` in place. A moved point is alone in its new
    cluster, so no point moves twice and no cluster is emptied.
    """
    far = d2[np.arange(assign.size), assign]
    for j in np.flatnonzero(counts == 0):
        worst = int(np.argmax(np.where(counts[assign] > 1, far, -np.inf)))
        counts[assign[worst]] -= 1
        counts[j] = 1
        assign[worst] = j


def _kmeans_repeats(data: np.ndarray, c: int, seeds, max_iter: int = 300):
    """Lloyd's iterations from k-means++ seeding, one repeat per seed, run
    side by side; columns of data are instances.

    Returns the (repeats, N) assignments, the (repeats, c, features) centres
    and each repeat's iteration count. Each repeat stops when its assignment
    repeats and then leaves the active set. A centre is the sum of its
    members in index order (one flat bincount over every active repeat,
    cluster and feature) divided by their count; with two or more features
    that is bitwise numpy's mean over rows (with one, numpy sums pairwise),
    so each repeat's result equals a run on its own.
    """
    points = np.asarray(data, dtype=float).T  # instances x features
    n, f = points.shape
    if c > n:
        raise ValueError(f"cannot form {c} clusters from {n} instances")
    if not np.isfinite(points).all():
        raise ValueError("k-means input holds non-finite values (NaN or inf)")
    if max_iter < 1:
        raise ValueError(f"max_iter={max_iter}: k-means needs at least one iteration")
    centers = _kmeanspp_centers(points, c, [np.random.default_rng(s) for s in seeds])
    assign = np.full((len(seeds), n), -1)
    iterations = np.zeros(len(seeds), dtype=int)
    active = np.arange(len(seeds))
    sq = (points * points).sum(axis=1)[:, None]
    # the bincount's weights and keys; the active repeats use a prefix of each
    tiled = np.tile(points.ravel(), len(seeds))
    keys = np.empty(tiled.size, dtype=np.intp)
    for _ in range(max_iter):
        if active.size == 0:
            break
        iterations[active] += 1
        cen = centers[active]
        d2 = sq - 2.0 * points @ cen.transpose(0, 2, 1) + (cen * cen).sum(axis=2)[:, None, :]
        new = np.argmin(d2, axis=2)
        slots = np.arange(active.size)[:, None] * c
        counts = np.bincount((slots + new).ravel(), minlength=active.size * c).reshape(-1, c)
        if not counts.all():
            for a in np.flatnonzero((counts == 0).any(axis=1)):
                _reseed_empty(d2[a], new[a], counts[a])
        # a repeat whose assignment repeats has converged: its centres are
        # already the means of these members
        moved = (new != assign[active]).any(axis=1)
        assign[active] = new
        active, new, counts = active[moved], new[moved], counts[moved]
        size = active.size * n * f
        np.add(((slots[:active.size] + new) * f)[:, :, None], np.arange(f),
               out=keys[:size].reshape(-1, n, f))
        sums = np.bincount(keys[:size], tiled[:size], minlength=active.size * c * f)
        centers[active] = sums.reshape(-1, c, f) / counts[:, :, None]
    return assign, centers, iterations


def kmeans(data: np.ndarray, c: int, seed: int, max_iter: int = 300) -> ClusteringRun:
    """Lloyd's iterations from k-means++ seeding; columns of data are instances.

    Empty clusters are re-seeded: each takes the point farthest from its
    centre among those whose cluster keeps another member.
    """
    points = np.asarray(data, dtype=float).T
    assign, centers, _ = _kmeans_repeats(data, c, [seed], max_iter)
    inertia = float(np.sum((points - centers[0][assign[0]]) ** 2))
    return ClusteringRun(assignments=assign[0], inertia=inertia, seed=seed)


def _table(ti: np.ndarray, n_true: int, assign: np.ndarray, c: int) -> np.ndarray:
    """Contingency table of true-label indices against cluster ids 0..c-1,
    keeping only the clusters that occur."""
    table = np.bincount(ti * c + assign, minlength=n_true * c).reshape(n_true, c)
    return table[:, table.any(axis=0)]


def _contingency(y_true, y_pred):
    true_ids, ti = np.unique(y_true, return_inverse=True)
    pred_ids, pi = np.unique(y_pred, return_inverse=True)
    return _table(ti, true_ids.size, pi, pred_ids.size)


def _check_pair(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must have equal length")
    return y_true, y_pred


def _acc_from_table(table: np.ndarray, n: int) -> float:
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / n


def _nmi_from_table(table: np.ndarray, n: int) -> float:
    joint = table.astype(float) / n
    pt = joint.sum(axis=1)
    pp = joint.sum(axis=0)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pt, pp)[nz])))
    h_true = -float(np.sum(pt * np.log(pt, out=np.zeros_like(pt), where=pt > 0)))
    h_pred = -float(np.sum(pp * np.log(pp, out=np.zeros_like(pp), where=pp > 0)))
    h_max = max(h_true, h_pred)
    if h_max <= 0.0:
        return 1.0 if pt.size == pp.size == 1 else 0.0
    return max(0.0, min(1.0, mi / h_max))


def acc(y_true, y_pred) -> float:
    """Clustering accuracy with the optimal cluster-to-label map (Kuhn-Munkres)."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return _acc_from_table(_contingency(y_true, y_pred), y_true.size)


def nmi(y_true, y_pred) -> float:
    """Mutual information normalized by the larger of the two entropies.

    When both entropies vanish the value is 1 for identical partitions and 0
    otherwise.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    return _nmi_from_table(_contingency(y_true, y_pred), y_true.size)


def selected_feature_matrix(dataset: MultiViewDataset, selected) -> np.ndarray:
    """Stack the selected rows of the views into one h x N matrix, each
    absent entry filled with its feature's mean over the present instances
    (impute_missing's fill, for the selected rows only)."""
    if len(selected) == 0:
        raise ValueError("no features were selected: nothing to cluster")
    rows = np.array([dataset.views[v][f] for v, f in selected])
    for i, (v, _) in enumerate(selected):
        present = dataset.presence[:, v] == 1
        if not present.all():
            rows[i, ~present] = present_means(rows[i : i + 1], present)[0]
    return rows


def run_protocol(
    dataset: MultiViewDataset,
    selected,
    c: int,
    repeats: int = 30,
    base_seed: int = 0,
    reports: dict | None = None,
) -> EvaluationReport:
    """Cluster the selected-feature matrix `repeats` times and report the
    sample mean and standard deviation of ACC and NMI.

    Repeat i is k-means seeded from its own generator, base_seed + i. The
    repeats run side by side, in chunks of at most CHUNK_ENTRIES / (h N)
    repeats so that the stacked work stays bounded; the result is the same
    as `repeats` separate `kmeans` calls.

    Given `reports`, a report is stored there under the exact input of the
    clustering (the selected-feature matrix, the labels, c, repeats and
    base_seed), and a later call with the same input returns the stored
    report instead of clustering again.
    """
    if dataset.labels is None:
        raise ValueError("evaluation needs ground-truth labels")
    if repeats < 1:
        raise ValueError(f"repeats={repeats}: need at least one k-means repeat")
    data = selected_feature_matrix(dataset, selected)
    if reports is not None:
        key = (data.shape, data.tobytes(), dataset.labels.tobytes(), c, repeats, base_seed)
        if key in reports:
            return reports[key]
    seeds = range(base_seed, base_seed + repeats)
    step = max(1, CHUNK_ENTRIES // data.size)
    assignments = np.vstack([
        _kmeans_repeats(data, c, seeds[i:i + step])[0] for i in range(0, repeats, step)
    ])
    true_ids, ti = np.unique(dataset.labels, return_inverse=True)
    tables = [_table(ti, true_ids.size, assign, c) for assign in assignments]
    n = ti.size
    accs = np.array([_acc_from_table(t, n) for t in tables])
    nmis = np.array([_nmi_from_table(t, n) for t in tables])
    std = lambda a: float(a.std(ddof=1)) if repeats > 1 else 0.0
    report = EvaluationReport(
        acc_mean=float(accs.mean()),
        acc_std=std(accs),
        nmi_mean=float(nmis.mean()),
        nmi_std=std(nmis),
        repeats=repeats,
    )
    if reports is not None:
        reports[key] = report
    return report
