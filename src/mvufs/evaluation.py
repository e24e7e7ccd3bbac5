"""Downstream clustering on selected features plus ACC/NMI with repeat averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import MultiViewDataset, impute_missing


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
    config: dict = field(default_factory=dict)


def _kmeanspp_centers(points: np.ndarray, c: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def kmeans(data: np.ndarray, c: int, seed: int, max_iter: int = 300) -> ClusteringRun:
    """Lloyd's iterations from k-means++ seeding; columns of data are instances.

    Empty clusters are re-seeded at the point farthest from its centroid.
    """
    points = np.asarray(data, dtype=float).T  # instances x features
    n = points.shape[0]
    if c > n:
        raise ValueError(f"cannot form {c} clusters from {n} instances")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(points, c, rng)
    assign = np.full(n, -1)
    for _ in range(max_iter):
        d2 = (
            np.sum(points * points, axis=1)[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        for j in range(c):
            members = new_assign == j
            if not np.any(members):
                worst = int(np.argmax(d2[np.arange(n), new_assign]))
                centers[j] = points[worst]
                new_assign[worst] = j
                members = new_assign == j
            centers[j] = points[members].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(np.sum((points - centers[assign]) ** 2))
    return ClusteringRun(assignments=assign, inertia=inertia, seed=seed)


def _contingency(y_true, y_pred):
    true_ids, ti = np.unique(y_true, return_inverse=True)
    pred_ids, pi = np.unique(y_pred, return_inverse=True)
    table = np.zeros((true_ids.size, pred_ids.size), dtype=int)
    np.add.at(table, (ti, pi), 1)
    return table


def acc(y_true, y_pred) -> float:
    """Clustering accuracy with the optimal cluster-to-label map (Kuhn-Munkres)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must have equal length")
    table = _contingency(y_true, y_pred)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / y_true.size


def nmi(y_true, y_pred) -> float:
    """Mutual information normalized by the larger of the two entropies.

    When both entropies vanish the value is 1 for identical partitions and 0
    otherwise.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must have equal length")
    n = y_true.size
    table = _contingency(y_true, y_pred).astype(float)
    joint = table / n
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


def selected_feature_matrix(dataset: MultiViewDataset, selected) -> np.ndarray:
    """Stack the selected rows of the imputed views into one h x N matrix."""
    imputed = impute_missing(dataset)
    rows = [imputed[v][f] for v, f in selected]
    return np.vstack(rows)


def run_protocol(
    dataset: MultiViewDataset,
    selected,
    c: int,
    repeats: int = 30,
    base_seed: int = 0,
    config: dict | None = None,
) -> EvaluationReport:
    """Cluster the selected-feature matrix `repeats` times and report the
    sample mean and standard deviation of ACC and NMI."""
    if dataset.labels is None:
        raise ValueError("evaluation needs ground-truth labels")
    data = selected_feature_matrix(dataset, selected)
    accs, nmis = [], []
    for i in range(repeats):
        run = kmeans(data, c, seed=base_seed + i)
        accs.append(acc(dataset.labels, run.assignments))
        nmis.append(nmi(dataset.labels, run.assignments))
    accs = np.asarray(accs)
    nmis = np.asarray(nmis)
    std = lambda a: float(a.std(ddof=1)) if repeats > 1 else 0.0
    return EvaluationReport(
        acc_mean=float(accs.mean()),
        acc_std=std(accs),
        nmi_mean=float(nmis.mean()),
        nmi_std=std(nmis),
        repeats=repeats,
        config=dict(config or {}),
    )
