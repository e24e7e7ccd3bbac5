"""Per-view similarity graphs under missingness and their closed-form repair.

Every similarity matrix S is N x N with zero diagonal, entries in [0, 1] and
column sums equal to 1. The cross-view coefficient matrix R is l x l with
zero diagonal and off-diagonal column sums equal to 1.
"""

from __future__ import annotations

import numpy as np

from .simplex import project_offdiag_columns
# Unused here but kept bound: perfbench/tracing.py wraps this name in this module.
from .simplex import project_offdiag_simplex  # noqa: F401

COLSUM_TOL = 1e-8
# Entries per row block when the S-update target is accumulated: a block of
# scratch (256 KiB) stays in cache, so each graph is streamed from memory once.
BLOCK_ENTRIES = 32768


def check_similarity(s: np.ndarray, tol: float = COLSUM_TOL) -> None:
    if np.any(s < -tol) or np.any(s > 1 + tol):
        raise ValueError("similarity entries outside [0, 1]")
    if np.any(np.abs(np.diag(s)) > tol):
        raise ValueError("similarity diagonal is not zero")
    if np.any(np.abs(s.sum(axis=0) - 1.0) > tol):
        raise ValueError("similarity columns do not sum to 1")


def check_coefficients(r: np.ndarray, tol: float = COLSUM_TOL) -> None:
    if np.any(r < -tol) or np.any(r > 1 + tol):
        raise ValueError("coefficient entries outside [0, 1]")
    if np.any(np.abs(np.diag(r)) > tol):
        raise ValueError("coefficient diagonal is not zero")
    if np.any(np.abs(r.sum(axis=0) - 1.0) > tol):
        raise ValueError("coefficient columns do not sum to 1")


def pairwise_sq_dists(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of v (symmetric, zero diagonal)."""
    sq = np.sum(v * v, axis=1)
    h = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    np.maximum(h, 0.0, out=h)
    h = 0.5 * (h + h.T)
    np.fill_diagonal(h, 0.0)
    return h


def build_initial_similarity(
    x: np.ndarray,
    presence: np.ndarray,
    k: int = 5,
    bandwidth="auto",
) -> np.ndarray:
    """Heat-kernel kNN similarity among present instances, column-normalized.

    Edges are kept when either endpoint lists the other among its k nearest
    present neighbors. Absent instances get uniform 1/(N-1) similarity to all
    others. With bandwidth="auto", sigma is the mean kth-neighbor distance
    among present instances (falling back to 1 when that mean is zero).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    present = np.flatnonzero(np.asarray(presence) == 1)
    m = present.size
    if k >= m:
        raise ValueError(f"k={k} must be smaller than the {m} present instances")
    cols = x[:, present]
    d2 = pairwise_sq_dists(cols.T)
    order = np.argsort(d2, axis=1)
    knn = order[:, 1 : k + 1]  # skip self
    if bandwidth == "auto":
        kth = np.sqrt(d2[np.arange(m), order[:, k]])
        sigma = float(kth.mean())
        if sigma <= 0.0:
            sigma = 1.0
    else:
        sigma = float(bandwidth)
        if sigma <= 0.0:
            raise ValueError("bandwidth must be positive")
    kernel = np.exp(-d2 / (2.0 * sigma * sigma))
    mask = np.zeros((m, m), dtype=bool)
    rows = np.repeat(np.arange(m), k)
    mask[rows, knn.ravel()] = True
    mask |= mask.T
    kernel = np.where(mask, kernel, 0.0)
    np.fill_diagonal(kernel, 0.0)

    s = np.zeros((n, n))
    s[np.ix_(present, present)] = kernel
    absent = np.setdiff1d(np.arange(n), present)
    if absent.size:
        s[absent, :] = 1.0 / (n - 1)
        s[:, absent] = 1.0 / (n - 1)
        np.fill_diagonal(s, 0.0)
    colsum = s.sum(axis=0)
    colsum[colsum == 0.0] = 1.0
    s = s / colsum
    np.clip(s, 0.0, 1.0, out=s)
    return s


def laplacian(s: np.ndarray):
    """Graph Laplacian L = D_s - S with D_s the diagonal of row sums of S."""
    d = np.diag(s.sum(axis=1))
    return d - s, d


def update_similarity(
    v: int,
    graphs,
    r: np.ndarray,
    alpha: np.ndarray,
    gamma: float,
    h: np.ndarray,
) -> np.ndarray:
    """Optimal similarity matrix of view v given all other variables.

    The columns of the subproblem decouple; each column is the Euclidean
    projection of the corresponding column of the target matrix P onto the
    simplex with a pinned zero diagonal entry, which is the exact column
    minimizer under the graph constraints. P is a linear combination of the
    graphs and h: P = (sum_{i != v} w_i S_i - ag_v h / 4) / denom with
    w_i = ag_v r_iv + ag_i r_vi - sum_{k not in {v, i}} ag_k r_vk r_ik.

    h is the matrix of squared distances between the rows of V, or any matrix
    that differs from it by a constant per column: such a constant shifts a
    column of P uniformly, which the projection ignores.
    """
    l = len(graphs)
    ag = np.asarray(alpha, dtype=float) ** gamma
    others = [k for k in range(l) if k != v]
    denom = sum(ag[k] * r[v, k] ** 2 for k in others) + ag[v]
    if denom <= 0.0:
        raise ValueError("vanishing alpha and coefficients: corrupted state")
    terms = []
    for i in others:
        cross = sum(ag[k] * r[v, k] * r[i, k] for k in others if k != i)
        terms.append((graphs[i], (ag[v] * r[i, v] + ag[i] * r[v, i] - cross) / denom))
    p = np.multiply(h, -0.25 * ag[v] / denom)
    n = p.shape[0]
    rows = max(1, BLOCK_ENTRIES // n)
    scratch = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        block = p[start : start + rows]
        tmp = scratch[: len(block)]
        for graph, w in terms:
            block += np.multiply(graph[start : start + rows], w, out=tmp)
    return project_offdiag_columns(p, out=p)
