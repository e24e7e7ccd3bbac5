"""Euclidean projections onto the probability simplex."""

from __future__ import annotations

import numpy as np


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Project y onto {x : x >= 0, sum(x) = 1} (sort-based exact algorithm)."""
    y = np.asarray(y, dtype=float)
    m = y.size
    if m == 0:
        raise ValueError("cannot project an empty vector")
    s = np.sort(y)[::-1]
    cumsum = np.cumsum(s)
    rho = np.nonzero(s * np.arange(1, m + 1) > (cumsum - 1))[0][-1]
    theta = (cumsum[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def project_offdiag_simplex(y: np.ndarray, excluded: int) -> np.ndarray:
    """Project y onto the simplex with coordinate `excluded` pinned to zero.

    The remaining coordinates are the Euclidean-nearest nonnegative vector
    summing to one.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two coordinates")
    out = np.zeros_like(y)
    free = np.arange(y.size) != excluded
    out[free] = project_simplex(y[free])
    return out


def project_offdiag_columns(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Project every column c of the square matrix p as project_offdiag_simplex(p[:, c], c).

    Batched threshold search (Michelot 1986): a column's support starts as its
    off-diagonal coordinates, the threshold is (support sum - 1) / |support|,
    and coordinates at or below it leave the support until none do. The
    support only shrinks, so the search ends within N passes even when
    rounding ties an entry to its threshold. Non-finite entries raise
    ValueError. The result goes to `out` when given, which may be p itself.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.ndim != 2 or p.shape[1] != n or n < 2:
        raise ValueError("need a square matrix of order at least two")
    # The first support is every off-diagonal entry, so plain column sums
    # give its threshold; any non-finite entry makes that threshold non-finite.
    with np.errstate(invalid="ignore", over="ignore"):
        theta = (p.sum(axis=0) - np.diagonal(p) - 1.0) / (n - 1)
    if not np.all(np.isfinite(theta)):
        raise ValueError("projection needs finite entries")
    support = p > theta
    np.fill_diagonal(support, False)
    count = np.full(n, n - 1)
    while True:
        shrunk = support.sum(axis=0, dtype=np.int32)  # twice as fast as count_nonzero
        if not shrunk.all():
            raise ValueError("projection lost its support: huge entries")
        if np.array_equal(shrunk, count):
            break
        count = shrunk
        # einsum sums over an irregular mask several times faster than where=
        theta = (np.einsum("ij,ij->j", p, support) - 1.0) / count
        support &= p > theta
    out = np.subtract(p, theta, out=out)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out
