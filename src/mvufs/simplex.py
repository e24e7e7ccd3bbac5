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


def project_offdiag_columns(
    p: np.ndarray,
    out: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
    extra: tuple | None = None,
) -> np.ndarray:
    """Project every column c of the square matrix p as project_offdiag_simplex(p[:, c], c).

    Batched threshold search (Michelot 1986; Condat 2016). The threshold of a
    set A of a column's off-diagonal coordinates, (sum_A - 1) / |A|, is a
    Newton step on the threshold equation from any threshold whose support is
    A, and it lands at or below the exact threshold; so the coordinates above
    it hold the optimal support. Coordinates at or below the threshold then
    leave the support until none do. The support only shrinks, so the search
    ends within N passes even when rounding ties an entry to its threshold.

    A starts as every off-diagonal coordinate. `thresholds`, when given,
    holds one guess per column and receives the final thresholds: A starts
    as the coordinates above the guess, and with the previous sweep's
    thresholds the search usually ends after one check. A NaN guess, or one
    above every off-diagonal coordinate, starts its column as without a
    guess. The output depends only on the support the search ends at.
    Non-finite entries raise ValueError. The result goes to `out` when given,
    which may be p itself.

    `extra`, when given, is a pair (cols, values) of further coordinates
    that p does not hold: values[e] is one more coordinate of column
    cols[e]. They take part in the search like the entries of p, and
    `values` is overwritten with their projections.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.ndim != 2 or p.shape[1] != n or n < 2:
        raise ValueError("need a square matrix of order at least two")
    if thresholds is None:
        thresholds = np.full(n, np.nan)
    cols, values = extra if extra is not None else (None, None)

    def size(support, on):
        count = support.sum(axis=0, dtype=np.int32)  # twice as fast as count_nonzero
        if extra is not None:
            count += np.bincount(cols[on], minlength=n)
        return count

    def threshold(support, on, count):
        # einsum sums over an irregular mask several times faster than where=,
        # and an entry it masks out still turns a column's sum non-finite.
        total = np.einsum("ij,ij->j", p, support)
        if extra is not None:
            total += np.bincount(cols, values * on, minlength=n)
        return (total - 1.0) / count

    support = p > thresholds  # a NaN guess compares False
    np.fill_diagonal(support, False)
    on = None if extra is None else values > thresholds[cols]
    count = size(support, on)
    cold = count == 0
    if cold.any():  # start these columns from every off-diagonal coordinate
        support |= cold
        np.fill_diagonal(support, False)
        if extra is not None:
            on |= cold[cols]
        count = size(support, on)
    with np.errstate(invalid="ignore", over="ignore"):
        theta = threshold(support, on, count)
    if not np.all(np.isfinite(theta)):
        raise ValueError("projection needs finite entries")
    np.greater(p, theta, out=support)  # A and this are nested: equal counts, equal sets
    np.fill_diagonal(support, False)
    if extra is not None:
        on = values > theta[cols]
    while True:
        shrunk = size(support, on)
        if not shrunk.all():
            raise ValueError("projection lost its support: huge entries")
        if np.array_equal(shrunk, count):
            break
        count = shrunk
        theta = threshold(support, on, count)
        support &= p > theta
        if extra is not None:
            on &= values > theta[cols]
    thresholds[...] = theta
    if extra is not None:
        np.maximum(values - theta[cols], 0.0, out=values)
    out = np.subtract(p, theta, out=out)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out
