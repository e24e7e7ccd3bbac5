"""Euclidean projections onto the probability simplex."""

from __future__ import annotations

import numpy as np


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Project y onto {x : x >= 0, sum(x) = 1} (sort-based exact algorithm).

    Entries that are not finite, or whose sum overflows, raise ValueError,
    as do entries so large that subtracting 1 leaves them unchanged.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if m == 0:
        raise ValueError("cannot project an empty vector")
    s = np.sort(y)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        cumsum = np.cumsum(s)  # a non-finite entry or an overflow leaves the total non-finite
        support = np.flatnonzero(s * np.arange(1, m + 1) > (cumsum - 1))
    if not np.isfinite(cumsum[-1]):
        raise ValueError("projection needs finite entries")
    if support.size == 0:
        raise ValueError("projection lost its support: huge entries")
    rho = support[-1]
    theta = (cumsum[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def project_offdiag_simplex(y: np.ndarray, excluded: int) -> np.ndarray:
    """Project y onto the simplex with coordinate `excluded` pinned to zero.

    The remaining coordinates are the Euclidean-nearest nonnegative vector
    summing to one. Non-finite entries raise ValueError, the excluded one
    too, as in `project_offdiag_columns`, and so does an `excluded` outside
    [0, y.size).
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two coordinates")
    if not 0 <= excluded < y.size:
        raise ValueError(f"excluded coordinate {excluded} is outside [0, {y.size})")
    if not np.isfinite(y).all():
        raise ValueError("projection needs finite entries")
    out = np.zeros_like(y)
    free = np.arange(y.size) != excluded
    out[free] = project_simplex(y[free])
    return out


def _zero_diagonal(m: np.ndarray) -> None:
    """np.fill_diagonal(m, 0) of a square m, through a flat slice when m is
    one contiguous block: a fraction of fill_diagonal's fixed cost."""
    if m.flags.forc:
        m.ravel(order="K")[:: len(m) + 1] = 0
    else:
        np.fill_diagonal(m, 0)


def project_offdiag_columns(
    p: np.ndarray,
    out: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
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

    At small N the fixed cost per call counts: the diagonal is cleared
    through a flat slice (`_zero_diagonal`) and the counts are compared with
    (a == b).all(), a fraction of np.fill_diagonal's and np.array_equal's
    call costs for the same result.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.ndim != 2 or p.shape[1] != n or n < 2:
        raise ValueError("need a square matrix of order at least two")
    if thresholds is None:
        thresholds = np.full(n, np.nan)

    def size(support):
        return support.sum(axis=0, dtype=np.int32)  # twice as fast as count_nonzero

    def threshold(support, count):
        # einsum sums over an irregular mask several times faster than where=,
        # and an entry it masks out still turns a column's sum non-finite.
        return (np.einsum("ij,ij->j", p, support) - 1.0) / count

    support = p > thresholds  # a NaN guess compares False
    _zero_diagonal(support)
    count = size(support)
    cold = count == 0
    if cold.any():  # start these columns from every off-diagonal coordinate
        support |= cold
        _zero_diagonal(support)
        count = size(support)
    with np.errstate(invalid="ignore", over="ignore"):
        theta = threshold(support, count)
    if not np.isfinite(theta).all():
        raise ValueError("projection needs finite entries")
    np.greater(p, theta, out=support)  # A and this are nested: equal counts, equal sets
    _zero_diagonal(support)
    while True:
        shrunk = size(support)
        if not shrunk.all():
            raise ValueError("projection lost its support: huge entries")
        if (shrunk == count).all():
            break
        count = shrunk
        theta = threshold(support, count)
        support &= p > theta
    thresholds[...] = theta
    out = np.subtract(p, theta, out=out)
    np.maximum(out, 0.0, out=out)
    _zero_diagonal(out)
    return out


def project_full_support(p: np.ndarray, thresholds: np.ndarray, extra: tuple) -> bool:
    """project_offdiag_simplex of each column c of the square p with its
    extras appended, in place, when that keeps every off-diagonal coordinate
    of p; returns whether it applied. `extra` is a pair (cols, values):
    values[e] is one more coordinate of column cols[e].

    The off-diagonal sums take one pass over p, summed in the order of
    project_offdiag_columns. The threshold search then runs over the extras
    alone: they all start in the support and leave it at or below their
    column's threshold, so the thresholds only rise. When every off-diagonal
    entry lies strictly above its column's final threshold, that threshold
    is exact, and p, `thresholds` and `values` receive the projection.
    Otherwise, or when a threshold is not finite, nothing is written and
    False is returned; the guesses in `thresholds` are not read.
    """
    m = len(p)
    cols, values = extra
    diag = np.einsum("ii->i", p)  # a writable view, cheaper to set than fill_diagonal
    saved = diag.copy()
    on = np.ones(len(cols), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        diag *= 0.0  # as the einsum's mask: a non-finite diagonal entry still counts
        block = p.sum(axis=0)  # by rows, as the masked einsum of project_offdiag_columns
        while True:
            total = block + np.bincount(cols, values * on, minlength=m)
            theta = (total - 1.0) / (m - 1 + np.bincount(cols[on], minlength=m))
            kept = on & (values > theta[cols])
            if not np.all(np.isfinite(theta)) or np.array_equal(kept, on):
                break
            on = kept
    diag[...] = np.inf
    if not (np.all(np.isfinite(theta)) and np.all(p.min(axis=0) > theta)):
        diag[...] = saved
        return False
    thresholds[...] = theta
    np.maximum(values - theta[cols], 0.0, out=values)
    np.subtract(p, theta, out=p)
    diag[...] = 0.0
    return True
