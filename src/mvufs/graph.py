"""Per-view similarity graphs under missingness and their closed-form repair.

Every similarity matrix S is N x N with zero diagonal, entries in [0, 1] and
column sums equal to 1. The cross-view coefficient matrix R is l x l with
zero diagonal and off-diagonal column sums equal to 1.

When the instances are sorted by V's cluster labels, the S update repairs
only the diagonal blocks of the clusters plus the few off-block entries that
the other graphs list (ClusterBlocks), and checks per column that the dense
update would give the same graph.
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
# Graphs of fewer entries are always updated densely. Measured over 20-sweep
# fits (30% missing, 4 clusters, one BLAS thread), blocks against dense:
# 1.7x the time at N=120, 1.3x at N=200, 1.1x at N=300, 0.90x at N=400,
# 0.59x at N=1000.
BLOCK_MIN_ENTRIES = 350**2
# A view's S update runs on the blocks only while its work, the diagonal
# blocks' entries plus EXTRA_COST per listed off-block candidate, stays below
# this share of N^2; beyond it the dense update is cheaper. A candidate costs
# 0.37 us against 0.014 us per block entry (N=1000, one BLAS thread).
BLOCK_SHARE = 0.5
EXTRA_COST = 25


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


def build_initial_similarity(x: np.ndarray, presence: np.ndarray, k: int = 5) -> np.ndarray:
    """Heat-kernel kNN similarity among present instances, column-normalized.

    Edges are kept when either endpoint lists the other among its k nearest
    present neighbors. Absent instances get uniform 1/(N-1) similarity to all
    others. The kernel bandwidth sigma is the mean kth-neighbor distance
    among present instances (falling back to 1 when that mean is zero).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    present = np.flatnonzero(np.asarray(presence) == 1)
    m = present.size
    if k >= m:
        raise ValueError(f"k={k} must be smaller than the {m} present instances")
    d2 = pairwise_sq_dists(x[:, present].T)
    np.fill_diagonal(d2, np.inf)  # no instance is its own neighbor, even with duplicates
    knn = np.argpartition(d2, k - 1, axis=1)[:, :k]
    rows = np.repeat(np.arange(m), k)
    near = d2[rows, knn.ravel()]
    sigma = float(np.sqrt(near.reshape(m, k).max(axis=1)).mean())
    if sigma <= 0.0:
        sigma = 1.0
    # The kernel is evaluated on the kNN edges only; d2 is exactly symmetric,
    # so an edge listed from both ends gets the same weight twice.
    weight = np.exp(-near / (2.0 * sigma * sigma))
    i, j = present[rows], present[knn.ravel()]
    s = np.zeros((n, n))
    s[i, j] = weight
    s[j, i] = weight
    absent = np.setdiff1d(np.arange(n), present)
    if absent.size:
        s[absent, :] = 1.0 / (n - 1)
        s[:, absent] = 1.0 / (n - 1)
        s[absent, absent] = 0.0
    colsum = s.sum(axis=0)
    colsum[colsum == 0.0] = 1.0
    s /= colsum
    np.clip(s, 0.0, 1.0, out=s)
    return s


def laplacian(s: np.ndarray):
    """Graph Laplacian L = D_s - S with D_s the diagonal of row sums of S."""
    d = np.diag(s.sum(axis=1))
    return d - s, d


def cluster_bounds(v: np.ndarray) -> np.ndarray | None:
    """Edges of the runs of equal argmax labels of V's rows, empty clusters
    left out; None unless the labels are sorted and every cluster that has
    members has at least two."""
    labels = np.argmax(v, axis=1)
    if np.any(labels[1:] < labels[:-1]):
        return None
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    if np.any(sizes < 2):
        return None
    return np.concatenate(([0], np.cumsum(sizes)))


class ClusterBlocks:
    """The graphs of sorted instances as the diagonal blocks between `edges`
    plus, per graph, the flat indices of its nonzero entries off the blocks.

    `entries[k]` describes the array that graph k is now: None when not yet
    listed, False when it has too many off-block entries for the block path.
    `at(v)` sets the V of the next S updates. Their distances h (those of
    `update_similarity`) are formed on the diagonal blocks and at the listed
    entries only, and a view that falls back to the dense update forms them
    a row block at a time: the whole N x N h never exists.
    """

    def __init__(self, edges: np.ndarray, n_graphs: int):
        self.edges = edges
        self.spans = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
        self.entries = [None] * n_graphs
        # off-block candidates the block path can take beside the blocks
        inner = sum((b1 - b0) ** 2 for b0, b1 in self.spans)
        self.budget = (BLOCK_SHARE * edges[-1] ** 2 - inner) / EXTRA_COST

    def at(self, v: np.ndarray) -> "ClusterBlocks":
        self.v = v
        self.row_sq = np.sum(v * v, axis=1)
        self._inner = None
        return self

    def h(self, rows, cols) -> np.ndarray:
        """h[rows, cols] with h_ij = |v_i|^2 - 2 v_i . v_j, as sweeps form it."""
        h = (-2.0 * self.v[rows]) @ self.v[cols].T
        h += self.row_sq[rows, None]
        return h

    def inner(self) -> list:
        """h on each diagonal block. Also sets `off_bound`, a lower bound on
        each column's smallest h over the rows outside its block: over the
        rows r of block a, h[r, j] >= min_a |v_r|^2 - 2 max_a(v_r . v_j), and
        v_r . v_j is at most the sum over k of the larger of max_a(V[:, k])
        v_jk and min_a(V[:, k]) v_jk."""
        if self._inner is None:
            self._inner = [self.h(slice(b0, b1), slice(b0, b1)) for b0, b1 in self.spans]
            least = np.array([self.row_sq[b0:b1].min() for b0, b1 in self.spans])
            top = np.array([self.v[b0:b1].max(axis=0) for b0, b1 in self.spans])
            low = np.array([self.v[b0:b1].min(axis=0) for b0, b1 in self.spans])
            dots = top @ np.maximum(self.v, 0.0).T + low @ np.minimum(self.v, 0.0).T
            bound = least[:, None] - 2.0 * dots
            for a, (b0, b1) in enumerate(self.spans):
                bound[a, b0:b1] = np.inf
            self.off_bound = bound.min(axis=0)
        return self._inner

    def off_min(self, b0: int, b1: int, cols: np.ndarray) -> np.ndarray:
        """Each column's smallest h over the rows outside block [b0, b1)."""
        h = self.h(slice(None), cols)
        h[b0:b1] = np.inf
        return h.min(axis=0)

    def entries_of(self, k: int, graph: np.ndarray):
        """entries[k], listed from `graph` when unknown; False past the budget."""
        if self.entries[k] is None:
            off = graph != 0
            for b0, b1 in self.spans:
                off[b0:b1, b0:b1] = False
            few = np.count_nonzero(off) <= self.budget
            self.entries[k] = np.flatnonzero(off) if few else False
        return self.entries[k]

    def update(self, v, graphs, terms, scale, thresholds):
        """S update of view v on the blocks, written into graphs[v]; None when
        the block path does not apply, graphs[v] then possibly overwritten.

        Each column's candidates are its block's rows and the positions that
        the other graphs list in it, where the target is exactly the dense
        one. Every other row r off the block has target scale * h[r, j] in
        column j (scale <= 0), at most scale times the column's smallest
        off-block h: when that is at most the column's threshold, those rows
        are zero in the dense update too and the projection is exact. The
        check takes `off_bound` first and the exact minimum for the columns
        the bound does not settle; a column that fails it sends the view to
        the dense update.
        """
        out = graphs[v]
        n = len(out)
        listed = [self.entries_of(i, graphs[i]) for i, _ in terms]
        if any(e is False for e in listed):
            return None
        at = np.unique(np.concatenate(listed))
        if len(at) > self.budget:
            return None
        rows, cols = np.divmod(at, n)
        values = np.einsum("ij,ij->i", -2.0 * self.v[rows], self.v[cols])
        values += self.row_sq[rows]
        values *= scale
        for i, w in terms:
            values += w * graphs[i].take(at)
        own = self.entries_of(v, out)
        if any(graphs[i] is out for i, _ in terms):
            out = np.zeros((n, n))
        elif own is False:
            for b0, b1 in self.spans:
                out[:b0, b0:b1] = 0.0
                out[b1:, b0:b1] = 0.0
        else:
            np.put(out, own, 0.0)
        block = np.searchsorted(self.edges, cols, side="right") - 1
        new = []
        for b, ((b0, b1), inner) in enumerate(zip(self.spans, self.inner())):
            p = np.multiply(inner, scale)
            tmp = np.empty_like(p)
            for i, w in terms:
                p += np.multiply(graphs[i][b0:b1, b0:b1], w, out=tmp)
            mine = block == b
            extra = values[mine]
            theta = thresholds[b0:b1]
            project_offdiag_columns(p, out=p, thresholds=theta, extra=(cols[mine] - b0, extra))
            loose = scale * self.off_bound[b0:b1] > theta
            if loose.any():
                cols_loose = b0 + np.flatnonzero(loose)
                if np.any(scale * self.off_min(b0, b1, cols_loose) > theta[loose]):
                    return None
            out[b0:b1, b0:b1] = p
            kept = extra > 0.0
            np.put(out, at[mine][kept], extra[kept])
            new.append(at[mine][kept])
        self.entries[v] = np.concatenate(new)
        return out


def update_similarity(
    v: int,
    graphs,
    r: np.ndarray,
    alpha: np.ndarray,
    gamma: float,
    h: np.ndarray,
    thresholds: np.ndarray | None = None,
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
    column of P uniformly, which the projection ignores. h may instead be a
    ClusterBlocks set at V: the update then runs on its blocks and writes
    graphs[v] in place, or, when the block path does not apply, runs densely
    on the ClusterBlocks' h, formed a row block at a time.

    `thresholds` are the projection's per-column threshold guesses, passed to
    `project_offdiag_columns` and overwritten with the final thresholds.
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
        terms.append((i, (ag[v] * r[i, v] + ag[i] * r[v, i] - cross) / denom))
    scale = -0.25 * ag[v] / denom
    n = len(graphs[v])
    if thresholds is None:
        thresholds = np.full(n, np.nan)
    blocks = h if isinstance(h, ClusterBlocks) else None
    if blocks is not None:
        s = blocks.update(v, graphs, terms, scale, thresholds)
        if s is not None:
            return s
        blocks.entries[v] = None
    p = np.empty((n, n))
    rows = max(1, BLOCK_ENTRIES // n)
    scratch = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        part = slice(start, start + rows)
        h_part = h[part] if blocks is None else blocks.h(part, slice(None))
        block = np.multiply(h_part, scale, out=p[part])
        tmp = scratch[: len(block)]
        for i, w in terms:
            block += np.multiply(graphs[i][part], w, out=tmp)
    return project_offdiag_columns(p, out=p, thresholds=thresholds)
