"""Per-view similarity graphs under missingness and their closed-form repair.

Every similarity matrix S is N x N with zero diagonal, entries in [0, 1] and
column sums equal to 1. The cross-view coefficient matrix R is l x l with
zero diagonal and off-diagonal column sums equal to 1.

The S update reads V's distances only through `shifted_sq_dists`, formed a
row block or a cluster block at a time (for a graph of one row block, once
per sweep: `sweep_dists`), and writes the new graph in place: no N x N
distance matrix beyond one row block, and no second graph, exists. When the
instances are sorted by V's cluster labels, it repairs only the diagonal
blocks of the clusters plus the few off-block entries that the other graphs
list (ClusterBlocks), and checks per column, from a lower bound on its
off-block distances, that the dense update would give the same graph. A
block whose columns keep every entry, as they do once the graphs have
settled, is projected from its column sums (simplex.project_full_support);
another block with listed candidates sends the view to the dense update.

The kNN graphs that start a fit are a search (`knn_edges`, O(N k) numbers
that the solver keeps per dataset) and an assembly (`similarity_from_edges`,
run by every fit).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datamodel import unit_range
from .simplex import project_full_support, project_offdiag_columns
# Unused here but kept bound: perfbench/tracing.py wraps this name in this module.
from .simplex import project_offdiag_simplex  # noqa: F401

COLSUM_TOL = 1e-8
# Entries per row block when the S-update target is accumulated: a block of
# scratch (256 KiB) stays in cache, so each graph is streamed from memory once.
BLOCK_ENTRIES = 32768
# Distances per row block of the kNN search. At N=1000 (one BLAS thread)
# 65536 ran 0.90-0.95x the time of 32768; 131072 was within 2% of 65536 but
# raised a complete N=600 build's peak from 1.65 to 2.2 graphs.
KNN_BLOCK_ENTRIES = 65536
# Graphs of fewer entries are always updated densely. Measured over 20-sweep
# fits (30% missing, 4 clusters, one BLAS thread), blocks against dense:
# 1.64x the time at N=120, 1.21x at N=200, 0.93x at N=300, 0.71x at N=400,
# 0.48x at N=1000.
BLOCK_MIN_ENTRIES = 350**2
# A view's S update runs on the blocks only while its work, the diagonal
# blocks' entries plus EXTRA_COST per listed off-block candidate, stays below
# this share of N^2; beyond it the dense update is cheaper. A candidate costs
# 0.41 us against 0.010 us per block entry, about 40 entries (N=1000, one
# BLAS thread; 0.40 against 0.014 us without the full-support projection).
BLOCK_SHARE = 0.5
EXTRA_COST = 25


def check_similarity(s: np.ndarray, tol: float = COLSUM_TOL) -> None:
    _check_columns(s, "similarity", tol)


def check_coefficients(r: np.ndarray, tol: float = COLSUM_TOL) -> None:
    _check_columns(r, "coefficient", tol)


def _check_columns(m: np.ndarray, noun: str, tol: float) -> None:
    if np.any(m < -tol) or np.any(m > 1 + tol):
        raise ValueError(f"{noun} entries outside [0, 1]")
    if np.any(np.abs(np.diag(m)) > tol):
        raise ValueError(f"{noun} diagonal is not zero")
    if np.any(np.abs(m.sum(axis=0) - 1.0) > tol):
        raise ValueError(f"{noun} columns do not sum to 1")


def pairwise_sq_dists(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of v (symmetric, zero diagonal)."""
    sq = np.sum(v * v, axis=1)
    h = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    np.maximum(h, 0.0, out=h)
    h = 0.5 * (h + h.T)
    np.fill_diagonal(h, 0.0)
    return h


def shifted_sq_dists(v: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """h[rows, cols] with h_ij = |v_i|^2 - 2 v_i . v_j: the squared distances
    between the rows of v less |v_j|^2 in column j, a per-column constant
    that the S update ignores. One GEMM, no clamp or transpose."""
    a = v[rows]
    h = (-2.0 * a) @ v[cols].T
    h += np.sum(a * a, axis=1)[:, None]
    return h


class KnnEdges(NamedTuple):
    """The kNN search of one view (see `knn_edges`): the positions of the m
    present instances, and for each the positions among them of its k
    nearest others and the squared distances to them (both m x k)."""
    present: np.ndarray
    knn: np.ndarray
    near: np.ndarray


def build_initial_similarity(x: np.ndarray, presence: np.ndarray, k: int = 5) -> np.ndarray:
    """Heat-kernel kNN similarity among present instances, column-normalized:
    `similarity_from_edges` of `knn_edges`. The search's Gram matrix is freed
    before the graph is allocated, so the build holds about one N x N array
    at a time."""
    return similarity_from_edges(np.shape(x)[1], knn_edges(x, presence, k))


def knn_edges(x: np.ndarray, presence: np.ndarray, k: int = 5) -> KnnEdges:
    """The k nearest present neighbors of each present instance (columns of
    x), O(m k) numbers; the arrays are read-only.

    The search runs on the present instances in unit range
    (datamodel.unit_range), so no distance overflows and `near` is in those
    units; the graph reads only its ratios. It forms one Gram matrix and
    reads the distances a row block at a time (see `_nearest`), freed on
    return. Refuses k < 1, k >= m and a non-finite entry.
    """
    present = np.flatnonzero(np.asarray(presence) == 1)
    m = present.size
    if not 1 <= k < m:
        raise ValueError(f"k={k} must be at least 1 and smaller than the {m} present instances")
    v = unit_range(np.asarray(x, dtype=float)[:, present].T)[0]
    edges = KnnEdges(present, *_nearest(v @ v.T, np.sum(v * v, axis=1), k))
    for a in edges:
        a.flags.writeable = False
    return edges


def similarity_from_edges(n: int, edges: KnnEdges) -> np.ndarray:
    """The N x N heat-kernel graph of a view's kNN search, a new array.

    Edges are kept when either endpoint lists the other among its k nearest
    present neighbors. Absent instances get uniform 1/(N-1) similarity to all
    others. The kernel bandwidth sigma is the mean kth-neighbor distance
    among present instances (falling back to 1 when that mean is zero). A
    column whose every kernel weight underflows to 0 (an instance far from
    all others) is weighed with the exponent shifted by its nearest edge's
    distance, which the normalization cancels, so every column sums to 1.
    Besides the graph, the assembly holds O(m k) edge lists.
    """
    present, knn, near = edges
    k = knn.shape[1]
    sigma = float(np.sqrt(near.max(axis=1)).mean())
    if sigma <= 0.0:
        sigma = 1.0
    # The kernel is evaluated on the kNN edges only; the distances are
    # exactly symmetric (so is the search's Gram matrix), so an edge listed
    # from both ends gets the same weight twice.
    near = near.ravel()
    weight = np.exp(-near / (2.0 * sigma * sigma))
    i, j = present.repeat(k), present[knn.ravel()]
    s = np.zeros((n, n))
    s[i, j] = weight
    s[j, i] = weight
    absent = np.ones(n, dtype=bool)
    absent[present] = False
    absent = np.flatnonzero(absent)  # a mask, at a fraction of np.setdiff1d's cost
    if absent.size:
        s[absent, :] = 1.0 / (n - 1)
        s[:, absent] = 1.0 / (n - 1)
        s[absent, absent] = 0.0
    colsum = s.sum(axis=0)
    zero = colsum == 0.0
    if zero.any():
        # every kernel weight of these columns (no absent row) underflowed:
        # weigh their edges again, each exponent shifted by the column's
        # nearest edge
        rows, cols, dist = np.concatenate([i, j]), np.concatenate([j, i]), np.tile(near, 2)
        at = zero[cols]
        rows, cols, dist = rows[at], cols[at], dist[at]
        nearest = np.full(n, np.inf)
        np.minimum.at(nearest, cols, dist)
        s[rows, cols] = np.exp(-(dist - nearest[cols]) / (2.0 * sigma * sigma))
        colsum = s.sum(axis=0)
    s /= colsum  # nonnegative entries over a sum at least each: already in [0, 1]
    return s


def _nearest(gram: np.ndarray, sq: np.ndarray, k: int):
    """The k nearest others of each of m vectors, given their Gram matrix
    and squared norms, and the squared distances to them: both m x k, in
    `np.argpartition`'s order.

    A row block of distances is h = max(sq_i + sq_j - 2 g_ij, 0); vectors in
    unit range (see `knn_edges`) keep every term finite. Only the kernel
    weights lean on the Gram matrix's exact symmetry (numpy's v @ v.T is):
    it makes h_ij = h_ji, so an edge listed from both ends gets one weight
    (see `similarity_from_edges`).
    """
    m = len(gram)
    step = max(1, KNN_BLOCK_ENTRIES // m)
    knn = np.empty((m, k), dtype=np.intp)
    near = np.empty((m, k))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        h = sq[rows, None] + sq
        h -= 2.0 * gram[rows]
        np.maximum(h, 0.0, out=h)
        diag = np.arange(len(h)), np.arange(start, start + len(h))
        h[diag] = np.inf  # no instance is its own neighbor, even with duplicates
        knn[rows] = np.argpartition(h, k - 1, axis=1)[:, :k]
        near[rows] = np.take_along_axis(h, knn[rows], axis=1)
    return knn, near


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
    `shifted_sq_dists`) are formed on the diagonal blocks and at the listed
    entries only.
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

    def inner(self) -> list:
        """h on each diagonal block. Also sets `off_bound`, a lower bound on
        each column's smallest h over the rows outside its block: over the
        rows r of block a, h[r, j] >= min_a |v_r|^2 - 2 max_a(v_r . v_j), and
        for V >= 0, as the solver keeps it (initialize floors V at 1e-3 and
        update_v scales it by square roots of ratios >= 0), v_r . v_j is at
        most the sum over k of max_a(V[:, k]) v_jk."""
        if self._inner is None:
            self._inner = [shifted_sq_dists(self.v, slice(b0, b1), slice(b0, b1))
                           for b0, b1 in self.spans]
            least = np.array([self.row_sq[b0:b1].min() for b0, b1 in self.spans])
            top = np.array([self.v[b0:b1].max(axis=0) for b0, b1 in self.spans])
            bound = least[:, None] - 2.0 * (top @ self.v.T)
            for a, (b0, b1) in enumerate(self.spans):
                bound[a, b0:b1] = np.inf
            self.off_bound = bound.min(axis=0)
        return self._inner

    def entries_of(self, k: int, graph: np.ndarray):
        """entries[k], listed from `graph` when unknown; False past the budget."""
        if self.entries[k] is None:
            off = graph != 0
            for b0, b1 in self.spans:
                off[b0:b1, b0:b1] = False
            few = np.count_nonzero(off) <= self.budget
            self.entries[k] = np.flatnonzero(off) if few else False
        return self.entries[k]

    def update(self, v, graphs, terms, scale, thresholds) -> bool:
        """S update of view v on the blocks, written into graphs[v]; False
        when the block path does not apply, graphs[v] then possibly
        overwritten.

        Each column's candidates are its block's rows and the positions that
        the other graphs list in it, where the target is exactly the dense
        one. Every other row r off the block has target scale * h[r, j] in
        column j (scale <= 0), at most scale times `off_bound`, a lower bound
        on the column's smallest off-block h: when that is at most the
        column's threshold, those rows are zero in the dense update too and
        the projection is exact. A column the bound does not settle sends the
        view to the dense update. While V stays near one-hot the bound is
        nearly the minimum, and it settled every column of every probed fit.

        A block whose columns keep all their entries is projected with its
        listed candidates by project_full_support. Any other block takes the
        threshold search of project_offdiag_columns when it has no
        candidates, and sends the view to the dense update when it has.
        """
        out = graphs[v]
        n = len(out)
        listed = [self.entries_of(i, graphs[i]) for i, _ in terms]
        if any(e is False for e in listed):
            return False
        at = np.unique(np.concatenate(listed))
        if len(at) > self.budget:
            return False
        rows, cols = np.divmod(at, n)
        values = np.einsum("ij,ij->i", -2.0 * self.v[rows], self.v[cols])
        values += self.row_sq[rows]
        values *= scale
        for i, w in terms:
            values += w * graphs[i].take(at)
        own = self.entries_of(v, out)
        if own is False:
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
            if not project_full_support(p, theta, (cols[mine] - b0, extra)):
                if len(extra):
                    return False
                project_offdiag_columns(p, out=p, thresholds=theta)
            if np.any(scale * self.off_bound[b0:b1] > theta):
                return False
            out[b0:b1, b0:b1] = p
            kept = extra > 0.0
            np.put(out, at[mine][kept], extra[kept])
            new.append(at[mine][kept])
        self.entries[v] = np.concatenate(new)
        return True


def sweep_dists(v: np.ndarray) -> np.ndarray | None:
    """`shifted_sq_dists(v)` when the dense S update takes a graph as one row
    block (N^2 <= BLOCK_ENTRIES), for a sweep's l updates to share; there it
    is bitwise the block each update would form. None for larger graphs,
    whose updates form their own row blocks, so no N x N scratch is added."""
    return shifted_sq_dists(v) if len(v) ** 2 <= BLOCK_ENTRIES else None


def update_similarity(
    v: int,
    graphs,
    r: np.ndarray,
    alpha: np.ndarray,
    gamma: float,
    indicator: np.ndarray,
    thresholds: np.ndarray | None = None,
    blocks: ClusterBlocks | None = None,
    dists: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal similarity matrix of view v given all other variables, written
    into graphs[v] in place; returns graphs[v].

    The columns of the subproblem decouple; each column is the Euclidean
    projection of the corresponding column of the target matrix P onto the
    simplex with a pinned zero diagonal entry, which is the exact column
    minimizer under the graph constraints. P is a linear combination of the
    other graphs and the squared distances h between the rows of the
    indicator V: P = (sum_{i != v} w_i S_i - ag_v h / 4) / denom with
    w_i = ag_v r_iv + ag_i r_vi - sum_{k not in {v, i}} ag_k r_vk r_ik.
    The weights are l^2 scalar operations, done on Python floats: the same
    IEEE operations as on numpy scalars, at a fraction of the call cost
    (the squares keep numpy's scalar power).
    h comes from `shifted_sq_dists`, which drops a constant per column: it
    shifts a column of P uniformly, which the projection ignores.

    P never reads graphs[v], so it is built there a row block at a time and
    projected in place. `dists`, when given, is `sweep_dists(indicator)`:
    the whole h, which a graph of one row block reads instead of forming it
    again for every view. `blocks`, a ClusterBlocks set at V, runs the
    update on its blocks instead when the block path applies. graphs[v]
    must not share memory with another view's graph.

    `thresholds` are the projection's per-column threshold guesses, passed to
    `project_offdiag_columns` and overwritten with the final thresholds.
    """
    l = len(graphs)
    out = graphs[v]
    others = [k for k in range(l) if k != v]
    if any(np.may_share_memory(out, graphs[k]) for k in others):
        raise ValueError(f"graph {v} shares memory with another view's graph")
    ag = (np.asarray(alpha, dtype=float) ** gamma).tolist()
    r = np.asarray(r, dtype=float)
    # numpy's scalar power is libm's pow, which can differ from r * r in the last bit
    square = [float(x ** 2) for x in r[v]]
    r = r.tolist()
    rv = r[v]
    denom = sum(ag[k] * square[k] for k in others) + ag[v]
    if denom <= 0.0:
        raise ValueError("vanishing alpha and coefficients: corrupted state")
    terms = []
    for i in others:
        cross = sum(ag[k] * rv[k] * r[i][k] for k in others if k != i)
        terms.append((i, (ag[v] * r[i][v] + ag[i] * rv[i] - cross) / denom))
    scale = -0.25 * ag[v] / denom
    n = len(out)
    if thresholds is None:
        thresholds = np.full(n, np.nan)
    if blocks is not None:
        if blocks.update(v, graphs, terms, scale, thresholds):
            return out
        blocks.entries[v] = None
    rows = max(1, BLOCK_ENTRIES // n)
    scratch = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        part = slice(start, start + rows)
        h = shifted_sq_dists(indicator, part) if dists is None else dists[part]
        block = np.multiply(h, scale, out=out[part])
        tmp = scratch[: len(block)]
        for i, w in terms:
            block += np.multiply(graphs[i][part], w, out=tmp)
    return project_offdiag_columns(out, out=out, thresholds=thresholds)
