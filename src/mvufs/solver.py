"""Alternating solver for weighted NMF feature selection on incomplete multi-view data.

The model, summed over views v: alpha_v^gamma (||(X_v - U_v V') W_v||^2 +
lam sum_f ||u_f||^p + beta (tr(V' L_v V) + ||S_v - sum_{i != v} r_iv S_i||^2
+ ||R||_F^2)), with V >= 0, V'V = I, U >= 0, each graph's columns and R's
off-diagonal columns on their simplices and alpha on the simplex.

V and U are set once per fit by exact block steps, with no orthogonality
penalty and no smoothed l2,p surrogate. A nonnegative V with V'V = I is a
labelling plus one unit vector per cluster (Ding, Li, Peng and Park, KDD
2006): V is the scaled indicator of the start's k-means labels (update_v),
and no step moves a label, as no label step is known yet to descend the
objective. U's block reads only V and the data, since alpha_v^gamma scales
a view's whole term, and each of its rows is one scalar equation
(update_u). A sweep then updates each view's graph S^(v) (closed-form
column update, Gauss-Seidel across views), R (exact: every candidate
support of every column from one batched KKT solve) and alpha (closed form).

With V and U fixed, so is each view's data term ||(X_v - U_v V')W_v||^2 +
lam sum_f ||u_f||^p: initialize forms it once (data_term) and the state
carries it, so a sweep and the objective read no data, only the state. The
sweep forms no N x N array of floats besides the graphs: the S update
writes each graph in place from V's distances, which SweepCarry keeps for
the fit with each sweep's final S-projection thresholds, and one pass over
the new graphs (graph_products) gives their Gram matrix and every S_k [V 1]
for R and the view losses. The weighted-NMF weights are the dataset's own
(MultiViewDataset.weights); so is the start (Start) that the first fit on
a dataset makes and later fits read. A non-finite V, U, S update or view
loss raises SolverDivergence naming it.

V and the graphs hold the instances sorted by V's labels
(SolverState.order); the data, U and the data term keep the dataset's
order. For graphs of at least BLOCK_MIN_ENTRIES entries a sweep updates
each graph on the diagonal blocks of V's clusters plus the few off-block
entries the other graphs list (graph.ClusterBlocks, kept in SweepCarry),
reading V as one squared norm per cluster; a per-column bound proves that
the dense update would give the same graph. A view that fails it, graphs
with too many off-block entries, and a caller's V that is not a scaled
indicator with sorted labels and no singleton cluster take the dense
update.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .datamodel import MultiViewDataset, impute_missing
from .graph import (
    BLOCK_ENTRIES,
    BLOCK_MIN_ENTRIES,
    ClusterBlocks,
    cluster_bounds,
    knn_edges,
    similarity_from_edges,
    sweep_dists,
    update_similarity,
)
# Unused here but kept bound: perfbench/tracing.py wraps these names in this module.
from .datamodel import build_view_weights  # noqa: F401
from .graph import build_initial_similarity, laplacian, pairwise_sq_dists  # noqa: F401
from .simplex import project_offdiag_simplex  # noqa: F401

REL_TOL = 1e-6  # `fit` stops at a relative objective change below this
MAX_VIEWS = 8  # see check_view_count


class SolverDivergence(RuntimeError):
    """Raised when the objective or an update produces a non-finite value."""


def check_view_count(l: int) -> None:
    """Refuse l outside [2, MAX_VIEWS]: each view's graph is rebuilt from the
    others, and update_r's one stack of 2^l - 2 supports (0.75 MiB at l = 8)
    doubles in time and memory with every view."""
    if not 2 <= l <= MAX_VIEWS:
        raise ValueError(f"the model needs 2 to {MAX_VIEWS} views; the dataset has {l}")


@dataclass(frozen=True)
class Hyperparameters:
    """The model's hyperparameters; RULES states once which values each field may take."""
    lam: float  # row-sparsity weight
    beta: float  # graph / complementarity weight
    gamma: float  # view-weight exponent
    p: float  # sparsity exponent
    n_clusters: int
    max_iter: int = 300
    seed: int = 0
    knn: int = 5

    # field -> (a test every valid value passes, message); NaN and +inf fail every bound
    RULES = {
        "lam": (lambda x: 0 <= x < np.inf, "lam must be finite and nonnegative"),
        "beta": (lambda x: 0 <= x < np.inf, "beta must be finite and nonnegative"),
        "gamma": (lambda x: 1 < x < np.inf, "gamma must exceed 1 and be finite"),
        "p": (lambda x: 0 < x <= 1, "p must lie in (0, 1]"),
        "n_clusters": (lambda x: x >= 2, "need at least 2 clusters"),
        "max_iter": (lambda x: x >= 0, "max_iter must be nonnegative"),
        "seed": (lambda x: x >= 0, "seed must be nonnegative"),
        "knn": (lambda x: x >= 1, "knn must be at least 1"),
    }

    def __post_init__(self):
        for name, (valid, message) in self.RULES.items():
            if not valid(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)}: {message}")


@dataclass
class SolverState:
    """One point of the alternating solver. V and the graphs hold the
    dataset's instances in `order` (see initialize); a caller that wants
    the dataset's order gathers by argsort(order). `data_term` is each
    view's data term at the state's U and V (see data_term), which no sweep
    changes: sweep and objective read it instead of the dataset, so every
    state, a fit's result included, continues with them alone."""
    u: list  # l factor matrices, d_v x c
    v: np.ndarray  # consensus indicator, N x c (see update_v)
    s: list  # l similarity graphs, N x N
    r: np.ndarray  # cross-view coefficients, l x l
    alpha: np.ndarray  # view weights on the simplex
    data_term: np.ndarray  # per view, at u and v
    order: np.ndarray  # permutation: row i of v holds instance order[i]


@dataclass
class SweepCarry:
    """What a sweep leaves for the next sweep of the same state: O(l N)
    numbers, and V's distances for a graph of one row block (`sweep_dists`).

    thresholds: per view, the S projection's final per-column thresholds,
    the next sweep's starting guesses (NaN: start cold).
    held: the V and graphs the last sweep read; while the state holds
    exactly those arrays (no sweep replaces them), the next sweep reads
    `dists` and `blocks` as they are, so a fit forms them once.
    blocks: the ClusterBlocks of V's labels, set at V, with the graphs'
    off-block lists; None when the graphs are too small or V is not a
    scaled indicator with sorted labels and no singleton (cluster_bounds).
    block_updates: how many S updates have run on the blocks.
    """
    thresholds: list
    held: tuple = ()
    dists: np.ndarray | None = None
    blocks: ClusterBlocks | None = None
    block_updates: int = 0

    @classmethod
    def start(cls, n_instances: int, n_views: int) -> "SweepCarry":
        return cls([np.full(n_instances, np.nan) for _ in range(n_views)])

    def at(self, state: SolverState) -> tuple:
        """(blocks, dists) for the state, formed anew unless it holds the
        arrays the last sweep read."""
        held = (state.v, *state.s)
        if len(held) != len(self.held) or any(a is not b for a, b in zip(held, self.held)):
            self.held, v = held, state.v
            self.dists = sweep_dists(v)
            edges = cluster_bounds(v) if len(v) ** 2 >= BLOCK_MIN_ENTRIES else None
            self.blocks = None if edges is None else ClusterBlocks(edges, len(state.s)).at(v)
        return self.blocks, self.dists


@dataclass
class SolverResult:
    """A fit's last state, in the instance order it solved in (its `order`,
    see SolverState), and its objective trace."""
    state: SolverState
    trace: np.ndarray  # objective per sweep, including the initial value
    iterations: int
    converged: bool


def l2p_norm_p(u: np.ndarray, p: float) -> float:
    """sum_i ||row i||_2^p."""
    return float(np.sum(np.linalg.norm(u, axis=1) ** p))


def objective(state: SolverState, hyper: Hyperparameters, losses: np.ndarray | None = None) -> float:
    """Full model objective sum_v alpha_v^gamma (d_v + beta ||R||_F^2).

    `losses` are the view losses d of the current state when the caller
    already has them; otherwise one graph pass gives them (view_losses).
    """
    if losses is None:
        losses = view_losses(state, hyper, *graph_products(state.s, state.v))
    r_term = hyper.beta * float(np.vdot(state.r, state.r))
    total = float(np.sum(state.alpha ** hyper.gamma * (losses + r_term)))
    if not np.isfinite(total):
        raise SolverDivergence("objective is non-finite")
    return total


def update_v(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """V's block: the scaled indicator of `labels`, column k 1/sqrt(n_k) on
    the n_k instances of cluster k and 0 elsewhere, as every V >= 0 with
    V'V = I is for some labels. V'V = I exactly off the diagonal (disjoint
    columns) and to rounding on it."""
    sizes = np.bincount(labels, minlength=n_clusters)
    v = np.zeros((len(labels), n_clusters))
    v[np.arange(len(labels)), labels] = 1.0 / np.sqrt(sizes[labels])
    return v


def update_u(v: np.ndarray, dataset: MultiViewDataset, hyper: Hyperparameters) -> np.ndarray:
    """U's block given the indicator V: the views' factors, stacked by rows,
    each the exact minimizer of ||(X - U V') W||^2 + lam sum_f ||u_f||^p over
    U >= 0. Row f minimizes u'Mu - 2 b'u + lam ||u||^p with M = V'W^2V,
    diagonal as V's columns are disjoint, and b = V'W^2 x_f >= 0 (`_l2p_rows`)."""
    w2 = [w ** 2 for w in dataset.weights]
    b = np.vstack([(x * w) @ v for x, w in zip(dataset.views, w2)])
    m = np.repeat([w @ (v * v) for w in w2], dataset.feature_counts, axis=0)
    return _l2p_rows(b, m, hyper.lam, hyper.p)


@np.errstate(all="ignore")  # a row out of range ends at 0 or non-finite
def _l2p_rows(b: np.ndarray, m: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Per row, the u >= 0 minimizing f(u) = u'diag(m)u - 2 b'u + lam ||u||^p,
    for b >= 0 and m >= 0, m_k = 0 only where b_k = 0; lam = 0 gives b / m.

    A minimizer u != 0 solves (diag(m) + mu) u = b with mu = (lam p / 2)
    ||u||^(p-2), so it lies on the path u(mu) = b / (m + mu), along which f
    falls where g(mu) = mu ||u(mu)||^(2-p) < lam p / 2 and rises where g is
    above: its minima sit where g crosses lam p / 2 upwards. g <= lam p / 2
    at mu = (lam p / 2) (min(m) / ||b||)^(2-p), grows up to the smallest
    m / (1 - p) and falls past the largest; for p = 1 it grows toward ||b||,
    past lam / 2 by mu = lam max(m) / (2 ||b|| - lam). So the search takes
    that lower end and 16 points from the smallest m / (1 - p) to the largest
    (or the p = 1 end), in log mu with a margin of e; a hump of g between two
    points hides at most one step's change of f. The crossing next to the
    lowest f is refined by Newton steps in log mu kept inside the bracket
    (else bisected), and the row takes it where f < f(0) = 0.
    """
    u = np.zeros_like(b)
    if lam == 0.0:
        return np.divide(b, m, out=u, where=m > 0)
    log_level = np.log(0.5 * lam * p)
    norm = np.linalg.norm(b, axis=1)
    m_lo, m_hi = np.where(m > 0, m, np.inf).min(axis=1), m.max(axis=1)
    lo = log_level + (2.0 - p) * np.log(m_lo / norm) - 1.0
    if p < 1.0:
        first, hi = np.log(m_lo / (1.0 - p)) - 1.0, np.log(m_hi / (1.0 - p)) + 1.0
    else:
        first = hi = np.log(lam * m_hi / (2.0 * norm - lam)) + 1.0
    rows = np.flatnonzero((lo < hi) & (hi < np.inf))
    b, m, lo, hi = b[rows], m[rows], lo[rows], hi[rows]
    first = np.maximum(first[rows], lo)

    def path(s, b, m):  # u, mu, ||u||^2, log(g / (lam p / 2)) and f at log mu = s
        mu = np.exp(s)[..., None]
        at = b / (m + mu)
        sq = np.einsum("...k,...k->...", at, at)
        value = np.einsum("...k,...k->...", at, m * at - 2.0 * b) + lam * sq ** (0.5 * p)
        return at, mu, sq, s + (1.0 - 0.5 * p) * np.log(sq) - log_level, value

    grid = np.column_stack([lo, first[:, None] + (hi - first)[:, None] * np.linspace(0, 1, 16)])
    _, _, _, resid, value = path(grid, b[:, None], m[:, None])
    up = (resid[:, :-1] < 0.0) & (resid[:, 1:] >= 0.0)
    cost = np.where(up, np.minimum(value[:, :-1], value[:, 1:]), np.inf)
    j = np.argmin(cost, axis=1)
    found = np.flatnonzero(np.isfinite(cost[np.arange(len(j)), j]))
    rows, b, m, j = rows[found], b[found], m[found], j[found]
    lo, hi = grid[found, j], grid[found, j + 1]
    s = 0.5 * (lo + hi)
    for _ in range(60):
        at, mu, sq, resid, _ = path(s, b, m)
        lo, hi = np.where(resid < 0.0, s, lo), np.where(resid < 0.0, hi, s)
        slope = 1.0 - (2.0 - p) * np.einsum("ik,ik->i", at * at, mu / (m + mu)) / sq
        step = s - resid / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.all(np.abs(step - s) <= 1e-12 * np.maximum(np.abs(s), 1.0))
        s = step
        if done:
            break
    at, _, _, _, value = path(s, b, m)
    u[rows[value < 0.0]] = at[value < 0.0]
    return u


def graph_products(graphs, v: np.ndarray, blocks: ClusterBlocks | None = None):
    """The l x l Gram matrix of Frobenius inner products <S_i, S_j> of the
    graphs and the list of S_k [V 1], from one pass over the graphs.

    The pass runs over chunks of BLOCK_ENTRIES entries in whole rows, so the
    l chunks stay in cache while the inner products and the products with
    [V 1] read them: each graph is streamed from memory once. The Gram
    matrix does not read V. Given `blocks` whose lists cover every graph,
    the pass reads only the rows of the diagonal blocks within them and then
    the listed off-block entries.
    """
    l, n = len(graphs), len(graphs[0])
    gram = np.zeros((l, l))
    v_one = np.column_stack([v, np.ones(n)])
    products = [np.empty(v_one.shape) for _ in range(l)]
    listed = None if blocks is None else [blocks.entries_of(k, g) for k, g in enumerate(graphs)]
    if listed is None or any(e is False for e in listed):
        listed, spans = [], [(0, n)]
    else:
        spans = blocks.spans
    for b0, b1 in spans:
        step = max(1, BLOCK_ENTRIES // (b1 - b0))
        for start in range(b0, b1, step):
            stop = min(start + step, b1)
            chunk = [np.ascontiguousarray(g[start:stop, b0:b1]) for g in graphs]
            for i in range(l):
                for j in range(i, l):
                    gram[i, j] += np.vdot(chunk[i], chunk[j])
                np.matmul(chunk[i], v_one[b0:b1], out=products[i][start:stop])
    for i, at in enumerate(listed):
        values = graphs[i].take(at)
        for j in range(i, l):
            gram[i, j] += values @ graphs[j].take(at)
        rows, cols = np.divmod(at, n)
        for q in range(v_one.shape[1]):
            products[i][:, q] += np.bincount(rows, values * v_one[cols, q], n)
    gram += np.triu(gram, 1).T  # the lower triangle is still zero
    if not np.all(np.isfinite(gram)):
        raise SolverDivergence("non-finite Gram entries of the similarity graphs")
    return gram, products


@functools.lru_cache(maxsize=None)
def _candidate_supports(l: int) -> np.ndarray:
    """member[a, k]: whether view k is in candidate support a.

    The supports are every nonempty proper subset of the l views, by size and
    then lexicographically, so for each column the ones that leave its own
    view out come in the order itertools.combinations gives over the others.
    """
    member = np.zeros((2**l - 2, l), dtype=bool)
    supports = (idx for size in range(1, l) for idx in itertools.combinations(range(l), size))
    for a, idx in enumerate(supports):
        member[a, list(idx)] = True
    member.flags.writeable = False
    return member


def update_r(gram: np.ndarray) -> np.ndarray:
    """Solve every column's ridge regression on the off-diagonal simplex exactly.

    The N^2 x l stacked similarity matrix is never materialized: column v
    minimizes r'Qr - 2 G[:, v]'r, Q = G + I, with r_v = 0 on the simplex,
    where G = `gram` is the l x l Gram matrix of Frobenius inner products of
    the graphs (from `graph_products`). The problem is strictly convex, so its
    minimizer is the best of the equality-constrained minimizers over the
    supports A without v that come out nonnegative. The KKT matrix
    [[Q_AA, 1], [1', 0]] depends on A alone, so one batched solve covers all
    2^l - 2 supports and every column's right-hand side [G[A, v]; 1]: each
    system is padded to order l + 1 by r_k = 0 for k outside A. The
    candidates are scored at once, those with v in A or a negative weight
    are discarded, and each column takes the first best one. The stack holds
    (2^l - 2)(l + 1)^2 numbers, which `check_view_count` bounds through l.
    """
    l = len(gram)
    quad = gram + np.eye(l)
    member = _candidate_supports(l)
    kkt = np.zeros((len(member), l + 1, l + 1))
    kkt[:, :l, :l] = np.where(member[:, :, None] & member[:, None, :], quad, np.eye(l))
    kkt[:, :l, l] = kkt[:, l, :l] = member
    rhs = np.ones((len(member), l + 1, l))
    rhs[:, :l] = member[:, :, None] * gram
    cand = np.linalg.solve(kkt, rhs)[:, :l]  # cand[a, :, v]: support a's minimizer for column v
    score = np.einsum("akv,akv->av", cand, quad @ cand - 2.0 * gram)
    score[member | ~np.all(cand >= 0.0, axis=1)] = np.inf
    first = np.argmin(score, axis=0)
    return np.take_along_axis(cand, first[None, None], axis=0)[0]


def data_term(u: list, v: np.ndarray, dataset: MultiViewDataset,
              hyper: Hyperparameters) -> np.ndarray:
    """Per view, ||(X_v - U_v V')W_v||^2 + lam sum_f ||u_f||^p, with V's
    rows in the dataset's order."""
    d = np.empty(len(u))
    for k, (x, w) in enumerate(zip(dataset.views, dataset.weights)):
        resid = (x - u[k] @ v.T) * w[None, :]
        d[k] = float(np.vdot(resid, resid)) + hyper.lam * l2p_norm_p(u[k], hyper.p)
    return d


def view_losses(state: SolverState, hyper: Hyperparameters, gram: np.ndarray,
                products: list) -> np.ndarray:
    """Per-view loss d^(v) driving the view-weight update (no ||R||^2 term):
    the state's data term plus beta times the graph and reconstruction terms.

    The graph term is tr(V'LV) for the Laplacian L of the symmetrized graph
    (S + S') / 2, sum_ij s_ij ||v_i - v_j||^2 / 2, the form the S update
    minimizes: with unit column sums it is sum_i (deg_i + 1) ||v_i||^2 / 2 -
    <V, SV> with deg the row sums of S, so the Laplacian is never formed;
    one product S [V 1] gives both SV and deg. The reconstruction term is
    ||S_v - sum_{i != v} r_iv S_i||^2 = e'Ge with e = e_v - R[:, v] and G the
    Gram matrix of the graphs, so no residual graph is formed. Rounding can
    leave e'Ge slightly negative when the graphs coincide; it is clamped at
    zero. `gram` and `products` (the S_k [V 1]) of the current state come
    from `graph_products`.
    """
    c = state.v.shape[1]
    row_sq = np.sum(state.v * state.v, axis=1)
    d = np.empty(len(state.s))
    for v, sv_deg in enumerate(products):
        e = -state.r[:, v]
        e[v] += 1.0
        recon = max(float(e @ gram @ e), 0.0)
        smooth = 0.5 * float((sv_deg[:, c] + 1.0) @ row_sq) - float(np.vdot(state.v, sv_deg[:, :c]))
        d[v] = state.data_term[v] + hyper.beta * (smooth + recon)
    return d


def update_alpha(d: np.ndarray, gamma: float) -> np.ndarray:
    """Simplex-normalized stationary point of sum_v alpha^gamma d_v.

    Views with exactly zero loss absorb all the weight, split equally.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("view losses must be nonnegative")
    zero = d == 0.0
    if np.any(zero):
        alpha = np.zeros_like(d)
        alpha[zero] = 1.0 / zero.sum()
        return alpha
    powered = d ** (1.0 / (1.0 - gamma))
    return powered / powered.sum()


@dataclass(frozen=True)
class Start:
    """What `initialize` takes from the dataset, `seed`, `knn` and c alone,
    all read-only: V, the cluster order of its labels and each view's kNN
    search (graph.KnnEdges), V and the searches in that order: O(N (c + k l))
    numbers, no copy of the views."""
    v: np.ndarray
    order: np.ndarray
    edges: tuple


def _start(dataset: MultiViewDataset, hyper: Hyperparameters) -> Start:
    """The dataset's Start for (seed, knn, n_clusters), made on the first
    call and kept in `dataset.starts` for the fits that follow. k-means
    leaves no cluster empty, so the order also sorts the argmax labels of
    V's rows."""
    from .evaluation import kmeans  # resolved per call: perfbench/tracing.py wraps it by name

    key = (hyper.seed, hyper.knn, hyper.n_clusters)
    start = dataset.starts.get(key)
    if start is None:
        imputed = impute_missing(dataset)
        labels = kmeans(np.vstack(imputed), hyper.n_clusters, [hyper.seed])[0][0]
        order = np.argsort(labels, kind="stable")
        order.flags.writeable = False
        v = _finite(update_v(labels[order], hyper.n_clusters), "the V update")
        v.flags.writeable = False
        presence = dataset.presence[order]
        edges = tuple(knn_edges(x[:, order], presence[:, k], k=hyper.knn)
                      for k, x in enumerate(imputed))
        start = dataset.starts[key] = Start(v, order, edges)
    return start


def initialize(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverState:
    """V and U at their exact blocks, kNN similarity graphs on imputed data,
    uniform coefficients and view weights. Refuses l outside [2, MAX_VIEWS].

    V is the scaled indicator (update_v) of a one-seed k-means, seed
    hyper.seed, on the concatenated imputed views, and U its block's exact
    minimizer (update_u), which reads V, the data, lam and p alone; no sweep
    changes either, so the state's data term (data_term) is formed here
    once. V and the graphs hold the instances sorted by V's labels (stable),
    the state's `order`, so that the sweeps can work on the labels' blocks;
    U and the data term read the dataset as it is, with V gathered back into
    its order.

    V, the order and the kNN searches depend only on the dataset, `seed`,
    `knn` and c, so the first call makes them and later calls read them
    from the dataset (Start): a grid's cells on one masked dataset share
    them. Every call copies V and the order, solves U and assembles new
    graphs, so no two states share an array.
    """
    l = dataset.n_views
    check_view_count(l)
    start = _start(dataset, hyper)
    v = start.v.copy()
    in_dataset_order = v[np.argsort(start.order)]
    u = _finite(update_u(in_dataset_order, dataset, hyper), "the U update")
    u = np.split(u, np.cumsum(dataset.feature_counts)[:-1])
    data = data_term(u, in_dataset_order, dataset, hyper)
    s = [similarity_from_edges(dataset.n_instances, edges) for edges in start.edges]
    r = np.full((l, l), 1.0 / (l - 1))
    np.fill_diagonal(r, 0.0)
    alpha = np.full(l, 1.0 / l)
    return SolverState(u=u, v=v, s=s, r=r, alpha=alpha, data_term=data, order=start.order.copy())


def _finite(values: np.ndarray, source: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SolverDivergence(f"non-finite values from {source}")
    return values


def sweep(state: SolverState, hyper: Hyperparameters, carry: SweepCarry) -> np.ndarray:
    """One alternating pass, in place: S^(v) for each view, R, alpha (V, U
    and the data term stay as initialize set them). Returns the view losses
    of the final state, from which alpha was set. `carry` holds what the
    previous sweep of this state left (SweepCarry); with a fresh one, V's
    distances are formed anew and every projection starts cold.
    """
    blocks, dists = carry.at(state)
    for k in range(len(state.s)):
        try:
            update_similarity(k, state.s, state.r, state.alpha, hyper.gamma, state.v,
                              carry.thresholds[k], blocks, dists)
        except ValueError as exc:
            raise SolverDivergence(f"the S update of view {k} failed: {exc}") from exc
        if blocks is not None and blocks.entries[k] is not None:
            carry.block_updates += 1
    gram, products = graph_products(state.s, state.v, blocks)
    state.r = update_r(gram)
    d = _finite(view_losses(state, hyper, gram, products), "the view losses")
    state.alpha = update_alpha(d, hyper.gamma)
    return d


def fit(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverResult:
    """Run alternating sweeps until the relative objective change drops below
    REL_TOL or max_iter sweeps elapse. The result holds V and the graphs in
    the cluster order of V's labels (SolverState.order), as every state
    does."""
    state = initialize(dataset, hyper)
    trace = [objective(state, hyper)]
    carry = SweepCarry.start(dataset.n_instances, dataset.n_views)
    converged = False
    for _ in range(hyper.max_iter):
        d = sweep(state, hyper, carry)
        trace.append(objective(state, hyper, d))
        prev, cur = trace[-2], trace[-1]
        if abs(cur - prev) / max(1.0, prev) < REL_TOL:
            converged = True
            break
    return SolverResult(state, np.asarray(trace), len(trace) - 1, converged)


def save_trace(trace: np.ndarray, path: str) -> None:
    """Two-column text: sweep index, objective value."""
    data = np.column_stack([np.arange(len(trace)), trace])
    np.savetxt(path, data, fmt=["%d", "%.12g"])
