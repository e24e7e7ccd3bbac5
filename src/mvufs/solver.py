"""Alternating solver for weighted NMF feature selection on incomplete multi-view data.

One sweep updates, in order: the consensus indicator V (multiplicative, with a
large orthogonality penalty), each view's factor U^(v) (multiplicative with
l2,p reweighting), each view's similarity graph S^(v) (closed-form column
update, Gauss-Seidel across views), the cross-view coefficients R (exact:
every candidate support of every column from one batched KKT solve) and the
view weights alpha (closed form on the simplex).

The sweep touches each N x N graph only a few times and forms no other N x N
array of floats: the S update writes each graph in place from V, and one pass
over the new graphs (graph_products, the only code that forms either) gives
their l x l Gram matrix and every S_k [V 1]. The Gram matrix serves the R
update and the view losses (whose reconstruction term it gives exactly), the
products serve the losses and, as nothing changes V or the graphs in between,
the next sweep's V update; a sweep whose carry lacks them (`fit` carries
the initial pass's) makes the pass itself. Each sweep's final S-projection
thresholds start the next (SweepCarry, which every sweep takes). No
residual graph or Laplacian is ever formed. The weighted-NMF weights
are the dataset's own (MultiViewDataset.weights), so no update takes them;
so is the start that `initialize` builds the graphs from (Start), made by
the first fit on a dataset and read by the fits that follow.
Each sweep checks that V, U, the S updates and the view losses stay finite
and raises SolverDivergence naming the first that does not.

V acts as a cluster indicator, so the repaired graphs concentrate on V's
clusters. For graphs of at least BLOCK_MIN_ENTRIES entries `initialize`
builds V and the graphs with the instances sorted by V's labels and `fit`
puts the dataset in that order, and while the labels stay sorted runs of two
or more members, a sweep updates each graph on the diagonal blocks of the
runs plus the few off-block entries that the other graphs list
(graph.ClusterBlocks, kept in SweepCarry), and the graph pass reads only
those. A per-column bound proves that the dense update would give the
same graph; a view that fails it, graphs with too many off-block entries,
unsorted labels and singleton clusters take the dense update.
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

DENOM_FLOOR = 1e-12
XI = 1e7  # orthogonality penalty on V
EPS = 1e-10  # l2,p reweighting floor
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
    u: list  # l factor matrices, d_v x c
    v: np.ndarray  # consensus indicator, N x c
    s: list  # l similarity graphs, N x N
    r: np.ndarray  # cross-view coefficients, l x l
    alpha: np.ndarray  # view weights on the simplex
    # None, or the order of the dataset's instances that V and the graphs
    # hold (see initialize); sweep and objective put the dataset in it
    order: np.ndarray | None = None


@dataclass
class SweepCarry:
    """What a sweep leaves for the next sweep of the same state, O(l N c) numbers.

    thresholds: per view, the S projection's final per-column thresholds,
    the next sweep's starting guesses (NaN: start cold).
    products: per view, S_k [V 1] for the V and graphs the last sweep left
    (`basis`); the next V update reuses them while the state still holds
    exactly those arrays. Every S update writes its graph in place and a
    sweep replaces V before the first of them, so products never outlive
    the graphs they came from.
    blocks: the ClusterBlocks of the last sweep's labels with the graphs'
    off-block lists, kept while the labels stay the same and the state
    holds the arrays the last sweep left.
    block_updates: how many S updates have run on the blocks.
    """
    thresholds: list
    products: list | None = None
    basis: tuple = ()
    blocks: ClusterBlocks | None = None
    block_updates: int = 0

    @classmethod
    def start(cls, n_instances: int, n_views: int) -> "SweepCarry":
        return cls([np.full(n_instances, np.nan) for _ in range(n_views)])

    def blocks_for(self, v: np.ndarray) -> ClusterBlocks | None:
        """The ClusterBlocks of V's labels, set at V; None when the graphs
        are too small or the labels are unsorted or have a singleton."""
        edges = cluster_bounds(v) if len(v) ** 2 >= BLOCK_MIN_ENTRIES else None
        if edges is None:
            self.blocks = None
        elif self.blocks is None or not np.array_equal(self.blocks.edges, edges):
            self.blocks = ClusterBlocks(edges, len(self.thresholds))
        return None if self.blocks is None else self.blocks.at(v)

    def keep(self, state: SolverState, products: list) -> None:
        self.products = products
        self.basis = (state.v, *state.s)

    def products_for(self, state: SolverState) -> list | None:
        held = (state.v, *state.s)
        if len(held) != len(self.basis) or any(b is not a for b, a in zip(self.basis, held)):
            return None
        return self.products


@dataclass
class SolverResult:
    state: SolverState
    trace: np.ndarray  # objective per sweep, including the initial value
    iterations: int
    converged: bool


def sparsity_reweight(u: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Diagonal of the l2,p reweighting matrix, smoothed so zero rows stay finite.

    D_ii = p * (||u_i||^2 + eps)^((p-2)/2) / 2, the exact gradient factor of
    the smoothed surrogate sum_i (||u_i||^2 + eps)^(p/2).
    """
    row_sq = np.sum(u * u, axis=1)
    return 0.5 * p * np.power(row_sq + eps, 0.5 * (p - 2.0))


def l2p_norm_p(u: np.ndarray, p: float) -> float:
    """sum_i ||row i||_2^p."""
    return float(np.sum(np.linalg.norm(u, axis=1) ** p))


def objective(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    losses: np.ndarray | None = None,
) -> float:
    """Full model objective sum_v alpha_v^gamma (d_v + beta ||R||_F^2).

    `losses` are the view losses d of the current state when the caller
    already has them; otherwise one graph pass gives them.
    """
    if losses is None:
        if state.order is not None:
            dataset = _permuted(dataset, state.order)
        losses = view_losses(state, dataset, hyper, *graph_products(state.s, state.v))
    r_term = hyper.beta * float(np.vdot(state.r, state.r))
    total = float(np.sum(state.alpha ** hyper.gamma * (losses + r_term)))
    if not np.isfinite(total):
        raise SolverDivergence("objective is non-finite")
    return total


def update_u(
    v: int,
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
) -> np.ndarray:
    """Multiplicative update of the view-v factor under the l2,p reweighting."""
    x = dataset.views[v]
    w2 = dataset.weights[v] ** 2
    u = state.u[v]
    d = sparsity_reweight(u, hyper.p, EPS)
    num = (x * w2[None, :]) @ state.v
    m = state.v.T @ (state.v * w2[:, None])
    den = u @ m + hyper.lam * d[:, None] * u
    return u * np.sqrt(num / (den + DENOM_FLOOR))


def update_v(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    products: list,
) -> np.ndarray:
    """Multiplicative update of the consensus indicator with orthogonality penalty.

    `products` are the S_k [V 1] (S_k V and the row sums of S_k) of the
    current state, from `graph_products`.
    """
    v_mat = state.v
    c = v_mat.shape[1]
    ag = state.alpha ** hyper.gamma
    e = np.zeros_like(v_mat)
    q = np.zeros_like(v_mat)
    for k in range(dataset.n_views):
        x = dataset.views[k]
        w2 = dataset.weights[k] ** 2
        u = state.u[k]
        sv_deg = products[k]
        e += ag[k] * (w2[:, None] * (x.T @ u) + hyper.beta * sv_deg[:, :c])
        q += ag[k] * (w2[:, None] * (v_mat @ (u.T @ u)) + hyper.beta * sv_deg[:, c:] * v_mat)
    two_xi = 2.0 * XI
    num = e + two_xi * v_mat
    den = q + two_xi * (v_mat @ (v_mat.T @ v_mat))
    return v_mat * np.sqrt(num / (den + DENOM_FLOOR))


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


def view_losses(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    gram: np.ndarray,
    products: list,
) -> np.ndarray:
    """Per-view loss d^(v) driving the view-weight update (no ||R||^2 term).

    The graph term uses tr(V'LV) = sum_i deg_i ||v_i||^2 - <V, SV> with deg
    the row sums of S, so the Laplacian is never formed; one product
    S [V 1] gives both SV and deg. The reconstruction term is
    ||S_v - sum_{i != v} r_iv S_i||^2 = e'Ge with e = e_v - R[:, v] and G the
    Gram matrix of the graphs, so no residual graph is formed. Rounding can
    leave e'Ge slightly negative when the graphs coincide; it is clamped at
    zero. `gram` and `products` (the S_k [V 1]) of the current state come
    from `graph_products`.
    """
    l = dataset.n_views
    c = state.v.shape[1]
    row_sq = np.sum(state.v * state.v, axis=1)
    d = np.empty(l)
    for v in range(l):
        resid = (dataset.views[v] - state.u[v] @ state.v.T) * dataset.weights[v][None, :]
        e = -state.r[:, v]
        e[v] += 1.0
        recon = max(float(e @ gram @ e), 0.0)
        sv_deg = products[v]
        smooth = float(sv_deg[:, c] @ row_sq) - float(np.vdot(state.v, sv_deg[:, :c]))
        d[v] = (
            float(np.vdot(resid, resid))
            + hyper.lam * l2p_norm_p(state.u[v], hyper.p)
            + hyper.beta * (smooth + recon)
        )
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
    O(N (c + k l)) numbers, all read-only: V's start (see initialize), the
    cluster order of its k-means labels (None below BLOCK_MIN_ENTRIES) and
    each view's kNN search (graph.KnnEdges), V and the searches in it."""
    v: np.ndarray
    order: np.ndarray | None
    edges: tuple


def _start(dataset: MultiViewDataset, hyper: Hyperparameters) -> Start:
    """The dataset's Start for (seed, knn, n_clusters), made on the first
    call and kept in `dataset.starts` for the fits that follow; the key also
    holds whether the graphs take the cluster order. k-means leaves no
    cluster empty, so the order also sorts the argmax labels of V's rows."""
    from .evaluation import kmeans  # resolved per call: perfbench/tracing.py wraps it by name

    ordered = dataset.n_instances ** 2 >= BLOCK_MIN_ENTRIES
    key = (hyper.seed, hyper.knn, hyper.n_clusters, ordered)
    start = dataset.starts.get(key)
    if start is None:
        imputed = impute_missing(dataset)
        labels = kmeans(np.vstack(imputed), hyper.n_clusters, [hyper.seed])[0][0]
        v = np.full((len(labels), hyper.n_clusters), 1e-3)  # the soft indicator of the labels
        v[np.arange(len(labels)), labels] = 1.0
        v /= np.linalg.norm(v, axis=0, keepdims=True)
        order, presence = None, dataset.presence
        if ordered:
            order = np.argsort(labels, kind="stable")
            order.flags.writeable = False
            v, presence = v[order], presence[order]
            imputed = [x[:, order] for x in imputed]
        edges = tuple(knn_edges(x, presence[:, k], k=hyper.knn) for k, x in enumerate(imputed))
        v.flags.writeable = False
        start = dataset.starts[key] = Start(v, order, edges)
    return start


def initialize(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverState:
    """Strictly positive factors, kNN similarity graphs on imputed data,
    uniform coefficients and view weights.

    V starts as a column-normalized soft cluster indicator (a one-seed
    k-means, seed hyper.seed, on the concatenated imputed views, floored at
    1e-3 so multiplicative updates can move every entry). Starting V near the
    nonnegative orthogonal manifold is what lets the huge-XI penalty keep the
    objective monotone: from a generic positive matrix the support-splitting
    required by V'V = I is a slow process during which the penalty drags the
    unpenalized objective upward. Refuses l outside [2, MAX_VIEWS].

    Graphs of at least BLOCK_MIN_ENTRIES entries are built with the
    instances sorted by V's labels (stable), so that the sweeps can work on
    the labels' blocks: V and the graphs then hold the dataset's instances
    in the state's `order`, into which `sweep` and `objective` put the
    dataset (`fit` does so once and clears it). The k-means start and U do
    not depend on the order.

    V's start, the order and each view's kNN search depend only on the
    dataset, `seed`, `knn` and c, so the first call for them computes them
    and later calls read them from the dataset (see Start); a grid's cells
    on one masked dataset share them. Every call copies V, draws its own U
    and assembles new graphs (graph.similarity_from_edges), so no two states
    share an array.
    """
    l = dataset.n_views
    check_view_count(l)
    rng = np.random.default_rng(hyper.seed)
    u = [rng.uniform(0.1, 1.1, size=(d, hyper.n_clusters)) for d in dataset.feature_counts]
    start = _start(dataset, hyper)
    v = start.v.copy()
    order = None if start.order is None else start.order.copy()
    s = [similarity_from_edges(dataset.n_instances, edges) for edges in start.edges]
    r = np.full((l, l), 1.0 / (l - 1))
    np.fill_diagonal(r, 0.0)
    alpha = np.full(l, 1.0 / l)
    return SolverState(u=u, v=v, s=s, r=r, alpha=alpha, order=order)


def _finite(values: np.ndarray, source: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SolverDivergence(f"non-finite values from {source}")
    return values


def sweep(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    carry: SweepCarry,
) -> np.ndarray:
    """One full alternating pass, in place: V, U^(v), S^(v), R, alpha.

    Returns the view losses of the final state, from which alpha was set.
    `carry` holds what the previous sweep of this state left (see
    SweepCarry) and receives what this one leaves; with a fresh one
    (SweepCarry.start), one graph pass forms the V update's products and
    every projection starts cold. The dataset is put in the state's
    `order`, if it holds one.
    """
    if state.order is not None:
        dataset = _permuted(dataset, state.order)
    products = carry.products_for(state)
    if products is None:  # the graphs are not the ones the carry's lists describe
        carry.blocks = None
        products = graph_products(state.s, state.v)[1]
    state.v = _finite(update_v(state, dataset, hyper, products), "the V update")
    for k in range(dataset.n_views):
        state.u[k] = _finite(update_u(k, state, dataset, hyper), "the U update")
    blocks = carry.blocks_for(state.v)
    dists = sweep_dists(state.v)
    for k in range(dataset.n_views):
        try:
            update_similarity(k, state.s, state.r, state.alpha, hyper.gamma, state.v,
                              carry.thresholds[k], blocks, dists)
        except ValueError as exc:
            raise SolverDivergence(f"the S update of view {k} failed: {exc}") from exc
        if blocks is not None and blocks.entries[k] is not None:
            carry.block_updates += 1
    gram, products = graph_products(state.s, state.v, blocks)
    state.r = update_r(gram)
    d = _finite(view_losses(state, dataset, hyper, gram, products), "the view losses")
    state.alpha = update_alpha(d, hyper.gamma)
    carry.keep(state, products)
    return d


def _permuted(dataset: MultiViewDataset, order: np.ndarray) -> MultiViewDataset:
    """The dataset with its instances in `order`, and no labels. Each view is
    gathered once: x.T[order], made read-only, so the dataset keeps its
    transpose, in x[:, order]'s layout (see datamodel._owned)."""
    gathers = [x.T[order] for x in dataset.views]
    for g in gathers:
        g.flags.writeable = False
    return MultiViewDataset(tuple(g.T for g in gathers), dataset.presence[order])


def _restore_order(state: SolverState, held_order: np.ndarray) -> None:
    """Put the instances of V and the graphs, held in `held_order` (see
    initialize), back in the dataset's order, the graphs in place with no
    N x N scratch.

    Row i of a graph takes row order[i], order = argsort(held_order), its
    columns gathered by `order`, so rows move along the cycles of `order`,
    taken one at a time: the cycle's first row is set aside, the others move
    back one place a row block at a time (each block read before it is
    written), and the first row takes the cycle's last place. Scratch: two
    blocks of BLOCK_ENTRIES / 2 entries, one row and O(N) indices.
    """
    order = np.argsort(held_order)
    state.v = state.v[order]
    n, nxt, seen, cycles = len(order), order.tolist(), [False] * len(order), []
    for i in range(n):
        cycle = []
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = nxt[i]
        if cycle:
            cycles.append(np.array(cycle, dtype=np.intp))
    step = max(1, BLOCK_ENTRIES // (2 * n))
    for s in state.s:
        for cycle in cycles:
            first = s[cycle[0]].take(order)
            to, take = cycle[:-1], cycle[1:]
            for t in range(0, len(to), step):
                s[to[t:t + step]] = s.take(take[t:t + step], axis=0).take(order, axis=1)
            s[cycle[-1]] = first


def fit(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverResult:
    """Run alternating sweeps until the relative objective change drops below
    REL_TOL or max_iter sweeps elapse.

    The sweeps run in the instance order the initial state was built in
    (SolverState.order, see initialize): the dataset is put in it once and
    the order taken off the state. The result is in the dataset's order.
    """
    state = initialize(dataset, hyper)
    order, state.order = state.order, None
    if order is not None:
        dataset = _permuted(dataset, order)
    gram, products = graph_products(state.s, state.v)
    d = view_losses(state, dataset, hyper, gram, products)
    trace = [objective(state, dataset, hyper, d)]
    carry = SweepCarry.start(dataset.n_instances, dataset.n_views)
    carry.keep(state, products)  # the first V update reuses the initial products
    converged = False
    for _ in range(hyper.max_iter):
        d = sweep(state, dataset, hyper, carry)
        trace.append(objective(state, dataset, hyper, d))
        prev, cur = trace[-2], trace[-1]
        if abs(cur - prev) / max(1.0, prev) < REL_TOL:
            converged = True
            break
    if order is not None:
        _restore_order(state, order)
    return SolverResult(state, np.asarray(trace), len(trace) - 1, converged)


def save_trace(trace: np.ndarray, path: str) -> None:
    """Two-column text: sweep index, objective value."""
    data = np.column_stack([np.arange(len(trace)), trace])
    np.savetxt(path, data, fmt=["%d", "%.12g"])
