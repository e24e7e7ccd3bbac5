"""Alternating solver for weighted NMF feature selection on incomplete multi-view data.

One sweep updates, in order: the consensus indicator V (multiplicative, with a
large orthogonality penalty), each view's factor U^(v) (multiplicative with
l2,p reweighting), each view's similarity graph S^(v) (closed-form column
update, Gauss-Seidel across views), the cross-view coefficients R (exact:
every candidate support of every column from one batched KKT solve) and the
view weights alpha (closed form on the simplex).

The sweep touches each N x N graph only a few times: the S update takes
distances up to a per-column constant from one product V V', and one pass
over the new graphs gives their l x l Gram matrix and every S_k [V 1]. The
Gram matrix serves the R update and the view losses (whose reconstruction
term it gives exactly), the products serve the losses and, because nothing
changes V or the graphs in between, the next sweep's V update; `fit` seeds
the first sweep with the products of the initial objective's pass. `fit` also
hands each sweep's final S-projection thresholds to the next as starting
guesses (SweepCarry); a sweep without a carry runs as with a fresh one. No
residual graph or Laplacian is ever formed. The weighted-NMF weights are the
dataset's own (MultiViewDataset.weights), so no update takes them. Each
sweep checks that V, U, the S updates and the view losses stay finite and
raises SolverDivergence naming the first that does not.

V acts as a cluster indicator, so the repaired graphs concentrate on V's
clusters. For graphs of at least BLOCK_MIN_ENTRIES entries `fit` sorts the
instances by the initial V's labels, and while the labels stay sorted runs
of two or more members, a sweep updates each graph in place on the diagonal
blocks of the runs plus the few off-block entries that the other graphs
list (graph.ClusterBlocks, kept in SweepCarry), and the graph pass reads
only those. A per-column check proves that the dense update would give the
same graph; a view that fails it, graphs with too many off-block entries,
unsorted labels and singleton clusters take the dense update.
"""

from __future__ import annotations

import functools
import itertools
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .datamodel import MultiViewDataset, impute_missing
from .graph import (
    BLOCK_ENTRIES,
    BLOCK_MIN_ENTRIES,
    ClusterBlocks,
    build_initial_similarity,
    cluster_bounds,
    update_similarity,
)
# Unused here but kept bound: perfbench/tracing.py wraps these names in this module.
from .datamodel import build_view_weights  # noqa: F401
from .graph import laplacian, pairwise_sq_dists  # noqa: F401
from .simplex import project_offdiag_simplex  # noqa: F401

DENOM_FLOOR = 1e-12
XI = 1e7  # orthogonality penalty on V
EPS = 1e-10  # l2,p reweighting floor


class SolverDivergence(RuntimeError):
    """Raised when the objective or an update produces a non-finite value."""


@dataclass(frozen=True)
class Hyperparameters:
    lam: float  # row-sparsity weight
    beta: float  # graph / complementarity weight
    gamma: float  # view-weight exponent, must exceed 1
    p: float  # sparsity exponent in (0, 1]
    n_clusters: int
    max_iter: int = 300
    rel_tol: float = 1e-6
    seed: int = 0
    knn: int = 5

    def __post_init__(self):
        if self.lam < 0 or self.beta < 0:
            raise ValueError("lam and beta must be nonnegative")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        if self.n_clusters < 2:
            raise ValueError("need at least 2 clusters")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.knn < 1:
            raise ValueError("knn must be at least 1")


@dataclass
class SolverState:
    u: list  # l factor matrices, d_v x c
    v: np.ndarray  # consensus indicator, N x c
    s: list  # l similarity graphs, N x N
    r: np.ndarray  # cross-view coefficients, l x l
    alpha: np.ndarray  # view weights on the simplex


@dataclass
class SweepCarry:
    """What a sweep leaves for the next sweep of the same state, O(l N c) numbers.

    thresholds: per view, the S projection's final per-column thresholds,
    the next sweep's starting guesses (NaN: start cold).
    products: per view, S_k [V 1] for the V and graphs the last sweep left;
    the next V update reuses them while the state still holds exactly those
    arrays. `basis` refers to the arrays weakly: holding the replaced graphs
    through the next sweep's S updates would double their memory. A sweep
    replaces V before any S update writes a graph in place, so products
    never outlive the graphs they came from.
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
        self.basis = tuple(weakref.ref(a) for a in (state.v, *state.s))

    def products_for(self, state: SolverState) -> list | None:
        held = (state.v, *state.s)
        if len(held) != len(self.basis) or any(r() is not a for r, a in zip(self.basis, held)):
            return None
        return self.products


@dataclass
class SolverResult:
    state: SolverState
    trace: np.ndarray  # objective per sweep, including the initial value
    iterations: int
    converged: bool
    wall_time: float


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
    already has them; otherwise they are computed.
    """
    if losses is None:
        losses = view_losses(state, dataset, hyper)
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
    products: list | None = None,
) -> np.ndarray:
    """Multiplicative update of the consensus indicator with orthogonality penalty.

    `products` are the S_k [V 1] of the current state when the caller already
    has them; otherwise each is formed here, one pass over each graph.
    """
    v_mat = state.v
    c = v_mat.shape[1]
    v_one = np.column_stack([v_mat, np.ones(len(v_mat))])
    ag = state.alpha ** hyper.gamma
    e = np.zeros_like(v_mat)
    q = np.zeros_like(v_mat)
    for k in range(dataset.n_views):
        x = dataset.views[k]
        w2 = dataset.weights[k] ** 2
        u = state.u[k]
        # SV and the row sums of S in one pass over S
        sv_deg = state.s[k] @ v_one if products is None else products[k]
        e += ag[k] * (w2[:, None] * (x.T @ u) + hyper.beta * sv_deg[:, :c])
        q += ag[k] * (w2[:, None] * (v_mat @ (u.T @ u)) + hyper.beta * sv_deg[:, c:] * v_mat)
    two_xi = 2.0 * XI
    num = e + two_xi * v_mat
    den = q + two_xi * (v_mat @ (v_mat.T @ v_mat))
    return v_mat * np.sqrt(num / (den + DENOM_FLOOR))


def graph_products(graphs, v: np.ndarray | None = None, blocks: ClusterBlocks | None = None):
    """The l x l Gram matrix of Frobenius inner products <S_i, S_j> of the
    graphs and, given V, the list of S_k [V 1], from one pass over the graphs.

    The pass runs over chunks of BLOCK_ENTRIES entries in whole rows, so the
    l chunks stay in cache while the inner products and the products with
    [V 1] read them: each graph is streamed from memory once. Without V the
    products are None. Given `blocks` whose lists cover every graph, the pass
    reads only the rows of the diagonal blocks within them and then the
    listed off-block entries.
    """
    l, n = len(graphs), len(graphs[0])
    gram = np.zeros((l, l))
    products = None
    if v is not None:
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
                if products is not None:
                    np.matmul(chunk[i], v_one[b0:b1], out=products[i][start:stop])
    for i, at in enumerate(listed):
        values = graphs[i].take(at)
        for j in range(i, l):
            gram[i, j] += values @ graphs[j].take(at)
        if products is not None:
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
    are discarded, and each column takes the first best one. The supports go
    through in chunks of about BLOCK_ENTRIES KKT entries, so memory stays
    bounded as 2^l grows; a later chunk replaces a column's best only with a
    strictly smaller score. At l <= 8 one chunk covers every support.
    """
    l = len(gram)
    quad = gram + np.eye(l)
    supports = _candidate_supports(l)
    step = max(1, BLOCK_ENTRIES // (l + 1) ** 2)
    r_new = best = None
    for start in range(0, len(supports), step):
        member = supports[start:start + step]
        kkt = np.zeros((len(member), l + 1, l + 1))
        kkt[:, :l, :l] = np.where(member[:, :, None] & member[:, None, :], quad, np.eye(l))
        kkt[:, :l, l] = kkt[:, l, :l] = member
        rhs = np.ones((len(member), l + 1, l))
        rhs[:, :l] = member[:, :, None] * gram
        cand = np.linalg.solve(kkt, rhs)[:, :l]  # cand[a, :, v]: support a's minimizer for column v
        score = np.einsum("akv,akv->av", cand, quad @ cand - 2.0 * gram)
        score[member | ~np.all(cand >= 0.0, axis=1)] = np.inf
        first = np.argmin(score, axis=0)
        pick = np.take_along_axis(cand, first[None, None], axis=0)[0]
        top = score[first, range(l)]
        if r_new is None:
            r_new, best = pick, top
        else:
            better = top < best
            r_new[:, better] = pick[:, better]
            best[better] = top[better]
    return r_new


def view_losses(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    gram: np.ndarray | None = None,
    products: list | None = None,
) -> np.ndarray:
    """Per-view loss d^(v) driving the view-weight update (no ||R||^2 term).

    The graph term uses tr(V'LV) = sum_i deg_i ||v_i||^2 - <V, SV> with deg
    the row sums of S, so the Laplacian is never formed; one product
    S [V 1] gives both SV and deg. The reconstruction term is
    ||S_v - sum_{i != v} r_iv S_i||^2 = e'Ge with e = e_v - R[:, v] and G the
    Gram matrix of the graphs, so no residual graph is formed. Rounding can
    leave e'Ge slightly negative when the graphs coincide; it is clamped at
    zero. `gram` and `products` (the S_k [V 1]) come from `graph_products`;
    unless both are given, both are computed.
    """
    if gram is None or products is None:
        gram, products = graph_products(state.s, state.v)
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


def initialize(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverState:
    """Strictly positive factors, kNN similarity graphs on imputed data,
    uniform coefficients and view weights.

    V starts as a column-normalized soft cluster indicator (k-means on the
    concatenated imputed views, floored at 1e-3 so multiplicative updates can
    move every entry). Starting V near the nonnegative orthogonal manifold is
    what lets the huge-XI penalty keep the objective monotone: from a generic
    positive matrix the support-splitting required by V'V = I is a slow
    process during which the penalty drags the unpenalized objective upward.
    """
    from .evaluation import kmeans  # resolved per call: perfbench/tracing.py wraps it by name

    l = dataset.n_views
    if l < 2:
        raise ValueError("complementary reconstruction needs at least two views")
    rng = np.random.default_rng(hyper.seed)
    c = hyper.n_clusters
    u = [rng.uniform(0.1, 1.1, size=(d, c)) for d in dataset.feature_counts]
    imputed = impute_missing(dataset)
    assignments = kmeans(np.vstack(imputed), c, seed=hyper.seed).assignments
    v = np.full((dataset.n_instances, c), 1e-3)
    v[np.arange(dataset.n_instances), assignments] = 1.0
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    s = [build_initial_similarity(imputed[k], dataset.presence[:, k], k=hyper.knn)
         for k in range(l)]
    r = np.full((l, l), 1.0 / (l - 1))
    np.fill_diagonal(r, 0.0)
    alpha = np.full(l, 1.0 / l)
    return SolverState(u=u, v=v, s=s, r=r, alpha=alpha)


def _finite(values: np.ndarray, source: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SolverDivergence(f"non-finite values from {source}")
    return values


def sweep(
    state: SolverState,
    dataset: MultiViewDataset,
    hyper: Hyperparameters,
    carry: SweepCarry | None = None,
) -> np.ndarray:
    """One full alternating pass, in place: V, U^(v), S^(v), R, alpha.

    Returns the view losses of the final state, from which alpha was set.
    `carry` holds what the previous sweep of this state left (see
    SweepCarry) and receives what this one leaves. A sweep without one runs
    as with a fresh SweepCarry: the V update forms its own graph products
    and every projection starts cold.
    """
    if carry is None:
        carry = SweepCarry.start(dataset.n_instances, dataset.n_views)
    products = carry.products_for(state)
    if products is None:  # the graphs are not the ones the carry's lists describe
        carry.blocks = None
    state.v = _finite(update_v(state, dataset, hyper, products), "the V update")
    for k in range(dataset.n_views):
        state.u[k] = _finite(update_u(k, state, dataset, hyper), "the U update")
    blocks = carry.blocks_for(state.v)
    if blocks is None:
        # Squared distances between the rows of V less |v_j|^2 in column j, a
        # per-column constant that update_similarity ignores: one GEMM, no
        # clamp or transpose.
        h = (-2.0 * state.v) @ state.v.T
        h += np.sum(state.v * state.v, axis=1)[:, None]
    else:
        h = blocks  # the same distances, formed per block
    for k in range(dataset.n_views):
        try:
            state.s[k] = update_similarity(
                k, state.s, state.r, state.alpha, hyper.gamma, h, carry.thresholds[k]
            )
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
    """The dataset with its instances in `order`."""
    labels = None if dataset.labels is None else dataset.labels[order]
    views = tuple(x[:, order] for x in dataset.views)
    return MultiViewDataset(views, dataset.presence[order], labels)


def _permute_state(state: SolverState, order: np.ndarray) -> None:
    """Put the instances of V and the graphs in `order`, the graphs in place."""
    state.v = state.v[order]
    rows = np.empty_like(state.s[0])
    for s in state.s:
        np.take(s, order, axis=0, out=rows, mode="clip")  # "raise" would buffer
        np.take(rows, order, axis=1, out=s, mode="clip")


def fit(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverResult:
    """Run alternating sweeps until the relative objective change drops below
    rel_tol or max_iter sweeps elapse.

    Graphs of at least BLOCK_MIN_ENTRIES entries are fitted with the
    instances sorted by the initial V's labels, so that the sweeps can work
    on the labels' blocks; the result is in the dataset's order.
    """
    start = time.perf_counter()
    state = initialize(dataset, hyper)
    order = None
    if dataset.n_instances ** 2 >= BLOCK_MIN_ENTRIES:
        # V's clusters as contiguous runs let the sweeps work on their blocks
        order = np.argsort(np.argmax(state.v, axis=1), kind="stable")
        dataset = _permuted(dataset, order)
        _permute_state(state, order)
    gram, products = graph_products(state.s, state.v)
    d = view_losses(state, dataset, hyper, gram, products)
    trace = [objective(state, dataset, hyper, d)]
    carry = SweepCarry.start(dataset.n_instances, dataset.n_views)
    carry.keep(state, products)  # the first V update reuses the initial products
    converged = False
    iterations = 0
    for _ in range(hyper.max_iter):
        d = sweep(state, dataset, hyper, carry)
        trace.append(objective(state, dataset, hyper, d))
        iterations += 1
        prev, cur = trace[-2], trace[-1]
        if abs(cur - prev) / max(1.0, prev) < hyper.rel_tol:
            converged = True
            break
    if order is not None:
        _permute_state(state, np.argsort(order))
    return SolverResult(
        state=state,
        trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )


def save_trace(trace: np.ndarray, path: str) -> None:
    """Two-column text: sweep index, objective value."""
    data = np.column_stack([np.arange(len(trace)), trace])
    np.savetxt(path, data, fmt=["%d", "%.12g"])
