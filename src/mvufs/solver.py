"""Alternating solver for weighted NMF feature selection on incomplete multi-view data.

One sweep updates, in order: the consensus indicator V (multiplicative, with a
large orthogonality penalty), each view's factor U^(v) (multiplicative with
l2,p reweighting), each view's similarity graph S^(v) (closed-form column
update, Gauss-Seidel across views), the cross-view coefficients R (exact
KKT support enumeration on the off-diagonal simplex) and the view weights
alpha (closed form on the simplex).

The sweep touches each N x N graph only a few times: the S update takes
distances up to a per-column constant from one product V V', the l x l Gram
matrix of the new graphs is computed once and shared by the R update and the
view losses (whose reconstruction term it gives exactly), and no residual
graph or Laplacian is ever formed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .datamodel import MultiViewDataset, ViewWeights, build_view_weights, impute_missing
from .graph import build_initial_similarity, update_similarity
# Unused here but kept bound: perfbench/tracing.py wraps these names in this module.
from .graph import laplacian, pairwise_sq_dists  # noqa: F401
from .simplex import project_offdiag_simplex  # noqa: F401

DENOM_FLOOR = 1e-12


class SolverDivergence(RuntimeError):
    """Raised when the objective or an update produces a non-finite value."""


@dataclass(frozen=True)
class Hyperparameters:
    lam: float  # row-sparsity weight
    beta: float  # graph / complementarity weight
    gamma: float  # view-weight exponent, must exceed 1
    p: float  # sparsity exponent in (0, 1]
    n_clusters: int
    xi: float = 1e7  # orthogonality penalty on V
    eps: float = 1e-10  # reweighting floor
    max_iter: int = 300
    rel_tol: float = 1e-6
    seed: int = 0
    knn: int = 5
    bandwidth: object = "auto"

    def __post_init__(self):
        if self.lam < 0 or self.beta < 0:
            raise ValueError("lam and beta must be nonnegative")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        if self.xi <= 0 or self.eps <= 0:
            raise ValueError("xi and eps must be positive")
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
    weights: ViewWeights,
    hyper: Hyperparameters,
    losses: np.ndarray | None = None,
) -> float:
    """Full model objective sum_v alpha_v^gamma (d_v + beta ||R||_F^2).

    `losses` are the view losses d of the current state when the caller
    already has them; otherwise they are computed.
    """
    if losses is None:
        losses = view_losses(state, dataset, weights, hyper)
    r_term = hyper.beta * float(np.vdot(state.r, state.r))
    total = float(np.sum(state.alpha ** hyper.gamma * (losses + r_term)))
    if not np.isfinite(total):
        raise SolverDivergence("objective is non-finite")
    return total


def update_u(
    v: int,
    state: SolverState,
    dataset: MultiViewDataset,
    weights: ViewWeights,
    hyper: Hyperparameters,
) -> np.ndarray:
    """Multiplicative update of the view-v factor under the l2,p reweighting."""
    x = dataset.views[v]
    w2 = weights.vectors[v] ** 2
    u = state.u[v]
    d = sparsity_reweight(u, hyper.p, hyper.eps)
    num = (x * w2[None, :]) @ state.v
    m = state.v.T @ (state.v * w2[:, None])
    den = u @ m + hyper.lam * d[:, None] * u
    return u * np.sqrt(num / (den + DENOM_FLOOR))


def update_v(
    state: SolverState,
    dataset: MultiViewDataset,
    weights: ViewWeights,
    hyper: Hyperparameters,
) -> np.ndarray:
    """Multiplicative update of the consensus indicator with orthogonality penalty."""
    v_mat = state.v
    c = v_mat.shape[1]
    v_one = np.column_stack([v_mat, np.ones(len(v_mat))])
    ag = state.alpha ** hyper.gamma
    e = np.zeros_like(v_mat)
    q = np.zeros_like(v_mat)
    for k in range(dataset.n_views):
        x = dataset.views[k]
        w2 = weights.vectors[k] ** 2
        u = state.u[k]
        sv_deg = state.s[k] @ v_one  # SV and the row sums of S in one pass over S
        e += ag[k] * (w2[:, None] * (x.T @ u) + hyper.beta * sv_deg[:, :c])
        q += ag[k] * (w2[:, None] * (v_mat @ (u.T @ u)) + hyper.beta * sv_deg[:, c:] * v_mat)
    two_xi = 2.0 * hyper.xi
    num = e + two_xi * v_mat
    den = q + two_xi * (v_mat @ (v_mat.T @ v_mat))
    return v_mat * np.sqrt(num / (den + DENOM_FLOOR))


def graph_gram(graphs) -> np.ndarray:
    """l x l Gram matrix of Frobenius inner products <S_i, S_j> of the graphs."""
    l = len(graphs)
    gram = np.empty((l, l))
    for i in range(l):
        for j in range(i, l):
            gram[i, j] = gram[j, i] = np.vdot(graphs[i], graphs[j])
    if not np.all(np.isfinite(gram)):
        raise SolverDivergence("non-finite Gram entries of the similarity graphs")
    return gram


def update_r(
    state: SolverState, hyper: Hyperparameters, gram: np.ndarray | None = None
) -> np.ndarray:
    """Solve every column's ridge regression on the off-diagonal simplex exactly.

    The N^2 x l stacked similarity matrix is never materialized: column v
    minimizes r'(G + I)r - 2 G[:, v]'r with r_v = 0 on the simplex, where G
    is the l x l Gram matrix of Frobenius inner products (`gram`, computed
    when not given). The problem is strictly convex, so its minimizer is the
    best of the equality-constrained minimizers over the 2^(l-1) - 1
    candidate supports that come out nonnegative.
    """
    if gram is None:
        gram = graph_gram(state.s)
    l = len(gram)
    quad = gram + np.eye(l)
    r_new = np.zeros((l, l))
    for v in range(l):
        free = [k for k in range(l) if k != v]
        candidates = []
        for size in range(1, l):
            for idx in map(list, itertools.combinations(free, size)):
                kkt = np.pad(quad[np.ix_(idx, idx)], (0, 1), constant_values=1.0)
                kkt[size, size] = 0.0
                r = np.linalg.solve(kkt, np.append(gram[idx, v], 1.0))[:size]
                if np.all(r >= 0.0):
                    candidates.append(np.zeros(l))
                    candidates[-1][idx] = r
        r_new[:, v] = min(candidates, key=lambda c: c @ quad @ c - 2.0 * gram[:, v] @ c)
    return r_new


def view_losses(
    state: SolverState,
    dataset: MultiViewDataset,
    weights: ViewWeights,
    hyper: Hyperparameters,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Per-view loss d^(v) driving the view-weight update (no ||R||^2 term).

    The graph term uses tr(V'LV) = sum_i deg_i ||v_i||^2 - <V, SV> with deg
    the row sums of S, so the Laplacian is never formed; one product
    S [V 1] gives both SV and deg. The reconstruction term is
    ||S_v - sum_{i != v} r_iv S_i||^2 = e'Ge with e = e_v - R[:, v] and G the
    Gram matrix of the graphs (`gram`, computed when not given), so no
    residual graph is formed. Rounding can leave e'Ge slightly negative when
    the graphs coincide; it is clamped at zero.
    """
    if gram is None:
        gram = graph_gram(state.s)
    l = dataset.n_views
    c = state.v.shape[1]
    row_sq = np.sum(state.v * state.v, axis=1)
    v_one = np.column_stack([state.v, np.ones(len(row_sq))])
    d = np.empty(l)
    for v in range(l):
        resid = (dataset.views[v] - state.u[v] @ state.v.T) * weights.vectors[v][None, :]
        e = -state.r[:, v]
        e[v] += 1.0
        recon = max(float(e @ gram @ e), 0.0)
        sv_deg = state.s[v] @ v_one
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


def initialize(
    dataset: MultiViewDataset,
    weights: ViewWeights,
    hyper: Hyperparameters,
) -> SolverState:
    """Strictly positive factors, kNN similarity graphs on imputed data,
    uniform coefficients and view weights.

    V starts as a column-normalized soft cluster indicator (k-means on the
    concatenated imputed views, floored at 1e-3 so multiplicative updates can
    move every entry). Starting V near the nonnegative orthogonal manifold is
    what lets the huge-xi penalty keep the objective monotone: from a generic
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
    s = [
        build_initial_similarity(
            imputed[k], dataset.presence[:, k], k=hyper.knn, bandwidth=hyper.bandwidth
        )
        for k in range(l)
    ]
    r = np.full((l, l), 1.0 / (l - 1))
    np.fill_diagonal(r, 0.0)
    alpha = np.full(l, 1.0 / l)
    return SolverState(u=u, v=v, s=s, r=r, alpha=alpha)


def sweep(
    state: SolverState,
    dataset: MultiViewDataset,
    weights: ViewWeights,
    hyper: Hyperparameters,
) -> np.ndarray:
    """One full alternating pass, in place: V, U^(v), S^(v), R, alpha.

    Returns the view losses of the final state, from which alpha was set.
    """
    state.v = update_v(state, dataset, weights, hyper)
    for k in range(dataset.n_views):
        state.u[k] = update_u(k, state, dataset, weights, hyper)
    # Squared distances between the rows of V less |v_j|^2 in column j, a
    # per-column constant that update_similarity ignores: one GEMM, no clamp
    # or transpose.
    h = (-2.0 * state.v) @ state.v.T
    h += np.sum(state.v * state.v, axis=1)[:, None]
    for k in range(dataset.n_views):
        state.s[k] = update_similarity(
            k, state.s, state.r, state.alpha, hyper.gamma, h
        )
    gram = graph_gram(state.s)
    state.r = update_r(state, hyper, gram)
    d = view_losses(state, dataset, weights, hyper, gram)
    state.alpha = update_alpha(d, hyper.gamma)
    return d


def fit(dataset: MultiViewDataset, hyper: Hyperparameters) -> SolverResult:
    """Run alternating sweeps until the relative objective change drops below
    rel_tol or max_iter sweeps elapse."""
    start = time.perf_counter()
    weights = build_view_weights(dataset)
    state = initialize(dataset, weights, hyper)
    trace = [objective(state, dataset, weights, hyper)]
    converged = False
    iterations = 0
    for _ in range(hyper.max_iter):
        d = sweep(state, dataset, weights, hyper)
        trace.append(objective(state, dataset, weights, hyper, d))
        iterations += 1
        prev, cur = trace[-2], trace[-1]
        if abs(cur - prev) / max(1.0, prev) < hyper.rel_tol:
            converged = True
            break
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
