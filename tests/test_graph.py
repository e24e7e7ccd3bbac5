import numpy as np
import pytest

from mvufs import graph
from mvufs.graph import (
    build_initial_similarity,
    check_coefficients,
    check_similarity,
    laplacian,
    pairwise_sq_dists,
    update_similarity,
)


def random_similarity(n, rng):
    s = rng.uniform(size=(n, n))
    np.fill_diagonal(s, 0.0)
    return s / s.sum(axis=0)


def random_coefficients(l, rng):
    r = rng.uniform(size=(l, l))
    np.fill_diagonal(r, 0.0)
    return r / r.sum(axis=0)


class TestPairwiseSqDists:
    def test_identical_rows(self):
        h = pairwise_sq_dists(np.ones((4, 3)))
        assert np.all(h == 0)

    def test_standard_basis(self):
        v = np.eye(2)
        h = pairwise_sq_dists(v)
        assert h[0, 1] == pytest.approx(2.0)
        assert h[0, 0] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(7, 4))
        h = pairwise_sq_dists(v)
        for i in range(7):
            for j in range(7):
                expect = np.sum((v[i] - v[j]) ** 2)
                assert abs(h[i, j] - expect) <= 1e-12


class TestLaplacian:
    def test_uniform_graph(self):
        n = 3
        s = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(s, 0.0)
        l, d = laplacian(s)
        assert np.allclose(d, np.eye(n))
        assert np.allclose(l, np.eye(n) - s)

    def test_zero_matrix(self):
        l, d = laplacian(np.zeros((4, 4)))
        assert np.all(l == 0) and np.all(d == 0)

    def test_row_stochastic_nullspace(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(size=(5, 5))
        np.fill_diagonal(s, 0.0)
        s /= s.sum(axis=1, keepdims=True)  # row-stochastic
        l, _ = laplacian(s)
        assert np.allclose(l @ np.ones(5), 0.0)

    def test_trace_identity_symmetric(self):
        # Tr(V'LV) = 1/2 sum_ij S_ij ||v_i - v_j||^2 holds for symmetric S
        rng = np.random.default_rng(2)
        s = rng.uniform(size=(6, 6))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        v = rng.normal(size=(6, 3))
        l, _ = laplacian(s)
        lhs = np.trace(v.T @ l @ v)
        rhs = 0.5 * np.sum(s * pairwise_sq_dists(v))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestBuildInitialSimilarity:
    def test_two_identical_instances(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        s = build_initial_similarity(x, np.ones(2, dtype=int), k=1)
        assert np.allclose(s, [[0.0, 1.0], [1.0, 0.0]])

    def test_absent_instance_uniform_column(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(3, 6))
        presence = np.array([1, 1, 0, 1, 1, 1])
        s = build_initial_similarity(x, presence, k=2)
        n = 6
        off = np.delete(s[:, 2], 2)
        assert np.allclose(off, 1.0 / (n - 1))
        # the absent row keeps nonzero weight in every present column even
        # though column normalization rescales the exact values
        assert np.all(np.delete(s[2, :], 2) > 0)

    def test_invariants_hold(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(5, 12))
        presence = np.ones(12, dtype=int)
        presence[[2, 7]] = 0
        s = build_initial_similarity(x, presence, k=3)
        check_similarity(s)

    def test_k_too_large(self):
        x = np.ones((2, 4))
        with pytest.raises(ValueError, match="present"):
            build_initial_similarity(x, np.array([1, 1, 0, 0]), k=2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(4, 9))
        presence = np.ones(9, dtype=int)
        s = build_initial_similarity(x, presence, k=3)
        perm = rng.permutation(9)
        s_perm = build_initial_similarity(x[:, perm], presence, k=3)
        assert np.allclose(s_perm, s[np.ix_(perm, perm)])


class TestUpdateSimilarity:
    def test_zero_target_gives_uniform(self):
        n, l = 5, 3
        graphs = [np.zeros((n, n)) for _ in range(l)]
        r = random_coefficients(l, np.random.default_rng(0))
        s = update_similarity(0, graphs, r, np.full(l, 1 / l), 2.0, np.zeros((n, n)))
        expect = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(s, expect)

    def test_invariants_enforced(self):
        rng = np.random.default_rng(6)
        n, l = 8, 3
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        h = pairwise_sq_dists(rng.normal(size=(n, 3)))
        s = update_similarity(1, graphs, r, alpha, 3.0, h)
        check_similarity(s)

    def test_matches_projected_gradient_qp_oracle(self):
        # per-column oracle on the quadratic subproblem, run to convergence
        rng = np.random.default_rng(7)
        for n in (4, 5, 6):
            l = 3
            graphs = [random_similarity(n, rng) for _ in range(l)]
            r = random_coefficients(l, rng)
            alpha = rng.dirichlet(np.ones(l))
            gamma = 2.5
            h = pairwise_sq_dists(rng.normal(size=(n, 2)))
            v = 0
            s = update_similarity(v, graphs, r, alpha, gamma, h)
            oracle = _qp_oracle(v, graphs, r, alpha, gamma, h)
            assert np.max(np.abs(s - oracle)) <= 1e-6

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_matches_loop_implementation(self, l):
        rng = np.random.default_rng(20 + l)
        n = 9
        for trial in range(4):
            graphs = [random_similarity(n, rng) for _ in range(l)]
            if trial == 3:  # collapsed consensus: every view holds the same graph
                graphs = [graphs[0].copy() for _ in range(l)]
            r = random_coefficients(l, rng)
            alpha = rng.dirichlet(np.ones(l))
            h = pairwise_sq_dists(rng.normal(size=(n, 3)))
            for v in range(l):
                s = update_similarity(v, graphs, r, alpha, 3.0, h)
                expect = _loop_update_similarity(v, graphs, r, alpha, 3.0, h)
                assert np.max(np.abs(s - expect)) <= 1e-12


    def test_row_blocks_match_loop_implementation(self, monkeypatch):
        # 2-row blocks with a 1-row remainder: the target is accumulated in pieces
        monkeypatch.setattr(graph, "BLOCK_ENTRIES", 20)
        rng = np.random.default_rng(26)
        n, l = 9, 3
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        h = pairwise_sq_dists(rng.normal(size=(n, 3)))
        for v in range(l):
            s = update_similarity(v, graphs, r, alpha, 3.0, h)
            expect = _loop_update_similarity(v, graphs, r, alpha, 3.0, h)
            assert np.max(np.abs(s - expect)) <= 1e-12

    @pytest.mark.parametrize("l", [2, 3])
    def test_per_column_constant_in_h_is_ignored(self, l):
        rng = np.random.default_rng(27 + l)
        n = 11
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        h = pairwise_sq_dists(rng.normal(size=(n, 3)))
        shift = rng.normal(scale=10.0, size=n)
        for v in range(l):
            s = update_similarity(v, graphs, r, alpha, 3.0, h)
            shifted = update_similarity(v, graphs, r, alpha, 3.0, h + shift[None, :])
            assert np.max(np.abs(s - shifted)) <= 1e-12


def _loop_update_similarity(v, graphs, r, alpha, gamma, h):
    """Reference S update: the target built from explicit cross-view residuals,
    then projected one column at a time."""
    from mvufs.simplex import project_offdiag_simplex

    l = len(graphs)
    n = graphs[0].shape[0]
    ag = np.asarray(alpha, dtype=float) ** gamma
    others = [k for k in range(l) if k != v]
    denom = sum(ag[k] * r[v, k] ** 2 for k in others) + ag[v]
    b = sum(graphs[i] * r[i, v] for i in others)
    q = ag[v] * (b - 0.25 * h)
    for k in others:
        n_k = graphs[k].copy()
        for j in others:
            if j != k:
                n_k -= graphs[j] * r[j, k]
        q += ag[k] * r[v, k] * n_k
    p = q / denom
    s = np.empty_like(p)
    for c in range(n):
        s[:, c] = project_offdiag_simplex(p[:, c], excluded=c)
    return s


def _qp_oracle(v, graphs, r, alpha, gamma, h, iters=200000):
    """Plain projected gradient on the original per-column subproblem."""
    from mvufs.simplex import project_offdiag_simplex

    l = len(graphs)
    n = graphs[0].shape[0]
    ag = alpha**gamma
    others = [k for k in range(l) if k != v]
    b = sum(graphs[i] * r[i, v] for i in others)
    n_mats = {}
    for k in others:
        m = graphs[k].copy()
        for j in others:
            if j != k:
                m -= graphs[j] * r[j, k]
        n_mats[k] = m
    lip = 2.0 * (sum(ag[k] * r[v, k] ** 2 for k in others) + ag[v])
    out = np.zeros((n, n))
    for c in range(n):
        s = np.full(n, 1.0 / (n - 1))
        s[c] = 0.0
        for _ in range(iters):
            grad = 0.5 * ag[v] * h[:, c] + 2.0 * ag[v] * (s - b[:, c])
            for k in others:
                grad += 2.0 * ag[k] * r[v, k] * (r[v, k] * s - n_mats[k][:, c])
            s_new = project_offdiag_simplex(s - grad / lip, excluded=c)
            if np.max(np.abs(s_new - s)) < 1e-12:
                s = s_new
                break
            s = s_new
        out[:, c] = s
    return out
