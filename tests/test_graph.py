import numpy as np
import pytest

from mvufs import graph
from mvufs.graph import (
    ClusterBlocks,
    build_initial_similarity,
    check_coefficients,
    check_similarity,
    cluster_bounds,
    laplacian,
    pairwise_sq_dists,
    update_similarity,
)
from mvufs.solver import graph_products


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

    def test_matches_full_sort_implementation(self):
        # tie-free inputs give bitwise the graph of the full-sort reference
        rng = np.random.default_rng(8)
        n = 30
        x = rng.uniform(size=(4, n))
        all_present = np.ones(n, dtype=int)
        some_absent = all_present.copy()
        some_absent[rng.choice(n, size=9, replace=False)] = 0
        for presence in (all_present, some_absent):
            m = int(presence.sum())
            for k in (1, 3, m - 1):
                s = build_initial_similarity(x, presence, k=k)
                expect = _argsort_initial_similarity(x, presence, k=k)
                assert np.array_equal(s, expect), (m, k)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_duplicate_instances(self, k):
        # every instance has an identical twin, so its twin and itself are
        # both at distance zero; it must still find k neighbors other than itself
        rng = np.random.default_rng(9)
        base = rng.uniform(size=(3, 8))
        x = np.hstack([base, base])
        presence = np.ones(16, dtype=int)
        presence[3] = 0
        s = build_initial_similarity(x, presence, k=k)
        check_similarity(s)
        present = np.flatnonzero(presence)
        for i in present:
            assert np.count_nonzero(s[present, i]) >= k
        twins = (present + 8) % 16
        paired = presence[twins] == 1
        assert np.all(s[twins[paired], present[paired]] > 0)


def _argsort_initial_similarity(x, presence, k=5):
    """Reference kNN graph: full row sort, dense kernel and mask."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    present = np.flatnonzero(np.asarray(presence) == 1)
    m = present.size
    d2 = pairwise_sq_dists(x[:, present].T)
    order = np.argsort(d2, axis=1)
    knn = order[:, 1 : k + 1]  # skip self
    sigma = float(np.sqrt(d2[np.arange(m), order[:, k]]).mean())
    if sigma <= 0.0:
        sigma = 1.0
    kernel = np.exp(-d2 / (2.0 * sigma * sigma))
    mask = np.zeros((m, m), dtype=bool)
    mask[np.repeat(np.arange(m), k), knn.ravel()] = True
    mask |= mask.T
    kernel = np.where(mask, kernel, 0.0)
    np.fill_diagonal(kernel, 0.0)
    s = np.zeros((n, n))
    s[np.ix_(present, present)] = kernel
    absent = np.setdiff1d(np.arange(n), present)
    if absent.size:
        s[absent, :] = 1.0 / (n - 1)
        s[:, absent] = 1.0 / (n - 1)
        np.fill_diagonal(s, 0.0)
    colsum = s.sum(axis=0)
    colsum[colsum == 0.0] = 1.0
    s = s / colsum
    np.clip(s, 0.0, 1.0, out=s)
    return s


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


def block_problem(sizes, l, rng, off_block=6):
    """Sorted cluster indicator V with clusters of `sizes` (zeros allowed),
    graphs that are block diagonal but for `off_block` shared off-block
    entries large enough to survive an update, coefficients and weights."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    v = 0.01 * rng.uniform(size=(n, len(sizes))) / np.sqrt(n)
    v[np.arange(n), labels] += 1.0 / np.sqrt(np.asarray(sizes)[labels])
    same = labels[:, None] == labels[None, :]
    graphs = []
    for _ in range(l):
        g = rng.uniform(size=(n, n)) * same
        np.fill_diagonal(g, 0.0)
        graphs.append(g)
    rows, cols = np.nonzero(~same)
    pick = rng.choice(len(rows), size=off_block, replace=False)
    for g in graphs:
        g[rows[pick], cols[pick]] = 3.0
        g /= g.sum(axis=0)
    r = random_coefficients(l, rng)
    alpha = rng.dirichlet(np.ones(l))
    return v, graphs, r, alpha


def shifted_dists(v):
    """The h that sweeps pass: squared distances less |v_j|^2 in column j."""
    return ClusterBlocks(np.array([0, len(v)]), 0).at(v).h(slice(None), slice(None))


def off_block(s, edges):
    off = s != 0
    for b0, b1 in zip(edges[:-1], edges[1:]):
        off[b0:b1, b0:b1] = False
    return np.flatnonzero(off)


class TestClusterBounds:
    def test_runs_of_sorted_labels(self):
        v = np.eye(3)[[0, 0, 2, 2, 2]]  # cluster 1 is empty
        assert cluster_bounds(v).tolist() == [0, 2, 5]

    def test_unsorted_labels(self):
        assert cluster_bounds(np.eye(2)[[0, 1, 1, 0]]) is None

    def test_singleton_cluster(self):
        assert cluster_bounds(np.eye(3)[[0, 0, 1, 2, 2]]) is None


class TestBlockUpdate:
    @pytest.fixture(autouse=True)
    def cheap_candidates(self, monkeypatch):
        # at this size the measured candidate cost would leave no room for any
        monkeypatch.setattr(graph, "EXTRA_COST", 1)

    @pytest.mark.parametrize("l", [2, 3, 5])
    @pytest.mark.parametrize("sizes", [(7, 7, 7), (3, 14, 5), (6, 0, 9, 4)],
                             ids=["balanced", "unbalanced", "empty-cluster"])
    def test_matches_dense_update(self, l, sizes):
        rng = np.random.default_rng(40 + l + len(sizes))
        v, graphs, r, alpha = block_problem(sizes, l, rng)
        edges = cluster_bounds(v)
        blocks = ClusterBlocks(edges, l).at(v)
        dense, h = [g.copy() for g in graphs], shifted_dists(v)
        kept = 0
        for k in range(l):
            thresholds, expect_thresholds = np.full(len(v), np.nan), np.full(len(v), np.nan)
            s = update_similarity(k, graphs, r, alpha, 3.0, blocks, thresholds)
            expect = update_similarity(k, dense, r, alpha, 3.0, h, expect_thresholds)
            assert s is graphs[k]  # written in place: the block path ran
            assert np.max(np.abs(s - expect)) <= 1e-12
            assert np.max(np.abs(thresholds - expect_thresholds)) <= 1e-12
            assert np.array_equal(np.sort(blocks.entries[k]), off_block(s, edges))
            kept += len(blocks.entries[k])
            dense[k] = expect
            check_similarity(s)
        assert kept > 0  # listed entries of the other graphs survived off the blocks
        for with_v in (None, v):
            gram, products = graph_products(graphs, with_v, blocks)
            expect_gram, expect_products = graph_products(dense, with_v)
            assert np.max(np.abs(gram - expect_gram) / expect_gram) <= 1e-12
            if with_v is not None:
                for a, b in zip(products, expect_products):
                    assert np.max(np.abs(a - b)) <= 1e-12

    def test_warm_thresholds_and_shrinking_lists(self):
        rng = np.random.default_rng(47)
        v, graphs, r, alpha = block_problem((8, 6, 9), 3, rng, off_block=10)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        dense, h = [g.copy() for g in graphs], shifted_dists(v)
        thresholds = [np.full(len(v), np.nan) for _ in range(3)]
        expect_thresholds = [np.full(len(v), np.nan) for _ in range(3)]
        for _ in range(4):  # later sweeps start warm from the lists the last one left
            for k in range(3):
                s = update_similarity(k, graphs, r, alpha, 3.0, blocks, thresholds[k])
                dense[k] = update_similarity(k, dense, r, alpha, 3.0, h, expect_thresholds[k])
                assert s is graphs[k]
                assert np.max(np.abs(s - dense[k])) <= 1e-12
                assert np.max(np.abs(thresholds[k] - expect_thresholds[k])) <= 1e-12

    def test_failed_check_falls_back_to_dense(self):
        rng = np.random.default_rng(48)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng, off_block=0)
        # small distances and light graphs: the blocks cannot hold a column's mass
        v *= 1e-4
        graphs = [0.01 * g for g in graphs]
        h = shifted_dists(v)
        for k in range(3):
            trial = [g.copy() for g in graphs]
            blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
            s = update_similarity(k, trial, r, alpha, 3.0, blocks)
            expect = update_similarity(k, graphs, r, alpha, 3.0, h)
            assert blocks.entries[k] is None  # the dense update ran
            assert np.max(np.abs(s - expect)) <= 1e-12
            assert np.any(s[8:, :8] > 0.0)  # off-block entries that no graph listed

    def test_loose_bound_settled_by_exact_minimum(self, monkeypatch):
        rng = np.random.default_rng(49)
        v, graphs, r, alpha = block_problem((7, 9, 6), 3, rng)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        blocks.inner()
        blocks.off_bound[:] = -1e3  # every column left to the exact minimum
        monkeypatch.setattr(blocks, "inner", lambda: blocks._inner)
        dense, h = [g.copy() for g in graphs], shifted_dists(v)
        for k in range(3):
            s = update_similarity(k, graphs, r, alpha, 3.0, blocks)
            dense[k] = update_similarity(k, dense, r, alpha, 3.0, h)
            assert s is graphs[k]
            assert np.max(np.abs(s - dense[k])) <= 1e-12

    @pytest.mark.parametrize("signs", ["nonnegative", "mixed"])
    def test_off_bound_is_a_tight_lower_bound(self, signs):
        rng = np.random.default_rng(51)
        v = block_problem((5, 9, 2, 6), 2, rng)[0]
        if signs == "mixed":
            v -= 0.5 * rng.uniform(size=v.shape) * v.max()
        edges = np.array([0, 5, 14, 16, 22])
        blocks = ClusterBlocks(edges, 2).at(v)
        blocks.inner()
        h = shifted_dists(v)
        exact = np.array([np.min(np.delete(h[:, j], np.arange(b0, b1)))
                          for b0, b1 in zip(edges[:-1], edges[1:]) for j in range(b0, b1)])
        assert np.all(blocks.off_bound <= exact + 1e-15)
        for b0, b1 in zip(edges[:-1], edges[1:]):
            cols = np.arange(b0, b1)
            assert np.allclose(blocks.off_min(b0, b1, cols), exact[b0:b1], rtol=0, atol=1e-15)
        if signs == "nonnegative":  # near one-hot V: the bound is nearly the minimum
            assert np.max(exact - blocks.off_bound) <= 0.02 * np.max(np.abs(exact))

    def test_too_many_off_block_entries_run_dense(self):
        rng = np.random.default_rng(50)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng)
        graphs = [random_similarity(24, rng) for _ in range(3)]  # dense everywhere
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        s = update_similarity(0, graphs, r, alpha, 3.0, blocks)
        assert blocks.entries[1] is False and blocks.entries[0] is None
        expect = update_similarity(0, graphs, r, alpha, 3.0, pairwise_sq_dists(v))
        assert np.max(np.abs(s - expect)) <= 1e-12
        gram, _ = graph_products(graphs, v, blocks)
        assert np.max(np.abs(gram - graph_products(graphs, v)[0])) <= 1e-12


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
