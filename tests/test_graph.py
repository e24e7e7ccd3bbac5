import tracemalloc

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
    shifted_sq_dists,
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

    def test_far_instance_column_sums_to_one(self):
        # instance 0 lies so far from the rest that every kernel weight of its
        # column underflows to 0; the column must still be the normalised
        # kernel over its edges
        x = np.random.default_rng(0).uniform(0, 1, (5, 300))
        x[:, 0] += 60
        s = build_initial_similarity(x, np.ones(300, dtype=int), k=3)
        check_similarity(s)
        assert np.array_equal(s, _full_matrix_initial_similarity(x, np.ones(300, dtype=int), k=3))
        d2 = pairwise_sq_dists(x.T)
        np.fill_diagonal(d2, np.inf)
        knn = np.argsort(d2, axis=1)[:, :3]
        sigma = np.sqrt(d2[np.arange(300), knn[:, 2]]).mean()
        edges = np.isin(np.arange(300), knn[0]) | np.any(knn == 0, axis=1)
        z = np.where(edges, -d2[:, 0] / (2.0 * sigma * sigma), -np.inf)
        exact = np.exp(z - z.max())
        assert np.abs(s[:, 0] - exact / exact.sum()).max() < 1e-12

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
        assert np.array_equal(s, _full_matrix_initial_similarity(x, presence, k=k))
        present = np.flatnonzero(presence)
        for i in present:
            assert np.count_nonzero(s[present, i]) >= k
        twins = (present + 8) % 16
        paired = presence[twins] == 1
        assert np.all(s[twins[paired], present[paired]] > 0)


class TestBlockedKnnSearch:
    """build_initial_similarity against the full-matrix construction it
    replaced: every case bitwise (duplicates and the far instance are checked
    in TestBuildInitialSimilarity)."""

    @staticmethod
    def assert_matches_full_matrix(x, presence, k):
        s = build_initial_similarity(x, presence, k=k)
        assert np.array_equal(s, _full_matrix_initial_similarity(x, presence, k=k))
        return s

    def test_far_outliers_at_different_distances(self):
        # two all-underflow columns, each shifted by its own nearest edge
        x = np.random.default_rng(46).uniform(0, 1, (5, 300))
        x[0, 0] += 60
        x[1, 1] += 80
        s = self.assert_matches_full_matrix(x, np.ones(300, dtype=int), 3)
        check_similarity(s)

    @pytest.mark.parametrize("masked", [0.0, 0.5])
    def test_complete_and_half_masked_views(self, masked):
        rng = np.random.default_rng(41)
        n = 120
        x = rng.uniform(size=(6, n))
        presence = np.ones(n, dtype=int)
        presence[rng.choice(n, size=int(masked * n), replace=False)] = 0
        self.assert_matches_full_matrix(x, presence, 5)

    def test_k_one_and_all_others(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=(4, 50))
        presence = np.ones(50, dtype=int)
        presence[::7] = 0
        m = int(presence.sum())
        for k in (1, m - 1):
            self.assert_matches_full_matrix(x, presence, k)

    def test_several_row_blocks(self):
        rng = np.random.default_rng(43)
        m = 700
        assert graph.KNN_BLOCK_ENTRIES // m < m // 4  # the search runs in several blocks
        x = rng.uniform(size=(20, m))
        self.assert_matches_full_matrix(x, np.ones(m, dtype=int), 5)

    def test_asymmetric_gram_takes_the_one_form(self):
        # numpy's v @ v.T is exactly symmetric; a Gram matrix that is not
        # is read by rows, h = max(sq_i + sq_j - 2 g_ij, 0), never made symmetric
        rng = np.random.default_rng(44)
        v = rng.uniform(size=(300, 4))
        gram, sq = v @ v.T, np.sum(v * v, axis=1)
        gram *= 1.0 + rng.uniform(-1e-12, 1e-12, gram.shape)
        assert not np.array_equal(gram, gram.T)
        knn, near = graph._nearest(v, gram, sq, 4)
        h = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        np.fill_diagonal(h, np.inf)
        assert np.array_equal(knn, np.argpartition(h, 3, axis=1)[:, :4])
        assert np.array_equal(near, np.take_along_axis(h, knn, axis=1))

    def test_huge_distances_take_the_one_form(self):
        # h itself is finite, about 1.44e308; only the diagonal overflows,
        # and the search sets it to inf
        v = np.array([[0.0], [1.2e154], [1.0], [2.0]])
        sq, gram = np.sum(v * v, axis=1), v @ v.T
        knn, near = graph._nearest(v, gram, sq, 2)
        h = np.full((4, 4), np.inf)
        i, j = np.nonzero(~np.eye(4, dtype=bool))
        h[i, j] = np.maximum(sq[i] + sq[j] - 2.0 * gram[i, j], 0.0)
        assert np.all(np.isfinite(near)) and near[1].min() > 1e308
        assert np.array_equal(knn, np.argpartition(h, 1, axis=1)[:, :2])
        assert np.array_equal(near, np.take_along_axis(h, knn, axis=1))

    def test_huge_entry_gives_a_finite_graph(self):
        x = np.random.default_rng(47).uniform(size=(3, 40))
        x[1, 5] = 1.2e154
        s = build_initial_similarity(x, np.ones(40, dtype=int), k=3)  # warns of nothing
        assert np.all(np.isfinite(s))
        check_similarity(s)

    def test_shared_huge_entry_takes_the_direct_distance(self):
        # instances 5 and 6 share 1.2e154 in one feature: sq_i + sq_j and
        # 2 g_ij both overflow, and inf - inf would read NaN
        x = np.random.default_rng(47).uniform(size=(3, 40))
        x[1, 5] = x[1, 6] = 1.2e154
        present = np.ones(40, dtype=int)
        edges = graph.knn_edges(x, present, k=3)  # warns of nothing
        d = x[:, 5] - x[:, 6]
        assert edges.knn[5, np.argmin(edges.near[5])] == 6
        assert edges.knn[6, np.argmin(edges.near[6])] == 5
        assert np.min(edges.near[5]) == np.min(edges.near[6]) == d @ d
        s = build_initial_similarity(x, present, k=3)
        assert np.all(np.isfinite(s))
        check_similarity(s)

    def test_build_holds_under_two_graphs(self):
        # the full-matrix construction peaked at 3.46 graphs here
        n = 600
        x = np.random.default_rng(45).uniform(size=(50, n))
        presence = np.ones(n, dtype=int)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = build_initial_similarity(x, presence, k=5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        check_similarity(s)
        assert peak < 2 * 8 * n * n, peak / (8 * n * n)


def _full_matrix_initial_similarity(x, presence, k=5):
    """Reference kNN graph: the whole distance matrix at once, and the
    all-underflow column fix from an N x N edge array."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    present = np.flatnonzero(np.asarray(presence) == 1)
    m = present.size
    d2 = pairwise_sq_dists(x[:, present].T)
    np.fill_diagonal(d2, np.inf)
    knn = np.argpartition(d2, k - 1, axis=1)[:, :k]
    rows = np.repeat(np.arange(m), k)
    near = d2[rows, knn.ravel()]
    sigma = float(np.sqrt(near.reshape(m, k).max(axis=1)).mean())
    if sigma <= 0.0:
        sigma = 1.0
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
    zero = colsum == 0.0
    if zero.any():
        edge = np.full((n, n), np.inf)
        edge[i, j] = edge[j, i] = near
        edge = edge[:, zero]
        s[:, zero] = np.exp(-(edge - edge.min(axis=0)) / (2.0 * sigma * sigma))
        colsum = s.sum(axis=0)
    s /= colsum
    return s


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


def updated(v, graphs, *args, **kwargs):
    """update_similarity on copies of the graphs, which it overwrites."""
    return update_similarity(v, [g.copy() for g in graphs], *args, **kwargs)


class TestUpdateSimilarity:
    def test_zero_target_gives_uniform(self):
        n, l = 5, 3
        graphs = [np.zeros((n, n)) for _ in range(l)]
        r = random_coefficients(l, np.random.default_rng(0))
        s = update_similarity(0, graphs, r, np.full(l, 1 / l), 2.0, np.zeros((n, 2)))
        expect = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(s, expect)

    def test_invariants_enforced(self):
        rng = np.random.default_rng(6)
        n, l = 8, 3
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        s = update_similarity(1, graphs, r, alpha, 3.0, rng.normal(size=(n, 3)))
        assert s is graphs[1]  # written in place
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
            x = rng.normal(size=(n, 2))
            v = 0
            s = updated(v, graphs, r, alpha, gamma, x)
            oracle = _qp_oracle(v, graphs, r, alpha, gamma, pairwise_sq_dists(x))
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
            x = rng.normal(size=(n, 3))
            for v in range(l):
                s = updated(v, graphs, r, alpha, 3.0, x)
                expect = _loop_update_similarity(v, graphs, r, alpha, 3.0, pairwise_sq_dists(x))
                assert np.max(np.abs(s - expect)) <= 1e-12


    def test_row_blocks_match_loop_implementation(self, monkeypatch):
        # 2-row blocks with a 1-row remainder: the target is accumulated in pieces
        monkeypatch.setattr(graph, "BLOCK_ENTRIES", 20)
        rng = np.random.default_rng(26)
        n, l = 9, 3
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        x = rng.normal(size=(n, 3))
        for v in range(l):
            s = updated(v, graphs, r, alpha, 3.0, x)
            expect = _loop_update_similarity(v, graphs, r, alpha, 3.0, pairwise_sq_dists(x))
            assert np.max(np.abs(s - expect)) <= 1e-12

    @pytest.mark.parametrize("l", [2, 3])
    def test_per_column_constant_in_h_is_ignored(self, l):
        # the update's shifted distances against exact ones plus a shift per column
        rng = np.random.default_rng(27 + l)
        n = 11
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        x = rng.normal(size=(n, 3))
        shift = rng.normal(scale=10.0, size=n)
        for v in range(l):
            s = updated(v, graphs, r, alpha, 3.0, x)
            shifted = _loop_update_similarity(
                v, graphs, r, alpha, 3.0, pairwise_sq_dists(x) + shift[None, :])
            assert np.max(np.abs(s - shifted)) <= 1e-12

    def test_dense_update_allocates_less_than_one_graph(self):
        rng = np.random.default_rng(28)
        n, l = 500, 3
        graphs = [random_similarity(n, rng) for _ in range(l)]
        r = random_coefficients(l, rng)
        alpha = rng.dirichlet(np.ones(l))
        x = rng.uniform(size=(n, 4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = update_similarity(0, graphs, r, alpha, 3.0, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert s is graphs[0]
        check_similarity(s)
        assert peak < n * n * 8, peak

    @pytest.mark.parametrize("with_blocks", [False, True], ids=["dense", "blocks"])
    def test_aliased_graphs_are_refused(self, with_blocks):
        rng = np.random.default_rng(29)
        v, graphs, r, alpha = block_problem((6, 6), 3, rng)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v) if with_blocks else None
        for aliased in (graphs[0], graphs[0][:]):
            trial = [graphs[0], aliased, graphs[2]]
            with pytest.raises(ValueError, match="graph 0 shares memory"):
                update_similarity(0, trial, r, alpha, 3.0, v, blocks=blocks)


def block_problem(sizes, l, rng, off_block=6, sparse=False):
    """Sorted cluster indicator V with clusters of `sizes` (zeros allowed),
    graphs that are block diagonal but for `off_block` shared off-block
    entries large enough to survive an update, coefficients and weights.

    By default the blocks are full and nearly uniform, the shape of fits with
    missing data: their targets keep every entry, so every block takes
    project_full_support. `sparse` blocks hold about a third of their
    entries, the shape of complete data, and decline the route."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    v = 0.01 * rng.uniform(size=(n, len(sizes))) / np.sqrt(n)
    v[np.arange(n), labels] += 1.0 / np.sqrt(np.asarray(sizes)[labels])
    same = labels[:, None] == labels[None, :]
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    neighbour = first + (np.arange(n) - first + 1) % np.repeat(sizes, sizes)
    graphs = []
    for _ in range(l):
        g = rng.uniform(1.0, 1.2, size=(n, n)) * same
        if sparse:
            g *= rng.uniform(size=(n, n)) < 0.3
            g[neighbour, np.arange(n)] = 1.0  # no empty column
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


def record_routes(monkeypatch):
    """Log each project_full_support call of the block path as a pair
    (taken, number of listed candidates)."""
    routes = []
    route = graph.project_full_support
    monkeypatch.setattr(graph, "project_full_support",
                        lambda p, t, e: routes.append((route(p, t, e), len(e[0]))) or routes[-1][0])
    return routes


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
    def test_matches_dense_update(self, monkeypatch, l, sizes):
        rng = np.random.default_rng(40 + l + len(sizes))
        routes = record_routes(monkeypatch)
        for sparse in (False, True):  # the shapes of missing and of complete data
            v, graphs, r, alpha = block_problem(sizes, l, rng, 0 if sparse else 6, sparse)
            edges = cluster_bounds(v)
            blocks = ClusterBlocks(edges, l).at(v)
            dense = [g.copy() for g in graphs]
            kept = 0
            for k in range(l):
                thresholds, expect_thresholds = np.full(len(v), np.nan), np.full(len(v), np.nan)
                s = update_similarity(k, graphs, r, alpha, 3.0, v, thresholds, blocks)
                expect = update_similarity(k, dense, r, alpha, 3.0, v, expect_thresholds)
                assert s is graphs[k] and blocks.entries[k] is not None  # the block path ran
                assert expect is dense[k]
                assert np.max(np.abs(s - expect)) <= 1e-12
                assert np.max(np.abs(thresholds - expect_thresholds)) <= 1e-12
                assert np.array_equal(np.sort(blocks.entries[k]), off_block(s, edges))
                kept += len(blocks.entries[k])
                check_similarity(s)
            taken, listed = np.array(routes).T
            routes.clear()
            if sparse:  # nothing off the blocks, and some blocks take the search
                assert kept == 0 and not listed.any() and not taken.all()
            else:  # listed entries of the other graphs survived off the blocks
                assert kept > 0 and listed.any() and taken.all()
            gram, products = graph_products(graphs, v, blocks)
            expect_gram, expect_products = graph_products(dense, v)
            assert np.max(np.abs(gram - expect_gram) / expect_gram) <= 1e-12
            for a, b in zip(products, expect_products):
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_warm_thresholds_and_shrinking_lists(self):
        rng = np.random.default_rng(47)
        for sparse in (False, True):
            v, graphs, r, alpha = block_problem((8, 6, 9), 3, rng, 0 if sparse else 10, sparse)
            blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
            dense = [g.copy() for g in graphs]
            thresholds = [np.full(len(v), np.nan) for _ in range(3)]
            expect_thresholds = [np.full(len(v), np.nan) for _ in range(3)]
            for _ in range(4):  # later sweeps start warm from the lists the last one left
                for k in range(3):
                    s = update_similarity(k, graphs, r, alpha, 3.0, v, thresholds[k], blocks)
                    update_similarity(k, dense, r, alpha, 3.0, v, expect_thresholds[k])
                    assert s is graphs[k] and blocks.entries[k] is not None
                    assert np.max(np.abs(s - dense[k])) <= 1e-12
                    assert np.max(np.abs(thresholds[k] - expect_thresholds[k])) <= 1e-12

    def test_route_declines_for_one_block_only(self, monkeypatch):
        # Uniform graphs within the blocks give targets that keep every
        # entry; in column 9, view 0's sources put all mass on row 10, so the
        # projection drops entries of block 1 and the route declines there.
        v = block_problem((8, 8, 8), 3, np.random.default_rng(53), off_block=0)[0]
        labels = np.repeat(np.arange(3), 8)
        same = (labels[:, None] == labels[None, :]) & ~np.eye(24, dtype=bool)
        graphs = [same / 7.0 for _ in range(3)]
        for g in graphs[1:]:
            g[8:16, 9] = 0.0
            g[10, 9] = 1.0
        r = np.full((3, 3), 0.5)
        np.fill_diagonal(r, 0.0)
        routes = record_routes(monkeypatch)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        alpha = np.full(3, 1.0 / 3.0)
        expect = updated(0, graphs, r, alpha, 3.0, v)
        s = update_similarity(0, graphs, r, alpha, 3.0, v, blocks=blocks)
        assert routes == [(True, 0), (False, 0), (True, 0)]  # no candidates: the search
        assert blocks.entries[0] is not None  # the block path ran
        assert np.max(np.abs(s - expect)) <= 1e-12
        assert np.count_nonzero(s[8:16, 9]) < 7

    def test_declined_block_with_candidates_runs_dense(self, monkeypatch):
        # sparse blocks with listed candidates, a shape no probed fit made:
        # the route declines a block that holds candidates, and the view
        # takes the dense update
        rng = np.random.default_rng(54)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng, sparse=True)
        routes = record_routes(monkeypatch)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        thresholds, expect_thresholds = np.full(24, np.nan), np.full(24, np.nan)
        expect = updated(0, graphs, r, alpha, 3.0, v, expect_thresholds)
        s = update_similarity(0, graphs, r, alpha, 3.0, v, thresholds, blocks)
        assert routes[-1][0] is False and routes[-1][1] > 0
        assert blocks.entries[0] is None  # the dense update ran
        assert s is graphs[0]
        assert np.max(np.abs(s - expect)) <= 1e-12
        assert np.max(np.abs(thresholds - expect_thresholds)) <= 1e-12

    def test_failed_check_falls_back_to_dense(self):
        rng = np.random.default_rng(48)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng, off_block=0)
        # small distances and light graphs: the blocks cannot hold a column's mass
        v *= 1e-4
        graphs = [0.01 * g for g in graphs]
        for k in range(3):
            trial = [g.copy() for g in graphs]
            blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
            s = update_similarity(k, trial, r, alpha, 3.0, v, blocks=blocks)
            expect = updated(k, graphs, r, alpha, 3.0, v)
            assert blocks.entries[k] is None  # the dense update ran
            assert s is trial[k]  # in place on the fallback too
            assert np.max(np.abs(s - expect)) <= 1e-12
            assert np.any(s[8:, :8] > 0.0)  # off-block entries that no graph listed

    def test_unsettled_bound_runs_dense(self, monkeypatch):
        rng = np.random.default_rng(49)
        v, graphs, r, alpha = block_problem((7, 9, 6), 3, rng)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        blocks.inner()
        blocks.off_bound[:] = -1e3  # no column settled by the bound
        monkeypatch.setattr(blocks, "inner", lambda: blocks._inner)
        dense = [g.copy() for g in graphs]
        for k in range(3):
            s = update_similarity(k, graphs, r, alpha, 3.0, v, blocks=blocks)
            update_similarity(k, dense, r, alpha, 3.0, v)
            assert blocks.entries[k] is None  # the dense update ran
            assert s is graphs[k]
            assert np.max(np.abs(s - dense[k])) <= 1e-12

    def test_off_bound_is_a_tight_lower_bound(self):
        rng = np.random.default_rng(51)
        v = block_problem((5, 9, 2, 6), 2, rng)[0]
        edges = np.array([0, 5, 14, 16, 22])
        blocks = ClusterBlocks(edges, 2).at(v)
        blocks.inner()
        h = shifted_sq_dists(v)
        exact = np.array([np.min(np.delete(h[:, j], np.arange(b0, b1)))
                          for b0, b1 in zip(edges[:-1], edges[1:]) for j in range(b0, b1)])
        assert np.all(blocks.off_bound <= exact + 1e-15)
        # near one-hot V: the bound is nearly the minimum
        assert np.max(exact - blocks.off_bound) <= 0.02 * np.max(np.abs(exact))

    def test_too_many_off_block_entries_run_dense(self):
        rng = np.random.default_rng(50)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng)
        graphs = [random_similarity(24, rng) for _ in range(3)]  # dense everywhere
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        expect = updated(0, graphs, r, alpha, 3.0, v)
        s = update_similarity(0, graphs, r, alpha, 3.0, v, blocks=blocks)
        assert blocks.entries[1] is False and blocks.entries[0] is None
        assert s is graphs[0]
        assert np.max(np.abs(s - expect)) <= 1e-12
        gram, _ = graph_products(graphs, v, blocks)
        assert np.max(np.abs(gram - graph_products(graphs, v)[0])) <= 1e-12

    def test_union_of_lists_over_budget_runs_dense(self, monkeypatch):
        # budget (0.5 * 24^2 - 3 * 8^2) / 8 = 12: each list of 8 fits, their union of 16 not
        monkeypatch.setattr(graph, "EXTRA_COST", 8)
        rng = np.random.default_rng(52)
        v, graphs, r, alpha = block_problem((8, 8, 8), 3, rng, off_block=0)
        at = rng.choice(off_block(np.ones((24, 24)), cluster_bounds(v)), size=16, replace=False)
        for g, mine in zip(graphs[1:], (at[:8], at[8:])):
            g.flat[mine] = 3.0
            g /= g.sum(axis=0)
        blocks = ClusterBlocks(cluster_bounds(v), 3).at(v)
        assert blocks.budget == 12
        expect = updated(0, graphs, r, alpha, 3.0, v)
        s = update_similarity(0, graphs, r, alpha, 3.0, v, blocks=blocks)
        assert [len(blocks.entries[k]) for k in (1, 2)] == [8, 8]
        assert blocks.entries[0] is None  # the dense update ran
        assert s is graphs[0]
        assert np.max(np.abs(s - expect)) <= 1e-12


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
