import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from mvufs import evaluation, graph, solver
from mvufs.datamodel import (
    DatasetError,
    MultiViewDataset,
    SyntheticSpec,
    generate_synthetic,
    simulate_missing,
)
from mvufs.graph import check_coefficients, check_similarity, pairwise_sq_dists
from mvufs.simplex import project_offdiag_columns
from mvufs.solver import (
    Hyperparameters,
    SolverDivergence,
    SolverState,
    SweepCarry,
    fit,
    graph_products,
    initialize,
    l2p_norm_p,
    objective,
    sparsity_reweight,
    sweep,
    update_alpha,
    update_r,
    update_u,
    update_v,
    view_losses,
)
from test_graph import _loop_update_similarity, record_routes


def hyper(**kw):
    base = dict(lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=3, seed=0)
    base.update(kw)
    return Hyperparameters(**base)


def make_problem(n=15, l=3, c=3, seed=0, missing=0.0):
    spec = SyntheticSpec(n, l, c, tuple([6] * l), tuple([2] * l), 0.2, seed)
    ds, _ = generate_synthetic(spec)
    if missing > 0:
        ds = simulate_missing(ds, missing, seed=seed + 50)
    h = hyper(n_clusters=c, seed=seed)
    state = initialize(ds, h)
    return ds, h, state


class TestHyperparameters:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(ValueError, match="gamma"):
            hyper(gamma=1.0)

    def test_p_range(self):
        with pytest.raises(ValueError, match="p must"):
            hyper(p=1.5)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            hyper(lam=-1.0)

    def test_knn_must_be_positive(self):
        with pytest.raises(ValueError, match="knn"):
            hyper(knn=0)
        assert hyper(knn=1).knn == 1

    @pytest.mark.parametrize("field,value,message", [
        ("lam", -1.0, "lam=-1.0: lam must be finite and nonnegative"),
        ("lam", np.inf, "lam=inf: lam must be finite and nonnegative"),
        ("beta", np.nan, "beta=nan: beta must be finite and nonnegative"),
        ("gamma", np.nan, "gamma=nan: gamma must exceed 1 and be finite"),
        ("gamma", np.inf, "gamma=inf: gamma must exceed 1 and be finite"),
        ("p", np.nan, "p=nan: p must lie in (0, 1]"),
        ("seed", -1, "seed=-1: seed must be nonnegative"),
    ])
    def test_non_finite_values_and_negative_seed_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            hyper(**{field: value})
        assert str(info.value) == message

    def test_bounds_accepted(self):
        h = hyper(lam=0.0, beta=0.0, p=1.0, n_clusters=2, max_iter=0, seed=0)
        assert (h.lam, h.beta, h.p, h.n_clusters, h.max_iter, h.seed) == (0.0, 0.0, 1.0, 2, 0, 0)


class TestObjective:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        n, c, l = 8, 2, 2
        u = [rng.uniform(size=(5, c)) for _ in range(l)]
        v = rng.uniform(size=(n, c))
        views = tuple(u[k] @ v.T for k in range(l))
        ds = MultiViewDataset(views, np.ones((n, l), dtype=int))
        s = [np.zeros((n, n)) for _ in range(l)]
        r = np.zeros((l, l))
        state = SolverState(u=u, v=v, s=s, r=r, alpha=np.full(l, 0.5))
        h = hyper(lam=0.0, beta=0.0, n_clusters=c)
        assert objective(state, ds, h) == pytest.approx(0.0, abs=1e-20)

    def test_reduces_to_frobenius_residual(self):
        rng = np.random.default_rng(1)
        n, c = 6, 2
        x = rng.uniform(size=(4, n))
        u = rng.uniform(size=(4, c))
        v = rng.uniform(size=(n, c))
        # two identical views with alpha = (1, 0) so only view 0 contributes
        ds = MultiViewDataset((x, x.copy()), np.ones((n, 2), dtype=int))
        state = SolverState(
            u=[u, u.copy()],
            v=v,
            s=[np.zeros((n, n))] * 2,
            r=np.zeros((2, 2)),
            alpha=np.array([1.0, 0.0]),
        )
        h = hyper(lam=0.0, beta=0.0, n_clusters=c, gamma=2.0)
        expect = np.linalg.norm(x - u @ v.T) ** 2
        assert objective(state, ds, h) == pytest.approx(expect, rel=1e-12)

    def test_matches_naive_recomputation(self):
        ds, h, state = make_problem(missing=0.2)
        got = objective(state, ds, h)
        expect = _naive_objective(state, ds, h)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_reuses_view_losses(self):
        ds, h, state = make_problem(missing=0.2, seed=3)
        d = cold_sweep(state, ds, h)
        gram, products = graph_products(state.s, state.v)
        assert np.allclose(d, view_losses(state, ds, h, gram, products), rtol=1e-13, atol=0.0)
        assert objective(state, ds, h, d) == objective(state, ds, h)
        assert objective(state, ds, h) == pytest.approx(
            _naive_objective(state, ds, h), rel=1e-10
        )


class TestReconstructionTerm:
    """view_losses takes ||S_v - sum_{i != v} r_iv S_i||^2 from the graphs' Gram matrix."""

    @staticmethod
    def losses(graphs, r, gram=None):
        # zero data, factors and indicator leave beta * reconstruction as the
        # only loss; `gram` replaces the graphs' own Gram matrix
        l, n = len(graphs), graphs[0].shape[0]
        ds = MultiViewDataset(tuple(np.zeros((3, n)) for _ in range(l)),
                              np.ones((n, l), dtype=int))
        v = np.zeros((n, 2))
        state = SolverState(u=[np.zeros((3, 2)) for _ in range(l)], v=v,
                            s=graphs, r=r, alpha=np.full(l, 1.0 / l))
        own, products = graph_products(graphs, v)
        return view_losses(state, ds, hyper(lam=0.0, beta=1.0, n_clusters=2),
                           own if gram is None else gram, products)

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_matches_direct_residual(self, l):
        rng = np.random.default_rng(40 + l)
        n = 12
        for _ in range(3):
            graphs = [rng.uniform(size=(n, n)) for _ in range(l)]
            for g in graphs:
                np.fill_diagonal(g, 0.0)
                g /= g.sum(axis=0)
            r = rng.uniform(size=(l, l))
            np.fill_diagonal(r, 0.0)
            r /= r.sum(axis=0)
            direct = np.array([
                np.sum((graphs[v] - sum(r[i, v] * graphs[i] for i in range(l) if i != v)) ** 2)
                for v in range(l)
            ])
            got = self.losses(graphs, r)
            assert np.max(np.abs(got - direct) / direct) <= 1e-10
            gram = gram_of(graphs)
            assert np.array_equal(self.losses(graphs, r, gram), got)
            assert np.array_equal(self.losses(graphs, r, 2.0 * gram), 2.0 * got)  # it is read

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_nonnegative_on_identical_graphs(self, l):
        ds, h, state = make_problem(n=20, l=2, seed=15, missing=0.3)
        for g in (state.s[0], state.s[1]):
            r = np.full((l, l), 1.0 / (l - 1))
            np.fill_diagonal(r, 0.0)
            d = self.losses([g.copy() for _ in range(l)], r)
            assert np.all(d >= 0.0)
            assert np.all(d <= 1e-12 * np.sum(g * g))


class TestSweep:
    @pytest.mark.parametrize("l,missing", [(2, 0.0), (3, 0.3), (4, 0.5)])
    def test_shifted_distances_match_exact_ones(self, l, missing):
        ds, h, state = make_problem(n=24, l=l, seed=16 + l, missing=missing)
        ref = copy_state(state)
        for _ in range(3):
            d = cold_sweep(state, ds, h)
            d_ref = _reference_sweep(ref, ds, h)
            assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-12
            for a, b in zip(state.s, ref.s):
                assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(state.r - ref.r)) <= 1e-12
            assert np.max(np.abs(state.alpha - ref.alpha)) <= 1e-12

    @pytest.mark.parametrize("l,missing", [(2, 0.2), (3, 0.3), (5, 0.4)])
    def test_carry_matches_sweeps_without_one(self, l, missing):
        ds, h, state = make_problem(n=24, l=l, seed=30 + l, missing=missing)
        ref = copy_state(state)
        carry = SweepCarry.start(ds.n_instances, l)
        for _ in range(4):
            d = sweep(state, ds, h, carry)
            d_ref = _reference_sweep(ref, ds, h)
            assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-12
            assert np.max(np.abs(state.v - ref.v)) <= 1e-12
            for a, b in zip(state.s, ref.s):
                assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(state.r - ref.r)) <= 1e-12
            assert np.max(np.abs(state.alpha - ref.alpha)) <= 1e-12
            assert all(np.all(np.isfinite(t)) for t in carry.thresholds)

    def test_carried_products_only_for_the_state_they_came_from(self):
        ds, h, state = make_problem(n=20, seed=35, missing=0.2)
        carry = SweepCarry.start(ds.n_instances, ds.n_views)
        assert carry.products_for(state) is None
        sweep(state, ds, h, carry)
        products = carry.products_for(state)
        for s, prod in zip(state.s, products):
            v_one = np.column_stack([state.v, np.ones(len(state.v))])
            assert np.max(np.abs(prod - s @ v_one)) <= 1e-12
        state.v = state.v.copy()
        assert carry.products_for(state) is None
        ref = copy_state(state)
        d = sweep(state, ds, h, carry)  # stale products are not used
        assert np.max(np.abs(d - _reference_sweep(ref, ds, h)) / d) <= 1e-12

    @pytest.mark.parametrize("l,missing", [(2, 0.2), (3, 0.3)])
    def test_initial_products_seed_the_first_sweep(self, l, missing):
        # what fit does: the initial objective's graph pass seeds the carry
        ds, h, state = make_problem(n=24, l=l, seed=37 + l, missing=missing)
        ref = copy_state(state)
        gram, products = graph_products(state.s, state.v)
        carry = SweepCarry.start(ds.n_instances, l)
        carry.keep(state, products)
        assert carry.products_for(state) is products
        d = sweep(state, ds, h, carry)
        d_ref = _reference_sweep(ref, ds, h)
        assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-12
        assert np.max(np.abs(state.v - ref.v)) <= 1e-12
        for a, b in zip(state.s, ref.s):
            assert np.max(np.abs(a - b)) <= 1e-12
        assert np.max(np.abs(state.r - ref.r)) <= 1e-12


class TestGraphProducts:
    @pytest.mark.parametrize("block_entries", [20, 32768])
    def test_matches_direct_products(self, monkeypatch, block_entries):
        # 20 entries: 2-row blocks with a 1-row remainder at N=9
        monkeypatch.setattr(solver, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(36)
        for l in (2, 3, 5):
            graphs = [rng.uniform(size=(9, 9)) for _ in range(l)]
            v = rng.uniform(size=(9, 3))
            gram, products = graph_products(graphs, v)
            direct = np.array([[np.vdot(a, b) for b in graphs] for a in graphs])
            assert np.max(np.abs(gram - direct) / direct) <= 1e-14
            assert np.array_equal(gram, gram.T)
            v_one = np.column_stack([v, np.ones(9)])
            for g, prod in zip(graphs, products):
                assert np.max(np.abs(prod - g @ v_one)) <= 1e-14
            assert np.array_equal(gram_of(graphs), gram)  # the Gram matrix does not read V

    def test_gram_mirror_is_bitwise_the_index_copy(self):
        # The lower triangle is zero when the upper is added to it, and no
        # upper entry is -0.0 (each starts at +0.0), so x + 0.0 is x exactly.
        rng = np.random.default_rng(41)
        for l in (2, 3, 5):
            lower = np.tril_indices(l, -1)
            upper = np.triu(rng.normal(size=(l, l)) * 10.0 ** rng.integers(-310, 300, (l, l)))
            copied = upper.copy()
            copied[lower] = copied.T[lower]
            assert (upper + np.triu(upper, 1).T).tobytes() == copied.tobytes()
            gram = gram_of([rng.uniform(size=(9, 9)) for _ in range(l)])
            mirrored = np.triu(gram)
            mirrored[lower] = mirrored.T[lower]
            assert gram.tobytes() == mirrored.tobytes()

    def test_non_finite_graph_diverges(self):
        graphs = [np.eye(4), np.eye(4)]
        graphs[1][2, 3] = np.nan
        with pytest.raises(SolverDivergence):
            graph_products(graphs, np.ones((4, 2)))


def sorted_problem(n=40, l=3, seed=0, missing=0.3, c=3):
    """make_problem with the instances sorted by the initial V's labels: with
    BLOCK_MIN_ENTRIES at 0, initialize builds the state in that order, and
    the dataset is put in it and the order cleared, as fit does."""
    ds, h, state = make_problem(n=n, l=l, c=c, seed=seed, missing=missing)
    order, state.order = state.order, None
    assert order is not None
    return solver._permuted(ds, order), h, state


def dense_sweep(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(solver, "BLOCK_MIN_ENTRIES", np.inf)
        return sweep(*args)


def assert_same_sweep(state, carry, d, ref, ref_carry, d_ref):
    assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-12
    assert np.max(np.abs(state.v - ref.v)) <= 1e-12
    for a, b in zip(state.s, ref.s):
        assert np.max(np.abs(a - b)) <= 1e-12
    for a, b in zip(carry.thresholds, ref_carry.thresholds):
        assert np.max(np.abs(a - b)) <= 1e-12
    for a, b in zip(carry.products, ref_carry.products):
        assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(state.r - ref.r)) <= 1e-12
    assert np.max(np.abs(state.alpha - ref.alpha)) <= 1e-12


class TestBlockSweeps:
    """Sweeps on V's cluster blocks against the dense sweeps, at small N."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOCK_MIN_ENTRIES", 0)
        monkeypatch.setattr(graph, "EXTRA_COST", 1)

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_matches_dense_sweeps(self, monkeypatch, l):
        ds, h, state = sorted_problem(l=l, seed=71 + l)
        ref = copy_state(state)
        carry, ref_carry = (SweepCarry.start(ds.n_instances, l) for _ in range(2))
        listed = 0
        for _ in range(8):
            d = sweep(state, ds, h, carry)
            d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
            assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)
            if carry.blocks is not None:
                listed += sum(len(e) for e in carry.blocks.entries if e is not False)
        assert carry.block_updates >= 3 * l and ref_carry.block_updates == 0
        assert listed > 0  # graphs held entries off the blocks

    @pytest.mark.parametrize("l", [2, 3])
    def test_complete_data_matches_dense_sweeps(self, monkeypatch, l):
        # complete data: nothing lies off the sparse blocks, whose columns
        # drop entries, so the route declines and the blocks take the search
        ds, h, state = sorted_problem(l=l, seed=72 + l, missing=0.0)
        ref = copy_state(state)
        carry, ref_carry = (SweepCarry.start(ds.n_instances, l) for _ in range(2))
        routes = record_routes(monkeypatch)
        for _ in range(4):
            d = sweep(state, ds, h, carry)
            d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
            assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)
        assert carry.block_updates == 4 * l
        taken, listed = np.array(routes).T
        assert not listed.any() and not taken.any()

    def test_labels_that_change_run_dense(self, monkeypatch):
        # at this seed the moved instance's column keeps its whole new block,
        # so the block path runs on the new edges (elsewhere the route can
        # decline that block, whose candidates then send the view dense)
        ds, h, state = sorted_problem(seed=70)
        ref = copy_state(state)
        carry, ref_carry = (SweepCarry.start(ds.n_instances, 3) for _ in range(2))
        for _ in range(4):
            sweep(state, ds, h, carry)
            dense_sweep(monkeypatch, ref, ds, h, ref_carry)
        assert carry.block_updates > 0
        edges = carry.blocks.edges
        for st in (state, ref):  # the first instance moves to the last cluster
            st.v = st.v.copy()
            st.v[0] = st.v[-1]
        count = carry.block_updates
        d = sweep(state, ds, h, carry)
        d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
        assert carry.block_updates == count and carry.blocks is None
        assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)
        for st in (state, ref):  # back in order, one block edge moved: lists made anew
            st.v = np.roll(st.v, -1, axis=0)
            for k, s in enumerate(st.s):
                st.s[k] = np.roll(np.roll(s, -1, axis=0), -1, axis=1)
        for _ in range(2):
            d = sweep(state, ds, h, carry)
            d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
            assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)
        assert carry.block_updates > count
        assert not np.array_equal(carry.blocks.edges, edges)

    def test_graphs_replaced_outside_sweeps_are_listed_anew(self, monkeypatch):
        ds, h, state = sorted_problem(seed=74)
        ref = copy_state(state)
        carry, ref_carry = (SweepCarry.start(ds.n_instances, 3) for _ in range(2))
        for _ in range(4):
            sweep(state, ds, h, carry)
            dense_sweep(monkeypatch, ref, ds, h, ref_carry)
        assert carry.block_updates > 0
        dense = np.random.default_rng(0).uniform(size=state.s[1].shape)
        np.fill_diagonal(dense, 0.0)
        for st in (state, ref):  # off the blocks everywhere, unlike the listed graph
            st.s[1] = dense / dense.sum(axis=0)
        d = sweep(state, ds, h, carry)
        d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
        assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)

    def test_blocks_follow_the_labels(self):
        carry = SweepCarry.start(6, 2)
        v = np.eye(2)[[0, 0, 0, 1, 1, 1]]
        blocks = carry.blocks_for(v)
        assert blocks.spans == [(0, 3), (3, 6)] and carry.blocks_for(v) is blocks
        blocks.entries = [np.array([4]), False]
        moved = carry.blocks_for(np.eye(2)[[0, 0, 1, 1, 1, 1]])
        assert moved.spans == [(0, 2), (2, 6)] and moved.entries == [None, None]
        assert carry.blocks_for(np.eye(2)[[0, 1, 0, 1, 1, 1]]) is None

    def test_singleton_cluster_runs_dense(self, monkeypatch):
        ds, h, state = sorted_problem(seed=76)
        state.v = state.v.copy()
        last = np.argmax(state.v, axis=1) == 2
        last[-1] = False  # all of cluster 2 but its last instance joins cluster 1
        state.v[last, 1], state.v[last, 2] = state.v[last, 2], state.v[last, 1]
        labels = np.argmax(state.v, axis=1)
        assert np.all(np.diff(labels) >= 0) and np.sum(labels == 2) == 1
        ref = copy_state(state)
        carry, ref_carry = (SweepCarry.start(ds.n_instances, 3) for _ in range(2))
        for _ in range(2):
            labels = np.argmax(state.v, axis=1)
            d = sweep(state, ds, h, carry)
            d_ref = dense_sweep(monkeypatch, ref, ds, h, ref_carry)
            assert_same_sweep(state, carry, d, ref, ref_carry, d_ref)
        assert carry.block_updates == 0

    def test_loop_on_the_callers_dataset_reproduces_fit(self, monkeypatch):
        # initialize returns V and the graphs in cluster order; objective and
        # sweep must put the caller's dataset in it, as fit does
        ds, _ = generate_synthetic(SyntheticSpec(40, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 81))
        ds = simulate_missing(ds, 0.3, seed=82)
        monkeypatch.setattr(solver, "REL_TOL", 0.0)
        hy = hyper(max_iter=6, seed=83)
        expect = fit(ds, hy)
        state = initialize(ds, hy)
        assert np.any(np.diff(state.order) < 0)
        trace = [objective(state, ds, hy)]
        carry = SweepCarry.start(ds.n_instances, ds.n_views)
        for _ in range(hy.max_iter):
            d = sweep(state, ds, hy, carry)
            trace.append(objective(state, ds, hy, d))
        assert carry.block_updates > 0
        assert np.max(np.abs(np.array(trace) - expect.trace) / expect.trace) <= 1e-12
        assert abs(objective(state, ds, hy) - trace[-1]) <= 1e-12 * trace[-1]

    def test_fit_returns_the_callers_order(self, monkeypatch):
        ds, _ = generate_synthetic(SyntheticSpec(48, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 77))
        ds = simulate_missing(ds, 0.3, seed=78)
        monkeypatch.setattr(solver, "REL_TOL", 0.0)
        hy = hyper(max_iter=25, seed=79)
        carries = []
        original = solver.sweep
        monkeypatch.setattr(solver, "sweep", lambda *a: carries.append(a[3]) or original(*a))
        res = fit(ds, hy)
        start = initialize(ds, hy)
        assert np.any(np.diff(start.order) < 0)  # fit did reorder
        assert np.all(np.diff(np.argmax(start.v, axis=1)) >= 0)
        monkeypatch.setattr(solver, "BLOCK_MIN_ENTRIES", np.inf)
        expect = fit(ds, hy)
        assert initialize(ds, hy).order is None
        assert carries[0].block_updates > 0 and carries[-1].block_updates == 0
        assert res.state.order is None
        assert np.max(np.abs(res.trace - expect.trace) / expect.trace) <= 1e-10
        assert np.max(np.abs(res.state.v - expect.state.v)) <= 1e-10
        for a, b in zip(res.state.s, expect.state.s):
            assert np.max(np.abs(a - b)) <= 1e-10
        for a, b in zip(res.state.u, expect.state.u):
            assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(res.state.r - expect.state.r)) <= 1e-10
        assert res.iterations == expect.iterations


class TestRestoreOrder:
    """_restore_order against the buffered two-gather restore it replaced:
    V and every graph bitwise."""

    @staticmethod
    def random_state(order, rng, l=3, c=4):
        n = len(order)
        return SolverState(u=[], v=rng.uniform(size=(n, c)),
                           s=[rng.uniform(size=(n, n)) for _ in range(l)],
                           r=np.zeros((l, l)), alpha=np.full(l, 1.0 / l), order=order)

    @staticmethod
    def assert_restores_like_reference(state):
        expect = copy_state(state)
        expect.order = state.order.copy()
        _buffered_restore_reference(expect)
        graphs = [id(g) for g in state.s]
        order, state.order = state.order, None  # as fit takes it
        solver._restore_order(state, order)
        assert [id(g) for g in state.s] == graphs  # in place
        assert np.array_equal(state.v, expect.v)
        for got, want in zip(state.s, expect.s):
            assert np.array_equal(got, want)

    @staticmethod
    def held_order(kind, n, rng):
        idx = np.arange(n)
        if kind == "block swap":  # two equal class blocks swapped: 2-cycles
            a, b, c = n // 4, n // 2, 3 * n // 4
            return np.concatenate([idx[:a], idx[b:c], idx[a:b], idx[c:]])
        if kind == "mixed":  # one long cycle, fixed points, then 2-cycles
            order, h = idx.copy(), n // 2
            order[:h] = np.roll(idx[:h], 1)
            t = h + (n - h) // 2
            order[t:] = t + np.minimum(idx[:n - t] ^ 1, n - t - 1)
            return order
        return {
            "identity": idx,
            "one cycle": np.roll(idx, 1),
            "two-cycles": np.minimum(idx ^ 1, n - 1),  # odd N: the last stays
            "label sort": np.argsort(rng.integers(0, 4, n), kind="stable"),  # as initialize
        }[kind]

    KINDS = ["identity", "one cycle", "two-cycles", "label sort", "block swap", "mixed"]

    @pytest.mark.parametrize("n", [1, 2, 401])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_buffered_gathers(self, kind, n):
        # at N=401 the rows move in blocks of 40, so long cycles span several
        rng = np.random.default_rng(n)
        order = self.held_order(kind, n, rng)
        assert np.array_equal(np.sort(order), np.arange(n))
        self.assert_restores_like_reference(self.random_state(order, rng))

    @pytest.mark.parametrize("step", [1, 2, 40])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_at_each_row_block_step(self, monkeypatch, kind, step):
        n = 401
        monkeypatch.setattr(solver, "BLOCK_ENTRIES", 2 * n * step)
        rng = np.random.default_rng(step)
        self.assert_restores_like_reference(self.random_state(self.held_order(kind, n, rng), rng))

    def test_state_from_initialize(self):
        _, _, state = make_problem(n=401, c=4, seed=3, missing=0.3)
        assert state.order is not None and np.any(state.order != np.arange(401))
        self.assert_restores_like_reference(state)

    def test_allocates_under_five_percent_of_a_graph(self):
        # the buffered restore allocated one whole graph
        n = 1000
        rng = np.random.default_rng(5)
        for kind in ("label sort", "identity", "block swap"):
            state = self.random_state(self.held_order(kind, n, rng), rng)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                solver._restore_order(state, state.order)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 0.05 * 8 * n * n, (kind, peak / (8 * n * n))


def _buffered_restore_reference(state):
    """Reference restore: each graph's rows gathered into an N x N buffer,
    then its columns gathered back."""
    order = np.argsort(state.order)
    state.v = state.v[order]
    rows = np.empty_like(state.s[0])
    for s in state.s:
        np.take(s, order, axis=0, out=rows, mode="clip")
        np.take(rows, order, axis=1, out=s, mode="clip")
    state.order = None


def test_benchmark_shaped_fit_runs_on_blocks(monkeypatch):
    # fit-n1000's shape at N=400 and the real size constant: every S update
    # takes the block path from the third sweep on. The second reads the
    # first sweep's graphs, whose absent instances still fill rows and
    # columns off the blocks. From the fourth sweep on, every block keeps
    # its whole columns, so every block projection takes the full-support
    # route. initialize builds the graphs in cluster order, so the N x N
    # graphs are gathered once, back into the caller's order at the end.
    assert 400**2 >= solver.BLOCK_MIN_ENTRIES
    spec = SyntheticSpec(400, 3, 4, (50, 50, 50), (5, 5, 5), 0.1, 7000)
    ds = simulate_missing(generate_synthetic(spec)[0], 0.3, seed=7)
    hy = Hyperparameters(lam=0.1, beta=0.1, gamma=3, p=0.5, n_clusters=4, max_iter=20, seed=7)
    counts, routes, restored = [], [], []
    original, route, restore = solver.sweep, graph.project_full_support, solver._restore_order

    def counted(*args):
        d = original(*args)
        counts.append(args[3].block_updates)
        return d

    monkeypatch.setattr(solver, "sweep", counted)
    monkeypatch.setattr(graph, "project_full_support",
                        lambda *a: routes.append((len(counts), route(*a))) or routes[-1][1])
    monkeypatch.setattr(solver, "_restore_order",
                        lambda *a: restored.append(len(counts)) or restore(*a))
    res = fit(ds, hy)
    per_sweep = np.diff([0] + counts)
    assert res.iterations >= 10
    assert per_sweep[0] == 0 and np.all(per_sweep[2:] == 3), per_sweep
    late = [taken for at, taken in routes if at >= 3]
    assert len(late) == 3 * 4 * (res.iterations - 3) and all(late)
    assert restored == [res.iterations]
    monkeypatch.setattr(solver, "BLOCK_MIN_ENTRIES", np.inf)
    expect = fit(ds, hy)
    assert len(restored) == 1 and expect.iterations == res.iterations
    assert np.max(np.abs(res.trace - expect.trace) / expect.trace) <= 1e-10
    assert np.max(np.abs(res.state.v - expect.state.v)) <= 1e-10
    for a, b in zip(res.state.s, expect.state.s):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_listed_candidates_never_decline_the_route(monkeypatch):
    # A block that holds listed candidates and declines project_full_support
    # sends its view to the dense update. Probed fits never made one: every
    # block with candidates took the route, which declined only on complete
    # data, on blocks with nothing listed. If a model change breaks this,
    # re-measure the routes' traffic rather than let those views run dense
    # unnoticed.
    spec = SyntheticSpec(400, 3, 4, (20, 20, 20), (5, 5, 5), 0.1, 7000)
    full = generate_synthetic(spec)[0]
    hy = Hyperparameters(lam=0.1, beta=0.1, gamma=3, p=0.5, n_clusters=4, max_iter=20, seed=7)
    routes = record_routes(monkeypatch)
    fit(simulate_missing(full, 0.3, seed=7), hy)
    taken, listed = np.array(routes).reshape(-1, 2).T
    assert listed.any() and taken[listed > 0].all(), "re-measure the block routes"
    routes.clear()
    fit(full, hy)
    taken, listed = np.array(routes).reshape(-1, 2).T
    assert len(routes) and not listed.any(), "re-measure the block routes"


def cold_sweep(state, ds, h):
    """A sweep with a fresh carry: its own graph pass for V, cold projections."""
    return sweep(state, ds, h, SweepCarry.start(ds.n_instances, ds.n_views))


def gram_of(graphs):
    """The graphs' Gram matrix, which reads no V: any V of the right height does."""
    return graph_products(graphs, np.ones((len(graphs[0]), 1)))[0]


def copy_state(state):
    return SolverState(u=[u.copy() for u in state.u], v=state.v.copy(),
                       s=[s.copy() for s in state.s], r=state.r.copy(),
                       alpha=state.alpha.copy())


def _reference_sweep(state, ds, h):
    """sweep with the loop S update on the exact distance matrix of V and a
    graph pass of its own for each step that reads one."""
    state.v = own_pass_update_v(state, ds, h)
    for k in range(ds.n_views):
        state.u[k] = update_u(k, state, ds, h)
    dist = pairwise_sq_dists(state.v)
    for k in range(ds.n_views):
        state.s[k] = _loop_update_similarity(k, state.s, state.r, state.alpha, h.gamma, dist)
    state.r = update_r(gram_of(state.s))
    d = view_losses(state, ds, h, *graph_products(state.s, state.v))
    state.alpha = update_alpha(d, h.gamma)
    return d


def own_pass_update_v(state, ds, h):
    """update_v on the products of a graph pass of the current state."""
    return update_v(state, ds, h, graph_products(state.s, state.v)[1])


def _naive_objective(state, ds, h):
    l = ds.n_views
    total = 0.0
    r_term = sum(state.r[i, j] ** 2 for i in range(l) for j in range(l))
    for v in range(l):
        x = ds.views[v]
        term = 0.0
        for a in range(x.shape[0]):
            for b in range(x.shape[1]):
                pred = sum(state.u[v][a, k] * state.v[b, k] for k in range(state.v.shape[1]))
                term += ((x[a, b] - pred) * ds.weights[v][b]) ** 2
        term += h.lam * sum(
            np.sqrt(np.sum(state.u[v][i] ** 2)) ** h.p for i in range(x.shape[0])
        )
        s = state.s[v]
        n = s.shape[0]
        lap = np.diag(s.sum(axis=1)) - s
        tr = sum(
            state.v[:, k] @ lap @ state.v[:, k] for k in range(state.v.shape[1])
        )
        recon = s - sum(state.s[i] * state.r[i, v] for i in range(l) if i != v)
        term += h.beta * (tr + np.sum(recon**2) + r_term)
        total += state.alpha[v] ** h.gamma * term
    return total


class TestSparsityReweight:
    def test_unit_row_p1(self):
        u = np.array([[1.0, 0.0]])
        d = sparsity_reweight(u, p=1.0, eps=1e-14)
        assert d[0] == pytest.approx(0.5, rel=1e-6)

    def test_zero_row_finite(self):
        for p in (0.001, 0.01, 0.1, 1.0):
            d = sparsity_reweight(np.zeros((2, 3)), p=p, eps=1e-10)
            assert np.all(np.isfinite(d)) and np.all(d > 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(5, 3))
        p, eps = 0.5, 1e-10

        def surrogate(mat):
            return np.sum((np.sum(mat**2, axis=1) + eps) ** (p / 2))

        d = sparsity_reweight(u, p, eps)
        grad = 2.0 * d[:, None] * u
        step = 1e-6
        for i in range(5):
            for j in range(3):
                up = u.copy()
                up[i, j] += step
                dn = u.copy()
                dn[i, j] -= step
                fd = (surrogate(up) - surrogate(dn)) / (2 * step)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestUpdateU:
    def test_fixed_point(self):
        rng = np.random.default_rng(3)
        n, c = 7, 2
        u = [rng.uniform(0.5, 1.0, size=(4, c))]
        v = rng.uniform(0.5, 1.0, size=(n, c))
        x = u[0] @ v.T
        ds = MultiViewDataset((x, x.copy()), np.ones((n, 2), dtype=int))
        state = SolverState(
            u=[u[0], u[0].copy()], v=v,
            s=[np.zeros((n, n))] * 2, r=np.zeros((2, 2)),
            alpha=np.full(2, 0.5),
        )
        new = update_u(0, state, ds, hyper(lam=0.0, n_clusters=c))
        assert np.allclose(new, u[0], rtol=1e-6)

    def test_subobjective_nonincreasing(self):
        ds, h, state = make_problem(seed=4)

        def sub(v):
            x = ds.views[v]
            resid = (x - state.u[v] @ state.v.T) * ds.weights[v][None, :]
            smooth = np.sum((np.sum(state.u[v] ** 2, axis=1) + solver.EPS) ** (h.p / 2))
            return np.sum(resid**2) + h.lam * smooth

        prev = sub(0)
        for _ in range(50):
            state.u[0] = update_u(0, state, ds, h)
            cur = sub(0)
            assert cur <= prev + 1e-10 * max(1.0, prev)
            prev = cur

    def test_nonnegative_output(self):
        ds, h, state = make_problem(seed=5)
        assert np.all(update_u(1, state, ds, h) >= 0)


class TestUpdateV:
    def test_orthonormal_penalty_fixed_point(self):
        # zero data and factors leave only the penalty; an orthonormal
        # nonnegative V (disjoint one-hot columns) must not move
        n, c, l = 6, 2, 2
        v = np.zeros((n, c))
        v[:3, 0] = 1.0 / np.sqrt(3)
        v[3:, 1] = 1.0 / np.sqrt(3)
        ds = MultiViewDataset(
            (np.zeros((3, n)), np.zeros((2, n))), np.ones((n, l), dtype=int)
        )
        state = SolverState(
            u=[np.zeros((3, c)), np.zeros((2, c))], v=v,
            s=[np.zeros((n, n))] * l, r=np.zeros((l, l)),
            alpha=np.full(l, 0.5),
        )
        new = own_pass_update_v(state, ds, hyper(lam=0.0, beta=0.0, n_clusters=c))
        assert np.allclose(new, v, atol=1e-9)

    def test_penalized_subobjective_nonincreasing(self):
        ds, h, state = make_problem(seed=6)

        def sub():
            ag = state.alpha**h.gamma
            total = solver.XI * np.linalg.norm(state.v.T @ state.v - np.eye(3)) ** 2
            for v in range(ds.n_views):
                resid = (ds.views[v] - state.u[v] @ state.v.T) * ds.weights[v][None, :]
                lap = np.diag(state.s[v].sum(axis=1)) - state.s[v]
                total += ag[v] * (
                    np.sum(resid**2) + h.beta * np.trace(state.v.T @ lap @ state.v)
                )
            return total

        prev = sub()
        for _ in range(30):
            state.v = own_pass_update_v(state, ds, h)
            cur = sub()
            assert cur <= prev + 1e-10 * max(1.0, prev)
            prev = cur

    def test_nonnegative_output(self):
        ds, h, state = make_problem(seed=7)
        assert np.all(own_pass_update_v(state, ds, h) >= 0)


class TestUpdateR:
    def test_two_views_forced(self):
        ds, h, state = make_problem(l=2, seed=8)
        r = update_r(gram_of(state.s))
        assert np.allclose(r, [[0.0, 1.0], [1.0, 0.0]])

    def test_identical_graphs_symmetric_split(self):
        ds, h, state = make_problem(l=3, seed=9)
        state.s = [state.s[0].copy() for _ in range(3)]
        r = update_r(gram_of(state.s))
        expect = np.full((3, 3), 0.5)
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(r, expect, atol=1e-7)

    def test_constraints_exact(self):
        ds, h, state = make_problem(l=4, seed=10)
        r = update_r(gram_of(state.s))
        check_coefficients(r, tol=1e-12)

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_matches_kkt_and_projected_gradient_oracle(self, l):
        rng = np.random.default_rng(30 + l)
        n = 10
        cases = []
        for _ in range(3):
            # sparse graphs, each pulled toward view 0 by a random amount
            graphs = []
            for k in range(l):
                g = (rng.uniform(size=(n, n)) < 0.3) * rng.uniform(size=(n, n))
                if k:
                    keep = rng.uniform()
                    g = (1.0 - keep) * g + keep * graphs[0]
                np.fill_diagonal(g, 0.0)
                g[(np.arange(n) + 1) % n, np.arange(n)] += 1e-3  # no empty column
                graphs.append(g / g.sum(axis=0))
            cases.append(graphs)
        # cyclic-shift graphs with view 1 halfway between views 0 and 2, so
        # column 0 puts no weight on view 2: the optimum sits on a face
        shifts = [np.roll(np.eye(n), k, axis=0) for k in range(1, l + 1)]
        if l > 2:
            shifts[1] = 0.5 * (shifts[0] + shifts[2])
        cases.append(shifts)
        # identical graphs: the rank-one Gram of a collapsed consensus
        cases.append([cases[0][0].copy() for _ in range(l)])
        for graphs in cases:
            state = SolverState(u=[], v=np.empty((n, 2)), s=graphs,
                                r=np.zeros((l, l)), alpha=np.full(l, 1.0 / l))
            r = update_r(gram_of(graphs))
            check_coefficients(r, tol=1e-12)
            gram = np.array([[np.sum(a * b) for b in graphs] for a in graphs])
            for v in range(l):
                grad = 2.0 * (gram @ r[:, v] - gram[:, v]) + 2.0 * r[:, v]
                free = np.arange(l) != v
                on = free & (r[:, v] > 0)
                # stationarity on the support, no descent direction off it
                assert np.ptp(grad[on]) <= 1e-9 * (1.0 + np.abs(grad).max())
                assert np.all(grad[free] >= grad[on].min() - 1e-9 * (1.0 + np.abs(grad).max()))
                warm = np.where(free, 1.0 / (l - 1), 0.0)
                oracle = _nesterov_r_column(gram, v, warm)
                assert np.max(np.abs(r[:, v] - oracle)) <= 1e-8

    @pytest.mark.parametrize("l", range(2, solver.MAX_VIEWS + 1))
    def test_matches_per_column_enumeration(self, l):
        for gram in _r_test_grams(l, np.random.default_rng(70 + l)):
            r = update_r(gram)
            check_coefficients(r, tol=1e-12)
            assert r.flags.c_contiguous
            assert_r_matches_enumeration(r, gram)

    @pytest.mark.parametrize("l,step", [(2, 1), (3, 1), (3, 4), (5, 1), (5, 7)])
    def test_chunked_supports_match_enumeration(self, l, step):
        # `step` supports per chunk, so several chunks run: a running best
        # over chunks keeps each column's first best, as update_r's one solve does
        for gram in _r_test_grams(l, np.random.default_rng(80 + l)):
            r = _chunked_r_reference(gram, step)
            assert_r_matches_enumeration(r, gram)
            assert np.max(np.abs(update_r(gram) - r)) <= 1e-14

    @pytest.mark.parametrize("l", [solver.MAX_VIEWS])
    def test_memory_stays_bounded_at_many_views(self, l):
        rng = np.random.default_rng(l)
        a = rng.uniform(size=(l, 40))
        gram = a @ a.T
        tracemalloc.start()
        try:
            r = update_r(gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_coefficients(r, tol=1e-10)
        # the stack of every support's KKT system takes 0.75 MiB at l=8
        assert peak < 4 * 2**20


def _r_test_grams(l, rng):
    n = 10
    grams = []
    for scale in (1e-3, 1.0, 1e3):
        for width in (1, l, 3 * l):  # rank-deficient to full-rank Grams
            a = rng.uniform(size=(l, width)) * scale
            a[rng.uniform(size=a.shape) < 0.3] = 0.0
            grams.append(a @ a.T)
    # identical graphs: a rank-one Gram on which every column is symmetric
    g = rng.uniform(size=(n, n))
    grams.append(np.full((l, l), np.vdot(g, g)))
    # cyclic shifts with view 1 halfway between views 0 and 2: the optimum of
    # column 0 sits on a face
    shifts = [np.roll(np.eye(n), k, axis=0) for k in range(1, l + 1)]
    if l > 2:
        shifts[1] = 0.5 * (shifts[0] + shifts[2])
    grams.append(gram_of(shifts))
    return grams


def assert_r_matches_enumeration(r, gram):
    # both solve the same KKT systems stably, so they agree to rounding times
    # the condition of Q = G + I: 1e-12 up to a condition of 1e3 (Grams of
    # column-stochastic graphs), more on the 1e3-scaled ones
    tol = max(1e-12, 1e-15 * np.linalg.cond(gram + np.eye(len(gram))))
    assert np.max(np.abs(r - _enumerate_r_reference(gram))) <= tol


def _enumerate_r_reference(gram):
    """update_r column by column: one KKT solve per candidate support."""
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


def _chunked_r_reference(gram, step):
    """update_r with its supports solved `step` at a time; a chunk replaces a
    column's best so far only with a strictly smaller score."""
    l = len(gram)
    quad = gram + np.eye(l)
    supports = solver._candidate_supports(l)
    r_new, best = np.zeros((l, l)), np.full(l, np.inf)
    for start in range(0, len(supports), step):
        member = supports[start:start + step]
        kkt = np.zeros((len(member), l + 1, l + 1))
        kkt[:, :l, :l] = np.where(member[:, :, None] & member[:, None, :], quad, np.eye(l))
        kkt[:, :l, l] = kkt[:, l, :l] = member
        rhs = np.ones((len(member), l + 1, l))
        rhs[:, :l] = member[:, :, None] * gram
        cand = np.linalg.solve(kkt, rhs)[:, :l]
        score = np.einsum("akv,akv->av", cand, quad @ cand - 2.0 * gram)
        score[member | ~np.all(cand >= 0.0, axis=1)] = np.inf
        first = np.argmin(score, axis=0)
        top = score[first, range(l)]
        better = top < best
        r_new[:, better] = np.take_along_axis(cand, first[None, None], axis=0)[0][:, better]
        best[better] = top[better]
    return r_new


def _nesterov_r_column(gram, v, warm, grad_tol=1e-10, max_inner=20000):
    """Reference R column: accelerated projected gradient with monotone restarts."""
    from mvufs.simplex import project_offdiag_simplex

    target = gram[:, v]
    lip = 2.0 * (float(np.linalg.eigvalsh(gram)[-1]) + 1.0)

    def grad(r):
        return 2.0 * (gram @ r - target) + 2.0 * r

    def value(r):
        return float(r @ gram @ r - 2.0 * target @ r + r @ r)

    r = project_offdiag_simplex(warm, v)
    y = r.copy()
    t = 1.0
    f_prev = value(r)
    for _ in range(max_inner):
        r_next = project_offdiag_simplex(y - grad(y) / lip, v)
        f_next = value(r_next)
        if f_next > f_prev:  # momentum overshot: restart from the last iterate
            y = r.copy()
            t = 1.0
            r_next = project_offdiag_simplex(y - grad(y) / lip, v)
            f_next = value(r_next)
        gap = lip * np.linalg.norm(
            r_next - project_offdiag_simplex(r_next - grad(r_next) / lip, v)
        )
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = r_next + ((t - 1.0) / t_next) * (r_next - r)
        r, t, f_prev = r_next, t_next, f_next
        if gap <= grad_tol:
            break
    return r


class TestUpdateAlpha:
    def test_uniform_when_losses_equal(self):
        assert np.allclose(update_alpha(np.full(4, 2.5), 3.0), 0.25)

    def test_two_view_closed_form(self):
        # gamma=2, d=(1,3): minimize a^2 + 3(1-a)^2 -> a = 0.75
        assert np.allclose(update_alpha(np.array([1.0, 3.0]), 2.0), [0.75, 0.25])

    def test_zero_loss_views_take_all_weight(self):
        alpha = update_alpha(np.array([0.0, 2.0, 0.0]), 3.0)
        assert np.allclose(alpha, [0.5, 0.0, 0.5])

    def test_beats_simplex_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = rng.uniform(0.1, 5.0, size=3)
            gamma = float(rng.integers(2, 9))
            alpha = update_alpha(d, gamma)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            best = _grid_min(d, gamma, step=1e-2)
            assert np.sum(alpha**gamma * d) <= best + 1e-9


def _grid_min(d, gamma, step):
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    best = np.inf
    for a in ticks:
        for b in ticks[ticks <= 1.0 - a + 1e-12]:
            c = 1.0 - a - b
            if c < -1e-12:
                continue
            val = a**gamma * d[0] + b**gamma * d[1] + max(c, 0.0) ** gamma * d[2]
            best = min(best, val)
    return best


class TestInitializeAndFit:
    def test_deterministic_initialize(self):
        ds, h, s1 = make_problem(seed=13)
        s2 = initialize(ds, h)
        for a, b in zip(s1.u, s2.u):
            assert np.array_equal(a, b)
        assert np.array_equal(s1.v, s2.v)
        for a, b in zip(s1.s, s2.s):
            assert np.array_equal(a, b)

    def test_initial_state_invariants(self):
        ds, h, state = make_problem(seed=14, missing=0.3)
        for s in state.s:
            check_similarity(s)
        check_coefficients(state.r)
        assert abs(state.alpha.sum() - 1.0) <= 1e-12
        assert all(np.all(u > 0) for u in state.u)
        assert np.all(state.v > 0)

    def test_single_view_rejected(self):
        rng = np.random.default_rng(0)
        ds = MultiViewDataset(
            (rng.uniform(size=(4, 8)),), np.ones((8, 1), dtype=int)
        )
        with pytest.raises(ValueError, match="needs 2 to 8 views; the dataset has 1"):
            initialize(ds, hyper())

    def test_views_beyond_the_bound_rejected(self):
        l = solver.MAX_VIEWS + 1
        ds, _ = generate_synthetic(SyntheticSpec(12, l, 2, (4,) * l, (2,) * l, 0.1, 0))
        with pytest.raises(ValueError, match=f"needs 2 to 8 views; the dataset has {l}"):
            fit(ds, hyper(n_clusters=2))

    def test_max_iter_zero_returns_initial_state(self):
        spec = SyntheticSpec(12, 2, 2, (5, 5), (2, 2), 0.1, 0)
        ds, _ = generate_synthetic(spec)
        res = fit(ds, hyper(n_clusters=2, max_iter=0))
        assert res.iterations == 0
        assert len(res.trace) == 1
        assert not res.converged

    def test_fit_converges_on_easy_synthetic(self):
        spec = SyntheticSpec(40, 2, 3, (8, 8), (3, 3), 0.05, 1)
        ds, _ = generate_synthetic(spec)
        res = fit(ds, hyper(lam=0.01, beta=0.01, max_iter=300, seed=1))
        assert res.converged
        tr = res.trace
        assert np.all(tr[1:] <= tr[:-1] * (1 + 1e-6))

    def test_fit_forms_each_graph_pass_once(self, monkeypatch):
        calls = []
        passes = []
        monkeypatch.setattr(solver, "graph_products",
                            lambda *a: passes.append(graph_products(*a)) or passes[-1])
        monkeypatch.setattr(solver, "update_v",
                            lambda *a: calls.append(a[3] is passes[-1][1]) or update_v(*a))
        ds, _ = generate_synthetic(SyntheticSpec(20, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 5))
        monkeypatch.setattr(solver, "REL_TOL", 0.0)
        res = fit(ds, hyper(max_iter=3))
        assert res.iterations == 3
        assert calls == [True] * 3  # every V update takes the last pass's products
        assert len(passes) == 1 + res.iterations

    @pytest.mark.parametrize("update", ["update_v", "update_u", "update_alpha"])
    def test_non_finite_update_raises_divergence(self, monkeypatch, update):
        original = getattr(solver, update)
        monkeypatch.setattr(solver, update, lambda *a: np.full_like(original(*a), np.inf))
        ds, _ = generate_synthetic(SyntheticSpec(20, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 6))
        with pytest.raises(SolverDivergence, match="non-finite"):
            fit(ds, hyper(max_iter=3))

    def test_overflowing_data_gets_a_clear_error(self):
        ds, _ = generate_synthetic(SyntheticSpec(20, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 7))
        huge = MultiViewDataset(tuple(x * 1e300 for x in ds.views), ds.presence)
        with pytest.raises(ValueError, match="k-means\\+\\+ seeding overflowed"):
            fit(huge, hyper())

    def test_constraints_after_fit(self, monkeypatch):
        spec = SyntheticSpec(30, 3, 3, (6, 6, 6), (2, 2, 2), 0.1, 2)
        ds, _ = generate_synthetic(spec)
        ds = simulate_missing(ds, 0.2, seed=3)
        monkeypatch.setattr(solver, "REL_TOL", 0.0)
        res = fit(ds, hyper(max_iter=40, seed=2))
        st = res.state
        assert abs(st.alpha.sum() - 1.0) <= 1e-10
        for s in st.s:
            check_similarity(s)
        check_coefficients(st.r)
        assert all(np.all(u >= 0) for u in st.u)
        assert np.all(st.v >= 0)


def masked_dataset(n, seed, ratio=0.3):
    ds, _ = generate_synthetic(SyntheticSpec(n, 3, 4, (12,) * 3, (3,) * 3, 0.1, seed))
    return simulate_missing(ds, ratio, seed=seed + 1)


def fresh_copy(ds):
    """The same data in a new dataset object, which holds no start yet."""
    return MultiViewDataset(tuple(x.copy() for x in ds.views), ds.presence.copy(), ds.labels)


def state_bytes(state):
    arrays = [state.v, state.r, state.alpha, *state.u, *state.s]
    order = None if state.order is None else state.order.tobytes()
    return [order, *((a.shape, a.tobytes()) for a in arrays)]


def fit_bytes(result):
    return [result.iterations, result.converged, result.trace.tobytes(),
            *state_bytes(result.state)]


def count_kmeans(monkeypatch):
    calls = []
    original = evaluation.kmeans
    monkeypatch.setattr(evaluation, "kmeans", lambda *a: calls.append(a[1]) or original(*a))
    return calls


# cells of one masked dataset, as a grid of `mvufs run` fits them in turn
GRID_CELLS = [dict(lam=0.01, beta=0.1, gamma=3.0, p=0.5), dict(lam=1.0, beta=1.0, gamma=5.0, p=1.0),
              dict(lam=10.0, beta=0.1, gamma=2.0, p=0.1), dict(lam=0.1, beta=10.0, gamma=3.0, p=0.5)]


class TestSharedStart:
    """initialize takes the k-means labels, the cluster order and the kNN
    searches from the dataset after the first fit that makes them."""

    # N=400 takes the cluster order (N^2 >= BLOCK_MIN_ENTRIES) and the block path
    @pytest.mark.parametrize("n, max_iter", [(120, 300), (400, 4)])
    def test_cached_start_equals_a_fresh_one(self, monkeypatch, n, max_iter):
        ds = masked_dataset(n, 90)
        calls = count_kmeans(monkeypatch)
        for cell in GRID_CELLS:
            h = hyper(n_clusters=4, seed=3, max_iter=max_iter, **cell)
            assert fit_bytes(fit(ds, h)) == fit_bytes(fit(fresh_copy(ds), h))
            assert state_bytes(initialize(ds, h)) == state_bytes(initialize(fresh_copy(ds), h))
        assert (initialize(ds, h).order is None) == (n ** 2 < solver.BLOCK_MIN_ENTRIES)
        # one k-means for ds, two for each cell's fresh copies
        assert len(calls) == 1 + 2 * len(GRID_CELLS)
        assert len(ds.starts) == 1

    def test_kmeans_runs_once_per_masked_dataset(self, monkeypatch):
        ds = masked_dataset(120, 91)
        calls = count_kmeans(monkeypatch)
        for cell in GRID_CELLS:
            fit(ds, hyper(n_clusters=4, seed=3, max_iter=5, **cell))
        assert calls == [4]

    def test_changed_seed_knn_or_clusters_rebuild_the_start(self, monkeypatch):
        ds = masked_dataset(60, 92)
        calls = count_kmeans(monkeypatch)
        base = dict(n_clusters=4, seed=3, knn=5, max_iter=3)
        variants = [base, {**base, "seed": 4}, {**base, "knn": 3}, {**base, "n_clusters": 3}, base]
        for kw in variants:
            h = hyper(**kw)
            assert fit_bytes(fit(ds, h)) == fit_bytes(fit(fresh_copy(ds), h))
        assert len(ds.starts) == 4  # the last variant repeats the first
        assert calls == [4, 4, 4, 4, 4, 4, 3, 3, 4]

    def test_fits_share_no_array(self):
        ds = masked_dataset(400, 93)
        h = hyper(n_clusters=4, seed=3)
        a, b = initialize(ds, h), initialize(ds, h)
        start = ds.starts[(3, 5, 4, True)]
        held = [start.v, start.order, *itertools.chain.from_iterable(start.edges)]
        mine = [a.v, a.r, a.alpha, a.order, *a.u, *a.s]
        for x, y in itertools.product(mine, [b.v, b.r, b.alpha, b.order, *b.u, *b.s, *held]):
            assert not np.may_share_memory(x, y)
        assert not any(x.flags.writeable for x in held)

    def test_fit_gathers_each_view_into_cluster_order_once(self, monkeypatch):
        ds = masked_dataset(1000, 95)
        calls = []
        original = solver._permuted
        monkeypatch.setattr(solver, "_permuted",
                            lambda *a: calls.append((a[1], original(*a))) or calls[-1][1])
        fit(ds, hyper(n_clusters=4, seed=3, max_iter=2))
        ((order, ordered),) = calls  # once per fit: its sweeps and objectives take no other
        assert ordered.labels is None  # no update reads them
        for x, view in zip(ds.views, ordered.views):
            # the dataset holds the gather itself, in x[:, order]'s layout
            assert view.strides == x[:, order].strides == (8, 8 * x.shape[0])
            assert view.base.flags.owndata and view.base.flags.c_contiguous
            assert not view.flags.writeable and not view.base.flags.writeable
            assert view.tobytes(order="A") == x[:, order].tobytes(order="A")

    def test_start_is_small_and_freed_with_the_dataset(self):
        n = 400
        ds = masked_dataset(n, 94)
        result = fit(ds, hyper(n_clusters=4, seed=3, max_iter=2))
        (start,) = ds.starts.values()
        held = [start.v, start.order, *itertools.chain.from_iterable(start.edges)]
        assert max(a.size for a in held) < n * n
        assert sum(a.nbytes for a in held) < 8 * n * n / 4  # a quarter of one graph
        watch = weakref.ref(start.edges[0].near)
        del ds, start, held
        gc.collect()
        assert watch() is None  # while the fit's result lives on
        assert result.iterations == 2


def _per_view_update_similarity(v, graphs, r, alpha, gamma, indicator, thresholds,
                                blocks=None, dists=None):
    """The dense S update of a graph of one row block with the view's own
    distance product and weights on numpy scalars, ignoring `dists`."""
    assert blocks is None and len(indicator) ** 2 <= graph.BLOCK_ENTRIES
    others = [k for k in range(len(graphs)) if k != v]
    ag = np.asarray(alpha, dtype=float) ** gamma
    denom = sum(ag[k] * r[v, k] ** 2 for k in others) + ag[v]
    out = np.multiply(graph.shifted_sq_dists(indicator), -0.25 * ag[v] / denom, out=graphs[v])
    for i in others:
        cross = sum(ag[k] * r[v, k] * r[i, k] for k in others if k != i)
        out += graphs[i] * ((ag[v] * r[i, v] + ag[i] * r[v, i] - cross) / denom)
    return project_offdiag_columns(out, out=out, thresholds=thresholds)


def test_weights_keep_numpy_scalar_rounding():
    # an r_vk whose numpy scalar square (libm's pow) differs from r_vk * r_vk
    rng = np.random.default_rng(95)
    x = next(x for x in rng.random(100000) if np.float64(x) ** 2 != x * x)
    r = np.array([[0.0, x, 0.4], [0.3, 0.0, 0.6], [0.7, 1.0 - x, 0.0]])
    n = 12
    graphs = [project_offdiag_columns(rng.random((n, n))) for _ in range(3)]
    alpha, indicator = np.array([0.2, 0.3, 0.5]), rng.random((n, 4))
    for v in range(3):
        got = graph.update_similarity(v, [g.copy() for g in graphs], r, alpha, 3.0, indicator)
        expect = _per_view_update_similarity(v, [g.copy() for g in graphs], r, alpha, 3.0,
                                             indicator, np.full(n, np.nan))
        assert got.tobytes() == expect.tobytes()


def count_dists(monkeypatch):
    """Records the rows argument, if any, of every graph.shifted_sq_dists call."""
    calls = []
    original = graph.shifted_sq_dists
    monkeypatch.setattr(graph, "shifted_sq_dists", lambda *a: calls.append(a[1:]) or original(*a))
    return calls


class TestSweepDistances:
    """A graph of one row block reads V's distances from one product per sweep."""

    def test_one_product_per_small_sweep(self, monkeypatch):
        ds, h, state = make_problem(n=120, missing=0.3)
        calls = count_dists(monkeypatch)
        cold_sweep(state, ds, h)
        assert calls == [()]  # the whole V, where each of the 3 views formed its own

    def test_row_blocks_keep_one_product_per_view_and_block(self, monkeypatch):
        n = 400
        ds, h, state = make_problem(n=n, missing=0.3)
        monkeypatch.setattr(solver, "BLOCK_MIN_ENTRIES", np.inf)  # the dense path
        calls = count_dists(monkeypatch)
        cold_sweep(state, ds, h)
        rows = graph.BLOCK_ENTRIES // n
        blocks = [(slice(start, start + rows),) for start in range(0, n, rows)]
        assert calls == blocks * ds.n_views

    @pytest.mark.parametrize("n", [9, 120, 181])
    def test_shared_product_equals_per_view_updates(self, monkeypatch, n):
        ds, h, state = make_problem(n=n, missing=0.3, seed=4)
        ref = copy_state(state)
        carry, ref_carry = SweepCarry.start(n, ds.n_views), SweepCarry.start(n, ds.n_views)
        for _ in range(4):
            d = sweep(state, ds, h, carry)
            with monkeypatch.context() as m:
                m.setattr(solver, "update_similarity", _per_view_update_similarity)
                d_ref = sweep(ref, ds, h, ref_carry)
            assert d.tobytes() == d_ref.tobytes()
            assert state_bytes(state) == state_bytes(ref)
            for a, b in zip(carry.thresholds, ref_carry.thresholds):
                assert a.tobytes() == b.tobytes()


def _property_cases():
    """Small seeded datasets at the solver's degenerate corners."""
    def synthetic(n, l, seed):
        spec = SyntheticSpec(n, l, 3, tuple([6] * l), tuple([2] * l), 0.2, seed)
        return generate_synthetic(spec)[0]

    yield "two views", simulate_missing(synthetic(30, 2, 60), 0.3, seed=61)
    half = synthetic(16, 3, 62)
    twins = MultiViewDataset(tuple(np.hstack([x, x]) for x in half.views),
                             np.vstack([half.presence, half.presence]))
    yield "duplicate instances", simulate_missing(twins, 0.2, seed=63)
    flat = synthetic(30, 3, 64)
    views = [x.copy() for x in flat.views]
    views[0][0] = 2.5  # a constant feature
    views[1][1] = 0.0  # an all-zero feature
    yield "constant and zero features", MultiViewDataset(tuple(views), flat.presence)
    full = synthetic(30, 3, 65)
    presence = np.ones((30, 3), dtype=int)
    presence[4, 0] = 0  # exactly one absent instance in view 0
    presence[np.random.default_rng(66).permutation(30)[:15], 1] = 0  # half of view 1
    yield "one and half absent", MultiViewDataset(full.views, presence)
    yield "knn 1", simulate_missing(synthetic(20, 3, 67), 0.3, seed=68)
    yield "knn one below the sparsest view", simulate_missing(synthetic(16, 3, 69), 0.25, seed=70)
    yield "two views at half missing", simulate_missing(synthetic(24, 2, 71), 0.5, seed=72)
    yield "eight views", simulate_missing(synthetic(30, solver.MAX_VIEWS, 73), 0.3, seed=74)


@pytest.mark.parametrize("name,ds", list(_property_cases()))
def test_degenerate_inputs_stay_feasible_and_monotone(name, ds):
    sparsest = int(ds.presence.sum(axis=0).min())
    h = hyper(knn={"knn 1": 1, "knn one below the sparsest view": sparsest - 1}.get(name, 5))
    state = initialize(ds, h)
    carry = SweepCarry.start(ds.n_instances, ds.n_views)
    prev = objective(state, ds, h)
    for _ in range(40):
        d = sweep(state, ds, h, carry)
        cur = objective(state, ds, h, d)
        assert np.isfinite(cur) and cur <= prev * (1.0 + 1e-6), name
        for s in state.s:
            check_similarity(s)
        check_coefficients(state.r)
        assert abs(state.alpha.sum() - 1.0) <= 1e-12 and np.all(state.alpha >= 0.0)
        assert np.all(np.isfinite(state.v)) and np.all(state.v >= 0.0)
        assert all(np.all(np.isfinite(u)) and np.all(u >= 0.0) for u in state.u)
        prev = cur


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e18, 1e22, 1e150])
def test_view_scale_gives_feasible_fit_or_named_error(scale):
    ds, _ = generate_synthetic(SyntheticSpec(20, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 0))
    scaled = MultiViewDataset(tuple(x * scale for x in ds.views), ds.presence)
    try:
        res = fit(scaled, hyper(max_iter=60))
    except SolverDivergence as exc:
        assert "S update of view" in str(exc) or "non-finite" in str(exc)
        return
    except DatasetError:
        return
    st = res.state
    assert np.all(np.isfinite(res.trace))
    for s in st.s:
        check_similarity(s)
    check_coefficients(st.r)
    assert abs(st.alpha.sum() - 1.0) <= 1e-12 and np.all(st.alpha >= 0.0)
    assert np.all(np.isfinite(st.v)) and np.all(st.v >= 0.0)
    assert all(np.all(np.isfinite(u)) and np.all(u >= 0.0) for u in st.u)


def test_s_update_failure_names_the_view(monkeypatch):
    def failing(v, *args):
        raise ValueError("projection lost its support: huge entries")

    monkeypatch.setattr(solver, "update_similarity", failing)
    ds, h, state = make_problem(seed=80)
    with pytest.raises(SolverDivergence, match="the S update of view 0 failed: projection lost"):
        cold_sweep(state, ds, h)
