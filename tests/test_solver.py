import numpy as np
import pytest

from mvufs.datamodel import (
    MultiViewDataset,
    SyntheticSpec,
    build_view_weights,
    generate_synthetic,
    simulate_missing,
)
from mvufs.graph import check_coefficients, check_similarity, pairwise_sq_dists, update_similarity
from mvufs.solver import (
    Hyperparameters,
    SolverState,
    fit,
    graph_gram,
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
    w = build_view_weights(ds)
    state = initialize(ds, w, h)
    return ds, w, h, state


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


class TestObjective:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        n, c, l = 8, 2, 2
        u = [rng.uniform(size=(5, c)) for _ in range(l)]
        v = rng.uniform(size=(n, c))
        views = tuple(u[k] @ v.T for k in range(l))
        ds = MultiViewDataset(views, np.ones((n, l), dtype=int))
        w = build_view_weights(ds)
        s = [np.zeros((n, n)) for _ in range(l)]
        r = np.zeros((l, l))
        state = SolverState(u=u, v=v, s=s, r=r, alpha=np.full(l, 0.5))
        h = hyper(lam=0.0, beta=0.0, n_clusters=c)
        assert objective(state, ds, w, h) == pytest.approx(0.0, abs=1e-20)

    def test_reduces_to_frobenius_residual(self):
        rng = np.random.default_rng(1)
        n, c = 6, 2
        x = rng.uniform(size=(4, n))
        u = rng.uniform(size=(4, c))
        v = rng.uniform(size=(n, c))
        # two identical views with alpha = (1, 0) so only view 0 contributes
        ds = MultiViewDataset((x, x.copy()), np.ones((n, 2), dtype=int))
        w = build_view_weights(ds)
        state = SolverState(
            u=[u, u.copy()],
            v=v,
            s=[np.zeros((n, n))] * 2,
            r=np.zeros((2, 2)),
            alpha=np.array([1.0, 0.0]),
        )
        h = hyper(lam=0.0, beta=0.0, n_clusters=c, gamma=2.0)
        expect = np.linalg.norm(x - u @ v.T) ** 2
        assert objective(state, ds, w, h) == pytest.approx(expect, rel=1e-12)

    def test_matches_naive_recomputation(self):
        ds, w, h, state = make_problem(missing=0.2)
        got = objective(state, ds, w, h)
        expect = _naive_objective(state, ds, w, h)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_reuses_view_losses(self):
        ds, w, h, state = make_problem(missing=0.2, seed=3)
        d = sweep(state, ds, w, h)
        assert np.allclose(d, view_losses(state, ds, w, h), rtol=1e-13, atol=0.0)
        assert objective(state, ds, w, h, d) == objective(state, ds, w, h)
        assert objective(state, ds, w, h) == pytest.approx(
            _naive_objective(state, ds, w, h), rel=1e-10
        )


class TestReconstructionTerm:
    """view_losses takes ||S_v - sum_{i != v} r_iv S_i||^2 from the graphs' Gram matrix."""

    @staticmethod
    def losses(graphs, r, gram=None):
        # zero data, factors and indicator leave beta * reconstruction as the only loss
        l, n = len(graphs), graphs[0].shape[0]
        ds = MultiViewDataset(tuple(np.zeros((3, n)) for _ in range(l)),
                              np.ones((n, l), dtype=int))
        state = SolverState(u=[np.zeros((3, 2)) for _ in range(l)], v=np.zeros((n, 2)),
                            s=graphs, r=r, alpha=np.full(l, 1.0 / l))
        return view_losses(state, ds, build_view_weights(ds),
                           hyper(lam=0.0, beta=1.0, n_clusters=2), gram)

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
            assert np.array_equal(self.losses(graphs, r, graph_gram(graphs)), got)

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_nonnegative_on_identical_graphs(self, l):
        ds, w, h, state = make_problem(n=20, l=2, seed=15, missing=0.3)
        for g in (state.s[0], state.s[1]):
            r = np.full((l, l), 1.0 / (l - 1))
            np.fill_diagonal(r, 0.0)
            d = self.losses([g.copy() for _ in range(l)], r)
            assert np.all(d >= 0.0)
            assert np.all(d <= 1e-12 * np.sum(g * g))


class TestSweep:
    @pytest.mark.parametrize("l,missing", [(2, 0.0), (3, 0.3), (4, 0.5)])
    def test_shifted_distances_match_exact_ones(self, l, missing):
        ds, w, h, state = make_problem(n=24, l=l, seed=16 + l, missing=missing)
        ref = SolverState(u=[u.copy() for u in state.u], v=state.v.copy(),
                          s=[s.copy() for s in state.s], r=state.r.copy(),
                          alpha=state.alpha.copy())
        for _ in range(3):
            d = sweep(state, ds, w, h)
            d_ref = _reference_sweep(ref, ds, w, h)
            assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-12
            for a, b in zip(state.s, ref.s):
                assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(state.r - ref.r)) <= 1e-12
            assert np.max(np.abs(state.alpha - ref.alpha)) <= 1e-12


def _reference_sweep(state, ds, w, h):
    """sweep with the exact distance matrix of V and no shared Gram matrix."""
    state.v = update_v(state, ds, w, h)
    for k in range(ds.n_views):
        state.u[k] = update_u(k, state, ds, w, h)
    dist = pairwise_sq_dists(state.v)
    for k in range(ds.n_views):
        state.s[k] = update_similarity(k, state.s, state.r, state.alpha, h.gamma, dist)
    state.r = update_r(state, h)
    d = view_losses(state, ds, w, h)
    state.alpha = update_alpha(d, h.gamma)
    return d


def _naive_objective(state, ds, w, h):
    l = ds.n_views
    total = 0.0
    r_term = sum(state.r[i, j] ** 2 for i in range(l) for j in range(l))
    for v in range(l):
        x = ds.views[v]
        term = 0.0
        for a in range(x.shape[0]):
            for b in range(x.shape[1]):
                pred = sum(state.u[v][a, k] * state.v[b, k] for k in range(state.v.shape[1]))
                term += ((x[a, b] - pred) * w.vectors[v][b]) ** 2
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
        w = build_view_weights(ds)
        state = SolverState(
            u=[u[0], u[0].copy()], v=v,
            s=[np.zeros((n, n))] * 2, r=np.zeros((2, 2)),
            alpha=np.full(2, 0.5),
        )
        new = update_u(0, state, ds, w, hyper(lam=0.0, n_clusters=c))
        assert np.allclose(new, u[0], rtol=1e-6)

    def test_subobjective_nonincreasing(self):
        ds, w, h, state = make_problem(seed=4)

        def sub(v):
            x = ds.views[v]
            resid = (x - state.u[v] @ state.v.T) * w.vectors[v][None, :]
            smooth = np.sum((np.sum(state.u[v] ** 2, axis=1) + h.eps) ** (h.p / 2))
            return np.sum(resid**2) + h.lam * smooth

        prev = sub(0)
        for _ in range(50):
            state.u[0] = update_u(0, state, ds, w, h)
            cur = sub(0)
            assert cur <= prev + 1e-10 * max(1.0, prev)
            prev = cur

    def test_nonnegative_output(self):
        ds, w, h, state = make_problem(seed=5)
        assert np.all(update_u(1, state, ds, w, h) >= 0)


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
        w = build_view_weights(ds)
        state = SolverState(
            u=[np.zeros((3, c)), np.zeros((2, c))], v=v,
            s=[np.zeros((n, n))] * l, r=np.zeros((l, l)),
            alpha=np.full(l, 0.5),
        )
        new = update_v(state, ds, w, hyper(lam=0.0, beta=0.0, n_clusters=c))
        assert np.allclose(new, v, atol=1e-9)

    def test_penalized_subobjective_nonincreasing(self):
        ds, w, h, state = make_problem(seed=6)

        def sub():
            ag = state.alpha**h.gamma
            total = h.xi * np.linalg.norm(state.v.T @ state.v - np.eye(3)) ** 2
            for v in range(ds.n_views):
                resid = (ds.views[v] - state.u[v] @ state.v.T) * w.vectors[v][None, :]
                lap = np.diag(state.s[v].sum(axis=1)) - state.s[v]
                total += ag[v] * (
                    np.sum(resid**2) + h.beta * np.trace(state.v.T @ lap @ state.v)
                )
            return total

        prev = sub()
        for _ in range(30):
            state.v = update_v(state, ds, w, h)
            cur = sub()
            assert cur <= prev + 1e-10 * max(1.0, prev)
            prev = cur

    def test_nonnegative_output(self):
        ds, w, h, state = make_problem(seed=7)
        assert np.all(update_v(state, ds, w, h) >= 0)


class TestUpdateR:
    def test_two_views_forced(self):
        ds, w, h, state = make_problem(l=2, seed=8)
        r = update_r(state, h)
        assert np.allclose(r, [[0.0, 1.0], [1.0, 0.0]])

    def test_identical_graphs_symmetric_split(self):
        ds, w, h, state = make_problem(l=3, seed=9)
        state.s = [state.s[0].copy() for _ in range(3)]
        r = update_r(state, h)
        expect = np.full((3, 3), 0.5)
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(r, expect, atol=1e-7)

    def test_constraints_exact(self):
        ds, w, h, state = make_problem(l=4, seed=10)
        r = update_r(state, h)
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
            r = update_r(state, hyper())
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
        ds, w, h, s1 = make_problem(seed=13)
        s2 = initialize(ds, build_view_weights(ds), h)
        for a, b in zip(s1.u, s2.u):
            assert np.array_equal(a, b)
        assert np.array_equal(s1.v, s2.v)
        for a, b in zip(s1.s, s2.s):
            assert np.array_equal(a, b)

    def test_initial_state_invariants(self):
        ds, w, h, state = make_problem(seed=14, missing=0.3)
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
        with pytest.raises(ValueError, match="two views"):
            initialize(ds, build_view_weights(ds), hyper())

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

    def test_constraints_after_fit(self):
        spec = SyntheticSpec(30, 3, 3, (6, 6, 6), (2, 2, 2), 0.1, 2)
        ds, _ = generate_synthetic(spec)
        ds = simulate_missing(ds, 0.2, seed=3)
        res = fit(ds, hyper(max_iter=40, rel_tol=0, seed=2))
        st = res.state
        assert abs(st.alpha.sum() - 1.0) <= 1e-10
        for s in st.s:
            check_similarity(s)
        check_coefficients(st.r)
        assert all(np.all(u >= 0) for u in st.u)
        assert np.all(st.v >= 0)
