"""Acceptance gate: nine end-to-end properties of the full pipeline.

Each test prints (and records for the terminal summary) a single pass/fail
line. The heavy twenty-seed solver suite is shared by the first three tests
through a module-scoped fixture.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import record_verdict
from mvufs import cli, datamodel, evaluation, selection, solver
from mvufs.datamodel import SyntheticSpec, generate_synthetic, simulate_missing
from mvufs.graph import pairwise_sq_dists, update_similarity
from mvufs.simplex import project_offdiag_simplex

N_SEEDS = 20
MAX_SWEEPS = 150
HYPER = dict(lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=4)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    record_verdict(line)
    print(line)
    assert ok, line


def constraint_errors(state, check_ortho: bool) -> list:
    """Structural violations of the feasible set, as human-readable strings."""
    errs = []
    if abs(state.alpha.sum() - 1.0) > 1e-10:
        errs.append("alpha does not sum to 1")
    if np.any(state.alpha < 0):
        errs.append("negative view weight")
    for k, s in enumerate(state.s):
        if np.max(np.abs(s.sum(axis=0) - 1.0)) > 1e-8:
            errs.append(f"S[{k}] column sums off")
        if np.any(np.diag(s) != 0):
            errs.append(f"S[{k}] nonzero diagonal")
        if np.any(s < 0) or np.any(s > 1):
            errs.append(f"S[{k}] entry outside [0, 1]")
    if np.max(np.abs(state.r.sum(axis=0) - 1.0)) > 1e-8:
        errs.append("R column sums off")
    if np.any(np.diag(state.r) != 0):
        errs.append("R nonzero diagonal")
    if np.any(state.r < 0):
        errs.append("negative R entry")
    for k, u in enumerate(state.u):
        if np.any(u < 0):
            errs.append(f"U[{k}] negative entry")
    if np.any(state.v < 0):
        errs.append("V negative entry")
    if check_ortho:
        gram = state.v.T @ state.v
        if np.linalg.norm(gram - np.eye(gram.shape[0])) > 1e-2:
            errs.append("V'V too far from identity")
    return errs


def fresh_carry(dataset):
    """A carry for one sweep alone: it forms V's products and starts every
    projection cold."""
    return solver.SweepCarry.start(dataset.n_instances, dataset.n_views)


@pytest.fixture(scope="module")
def solver_suite():
    """Twenty instrumented solver runs on N=120, l=3, c=4 synthetic data."""
    runs = []
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        spec = SyntheticSpec(
            n_instances=120, n_views=3, n_clusters=4,
            features=(20, 20, 20), informative=(4, 4, 4),
            noise_scale=0.1, seed=seed,
        )
        base, _ = generate_synthetic(spec)
        dataset = simulate_missing(base, 0.2, seed=seed + 500)
        hyper = solver.Hyperparameters(**HYPER, max_iter=MAX_SWEEPS, seed=seed)
        state = solver.initialize(dataset, hyper)
        trace = [solver.objective(state, dataset, hyper)]
        violations = []
        converged_at = None
        for t in range(MAX_SWEEPS):
            solver.sweep(state, dataset, hyper, fresh_carry(dataset))
            trace.append(solver.objective(state, dataset, hyper))
            violations.extend(
                f"seed {seed} sweep {t}: {e}"
                for e in constraint_errors(state, check_ortho=False)
            )
            if abs(trace[-1] - trace[-2]) / max(1.0, trace[-2]) < solver.REL_TOL:
                converged_at = t + 1
                break
        violations.extend(
            f"seed {seed} final: {e}" for e in constraint_errors(state, check_ortho=True)
        )
        runs.append(
            {"trace": np.asarray(trace), "converged_at": converged_at,
             "violations": violations}
        )
    return {"runs": runs, "wall_time": time.perf_counter() - start}


def test_monotone_objective(solver_suite):
    bad = 0
    for run in solver_suite["runs"]:
        f = run["trace"]
        bad += int(np.any(f[1:] > f[:-1] * (1.0 + 1e-6)))
    in_budget = solver_suite["wall_time"] <= 60.0
    verdict(
        "monotone objective on 20 seeds within the time budget",
        bad == 0 and in_budget,
        f"{bad} non-monotone seeds, {solver_suite['wall_time']:.1f} s",
    )


def test_convergence_speed(solver_suite):
    converged = sum(r["converged_at"] is not None for r in solver_suite["runs"])
    verdict(
        "relative change < 1e-6 within 150 sweeps on >= 90% of seeds",
        converged >= 0.9 * N_SEEDS,
        f"{converged}/{N_SEEDS} converged",
    )


def test_constraints_every_sweep(solver_suite):
    violations = [v for r in solver_suite["runs"] for v in r["violations"]]
    verdict(
        "feasibility and near-orthogonality hold through every sweep",
        not violations,
        violations[0] if violations else f"0 violations across {N_SEEDS} runs",
    )


def test_sparsity_gradient_matches_finite_differences():
    """The reweighting matrix gives the exact gradient of the smoothed row
    sparsity surrogate: grad = 2 D U."""
    eps = 1e-10
    step = 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for p in (0.001, 0.01, 0.1, 1.0):
        u = rng.uniform(0.5, 1.5, size=(8, 3))
        u[3] = 0.0
        surrogate = lambda m: float(
            np.sum((np.sum(m * m, axis=1) + eps) ** (p / 2.0))
        )
        grad = 2.0 * solver.sparsity_reweight(u, p, eps)[:, None] * u
        fd = np.empty_like(u)
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                up, dn = u.copy(), u.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd[i, j] = (surrogate(up) - surrogate(dn)) / (2.0 * step)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, rel)
    verdict(
        "row-sparsity gradient matches central finite differences",
        worst <= 1e-4,
        f"worst relative error {worst:.2e}",
    )


def _simplex_grid(dim: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    first = np.repeat(np.arange(ticks + 1), ticks + 1 - np.arange(ticks + 1))
    second = np.concatenate([np.arange(ticks + 1 - a) for a in range(ticks + 1)])
    grid = np.column_stack([first, second, ticks - first - second]) * step
    assert dim == 3
    return grid


def test_view_weight_update_beats_grid_search():
    grid = _simplex_grid(3, 1e-3)
    rng = np.random.default_rng(1)
    worst_gap = -np.inf
    for _ in range(50):
        d = rng.uniform(0.1, 10.0, size=3)
        gamma = rng.uniform(1.5, 8.0)
        alpha = solver.update_alpha(d, gamma)
        analytic = float((alpha**gamma) @ d)
        grid_best = float(np.min((grid**gamma) @ d))
        worst_gap = max(worst_gap, analytic - grid_best)
    verdict(
        "closed-form view weights beat a step-1e-3 simplex grid",
        worst_gap <= 1e-12,
        f"worst objective excess {worst_gap:.2e}",
    )


def _similarity_subproblem(v, graphs, r, alpha, gamma, h):
    """Per-column quadratic pieces of the graph subproblem for view v."""
    l = len(graphs)
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

    def value(s):
        total = ag[v] * (0.5 * float(np.sum(h * s)) + float(np.sum((s - b) ** 2)))
        for k in others:
            total += ag[k] * float(np.sum((r[v, k] * s - n_mats[k]) ** 2))
        return total

    def col_grad(s, c):
        g = ag[v] * (0.5 * h[:, c] + 2.0 * (s - b[:, c]))
        for k in others:
            g += 2.0 * ag[k] * r[v, k] * (r[v, k] * s - n_mats[k][:, c])
        return g

    lip = 2.0 * (sum(ag[k] * r[v, k] ** 2 for k in others) + ag[v])
    return value, col_grad, lip


def test_similarity_update_matches_qp_oracle():
    rng = np.random.default_rng(2)
    worst_gap = -np.inf
    for n in (4, 5, 6):
        l = 3
        graphs = []
        for _ in range(l):
            g = rng.uniform(size=(n, n))
            np.fill_diagonal(g, 0.0)
            graphs.append(g / g.sum(axis=0))
        r = rng.uniform(size=(l, l))
        np.fill_diagonal(r, 0.0)
        r /= r.sum(axis=0)
        alpha = rng.dirichlet(np.ones(l))
        gamma = 3.0
        x = rng.normal(size=(n, 2))
        h = pairwise_sq_dists(x)
        value, col_grad, lip = _similarity_subproblem(0, graphs, r, alpha, gamma, h)
        s_upd = update_similarity(0, [g.copy() for g in graphs], r, alpha, gamma, x)
        oracle = np.zeros((n, n))
        for c in range(n):
            s = np.full(n, 1.0 / (n - 1))
            s[c] = 0.0
            for _ in range(200000):
                s_new = project_offdiag_simplex(s - col_grad(s, c) / lip, excluded=c)
                if np.max(np.abs(s_new - s)) < 1e-13:
                    s = s_new
                    break
                s = s_new
            oracle[:, c] = s
        worst_gap = max(worst_gap, value(s_upd) - value(oracle))
    verdict(
        "graph update matches a projected-gradient oracle",
        worst_gap <= 1e-6,
        f"worst objective gap {worst_gap:.2e}",
    )


def test_coefficient_update_matches_grid_search():
    l = 4
    rng = np.random.default_rng(3)
    n = 6
    graphs = []
    for _ in range(l):
        g = rng.uniform(size=(n, n))
        np.fill_diagonal(g, 0.0)
        graphs.append(g / g.sum(axis=0))
    state = solver.SolverState(
        u=[], v=np.empty((n, 2)), s=graphs,
        r=np.full((l, l), 1.0 / (l - 1)), alpha=np.full(l, 1.0 / l),
    )
    np.fill_diagonal(state.r, 0.0)
    r_new = solver.update_r(solver.graph_products(graphs, np.ones((n, 1)))[0])  # Gram only

    gram = np.array([[float(np.sum(a * b)) for b in graphs] for a in graphs])
    grid3 = _simplex_grid(3, 1e-3)
    worst = 0.0
    for v in range(l):
        free = [k for k in range(l) if k != v]
        cand = np.zeros((grid3.shape[0], l))
        cand[:, free] = grid3
        vals = (
            np.einsum("mi,ij,mj->m", cand, gram, cand)
            - 2.0 * cand @ gram[:, v]
            + np.sum(cand * cand, axis=1)
        )
        best = cand[int(np.argmin(vals))]
        worst = max(worst, float(np.max(np.abs(best - r_new[:, v]))))
    verdict(
        "reconstruction coefficients match a step-1e-3 grid search",
        worst <= 5e-3,
        f"worst coordinate deviation {worst:.2e}",
    )


def brute_force_acc(y_true, y_pred):
    true_ids = np.unique(y_true)
    pred_ids = np.unique(y_pred)
    k = max(true_ids.size, pred_ids.size)
    labels = list(true_ids) + [None] * (k - true_ids.size)
    best = 0
    for perm in itertools.permutations(labels, pred_ids.size):
        mapping = dict(zip(pred_ids, perm))
        hits = sum(
            1 for t, p in zip(y_true, y_pred) if mapping[p] is not None and mapping[p] == t
        )
        best = max(best, hits)
    return best / len(y_true)


def test_metric_correctness():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(c, 25))
        y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)
        ok &= abs(evaluation.acc(y_true, y_pred) - brute_force_acc(y_true, y_pred)) <= 1e-12
        relabel = rng.permutation(c)
        ok &= abs(
            evaluation.acc(y_true, y_pred) - evaluation.acc(y_true, relabel[y_pred])
        ) <= 1e-12
        ok &= abs(
            evaluation.nmi(y_true, y_pred) - evaluation.nmi(y_true, relabel[y_pred])
        ) <= 1e-12
    ok &= evaluation.nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)
    ok &= evaluation.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    verdict("clustering metrics match brute-force references", bool(ok))


def test_planted_feature_recovery():
    spec = SyntheticSpec(
        n_instances=120, n_views=3, n_clusters=4,
        features=(20, 20, 20), informative=(4, 4, 4),
        noise_scale=0.0, seed=7,
    )
    dataset, planted = generate_synthetic(spec)
    hyper = solver.Hyperparameters(**HYPER, seed=7)
    result = solver.fit(dataset, hyper)
    ranking = selection.score_features(result.state.u)
    selected = selection.select_top(ranking, ratio=0.2)
    planted_set = {(v, f) for v, idx in enumerate(planted) for f in idx}
    recovered = len(planted_set & set(selected)) / len(planted_set)
    report = evaluation.run_protocol(dataset, selected, 4, repeats=30, base_seed=7)
    verdict(
        "top-20% selection recovers planted features and clusters well",
        recovered >= 0.8 and report.acc_mean >= 0.95,
        f"recovery {recovered:.2f}, acc_mean {report.acc_mean:.3f}",
    )


def _median_sweep_time(n: int, seed: int) -> float:
    spec = SyntheticSpec(
        n_instances=n, n_views=3, n_clusters=4,
        features=(20, 20, 20), informative=(4, 4, 4),
        noise_scale=0.1, seed=seed,
    )
    dataset, _ = generate_synthetic(spec)
    hyper = solver.Hyperparameters(**HYPER, seed=seed)
    state = solver.initialize(dataset, hyper)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        solver.sweep(state, dataset, hyper, fresh_carry(dataset))
        times.append(time.perf_counter() - t0)
    return float(np.median(times))

def test_sweep_scaling():
    small = _median_sweep_time(120, seed=11)
    large = _median_sweep_time(240, seed=11)
    factor = large / small
    verdict(
        "doubling the instance count costs at most a 5x sweep slowdown",
        factor <= 5.0,
        f"factor {factor:.2f} ({small*1e3:.1f} ms vs {large*1e3:.1f} ms)",
    )


def test_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "synthetic_n 40\n"
        "synthetic_views 2\n"
        "synthetic_clusters 3\n"
        "synthetic_features 10 10\n"
        "synthetic_informative 3 3\n"
        "synthetic_noise 0.05\n"
        "missing_ratios 0.2 0.3\n"
        "feature_ratios 0.3\n"
        "lambda 0.1\n"
        "beta 0.1\n"
        "gamma 3\n"
        "p 0.5\n"
        "repeats 5\n"
        "max_iter 40\n"
        "seed 2\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli.main(["run", "--config", str(cfg), "--out", str(out1)])
    rc2 = cli.main(["run", "--config", str(cfg), "--out", str(out2)])
    names = sorted(p.name for p in out1.iterdir())
    identical = (
        rc1 == 0
        and rc2 == 0
        and names == sorted(p.name for p in out2.iterdir())
        and all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    )
    verdict(
        "identical config and seed give byte-identical reports",
        identical,
        f"{len(names)} artifact files compared",
    )
