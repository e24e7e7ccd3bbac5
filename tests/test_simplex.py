import numpy as np
import pytest

from mvufs.simplex import project_offdiag_columns, project_offdiag_simplex, project_simplex


def bisection_oracle(y, excluded=None):
    """Independent water-filling projection via bisection on the threshold."""
    y = np.asarray(y, dtype=float)
    free = np.ones(y.size, dtype=bool)
    if excluded is not None:
        free[excluded] = False
    z = y[free]
    lo, hi = z.min() - 1.0, z.max()
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if np.maximum(z - theta, 0.0).sum() > 1.0:
            lo = theta
        else:
            hi = theta
    out = np.zeros_like(y)
    out[free] = np.maximum(z - 0.5 * (lo + hi), 0.0)
    return out


def test_feasible_point_unchanged():
    y = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(y), y)


def test_offdiag_symmetric_case():
    out = project_offdiag_simplex(np.array([10.0, 0.0, 0.0]), excluded=0)
    assert np.allclose(out, [0.0, 0.5, 0.5])


def test_offdiag_feasible_unchanged():
    y = np.array([0.0, 0.25, 0.75])
    assert np.allclose(project_offdiag_simplex(y, excluded=0), y)


def test_matches_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(scale=3.0, size=5)
        v = rng.integers(5)
        out = project_offdiag_simplex(y, excluded=v)
        assert np.max(np.abs(out - bisection_oracle(y, excluded=v))) <= 1e-8
        assert out[v] == 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)


def test_too_short_vector():
    with pytest.raises(ValueError):
        project_offdiag_simplex(np.array([1.0]), excluded=0)


def column_reference(p):
    """The per-column projection the batched one must reproduce."""
    return np.column_stack(
        [project_offdiag_simplex(p[:, c], excluded=c) for c in range(p.shape[0])]
    )


def assert_matches_reference(p, tol=1e-12):
    out = project_offdiag_columns(p)
    assert np.max(np.abs(out - column_reference(p))) <= tol
    assert np.all(np.diag(out) == 0.0)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 10 * tol


class TestProjectOffdiagColumns:
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 30.0):
            assert_matches_reference(rng.normal(scale=scale, size=(n, n)))

    def test_all_equal_columns(self):
        # absent instances make every off-diagonal entry of a column equal
        for n in (2, 5, 30):
            assert_matches_reference(np.full((n, n), 0.7))
            assert_matches_reference(np.tile(np.linspace(-2.0, 2.0, n), (n, 1)))

    def test_already_feasible_columns(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(size=(9, 9))
        np.fill_diagonal(s, 0.0)
        s /= s.sum(axis=0)
        assert np.max(np.abs(project_offdiag_columns(s) - s)) <= 1e-15
        assert_matches_reference(s)

    def test_large_offsets(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(size=(12, 12))
        for offset in (-1e6, -1e3, 1e3, 1e6):
            # inputs near 1e6 carry only about 1e-10 absolute precision
            assert_matches_reference(base + offset, tol=1e-12 * abs(offset))

    def test_ties_terminate(self):
        # many exact ties at and around the threshold
        rng = np.random.default_rng(3)
        for n in (2, 6, 25):
            assert_matches_reference(rng.integers(0, 3, size=(n, n)) / 4.0)
            sparse = np.where(rng.uniform(size=(n, n)) < 0.8, 0.0, 1.0 / 3.0)
            assert_matches_reference(sparse)

    def test_entry_on_threshold_terminates(self):
        # One entry per column sits exactly on the threshold of the column's
        # four larger entries. A support recomputed from scratch each pass,
        # instead of only shrinking, oscillates forever on some of these.
        rng = np.random.default_rng(4)
        n = 40
        for _ in range(20):
            p = rng.uniform(-6.0, -5.0, size=(n, n))
            for c in range(n):
                top = rng.choice(np.delete(np.arange(n), c), size=5, replace=False)
                p[top[:-1], c] = rng.uniform(size=4)
                p[top[-1], c] = (p[top[:-1], c].sum() - 1.0) / 4
            assert_matches_reference(p)

    def test_out_argument(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(12, 12))
        expect = column_reference(p)
        out = np.empty_like(p)
        assert project_offdiag_columns(p, out=out) is out
        assert np.max(np.abs(out - expect)) <= 1e-12
        assert project_offdiag_columns(p, out=p) is p  # in place
        assert np.max(np.abs(p - expect)) <= 1e-12

    def test_order_two(self):
        out = project_offdiag_columns(np.array([[5.0, -3.0], [-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_offdiag_columns(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            project_offdiag_columns(np.zeros((3, 4)))
        for bad in (np.nan, np.inf, -np.inf):
            for where in ((1, 0), (0, 0)):
                p = np.zeros((3, 3))
                p[where] = bad
                with pytest.raises(ValueError):
                    project_offdiag_columns(p)
