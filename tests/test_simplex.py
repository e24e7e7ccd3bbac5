import numpy as np
import pytest

from mvufs.simplex import (
    project_full_support,
    project_offdiag_columns,
    project_offdiag_simplex,
    project_simplex,
)


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


@pytest.mark.parametrize("excluded", [7, -1])
def test_out_of_range_excluded_coordinate_raises(excluded):
    with pytest.raises(ValueError, match=rf"excluded coordinate {excluded} is outside \[0, 3\)"):
        project_offdiag_simplex(np.array([0.5, 0.2, 0.9]), excluded)


def _sort_projection_reference(y):
    """The sort-based projection as it was before non-finite entries were
    refused: finite inputs must keep these results bit for bit."""
    s = np.sort(y)[::-1]
    cumsum = np.cumsum(s)
    rho = np.nonzero(s * np.arange(1, y.size + 1) > (cumsum - 1))[0][-1]
    return np.maximum(y - (cumsum[rho] - 1.0) / (rho + 1.0), 0.0)


def test_finite_results_unchanged():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 1e3, 1e12):
        for size in (1, 2, 7, 50):
            y = rng.normal(scale=scale, size=size)
            assert project_simplex(y).tobytes() == _sort_projection_reference(y).tobytes()
            v = rng.integers(size) if size > 1 else None
            if v is not None:
                expect = np.zeros(size)
                expect[np.arange(size) != v] = _sort_projection_reference(np.delete(y, v))
                assert project_offdiag_simplex(y, v).tobytes() == expect.tobytes()


# a NaN, a +inf, and finite coordinates whose sum overflows
NON_FINITE = [[1.0, np.nan, 0.5], [1.0, np.inf, 0.5], [1e308, 1e308, 0.5]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y", NON_FINITE)
def test_non_finite_entries_raise_a_clear_error(y):
    y = np.array(y)
    with pytest.raises(ValueError, match="projection needs finite entries"):
        project_simplex(y)
    with pytest.raises(ValueError, match="projection needs finite entries"):
        project_offdiag_simplex(y, excluded=2)
    p = np.zeros((3, 3))
    p[:, 0] = y[[2, 0, 1]]  # the same coordinates off the diagonal of column 0
    with pytest.raises(ValueError, match="projection needs finite entries"):
        project_offdiag_columns(p)


@pytest.mark.filterwarnings("error")
def test_non_finite_excluded_entry_raises_as_the_batched_projection():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="projection needs finite entries"):
            project_offdiag_simplex(np.array([bad, 0.2, 0.3]), excluded=0)


@pytest.mark.filterwarnings("error")
def test_entries_beyond_unit_resolution_lose_the_support():
    # finite sum, but subtracting 1 changes no partial sum
    with pytest.raises(ValueError, match="lost its support"):
        project_simplex(np.array([1e17, 1e17]))


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

    def test_any_memory_layout(self):
        # the diagonal is written through a flat slice of contiguous arrays only
        rng = np.random.default_rng(13)
        p = rng.normal(size=(14, 14))
        expect = project_offdiag_columns(np.ascontiguousarray(p))
        for view in (np.asfortranarray(p), p.T, p[::2, ::2]):
            assert_matches_reference(view)
        out = np.zeros((28, 28))[::2, ::2]
        assert project_offdiag_columns(p, out=out) is out
        assert np.array_equal(out, expect)


def cold_projection(p):
    thresholds = np.full(p.shape[0], np.nan)
    return project_offdiag_columns(p, thresholds=thresholds), thresholds


def warm_matrices():
    rng = np.random.default_rng(6)
    for n in (2, 7, 40):
        for scale in (1e-3, 1.0, 30.0):
            yield rng.normal(scale=scale, size=(n, n))
    for n in (2, 6, 25):  # exact ties at and around the threshold
        yield rng.integers(0, 3, size=(n, n)) / 4.0
        yield np.where(rng.uniform(size=(n, n)) < 0.8, 0.0, 1.0 / 3.0)
    yield np.full((9, 9), 0.7)  # every off-diagonal entry equal: absent instances


class TestWarmStart:
    """A threshold guess changes where the search starts, never its result."""

    def test_cold_start_matches_no_guess(self):
        for p in warm_matrices():
            out, thresholds = cold_projection(p)
            assert np.array_equal(out, project_offdiag_columns(p))
            assert np.all(np.isfinite(thresholds))
            assert np.max(np.abs(out - column_reference(p))) <= 1e-12 * max(1.0, np.abs(p).max())

    def test_guesses_give_the_cold_result(self):
        for p in warm_matrices():
            expect, exact = cold_projection(p)
            n = len(p)
            above = p.max(axis=0) + 1.0
            guesses = {
                "exact": exact,
                "+1e3": exact + 1e3,
                "-1e3": exact - 1e3,
                "nan": np.full(n, np.nan),
                "above every entry": above,
                "on an entry": p[(np.arange(n) + 1) % n, np.arange(n)],  # ties with the guess
                "mixed": np.choose(np.arange(n) % 4, [exact, np.full(n, np.nan), above, exact - 1.0]),
            }
            for name, guess in guesses.items():
                thresholds = guess.copy()
                out = project_offdiag_columns(p, thresholds=thresholds)
                assert np.array_equal(out, expect), name
                assert np.array_equal(thresholds, exact), name

    def test_previous_thresholds_on_a_moved_target(self):
        # the use in the solver: last sweep's thresholds guess for a nearby target
        rng = np.random.default_rng(7)
        p = rng.normal(size=(60, 60))
        _, previous = cold_projection(p)
        for step in (1e-6, 1e-3, 1e-1, 10.0):
            moved = p + rng.normal(scale=step, size=p.shape)
            expect, exact = cold_projection(moved)
            thresholds = previous.copy()
            out = project_offdiag_columns(moved, out=moved.copy(), thresholds=thresholds)
            assert np.array_equal(out, expect)
            assert np.array_equal(thresholds, exact)

    def test_non_finite_entries_rejected_with_a_guess(self):
        for bad in (np.nan, np.inf, -np.inf):
            for where in ((1, 0), (0, 0)):
                p = np.zeros((3, 3))
                p[where] = bad
                with pytest.raises(ValueError):
                    project_offdiag_columns(p, thresholds=np.full(3, -0.5))


class TestFullSupport:
    """The route for columns that keep every off-diagonal coordinate."""

    @staticmethod
    def reference(p, cols, values):
        """Each column with its extras appended, projected on its own."""
        out, extra = np.empty_like(p), np.empty_like(values)
        for c in range(p.shape[1]):
            mine = np.flatnonzero(cols == c)
            y = project_offdiag_simplex(np.concatenate([p[:, c], values[mine]]), c)
            out[:, c], extra[mine] = y[: len(p)], y[len(p):]
        return out, extra

    @staticmethod
    def full_block(m, rng, extras):
        """A block whose columns keep every off-diagonal entry: each column is
        a level plus spread below 1 / (2m), so the column's mass 1 cannot
        push an entry below the threshold. `extras` per column: half sit at
        the column's level (they enter), half far below it (they leave)."""
        level = rng.uniform(-1.0, 1.0, size=m)
        p = level + rng.uniform(size=(m, m)) / (2 * m)
        cols = np.repeat(np.arange(m), extras)
        values = level[cols] + rng.uniform(size=len(cols)) / (2 * m)
        values[1::2] -= 5.0
        return p, cols, values

    @pytest.mark.parametrize("m", [2, 3, 64, 257])
    @pytest.mark.parametrize("extras", [0, 1, 4])
    def test_matches_the_threshold_search(self, m, extras):
        rng = np.random.default_rng(90 + m + extras)
        p, cols, values = self.full_block(m, rng, extras)
        expect, expect_values = self.reference(p, cols, values)
        assert np.all(expect + np.eye(m) > 0.0)  # every off-diagonal entry kept
        if extras > 1:
            assert np.any(expect_values > 0.0) and np.any(expect_values == 0.0)
        below = (np.arange(m) + 1) % m  # an off-diagonal row of each column
        expect_thresholds = p[below, np.arange(m)] - expect[below, np.arange(m)]
        thresholds = np.full(m, np.nan)
        assert project_full_support(p, thresholds, (cols, values))
        assert np.max(np.abs(p - expect)) <= 1e-12
        assert np.max(np.abs(thresholds - expect_thresholds)) <= 1e-12
        assert len(cols) == 0 or np.max(np.abs(values - expect_values)) <= 1e-12

    @staticmethod
    def declined(p, extra=(np.zeros(0, dtype=int), np.zeros(0))):
        """Run the route on p, which it must decline, and check that it
        wrote nothing."""
        thresholds = np.arange(len(p), dtype=float)
        before = (p.copy(), thresholds.copy(), extra[1].copy())
        assert not project_full_support(p, thresholds, extra)
        assert np.array_equal(p, before[0], equal_nan=True)
        assert np.array_equal(thresholds, before[1])
        assert np.array_equal(extra[1], before[2], equal_nan=True)

    def test_entry_on_the_threshold_declines(self):
        # column 0: (2.5 - 1) / 3 = 0.5, exactly its last entry
        p = np.full((4, 4), 0.5)
        p[1:3, 0] = 1.0
        self.declined(p)
        assert project_offdiag_columns(p)[3, 0] == 0.0

    def test_entry_below_the_threshold_declines(self):
        p = np.full((4, 4), 0.5)
        p[1:3, 0] = 1.0
        p[3, 0] = 0.25
        self.declined(p)
        p[3, 0] = 0.6  # above (2.6 - 1) / 3 alone; one entering extra lifts it to 0.65
        extra = (np.array([0, 2]), np.array([1.0, -3.0]))
        self.declined(p, extra)
        assert self.reference(p, *extra)[0][3, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_decline_then_raise(self, bad):
        extra = (np.array([0, 2]), np.array([0.1, 0.2]))
        for where in ((1, 0), (0, 0)):
            p = np.full((3, 3), 0.5)
            p[where] = bad
            self.declined(p)
            self.declined(p, extra)
            with pytest.raises(ValueError):  # the search a block without candidates takes
                project_offdiag_columns(p)
        # a non-finite candidate declines too: its block runs the dense update
        self.declined(np.full((3, 3), 0.5), (extra[0], np.array([0.1, bad])))

    def test_overflowing_sum_declines_then_raises(self):
        # finite coordinates whose sum overflows: dropping them would leave a
        # finite threshold that no longer accounts for them
        p = np.full((3, 3), 0.5)
        self.declined(p, (np.array([1, 1]), np.array([1e308, 1e308])))
        p[1:, 0] = 1e308
        self.declined(p)
        with pytest.raises(ValueError):
            project_offdiag_columns(p)
