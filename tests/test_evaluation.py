import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvufs import evaluation
from mvufs.datamodel import MultiViewDataset, impute_missing
from mvufs.evaluation import (
    _acc_from_table,
    _contingency,
    _nmi_from_table,
    _table,
    acc,
    kmeans,
    nmi,
    run_protocol,
)


def brute_force_acc(y_true, y_pred):
    """Maximum agreement over every injective cluster-to-label map."""
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


def brute_force_matching(table):
    """Largest total of a table's entries with no two in one row or column,
    each row (or, when there are more rows, each column) used once."""
    table = np.asarray(table)
    if table.shape[0] > table.shape[1]:
        table = table.T
    k, m = table.shape
    perms = np.array(list(itertools.permutations(range(m), k)))
    return int(table[np.arange(k), perms].sum(axis=1).max())


def _reference_kmeanspp(points, c, rng):
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _reference_kmeans(data, c, seed, max_iter=300):
    """One k-means run on its own, as the protocol ran each repeat before the
    repeats were batched, with empty clusters re-seeded one after another:
    each takes the point farthest from its centre among those not moved in
    this iteration whose cluster keeps another member, and the centres are
    the means of the final members.

    Returns (assignments, inertia, iterations, reseeds). With one feature
    numpy's mean sums pairwise, so bitwise comparisons use two or more.
    """
    points = np.asarray(data, dtype=float).T
    n = points.shape[0]
    centers = _reference_kmeanspp(points, c, np.random.default_rng(seed))
    assign = np.full(n, -1)
    reseeds = 0
    for it in range(1, max_iter + 1):
        d2 = (
            np.sum(points * points, axis=1)[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        far = d2[np.arange(n), new_assign]
        moved = np.zeros(n, dtype=bool)
        for j in range(c):
            if not np.any(new_assign == j):
                sizes = np.bincount(new_assign, minlength=c)
                candidates = ~moved & (sizes[new_assign] > 1)
                worst = int(np.argmax(np.where(candidates, far, -np.inf)))
                new_assign[worst] = j
                moved[worst] = True
                reseeds += 1
        for j in range(c):
            centers[j] = points[new_assign == j].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(np.sum((points - centers[assign]) ** 2))
    return assign, inertia, it, reseeds


def _reference_contingency(y_true, y_pred):
    true_ids, ti = np.unique(y_true, return_inverse=True)
    pred_ids, pi = np.unique(y_pred, return_inverse=True)
    table = np.zeros((true_ids.size, pred_ids.size), dtype=int)
    np.add.at(table, (ti, pi), 1)
    return table


def _reference_nmi(y_true, y_pred):
    n = len(y_true)
    joint = _reference_contingency(y_true, y_pred) / n
    pt = joint.sum(axis=1)
    pp = joint.sum(axis=0)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pt, pp)[nz])))
    h_true = -float(np.sum(pt[pt > 0] * np.log(pt[pt > 0])))
    h_pred = -float(np.sum(pp[pp > 0] * np.log(pp[pp > 0])))
    h_max = max(h_true, h_pred)
    if h_max <= 0.0:
        return 1.0 if pt.size == pp.size == 1 else 0.0
    return max(0.0, min(1.0, mi / h_max))


def _batched_inertia(data, assign, centers):
    return float(np.sum((np.asarray(data, dtype=float).T - centers[assign]) ** 2))


def assert_matches_reference(data, c, seeds):
    """Every row of one batched call equals its own reference run, bitwise."""
    assign, centers, iterations = kmeans(data, c, seeds)
    refs = [_reference_kmeans(data, c, seed) for seed in seeds]
    for row, seed, ref in zip(range(len(seeds)), seeds, refs):
        assert np.array_equal(assign[row], ref[0]), seed
        assert _batched_inertia(data, assign[row], centers[row]) == ref[1], seed
        assert iterations[row] == ref[2], seed
    return refs


class TestBatchedKMeans:
    def test_random_data_fifty_seeds(self):
        rng = np.random.default_rng(20)
        data = rng.uniform(size=(6, 60))
        refs = assert_matches_reference(data, 4, list(range(50)))
        # the repeats converge at different iterations, so repeats leave the
        # active set one by one
        assert len({ref[2] for ref in refs}) >= 3

    @pytest.mark.parametrize("features", [2, 3, 9, 30])
    def test_random_shapes(self, features):
        rng = np.random.default_rng(21 + features)
        for trial in range(5):
            n = int(rng.integers(8, 150))
            c = int(rng.integers(2, 7))
            data = rng.normal(size=(features, n)) * rng.uniform(0.1, 100.0)
            assert_matches_reference(data, c, list(range(trial * 10, trial * 10 + 10)))

    def test_separated_clouds_and_duplicates(self):
        rng = np.random.default_rng(22)
        clouds = np.hstack([rng.normal(size=(3, 15)) * 0.01 + shift for shift in (0.0, 50.0, 100.0)])
        assert_matches_reference(clouds, 3, list(range(20)))
        duplicates = np.repeat(rng.uniform(size=(3, 5)), 6, axis=1)
        assert_matches_reference(duplicates, 4, list(range(20)))

    def test_c_equals_n(self):
        rng = np.random.default_rng(23)
        data = rng.uniform(size=(3, 7))
        assert_matches_reference(data, 7, list(range(20)))

    def test_reseeding(self):
        cases = [(np.ones((5, 20)), 3), (np.ones((5, 20)), 4), (np.ones((2, 4)), 4),
                 (np.repeat(np.eye(2), 3, axis=1), 4)]
        for data, c in cases:
            refs = assert_matches_reference(data, c, list(range(5)))
            assert all(ref[3] > 0 for ref in refs)

    def test_single_run_is_a_row_of_the_batch(self):
        rng = np.random.default_rng(24)
        data = rng.uniform(size=(4, 40))
        batch = kmeans(data, 3, list(range(12)))
        for seed in range(12):
            for one, rows in zip(kmeans(data, 3, [seed]), batch):
                assert np.array_equal(one[0], rows[seed])


class TestKMeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 20)) * 0.01
        b = rng.normal(size=(2, 20)) * 0.01 + 100.0
        data = np.hstack([a, b])
        run = kmeans(data, 2, [1])[0][0]
        assert len(set(run[:20])) == 1
        assert len(set(run[20:])) == 1
        assert run[0] != run[20]

    def test_c_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(3, 5))
        assign, centers, _ = kmeans(data, 5, [0])
        assert _batched_inertia(data, assign[0], centers[0]) == pytest.approx(0.0, abs=1e-20)
        assert len(set(assign[0])) == 5

    def test_duplicates_get_same_cluster(self):
        data = np.array([[0.0, 0.0, 5.0, 5.0, 5.0]])
        run = kmeans(data, 2, [3])[0][0]
        assert run[0] == run[1]
        assert run[2] == run[3] == run[4]

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(4, 30))
        a = kmeans(data, 3, [7])[0][0]
        b = kmeans(data, 3, [7])[0][0]
        assert np.array_equal(a, b)

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((2, 3)), 4, [0])

    @pytest.mark.parametrize("n", [4, 5, 9, 20])
    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_identical_and_duplicate_points_fill_every_cluster(self, n, c):
        rng = np.random.default_rng(n * c)
        for data in (np.ones((5, n)), np.zeros((2, n)),
                     rng.uniform(size=(3, 2))[:, np.arange(n) % 2],
                     np.hstack([np.ones((2, n - 1)), np.full((2, 1), 7.0)])):
            for seed in range(3):
                run = kmeans(data, c, [seed])[0][0]
                assert np.all(np.bincount(run, minlength=c) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_named(self, bad):
        data = np.ones((3, 6))
        data[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(data, 2, [0])

    @pytest.mark.parametrize("c", [0, -1])
    def test_no_clusters_rejected(self, c):
        with pytest.raises(ValueError, match=f"c={c}"):
            kmeans(np.ones((2, 5)), c, [0])

    def test_overflowing_differences_are_clustered(self):
        # differences up to 3e154: unscaled, their squares leave the float range
        data = np.array([[0.0, 1e154, 2e154, 3e154]] * 3)
        assign, centers, _ = kmeans(data, 2, [0])
        ref = kmeans(np.ldexp(data, -520), 2, [0])
        assert np.array_equal(assign, ref[0])
        assert np.array_equal(centers, np.ldexp(ref[1], 520))
        assert np.all(np.isfinite(centers))

    @pytest.mark.parametrize("k", [-560, -20, 40, 500])
    def test_power_of_two_scale_changes_nothing(self, k):
        # at -560 every unscaled squared distance underflows to 0
        data = np.random.default_rng(26).uniform(0.1, 3.0, size=(4, 50))
        assign, centers, iterations = kmeans(data, 3, [0, 1, 2])
        scaled = kmeans(np.ldexp(data, k), 3, [0, 1, 2])
        assert np.array_equal(scaled[0], assign)
        assert np.array_equal(scaled[1], np.ldexp(centers, k))
        assert np.array_equal(scaled[2], iterations)


class TestContingency:
    def test_matches_reference(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            y_true = rng.integers(0, int(rng.integers(1, 6)), size=30) * 3 - 2
            y_pred = rng.integers(0, int(rng.integers(1, 8)), size=30) + 10
            assert np.array_equal(_contingency(y_true, y_pred),
                                  _reference_contingency(y_true, y_pred))

    def test_table_of_cluster_ids(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            k, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            labels = rng.integers(0, k, size=25)
            assign = rng.integers(0, c, size=25)
            _, ti = np.unique(labels, return_inverse=True)
            table = _table(ti, np.unique(labels).size, assign, c)
            assert np.array_equal(table, _reference_contingency(labels, assign))

    def test_shared_table_scores(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(c, 20))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            table = _contingency(y_true, y_pred)
            score = _acc_from_table(table, n)
            assert score == acc(y_true, y_pred)
            assert score == pytest.approx(brute_force_acc(y_true, y_pred), abs=1e-12)
            assert _nmi_from_table(table, n) == nmi(y_true, y_pred) == _reference_nmi(y_true, y_pred)


class TestMatching:
    """`_acc_from_table` at the table level: with n = 1 it returns the
    matching's exact total as a float."""

    def test_random_tables_match_brute_force(self):
        rng = np.random.default_rng(28)
        shapes = set()
        for _ in range(400):
            k, m = (int(x) for x in rng.integers(1, 8, size=2))
            high = int(rng.choice([1, 2, 4, 30, 10**6]))  # small ranges tie
            table = rng.integers(0, high + 1, size=(k, m))
            assert _acc_from_table(table, 1) == brute_force_matching(table), table
            shapes.add((k > m) - (k < m))
        assert shapes == {-1, 0, 1}  # wide, square and tall tables

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_single_row_or_column(self, k):
        rng = np.random.default_rng(29 + k)
        row = rng.integers(0, 50, size=(1, k))
        assert _acc_from_table(row, 1) == row.max()
        assert _acc_from_table(row.T, 1) == row.max()

    def test_zero_rows_and_columns(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            k, m = (int(x) for x in rng.integers(2, 7, size=2))
            table = rng.integers(0, 20, size=(k, m))
            table[rng.integers(k)] = 0
            table[:, rng.integers(m)] = 0
            assert _acc_from_table(table, 1) == brute_force_matching(table)
        assert _acc_from_table(np.zeros((3, 5), dtype=int), 1) == 0.0
        assert _acc_from_table(np.zeros((1, 1), dtype=int), 1) == 0.0

    def test_tied_optima(self):
        # many matchings reach the optimum; the total is what counts
        for k, m in [(1, 1), (3, 3), (4, 6), (6, 4), (7, 7)]:
            assert _acc_from_table(np.full((k, m), 5), 1) == 5 * min(k, m)
        ties = np.array([[3, 3, 0], [3, 3, 0], [0, 0, 2]])
        assert _acc_from_table(ties, 1) == 8
        assert _acc_from_table(np.kron(np.eye(2, dtype=int), np.ones((2, 2), dtype=int)), 1) == 4

    def test_planted_permutation(self):
        rng = np.random.default_rng(31)
        table = rng.integers(0, 10, size=(30, 30))
        table[np.arange(30), rng.permutation(30)] = 1000
        assert _acc_from_table(table, 30000) == 1.0
        assert _acc_from_table(table.T, 30000) == 1.0


class TestAcc:
    def test_identical(self):
        y = np.array([0, 1, 2, 0, 1])
        assert acc(y, y) == 1.0

    def test_permuted_labels(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        perm = np.array([2, 2, 0, 0, 1, 1])
        assert acc(y, perm) == 1.0

    def test_half_agreement(self):
        assert acc([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(c, 25))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            assert acc(y_true, y_pred) == pytest.approx(
                brute_force_acc(y_true, y_pred), abs=1e-12
            )

    @pytest.mark.parametrize("c", [10, 25, 40])
    def test_matches_scipy_at_many_clusters(self, c):
        # past brute-force sizes; the package itself never imports scipy
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(c)
        for c_pred in (c - 3, c, c + 5):  # tall, square and wide tables
            for keep in (0.0, 0.5, 0.9):
                n = 20 * c
                y_true = rng.integers(0, c, size=n)
                y_pred = rng.permutation(c_pred)[y_true % c_pred]
                noisy = rng.uniform(size=n) >= keep
                y_pred[noisy] = rng.integers(0, c_pred, size=int(noisy.sum()))
                table = np.zeros((c, c_pred), dtype=np.int64)
                np.add.at(table, (y_true, y_pred), 1)
                rows, cols = optimize.linear_sum_assignment(table, maximize=True)
                assert acc(y_true, y_pred) == int(table[rows, cols].sum()) / n

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, size=40)
        y_pred = rng.integers(0, 4, size=40)
        relabel = rng.permutation(4)
        assert acc(y_true, y_pred) == pytest.approx(acc(y_true, relabel[y_pred]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            acc([0, 1], [0, 1, 2])

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            acc([], [])

    @pytest.mark.parametrize("y_true, y_pred", [([[0, 1]], [[0, 1]]), ([0, 1], [[0, 1]]),
                                                (0, 0)])
    def test_non_vector_labels_rejected(self, y_true, y_pred):
        with pytest.raises(ValueError, match="1-D"):
            acc(y_true, y_pred)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        y_true = rng.integers(0, 3, size=30)
        y_pred = rng.integers(0, 3, size=30)
        relabel = rng.permutation(3)
        assert nmi(y_true, y_pred) == pytest.approx(nmi(y_true, relabel[y_pred]))

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            y_true = rng.integers(0, 4, size=20)
            y_pred = rng.integers(0, 4, size=20)
            val = nmi(y_true, y_pred)
            assert 0.0 <= val <= 1.0

    def test_both_constant(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0

    def test_one_constant(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nmi([], [])

    @pytest.mark.parametrize("y_true, y_pred", [([[0, 1]], [[0, 1]]), ([[0], [1]], [0, 1])])
    def test_non_vector_labels_rejected(self, y_true, y_pred):
        with pytest.raises(ValueError, match="1-D"):
            nmi(y_true, y_pred)


class TestRunProtocol:
    def _dataset(self):
        rng = np.random.default_rng(8)
        labels = np.repeat([0, 1], 10)
        x = rng.uniform(size=(4, 20)) * 0.01
        x[:, labels == 1] += 10.0
        return MultiViewDataset((x,), np.ones((20, 1), dtype=int), labels)

    def test_separable_data_perfect(self):
        ds = self._dataset()
        rep = run_protocol(ds, [(0, f) for f in range(4)], 2, repeats=30, base_seed=0)
        assert rep.acc_mean == 1.0
        assert rep.acc_std == 0.0
        assert rep.nmi_mean == 1.0

    def test_single_repeat_zero_std(self):
        ds = self._dataset()
        rep = run_protocol(ds, [(0, 0)], 2, repeats=1, base_seed=3)
        assert rep.acc_std == 0.0 and rep.nmi_std == 0.0

    def test_deterministic(self):
        ds = self._dataset()
        a = run_protocol(ds, [(0, 0), (0, 1)], 2, repeats=5, base_seed=11)
        b = run_protocol(ds, [(0, 0), (0, 1)], 2, repeats=5, base_seed=11)
        assert a == b

    def test_report_equals_reference_runs(self, monkeypatch):
        rng = np.random.default_rng(9)
        labels = np.repeat([0, 1, 2, 3], 15)
        x = rng.normal(size=(5, 60)) + labels * 0.8
        ds = MultiViewDataset((np.abs(x),), np.ones((60, 1), dtype=int), labels)
        selected = [(0, f) for f in range(5)]
        data = evaluation.selected_feature_matrix(ds, selected)
        runs = [_reference_kmeans(data, 4, 5 + i)[0] for i in range(30)]
        accs = np.array([brute_force_acc(labels, run) for run in runs])
        nmis = np.array([_reference_nmi(labels, run) for run in runs])
        assert np.ptp(accs) > 0  # the repeats disagree, so the mean is informative
        for chunk_entries in (evaluation.CHUNK_ENTRIES, 1, 4 * data.size):
            monkeypatch.setattr(evaluation, "CHUNK_ENTRIES", chunk_entries)
            rep = run_protocol(ds, selected, 4, repeats=30, base_seed=5)
            assert rep.acc_mean == float(accs.mean())
            assert rep.acc_std == float(accs.std(ddof=1))
            assert rep.nmi_mean == float(nmis.mean())
            assert rep.nmi_std == float(nmis.std(ddof=1))
            assert rep.repeats == 30

    def test_zero_repeats_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="repeats=0"):
            run_protocol(ds, [(0, 0)], 2, repeats=0)

    def test_empty_selection_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="no features were selected"):
            run_protocol(ds, [], 2)

    def test_zero_clusters_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="c=0"):
            run_protocol(ds, [(0, 0)], 0)

    @pytest.mark.parametrize("pair", [(1, 0), (5, 0), (0, 4), (0, 50), (0, -1), (-1, 0)])
    def test_selected_pair_outside_the_dataset_is_named(self, pair):
        ds = self._dataset()
        with pytest.raises(ValueError, match=re.escape(f"selected feature {pair}")):
            run_protocol(ds, [(0, 0), pair, (0, 1)], 2)

    def test_needs_labels(self):
        ds = MultiViewDataset((np.ones((2, 4)),), np.ones((4, 1), dtype=int))
        with pytest.raises(ValueError, match="labels"):
            run_protocol(ds, [(0, 0)], 2)


class TestProtocolMemo:
    def _dataset(self, labels=None):
        rng = np.random.default_rng(12)
        labels = np.repeat([0, 1, 2], 8) if labels is None else labels
        x = rng.normal(size=(3, 24)) + labels * 0.7
        return MultiViewDataset((np.abs(x),), np.ones((24, 1), dtype=int), labels)

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(evaluation, "kmeans", counted)
        return calls

    def test_same_input_clusters_once(self, passes):
        ds, reports = self._dataset(), {}
        first = run_protocol(ds, [(0, 0), (0, 2)], 3, repeats=4, base_seed=2, reports=reports)
        again = run_protocol(ds, [(0, 0), (0, 2)], 3, repeats=4, base_seed=2, reports=reports)
        assert again == first and len(passes) == 1 and len(reports) == 1
        assert first == run_protocol(ds, [(0, 0), (0, 2)], 3, repeats=4, base_seed=2)

    def test_each_input_change_misses(self, passes):
        ds, reports = self._dataset(), {}
        run = lambda ds, sel, c, repeats, base_seed: run_protocol(
            ds, sel, c, repeats=repeats, base_seed=base_seed, reports=reports)
        relabeled = self._dataset(np.repeat([0, 1, 2], 8)[::-1].copy())
        variants = [
            (ds, [(0, 0), (0, 2)], 3, 4, 2),
            (ds, [(0, 2), (0, 0)], 3, 4, 2),  # selection order
            (relabeled, [(0, 0), (0, 2)], 3, 4, 2),
            (ds, [(0, 0), (0, 2)], 2, 4, 2),
            (ds, [(0, 0), (0, 2)], 3, 5, 2),
            (ds, [(0, 0), (0, 2)], 3, 4, 3),
        ]
        for k, args in enumerate(variants, 1):
            assert run(*args) == run_protocol(*args[:3], repeats=args[3], base_seed=args[4])
            assert len(reports) == k
        for args in variants:
            run(*args)
        assert len(reports) == len(variants) and len(passes) == 2 * len(variants)

    def test_hit_returns_the_stored_report(self, passes):
        ds, reports = self._dataset(), {}
        first = run_protocol(ds, [(0, 1)], 3, repeats=3, reports=reports)
        again = run_protocol(ds, [(0, 1)], 3, repeats=3, reports=reports)
        assert len(passes) == 1 and again is first


class TestSelectedFeatureMatrix:
    @pytest.mark.parametrize("n", [5, 17, 120, 1000])
    def test_rows_of_the_imputed_views(self, n):
        rng = np.random.default_rng(n)
        views = tuple(rng.uniform(size=(d, n)) * 10.0 ** rng.uniform(-3, 3, size=(d, 1))
                      for d in (1, 2, 7))
        presence = (rng.uniform(size=(n, 3)) > 0.4).astype(int)
        presence[presence.sum(axis=1) == 0, 2] = 1
        presence[0] = 1  # every view keeps a present instance
        ds = MultiViewDataset(views, presence)
        imputed = impute_missing(ds)
        for selected in ([(2, 3)], [(1, 0), (2, 6), (2, 1), (0, 0)], [(2, f) for f in range(7)]):
            expect = np.vstack([imputed[v][f] for v, f in selected])
            assert np.array_equal(evaluation.selected_feature_matrix(ds, selected), expect)

    def test_fills_only_the_selected_rows(self, monkeypatch):
        def whole_views(dataset):
            raise AssertionError("imputed every view")

        monkeypatch.setattr(evaluation, "impute_missing", whole_views)
        presence = np.array([[1, 1], [0, 1], [1, 0], [1, 1]])
        ds = MultiViewDataset((np.arange(8.0).reshape(2, 4), np.ones((3, 4))), presence,
                              np.array([0, 0, 1, 1]))
        data = evaluation.selected_feature_matrix(ds, [(0, 1), (1, 2)])
        assert data.tolist() == [[4.0, 17.0 / 3.0, 6.0, 7.0], [1.0, 1.0, 1.0, 1.0]]
        run_protocol(ds, [(0, 1)], 2, repeats=2)


def test_package_imports_no_scipy():
    """The package needs only numpy: importing it and its CLI loads no scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mvufs, mvufs.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
