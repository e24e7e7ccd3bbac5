import itertools

import numpy as np
import pytest

from mvufs import evaluation
from mvufs.datamodel import MultiViewDataset, impute_missing
from mvufs.evaluation import (
    _acc_from_table,
    _contingency,
    _kmeans_repeats,
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
    assign, centers, iterations = _kmeans_repeats(data, c, seeds)
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
        assign, centers, _ = _kmeans_repeats(data, 3, list(range(12)))
        for seed in range(12):
            run = kmeans(data, 3, seed=seed)
            assert np.array_equal(run.assignments, assign[seed])
            assert run.inertia == _batched_inertia(data, assign[seed], centers[seed])
            assert run.seed == seed


class TestKMeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 20)) * 0.01
        b = rng.normal(size=(2, 20)) * 0.01 + 100.0
        data = np.hstack([a, b])
        run = kmeans(data, 2, seed=1)
        assert len(set(run.assignments[:20])) == 1
        assert len(set(run.assignments[20:])) == 1
        assert run.assignments[0] != run.assignments[20]

    def test_c_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(3, 5))
        run = kmeans(data, 5, seed=0)
        assert run.inertia == pytest.approx(0.0, abs=1e-20)
        assert len(set(run.assignments)) == 5

    def test_duplicates_get_same_cluster(self):
        data = np.array([[0.0, 0.0, 5.0, 5.0, 5.0]])
        run = kmeans(data, 2, seed=3)
        assert run.assignments[0] == run.assignments[1]
        assert run.assignments[2] == run.assignments[3] == run.assignments[4]

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(4, 30))
        a = kmeans(data, 3, seed=7)
        b = kmeans(data, 3, seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((2, 3)), 4, seed=0)

    @pytest.mark.parametrize("n", [4, 5, 9, 20])
    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_identical_and_duplicate_points_fill_every_cluster(self, n, c):
        rng = np.random.default_rng(n * c)
        for data in (np.ones((5, n)), np.zeros((2, n)),
                     rng.uniform(size=(3, 2))[:, np.arange(n) % 2],
                     np.hstack([np.ones((2, n - 1)), np.full((2, 1), 7.0)])):
            for seed in range(3):
                run = kmeans(data, c, seed=seed)
                assert np.all(np.bincount(run.assignments, minlength=c) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_named(self, bad):
        data = np.ones((3, 6))
        data[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(data, 2, seed=0)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iter=0"):
            kmeans(np.ones((2, 5)), 2, seed=0, max_iter=0)

    def test_seeding_overflow_is_named(self):
        # differences up to 3e154: their squares leave the float range
        data = np.array([[0.0, 1e154, 2e154, 3e154]] * 3)
        with pytest.raises(ValueError, match="k-means\\+\\+ seeding overflowed"):
            kmeans(data, 2, seed=0)


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

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, size=40)
        y_pred = rng.integers(0, 4, size=40)
        relabel = rng.permutation(4)
        assert acc(y_true, y_pred) == pytest.approx(acc(y_true, relabel[y_pred]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            acc([0, 1], [0, 1, 2])


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
            return _kmeans_repeats(*args, **kwargs)

        monkeypatch.setattr(evaluation, "_kmeans_repeats", counted)
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
