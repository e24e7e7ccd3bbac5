import itertools

import numpy as np
import pytest

from mvufs.datamodel import MultiViewDataset
from mvufs.evaluation import acc, kmeans, nmi, run_protocol


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

    def test_seeding_overflow_is_named(self):
        # differences up to 3e154: their squares leave the float range
        data = np.array([[0.0, 1e154, 2e154, 3e154]] * 3)
        with pytest.raises(ValueError, match="k-means\\+\\+ seeding overflowed"):
            kmeans(data, 2, seed=0)


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

    def test_needs_labels(self):
        ds = MultiViewDataset((np.ones((2, 4)),), np.ones((4, 1), dtype=int))
        with pytest.raises(ValueError, match="labels"):
            run_protocol(ds, [(0, 0)], 2)
