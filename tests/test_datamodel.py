import itertools
import re
import time

import numpy as np
import pytest

from mvufs import solver
from mvufs.datamodel import (
    DatasetError,
    MultiViewDataset,
    SyntheticSpec,
    build_view_weights,
    generate_synthetic,
    impute_missing,
    load_dataset,
    save_dataset,
    simulate_missing,
)


def small_dataset(n=10, l=3, seed=0):
    rng = np.random.default_rng(seed)
    views = tuple(rng.uniform(size=(4 + v, n)) for v in range(l))
    return MultiViewDataset(views, np.ones((n, l), dtype=int))


class TestInvariants:
    def test_negative_entry_rejected(self):
        x = np.ones((3, 4))
        x[1, 2] = -0.5
        with pytest.raises(DatasetError, match="negative"):
            MultiViewDataset((x,), np.ones((4, 1), dtype=int))

    def test_view_without_features_rejected(self):
        with pytest.raises(DatasetError, match="view 1 has no features"):
            MultiViewDataset((np.ones((3, 4)), np.ones((0, 4))), np.ones((4, 2), dtype=int))

    def test_mismatched_instance_counts_rejected(self):
        with pytest.raises(DatasetError, match="instances"):
            MultiViewDataset(
                (np.ones((3, 4)), np.ones((2, 5))), np.ones((4, 2), dtype=int)
            )

    def test_instance_in_zero_views_rejected(self):
        presence = np.ones((4, 2), dtype=int)
        presence[1] = 0
        with pytest.raises(DatasetError, match="zero views"):
            MultiViewDataset((np.ones((3, 4)), np.ones((2, 4))), presence)

    @pytest.mark.parametrize("labels", [[0.5, 1.5, 2.7, 0.0], [0.0, 1.0, np.nan, 2.0]])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        # truncated, 0.5 and 0.0 would be one class and ACC/NMI scored wrongly
        with pytest.raises(DatasetError, match="labels must be whole numbers"):
            MultiViewDataset((np.ones((3, 4)),), np.ones((4, 1), dtype=int), np.array(labels))

    def test_whole_float_labels_kept(self):
        ds = MultiViewDataset((np.ones((3, 4)),), np.ones((4, 1), dtype=int),
                              np.array([0.0, 1.0, 2.0, 0.0]))
        assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [0, 1, 2, 0]


def test_views_and_presence_cannot_change_through_the_dataset():
    # the weights and the solver's starts are worked out from them once
    x, presence = np.ones((3, 4)), np.ones((4, 2), dtype=int)
    ds = MultiViewDataset((x, x.copy()), presence)
    with pytest.raises(ValueError, match="read-only"):
        ds.views[0][0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        ds.presence[0, 0] = 0
    x[0, 0] = 2.0  # the caller's own arrays stay writable; the dataset holds copies
    presence[0, 0] = 0
    assert ds.views[0][0, 0] == 1.0 and ds.presence[0, 0] == 1


def test_dataset_copies_only_arrays_a_caller_could_change():
    ds = small_dataset(n=20)
    masked = simulate_missing(ds, 0.3, seed=4)
    assert all(a is b for a, b in zip(masked.views, ds.views))  # read-only, owned: shared
    f_order = np.asfortranarray(np.random.default_rng(5).uniform(size=(3, 20)))
    view = MultiViewDataset((f_order[:, ::2],), np.ones((10, 1), dtype=int)).views[0]
    assert view.flags.owndata and not view.flags.writeable
    assert view.tobytes(order="A") == np.asfortranarray(f_order[:, ::2]).tobytes(order="A")
    labels = np.arange(20) % 2
    labelled = MultiViewDataset(ds.views, ds.presence, labels)
    labels[0] = 7
    assert labelled.labels[0] == 0 and not labelled.labels.flags.writeable


def test_dataset_keeps_read_only_views_of_read_only_owners():
    rng = np.random.default_rng(6)
    owner = rng.uniform(size=(20, 3))
    owner.flags.writeable = False
    assert MultiViewDataset((owner.T,), np.ones((20, 1), dtype=int)).views[0].base is owner
    writable = rng.uniform(size=(20, 3))
    sealed = writable.T
    sealed.flags.writeable = False  # the caller can still write through `writable`
    buffered = np.frombuffer(writable.tobytes()).reshape(3, 20)  # data owned by bytes
    for view in (sealed, buffered):
        kept = MultiViewDataset((view,), np.ones((20, 1), dtype=int)).views[0]
        assert kept.flags.owndata and not kept.flags.writeable
        assert kept.tobytes() == view.tobytes() and not np.shares_memory(kept, view)


def test_caller_changing_its_arrays_leaves_the_refit_unchanged():
    base, _ = generate_synthetic(SyntheticSpec(60, 3, 3, (8, 8, 8), (3, 3, 3), seed=2))
    masked = simulate_missing(base, 0.3, seed=3)
    views = tuple(x.copy() for x in masked.views)  # the caller keeps them
    ds = MultiViewDataset(views, masked.presence, masked.labels)
    hyper = solver.Hyperparameters(lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=3,
                                   max_iter=5, seed=1)
    solver.fit(ds, hyper)
    views[0][:, :30] *= 5
    refit = solver.fit(ds, hyper)
    fresh = solver.fit(MultiViewDataset(masked.views, masked.presence, masked.labels), hyper)
    assert refit.trace.tobytes() == fresh.trace.tobytes()
    for a, b in zip([refit.state.v, *refit.state.u, *refit.state.s],
                    [fresh.state.v, *fresh.state.u, *fresh.state.s]):
        assert a.tobytes() == b.tobytes()


class TestViewWeights:
    def test_complete_view_all_ones(self):
        w = build_view_weights(small_dataset())
        for vec in w:
            assert np.all(vec == 1.0)

    def test_partial_view_gets_presence_fraction(self):
        ds = small_dataset(n=10)
        presence = np.ones((10, 3), dtype=int)
        presence[:3, 0] = 0  # 7 of 10 present in view 0
        ds = MultiViewDataset(ds.views, presence)
        w = build_view_weights(ds)
        assert np.allclose(w[0][:3], 0.7)
        assert np.all(w[0][3:] == 1.0)

    def test_single_present_instance(self):
        ds = small_dataset(n=10)
        presence = np.ones((10, 3), dtype=int)
        presence[1:, 0] = 0
        ds = MultiViewDataset(ds.views, presence)
        w = build_view_weights(ds)
        assert np.allclose(w[0][1:], 0.1)

    def test_only_two_weight_values_after_simulation(self):
        ds = simulate_missing(small_dataset(n=20), 0.3, seed=5)
        w = build_view_weights(ds)
        for v, vec in enumerate(w):
            frac = ds.presence[:, v].mean()
            assert np.all((vec == 1.0) | (vec == frac))

    def test_dataset_computes_its_weights_once(self):
        ds = simulate_missing(small_dataset(n=20), 0.3, seed=6)
        assert ds.weights is ds.weights
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(ds.weights, build_view_weights(ds)))

    def test_permuted_dataset_weights_are_the_gathered_ones(self):
        ds = simulate_missing(small_dataset(n=20), 0.3, seed=7)
        order = np.random.default_rng(8).permutation(20)
        got = solver._permuted(ds, order).weights
        expect = tuple(w[order] for w in ds.weights)
        assert len(got) == len(expect)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expect))


class TestSimulateMissing:
    def test_ratio_zero_is_identity(self):
        ds = small_dataset()
        assert simulate_missing(ds, 0.0, seed=1) is ds

    def test_exact_absent_count_per_view(self):
        ds = simulate_missing(small_dataset(n=10, l=3), 0.3, seed=2)
        assert np.all((ds.presence == 0).sum(axis=0) == 3)

    def test_deterministic(self):
        a = simulate_missing(small_dataset(n=30), 0.4, seed=9)
        b = simulate_missing(small_dataset(n=30), 0.4, seed=9)
        assert np.array_equal(a.presence, b.presence)

    def test_every_instance_kept_somewhere(self):
        for seed in range(10):
            ds = simulate_missing(small_dataset(n=12, l=3), 0.5, seed=seed)
            assert np.all(ds.presence.sum(axis=1) >= 1)

    def test_incomplete_input_rejected(self):
        ds = simulate_missing(small_dataset(), 0.3, seed=0)
        with pytest.raises(DatasetError, match="complete"):
            simulate_missing(ds, 0.3, seed=1)

    def test_one_view_refused_before_any_repair(self, monkeypatch):
        ds = small_dataset(n=10, l=1)
        assert simulate_missing(ds, 0.05, seed=0) is ds  # floor(0.05 N) = 0 masks nothing
        monkeypatch.setattr(np.random, "default_rng", None)  # no draw may happen
        with pytest.raises(DatasetError, match="in each of 1 view"):
            simulate_missing(ds, 0.2, seed=0)

    def test_two_views_at_half_keep_each_instance_once(self):
        ds = simulate_missing(small_dataset(n=12, l=2), 0.5, seed=3)
        assert np.all(ds.presence.sum(axis=1) == 1)

    def test_masks_equal_the_capped_repair_wherever_it_succeeds(self):
        compared = 0
        for n, l, ratio, seed in itertools.product(
                (2, 5, 12, 40, 120, 1000), (1, 2, 3, 5, 8), (0.05, 0.1, 0.3, 0.45, 0.5), range(12)):
            ds = small_dataset(n=n, l=l)
            try:
                expect = _simulate_missing_reference(ds, ratio, seed)
            except DatasetError:
                continue
            got = simulate_missing(ds, ratio, seed).presence
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), (n, l, ratio, seed)
            compared += 1
        assert compared > 1500

    @pytest.mark.parametrize("n,l", [(10000, 2), (10000, 3), (20000, 2), (20000, 3)])
    def test_large_half_masks_need_no_repair_cap(self, n, l):
        # the capped repair gave up on each of these
        ds = MultiViewDataset(tuple(np.ones((1, n)) for _ in range(l)), np.ones((n, l), dtype=int))
        start = time.perf_counter()
        presence = simulate_missing(ds, 0.5, seed=0).presence
        assert time.perf_counter() - start < 2.0
        assert np.all((presence == 0).sum(axis=0) == n // 2)
        assert np.all(presence.sum(axis=1) >= 1)


def _simulate_missing_reference(dataset, ratio, seed, steps=1000):
    """The mask as simulate_missing drew it with a cap on its repair steps,
    which re-summed the mask at each step and gave up after `steps`."""
    n, l = dataset.n_instances, dataset.n_views
    n_absent = int(np.floor(ratio * n))
    if n_absent == 0:
        return dataset.presence
    if l * (n - n_absent) < n:
        raise DatasetError("leaves some instance in no view")
    rng = np.random.default_rng(seed)
    presence = np.ones((n, l), dtype=int)
    for v in range(l):
        absent = rng.choice(n, size=n_absent, replace=False)
        presence[absent, v] = 0
    for _ in range(steps):
        lost = np.flatnonzero(presence.sum(axis=1) == 0)
        if lost.size == 0:
            return presence
        i = lost[0]
        v = int(rng.integers(l))
        donors = np.flatnonzero((presence[:, v] == 1) & (presence.sum(axis=1) >= 2))
        if donors.size == 0:
            continue
        j = int(donors[rng.integers(donors.size)])
        presence[i, v] = 1
        presence[j, v] = 0
    raise DatasetError(f"could not satisfy the at-least-one-view constraint after {steps} steps")


class TestImpute:
    def test_complete_view_unchanged(self):
        ds = small_dataset()
        out = impute_missing(ds)
        for x, y in zip(ds.views, out):
            assert np.array_equal(x, y)

    def test_mean_fill(self):
        x = np.array([[1.0, 3.0, 99.0]])
        full = np.ones((2, 3))
        presence = np.array([[1, 1], [1, 1], [0, 1]])
        ds = MultiViewDataset((x, full), presence)
        out = impute_missing(ds)
        assert out[0][0, 2] == pytest.approx(2.0)

    def test_zero_feature_stays_zero(self):
        x = np.array([[0.0, 0.0, 5.0]])
        full = np.ones((2, 3))
        presence = np.array([[1, 1], [1, 1], [0, 1]])
        out = impute_missing(MultiViewDataset((x, full), presence))
        assert out[0][0, 2] == 0.0
        assert np.all(out[0] >= 0)

    def test_idempotent_on_complete(self):
        ds = small_dataset()
        once = impute_missing(ds)
        twice = impute_missing(MultiViewDataset(tuple(once), ds.presence))
        for a, b in zip(once, twice):
            assert np.array_equal(a, b)


class TestSynthetic:
    def test_zero_noise_cluster_constancy(self):
        spec = SyntheticSpec(20, 2, 2, (6, 6), (3, 3), noise_scale=0.0, seed=4)
        ds, planted = generate_synthetic(spec)
        for v in range(2):
            for k in range(2):
                cols = ds.views[v][np.ix_(planted[v], ds.labels == k)]
                assert np.allclose(cols, cols[:, :1])

    def test_all_features_informative_boundary(self):
        spec = SyntheticSpec(12, 2, 3, (5, 5), (5, 5), seed=1)
        _, planted = generate_synthetic(spec)
        for idx in planted:
            assert np.array_equal(idx, np.arange(5))

    @pytest.mark.parametrize("field,value,message", [
        ("noise_scale", -1.0, "noise_scale=-1.0: noise_scale must be nonnegative and finite"),
        ("noise_scale", np.nan, "noise_scale=nan: noise_scale must be nonnegative and finite"),
        ("noise_scale", np.inf, "noise_scale=inf: noise_scale must be nonnegative and finite"),
        ("seed", -1, "seed=-1: seed must be nonnegative"),
    ])
    def test_invalid_noise_or_seed_rejected(self, field, value, message):
        with pytest.raises(DatasetError) as info:
            SyntheticSpec(12, 2, 3, (5, 5), (2, 2), **{field: value})
        assert str(info.value) == message

    def test_deterministic(self):
        spec = SyntheticSpec(15, 3, 3, (4, 5, 6), (2, 2, 2), seed=7)
        a, pa = generate_synthetic(spec)
        b, pb = generate_synthetic(spec)
        for x, y in zip(a.views, b.views):
            assert np.array_equal(x, y)
        assert np.array_equal(a.labels, b.labels)
        for i, j in zip(pa, pb):
            assert np.array_equal(i, j)


class TestIO:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(9, 3, 2, (3, 4, 5), (1, 1, 1), seed=2)
        ds, _ = generate_synthetic(spec)
        ds = simulate_missing(ds, 0.2, seed=0)
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.n_views == 3
        assert np.array_equal(back.presence, ds.presence)
        assert np.array_equal(back.labels, ds.labels)
        for x, y in zip(ds.views, back.views):
            assert np.allclose(x, y)

    def test_negative_entry_in_file(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("views 1\nview v.txt 1 2\n")
        (tmp_path / "v.txt").write_text("1.0 -0.5\n")
        with pytest.raises(DatasetError, match="negative"):
            load_dataset(str(tmp_path))

    def test_manifest_is_authoritative(self, tmp_path):
        ds = small_dataset(n=6, l=2)
        save_dataset(ds, str(tmp_path))
        # an extra matrix file in the directory must be ignored
        (tmp_path / "view_9.txt").write_text("1 2 3 4 5 6\n")
        back = load_dataset(str(tmp_path))
        assert back.n_views == 2

    def test_declared_shape_mismatch(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("views 1\nview v.txt 2 3\n")
        (tmp_path / "v.txt").write_text("1 2 3\n")
        with pytest.raises(DatasetError, match="shape"):
            load_dataset(str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("manifest,files,match", [
        ("views abc\n", {}, "{manifest}:1: invalid literal"),
        ("views 1\nview v.txt two 2\n", {}, "{manifest}:2: invalid literal"),
        ("views\n", {}, "{manifest}:1: 'views' needs a value"),
        ("views 1\nview v.txt 1 2\nlabels\n", {}, "{manifest}:3: 'labels' needs a value"),
        ("views 1\nview\n", {}, "{manifest}:2: 'view' needs a value"),
        ("views 1\nview v.txt 1 2\nlabels l.txt\n", {"l.txt": "0\n1.5\n"},
         "malformed file .*l.txt"),
        ("views 1\nview v.txt 1 2\nmask m.txt\n", {"m.txt": "1\nx\n"}, "malformed file .*m.txt"),
        ("views 0\n", {}, "{manifest}:1: a dataset needs at least one view"),
        ("views 1\nview v.txt 0 2\n", {},
         "{manifest}:2: view v.txt needs at least one feature"),
        ("views 1 2\n", {}, "{manifest}:1: 'views' takes one value"),
        ("views 1\nview v.txt 1 2\nlabels l.txt m.txt\n", {"l.txt": "0\n1\n"},
         "{manifest}:3: 'labels' takes one value"),
        ("views 1\nview v.txt 1 2\nmask m.txt l.txt\n", {"m.txt": "1\n1\n"},
         "{manifest}:3: 'mask' takes one value"),
        ("views 1\nview v.txt 1\n", {}, "{manifest}:2: 'view' takes 3 values"),
        ("views 1\nview v.txt 1 2 2\n", {}, "{manifest}:2: 'view' takes 3 values"),
        ("views 1\nview v.txt 1 2\nbogus 1\n", {}, "{manifest}:3: unknown key 'bogus'"),
        ("# no views\n", {}, "{manifest}: no 'views' line"),
        ("views 2\nview v.txt 1 2\n", {}, "{manifest}: declares 2 views but lists 1 view lines"),
    ], ids=["views-not-int", "view-size-not-int", "views-no-value", "labels-no-value",
            "view-no-value", "labels-not-int", "mask-not-int", "no-views",
            "view-without-features", "two-view-counts", "two-label-files", "two-mask-files",
            "view-two-values", "view-four-values", "unknown-key", "no-views-line",
            "view-lines-short"])
    def test_malformed_manifest_or_integer_file(self, tmp_path, manifest, files, match):
        (tmp_path / "manifest.txt").write_text(manifest)
        for name, text in {"v.txt": "1 2\n", **files}.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(DatasetError,
                           match=match.format(manifest=re.escape(str(tmp_path / "manifest.txt")))):
            load_dataset(str(tmp_path))
