import numpy as np
import pytest

from mvufs.selection import score_features, select_top


def test_identity_factor_tie_break():
    ranking = score_features([np.eye(2)])
    assert ranking.entries == ((0, 0, 1.0), (0, 1, 1.0))


def test_zero_row_ranks_last():
    u = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
    ranking = score_features([u])
    assert ranking.entries[-1][:2] == (0, 1)


def test_scores_match_loop_oracle():
    rng = np.random.default_rng(0)
    us = [rng.normal(size=(5, 3)), rng.normal(size=(4, 3))]
    ranking = score_features(us)
    scores = {(v, f): s for v, f, s in ranking.entries}
    for v, u in enumerate(us):
        for f in range(u.shape[0]):
            expect = np.sqrt(sum(u[f, j] ** 2 for j in range(u.shape[1])))
            assert abs(scores[(v, f)] - expect) <= 1e-12


def test_sorted_descending_and_complete():
    rng = np.random.default_rng(1)
    us = [rng.uniform(size=(6, 2)), rng.uniform(size=(3, 2))]
    ranking = score_features(us)
    vals = [s for _, _, s in ranking.entries]
    assert vals == sorted(vals, reverse=True)
    assert len(ranking.entries) == 9
    assert len({(v, f) for v, f, _ in ranking.entries}) == 9


def test_select_ratio_one_gives_everything():
    ranking = score_features([np.ones((4, 2))])
    assert len(select_top(ranking, ratio=1.0)) == 4


def test_select_ceiling_arithmetic():
    us = [np.diag(np.arange(10, 0, -1.0))]
    ranking = score_features(us)
    sel = select_top(ranking, ratio=0.2)
    assert sel == [(0, 0), (0, 1)]


def test_select_ratio_is_exact_on_its_decimal():
    # 0.07 * 100 is 7.000000000000001 in binary floating point
    ranking = score_features([np.diag(np.arange(100, 0, -1.0))])
    assert select_top(ranking, ratio=0.07) == [(0, f) for f in range(7)]
    assert len(select_top(ranking, ratio=0.071)) == 8


def test_select_requires_exactly_one_size_argument():
    ranking = score_features([np.ones((2, 2))])
    with pytest.raises(ValueError):
        select_top(ranking)
    with pytest.raises(ValueError):
        select_top(ranking, ratio=0.5, count=1)


def test_count_out_of_range():
    ranking = score_features([np.ones((2, 2))])
    with pytest.raises(ValueError):
        select_top(ranking, count=3)


def test_permutation_equivariance():
    rng = np.random.default_rng(2)
    u = rng.uniform(size=(6, 3))
    perm = rng.permutation(6)
    sel = set(select_top(score_features([u]), ratio=0.5))
    sel_perm = set(select_top(score_features([u[perm]]), ratio=0.5))
    assert sel_perm == {(0, int(np.where(perm == f)[0][0])) for _, f in sel}


def test_scale_invariance_of_order():
    rng = np.random.default_rng(3)
    us = [rng.uniform(size=(5, 2)), rng.uniform(size=(4, 2))]
    a = score_features(us).entries
    b = score_features([7.5 * u for u in us]).entries
    assert [(v, f) for v, f, _ in a] == [(v, f) for v, f, _ in b]
