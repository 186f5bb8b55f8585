import contextlib
import copy
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ArrayClusterModel, knn_query, lof_caches, lof_query, loop_lloyd_kmeans

import refstream.nonconformity as nonconformity
from refstream.errors import DegenerateGroupError
from refstream.nonconformity import (
    ClusterModel,
    FrequencyMeasure,
    NeighborIndex,
    _distances,
    _distinct_rows,
    _first_by_distance,
    _nearest,
    lloyd_kmeans,
)


# --- knn ---------------------------------------------------------------------


def index_of(feats, k, mode="distance"):
    """A NeighborIndex holding ``feats``, inserted in order."""
    idx = NeighborIndex(k, mode=mode)
    for ident, feature in enumerate(feats):
        idx.insert(ident, feature)
    return idx


class TestKnn:
    def test_hand_computed(self):
        assert index_of([(1, 0), (0, 1), (2, 0)], 2).score((0, 0)) == pytest.approx(1.0)

    def test_duplicate_scores_zero(self):
        assert index_of([(1, 2), (5, 5)], 1).score((1, 2)) == 0.0

    def test_three_four_five(self):
        assert index_of([(3, 4)], 1).score((0, 0)) == pytest.approx(5.0)

    def test_small_group_rejected(self):
        with pytest.raises(DegenerateGroupError):
            index_of([(1, 1)], 2).score((0, 0))

    def test_matches_brute_force(self):
        # the kernel adds one squared column at a time, so cover more than two
        rng = np.random.default_rng(0)
        for dim in (2, 1, 3):
            for _ in range(50):
                feats = rng.normal(size=(rng.integers(5, 40), dim))
                x = rng.normal(size=dim)
                k = int(rng.integers(1, 5))
                assert index_of(feats, k).score(x) == knn_query(x, feats, k)

    def test_query_of_another_width_rejected(self):
        feats = np.random.default_rng(0).normal(size=(8, 2))
        model = ClusterModel(2, 0.25, np.random.default_rng(0))
        for ident, feature in enumerate(feats):
            model.insert(ident, feature)
        for group in (index_of(feats, 2), index_of(feats, 2, "density"), model):
            for query in ((0.0, 0.0, 5.0), (0.0,)):
                with pytest.raises(ValueError, match="columns"):
                    group.score(query)

    def test_adding_closer_point_never_increases(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            feats = rng.normal(size=(12, 2))
            x = rng.normal(size=2)
            idx = index_of(feats, 4)
            base = idx.score(x)
            kth = sorted(np.sqrt(((feats - x) ** 2).sum(1)))[3]
            idx.insert(len(feats), x + rng.uniform(-1, 1, size=2) * kth / 4)
            assert idx.score(x) <= base + 1e-12


# --- lof ----------------------------------------------------------------------


class TestLof:
    def test_interior_grid_point_is_one(self):
        grid = [(i, j) for i in range(10) for j in range(10)]
        assert index_of(grid, 4, "density").score((4.5, 4.5)) == pytest.approx(1.0, abs=0.05)

    def test_far_outlier_matches_brute_force(self):
        feats = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        got = index_of(feats, 2, "density").score((5.0, 5.0))
        assert got > 1.0
        assert got == lof_query((5.0, 5.0), feats, 2)

    def test_coincident_group_scores_one(self):
        feats = [(2.0, 2.0)] * 6
        assert index_of(feats, 3, "density").score((2.0, 2.0)) == pytest.approx(1.0)
        np.testing.assert_allclose(index_of(feats, 3, "density").recompute_member_scores(), 1.0)

    def test_batch_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = int(rng.integers(8, 25))
            feats = rng.normal(size=(m, 2)).round(3)  # rounding provokes ties
            for k in (2, 4):
                got = index_of(feats, k, "density").recompute_member_scores()
                assert np.array_equal(got, lof_caches(feats, k)[2])

    def test_query_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            feats = rng.normal(size=(15, 2))
            x = rng.normal(size=2) * 2
            assert index_of(feats, 4, "density").score(x) == lof_query(x, feats, 4)

    def test_uniform_data_median_near_one(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(400, 2))
        interior = (pts[:, 0] > 0.2) & (pts[:, 0] < 0.8) & (pts[:, 1] > 0.2) & (pts[:, 1] < 0.8)
        for k in (4, 10):
            lofs = index_of(pts, k, "density").recompute_member_scores()
            med = float(np.median(lofs[interior]))
            assert 0.9 <= med <= 1.1


# --- incremental index --------------------------------------------------------


def random_ops(seed, n_ops, max_size, dim=2):
    """A reproducible insert/remove workload."""
    rng = np.random.default_rng(seed)
    ops, alive, next_id = [], [], 1
    for _ in range(n_ops):
        if alive and (len(alive) >= max_size or rng.random() < 0.35):
            victim = alive.pop(int(rng.integers(len(alive))))
            ops.append(("remove", victim, None))
        else:
            ops.append(("insert", next_id, rng.normal(size=dim).round(2)))
            alive.append(next_id)
            next_id += 1
    return ops


class TestNeighborIndexDistance:
    def test_tracks_batch_recomputation(self):
        idx = NeighborIndex(3, mode="distance")
        feats = {}
        for op, ident, feat in random_ops(seed=10, n_ops=300, max_size=40):
            if op == "insert":
                idx.insert(ident, feat)
                feats[ident] = feat
            else:
                idx.remove(ident)
                del feats[ident]
            if len(feats) >= 4:
                np.testing.assert_allclose(
                    idx.member_scores(), idx.recompute_member_scores(), atol=1e-9
                )

    def test_query_matches_pure_function(self):
        idx = NeighborIndex(2, mode="distance")
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0)]
        for i, p in enumerate(pts, start=1):
            idx.insert(i, p)
        assert idx.score((0.2, 0.2)) == knn_query((0.2, 0.2), pts, 2)

    def test_remove_unknown_is_error(self):
        idx = NeighborIndex(2)
        with pytest.raises(DegenerateGroupError):
            idx.remove(99)


class TestNeighborIndexDensity:
    def test_far_outlier_insert_touches_only_itself(self):
        idx = NeighborIndex(3, mode="density")
        rng = np.random.default_rng(11)
        for i in range(1, 11):
            idx.insert(i, rng.normal(size=2) * 0.1)
        before = idx.member_scores()[:10].copy()
        idx.insert(99, np.array([50.0, 50.0]))
        after = idx.member_scores()
        np.testing.assert_array_equal(before, after[:10])
        assert after[10] > 1.0

    def test_duplicate_insert_stays_consistent(self):
        idx = NeighborIndex(2, mode="density")
        rng = np.random.default_rng(12)
        feats = {}
        for i in range(1, 9):
            f = rng.normal(size=2)
            idx.insert(i, f)
            feats[i] = f
        idx.insert(100, feats[4].copy())
        np.testing.assert_allclose(
            idx.member_scores(), idx.recompute_member_scores(), atol=1e-9
        )

    def test_remove_then_reinsert_round_trip(self):
        idx = NeighborIndex(3, mode="density")
        rng = np.random.default_rng(13)
        feats = {i: rng.normal(size=2) for i in range(1, 13)}
        for i, f in feats.items():
            idx.insert(i, f)
        snapshot = idx.member_scores().copy()
        idx.remove(7)
        idx.insert(7, feats[7])
        reordered = idx.member_scores()
        # entry 7 moved to the end of arrival order
        want = np.concatenate([np.delete(snapshot, 6), [snapshot[6]]])
        np.testing.assert_allclose(reordered, want, atol=1e-9)

    def test_tracks_batch_recomputation_through_churn(self):
        for k in (2, 4):
            idx = NeighborIndex(k, mode="density")
            size = 0
            for op, ident, feat in random_ops(seed=20 + k, n_ops=400, max_size=30):
                if op == "insert":
                    idx.insert(ident, feat)
                    size += 1
                else:
                    idx.remove(ident)
                    size -= 1
                if size >= k + 2:
                    np.testing.assert_allclose(
                        idx.member_scores(), idx.recompute_member_scores(), atol=1e-9
                    )

    def test_cached_kdistances_match_batch(self):
        idx = NeighborIndex(3, mode="density")
        rng = np.random.default_rng(14)
        feats = []
        for i in range(1, 25):
            f = rng.normal(size=2)
            idx.insert(i, f)
            feats.append(f)
        dist = np.sqrt(((np.array(feats)[:, None] - np.array(feats)[None]) ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        want = np.sort(dist, axis=1)[:, 2]
        np.testing.assert_allclose(kdistances(idx), want, atol=1e-12)


GRID_OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 99)),
    max_size=60,
)
INDEX_ARGS = dict(k=st.integers(1, 6), mode=st.sampled_from(["distance", "density"]))


def kdistances(idx):
    """A store's k-distances in arrival order; reading them builds a large store's rows."""
    if idx._small():
        return idx._batch()[0]
    idx._ensure_built()
    return idx._nbrd[:, -1].take(idx._rows())


def lrds(idx):
    """A store's LRDs in arrival order, NaN in distance mode; reading builds rows too."""
    if idx._small():
        lrd = idx._batch()[1]
        return np.full(len(idx), np.nan) if lrd is None else lrd
    idx._ensure_built()
    return idx._lrd.take(idx._rows())


# what a read of a store exposes, besides a query's score
VIEWS = {"member_scores": NeighborIndex.member_scores, "kdistances": kdistances, "lrds": lrds}
READS = ("score", *VIEWS)


@contextlib.contextmanager
def repair_every_removal():
    """Matrix limit 0: every store is large, so it keeps rows and repairs them.

    The groups below (at most 60 members) are otherwise small stores,
    which keep no rows, so the rows and their repair need their own runs.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(NeighborIndex, "_MATRIX_SLOTS", 0)
        yield


def check_churn(k, mode, ops):
    # a 4x4 grid of features makes distance ties and coincident
    # duplicates; ids fall as arrivals rise, so ordering ties by id fails
    idx = NeighborIndex(k, mode=mode)
    alive, next_id = [], 1000
    for is_insert, a, b, pick in ops:
        if is_insert or not alive:
            idx.insert(next_id, (a / 2, b / 2))
            alive.append(next_id)
            next_id -= 1
        else:
            idx.remove(alive.pop(pick % len(alive)))
        feats = idx.member_features()
        # the store's arrival-ordered gather, read-only
        assert np.array_equal(feats, idx._X[idx._rows()])
        with pytest.raises(ValueError, match="read-only"):
            feats[0] = 0.0
        query = (b / 2, pick % 4 / 2)  # on the grid, so ties reach the k-th place
        if len(alive) >= k + 1:
            assert np.array_equal(idx.member_scores(), idx.recompute_member_scores())
            if mode == "density":
                kdist, lrd, _ = lof_caches(feats, k)
                assert np.array_equal(kdistances(idx), kdist)
                assert np.array_equal(lrds(idx), lrd)
                assert idx.score(query) == lof_query(query, feats, k)
            else:
                assert idx.score(query) == knn_query(query, feats, k)
        # reading the k-distances builds a large store's rows, so read
        # before looking. A small store keeps none.
        kdistances(idx)
        if idx._small():
            assert not idx._built
            continue
        assert_rows_by_distance_then_arrival(idx, alive)


def assert_rows_by_distance_then_arrival(idx, alive):
    """A built store's rows list its min(k, m - 1) nearest members by (distance, arrival).

    ``alive`` lists the member ids in arrival order; features are finite.
    """
    feats, k = idx.member_features(), idx.k
    n = min(k, len(alive) - 1)
    assert ((idx._nbr[idx._rows()] != -1).sum(axis=1) == n).all()
    ident_of = {slot: ident for ident, slot in idx._slot_of.items()}
    for i, ident in enumerate(alive):
        d = np.sqrt(((feats - feats[i]) ** 2).sum(axis=1))
        want = sorted((d[j], j) for j in range(len(alive)) if j != i)[:k]
        slot = idx._slot_of[ident]
        got = [ident_of[s] for s in idx._nbr[slot, :n].tolist()]
        assert got == [alive[j] for _, j in want]
        assert idx._nbrd[slot, :n].tolist() == [dist for dist, _ in want]
        assert (idx._nbr[slot, n:] == -1).all()


class TestNeighborIndexChurn:
    @given(**INDEX_ARGS, ops=GRID_OPS)
    @settings(max_examples=150, deadline=None)
    def test_churn_keeps_caches_and_rows_exact(self, k, mode, ops):
        check_churn(k, mode, ops)

    @given(**INDEX_ARGS, ops=GRID_OPS)
    @settings(max_examples=150, deadline=None)
    def test_churn_repairing_every_removal(self, k, mode, ops):
        with repair_every_removal():
            check_churn(k, mode, ops)


def index_state(idx, query):
    """Everything a read exposes, plus a large store's member rows; the first read builds them."""
    try:
        score = idx.score(query)
    except DegenerateGroupError as exc:
        score = str(exc)
    state = {"score": score, **{name: view(idx) for name, view in VIEWS.items()}}
    if not idx._small():
        rows = idx._rows()
        state.update(nbr=idx._nbr[rows], nbrd=idx._nbrd[rows])
    return state


def assert_same_state(lazy, eager, query):
    got, want = index_state(lazy, query), index_state(eager, query)
    for name in VIEWS:
        assert np.array_equal(got[name], want[name], equal_nan=True), name
    assert got["score"] == want["score"]
    if "nbr" in got and "nbr" in want:
        assert np.array_equal(got["nbrd"], want["nbrd"])
        assert np.array_equal(got["nbr"], want["nbr"])


def check_first_read_build(k, mode, first_read, ops):
    # lazy takes every operation, removes included, before its first
    # read builds it in one batch; eager is read after every operation,
    # so it is built from the first insert on
    lazy, eager = NeighborIndex(k, mode=mode), NeighborIndex(k, mode=mode)
    alive, next_id = [], 1000
    for is_insert, a, b, pick in ops:
        if is_insert or not alive:
            lazy.insert(next_id, (a / 2, b / 2))
            eager.insert(next_id, (a / 2, b / 2))
            alive.append(next_id)
            next_id -= 1
        else:
            victim = alive.pop(pick % len(alive))
            lazy.remove(victim)
            eager.remove(victim)
        kdistances(eager)
    assert not lazy._built
    failed = False
    if first_read == "score":
        try:
            lazy.score((0.5, 1.0))
        except DegenerateGroupError:
            failed = True
    else:
        VIEWS[first_read](lazy)
    # only a large store builds rows; every read does so but a
    # distance-mode score, and a score refused for too few members
    needs_rows = not lazy._small() and not failed and (
        mode == "density" or first_read != "score")
    assert lazy._built == needs_rows
    assert_same_state(lazy, eager, (0.5, 1.0))
    # after the build every insert and every removal is repaired
    for idx in (lazy, eager):
        idx.insert(next_id, (0.5, 0.5))
        if alive:
            idx.remove(alive[0])
    assert_same_state(lazy, eager, (1.0, 0.5))


def check_build_spanning_several_blocks(mode):
    # the group outgrows two blocks of rows
    lazy, eager = NeighborIndex(5, mode=mode), NeighborIndex(5, mode=mode)
    for kind, ident, feature in random_ops(11, 600, 200):
        for idx in (lazy, eager):
            if kind == "insert":
                idx.insert(ident, feature)
            else:
                idx.remove(ident)
        eager.member_scores()
    assert len(lazy) > 2 * NeighborIndex._BUILD_ROWS
    assert_same_state(lazy, eager, (0.1, -0.2))
    assert np.array_equal(lazy.member_scores(), lazy.recompute_member_scores())


def check_ties_across_several_blocks(k, mode):
    # over 2 * _BUILD_ROWS members on a 3x3 grid: about 15 coincident
    # members per point, so every k-th distance ties with dozens of
    # members in every build block; ids fall as arrivals rise
    rng = np.random.default_rng(31 + k)
    idx = NeighborIndex(k, mode=mode)
    alive = list(range(1000, 1000 - 2 * NeighborIndex._BUILD_ROWS - 10, -1))
    for ident in alive:
        idx.insert(ident, rng.integers(0, 3, size=2) / 2)
    assert not idx._small() and not idx._built
    for step in range(4):
        assert np.array_equal(idx.member_scores(), idx.recompute_member_scores())
        assert idx._built
        assert_rows_by_distance_then_arrival(idx, alive)
        for _ in range(5):  # each removal repairs the rows that listed the member
            idx.remove(alive.pop(int(rng.integers(len(alive)))))


class TestNeighborIndexFirstReadBuild:
    @given(**INDEX_ARGS, first_read=st.sampled_from(READS), ops=GRID_OPS)
    @settings(max_examples=150, deadline=None)
    def test_batch_build_equals_incremental_repair(self, k, mode, first_read, ops):
        check_first_read_build(k, mode, first_read, ops)

    @given(**INDEX_ARGS, first_read=st.sampled_from(READS), ops=GRID_OPS)
    @settings(max_examples=150, deadline=None)
    def test_batch_build_repairing_every_removal(self, k, mode, first_read, ops):
        with repair_every_removal():
            check_first_read_build(k, mode, first_read, ops)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_build_spanning_several_blocks(self, mode):
        check_build_spanning_several_blocks(mode)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_build_spanning_several_blocks_repairing_every_removal(self, mode):
        with repair_every_removal():
            check_build_spanning_several_blocks(mode)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_ties_across_several_blocks(self, k, mode):
        check_ties_across_several_blocks(k, mode)


# entries with ties, infinities and NaNs, which sort last
BLOCK_VALUE = st.sampled_from([0.0, 0.5, 1.0, 1.0, math.inf, math.nan])


class TestFirstByDistance:
    @given(rows=st.integers(1, 6), cols=st.integers(1, 12), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_stable_sort_of_whole_rows(self, rows, cols, data):
        dist = np.array(data.draw(st.lists(BLOCK_VALUE, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols)
        take = data.draw(st.integers(1, cols))
        want = np.argsort(dist, axis=1, kind="stable")[:, :take]
        got = _first_by_distance(dist, take)
        assert np.array_equal(got, want + np.arange(0, dist.size, cols)[:, None])


def stable_sort_rows(idx):
    """A built store's rows as a stable sort of each member's whole distance row gives them."""
    feats, rows = idx.member_features(), idx._rows()
    with np.errstate(invalid="ignore"):
        dist = _distances(feats[:, None, :], feats[None, :, :])
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, : min(idx.k, rows.size - 1)]
    return rows.take(order), np.take_along_axis(dist, order, axis=1)


class TestNonFiniteDistances:
    @pytest.mark.parametrize("mode", ["distance", "density"])
    @pytest.mark.parametrize("finite_first", [True, False])
    def test_rows_with_nan_distances_equal_a_stable_sort(self, mode, finite_first):
        # coincident (inf, 0) members are NaN apart and inf from the finite
        # one, so most rows have fewer than k numeric entries
        points = [(1.0, 2.0)] + [(math.inf, 0.0)] * 7
        if not finite_first:
            points = points[1:] + points[:1]
        with repair_every_removal(), np.errstate(invalid="ignore"):
            idx = NeighborIndex(3, mode=mode)
            for ident, p in enumerate(points):
                idx.insert(ident, p)
            for victim in (None, 3, 0):
                if victim is not None:
                    idx.remove(victim)
                got = idx.member_scores()
                assert idx._built
                assert np.array_equal(got, idx.recompute_member_scores(), equal_nan=True)
                nbr, nbrd = stable_sort_rows(idx)
                rows = idx._rows()
                assert np.array_equal(idx._nbr[rows, : nbr.shape[1]], nbr)
                assert np.array_equal(idx._nbrd[rows, : nbr.shape[1]], nbrd, equal_nan=True)

    @pytest.mark.parametrize("small", [True, False])
    @pytest.mark.parametrize("query, n_inf", [((math.nan, 0.0), 0), ((math.inf, 0.0), 16),
                                              ((math.inf, 0.0), 3)])
    def test_density_query_with_nan_distances_equals_lof_query(self, small, query, n_inf):
        # a NaN query is NaN from every member; an (inf, 0) query is NaN
        # from the (inf, 0) members, so with 16 of 20 fewer than k = 5
        # distances are numbers, and with 3 of 20 the NaNs sort past the k-th
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.integers(0, 4, size=(20 - n_inf, 2)) / 2]
        points += [(math.inf, 0.0)] * n_inf
        with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(all="ignore"):
            if not small:
                monkeypatch.setattr(NeighborIndex, "_MATRIX_SLOTS", 0)
            idx = NeighborIndex(5, mode="density")
            for ident, p in enumerate(points):
                idx.insert(ident, p)
            assert idx._small() == small
            got, want = idx.score(query), lof_query(query, idx.member_features(), 5)
        assert got == want or (math.isnan(got) and math.isnan(want))


# a coarse 2-D grid: duplicate members, and ties at every neighbour rank
COARSE_POINT = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (p[0] / 4, p[1] / 4))
SMALL_GROUPS = st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(COARSE_POINT, min_size=k + 1, max_size=NeighborIndex._MATRIX_SLOTS),
    st.lists(COARSE_POINT, min_size=1, max_size=3),
))


class TestSmallGroupWithoutRows:
    @given(group=SMALL_GROUPS, mode=st.sampled_from(["distance", "density"]),
           drop=st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_row_free_reads_equal_built_rows_and_batch(self, group, mode, drop):
        # idx, a small store, reads its group without rows; the twin, its
        # matrix limit at 0, is a large store that builds and repairs them;
        # both then see every drop-th member removed and the queries inserted
        k, points, queries = group
        idx, twin = NeighborIndex(k, mode=mode), NeighborIndex(k, mode=mode)
        twin._MATRIX_SLOTS = 0
        for index in (idx, twin):
            for ident, p in enumerate(points):
                index.insert(ident, p)
        for step in range(2):
            feats = idx.member_features()
            got = idx.member_scores()
            assert np.array_equal(got, twin.member_scores(), equal_nan=True)
            assert np.array_equal(got, idx.recompute_member_scores(), equal_nan=True)
            for q in queries:
                if len(feats) > k:
                    want = lof_query(q, feats, k) if mode == "density" else knn_query(q, feats, k)
                    assert idx.score(q) == twin.score(q) == want
            assert not idx._built and twin._built
            if step == 0:
                for index in (idx, twin):
                    for ident in range(0, len(points), drop):
                        index.remove(ident)
                    for j, q in enumerate(queries):
                        index.insert(1000 + j, q)


def assert_matrix_exact(idx):
    """Every pair of alive slots holds the kernel distance; a slot meets itself at inf."""
    if idx._D is None:
        return
    rows = idx._rows()
    feats = idx._X[rows]
    want = _distances(feats[:, None, :], feats[None, :, :])
    np.fill_diagonal(want, np.inf)
    assert np.array_equal(idx._D[np.ix_(rows, rows)], want)


def check_matrix_churn(k, mode, ops):
    # idx scores each newcomer before inserting it, as a detector step does,
    # and some removals fall between that score and the insert; the twin
    # keeps no matrix and never scores first, so it computes every distance
    idx, twin = NeighborIndex(k, mode=mode), NeighborIndex(k, mode=mode)
    alive, next_id = [], 1000
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(twin, "_MATRIX_SLOTS", 0)
        for is_insert, a, b, pick in ops:
            x = np.array((a / 2, b / 2))
            if is_insert or not alive:
                with contextlib.suppress(DegenerateGroupError):
                    idx.score(x)
                if alive and pick % 3 == 0:
                    victim = alive.pop(pick % len(alive))
                    idx.remove(victim)
                    twin.remove(victim)
                idx.insert(next_id, x)
                twin.insert(next_id, x)
                alive.append(next_id)
                next_id -= 1
            else:
                victim = alive.pop(pick % len(alive))
                idx.remove(victim)
                twin.remove(victim)
            assert_matrix_exact(idx)
            if pick % 2:
                assert_same_state(idx, twin, (b / 2, pick % 4 / 2))
            else:
                assert np.array_equal(idx.member_scores(), twin.member_scores(), equal_nan=True)
        assert twin._D is None
        assert_same_state(idx, twin, (0.5, 1.0))


def filled_pair(mode, m=20):
    # two identical groups, read once so that the matrix exists
    feats = np.random.default_rng(16).normal(size=(m, 2)).round(1)
    pair = NeighborIndex(3, mode=mode), NeighborIndex(3, mode=mode)
    for idx in pair:
        for ident, feature in enumerate(feats):
            idx.insert(ident, feature)
        idx.member_scores()
    return pair


class TestNeighborIndexMatrix:
    @given(**INDEX_ARGS, ops=GRID_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matrix_and_reused_distances_equal_a_fresh_index(self, k, mode, ops):
        check_matrix_churn(k, mode, ops)

    @given(**INDEX_ARGS, ops=GRID_OPS)
    @settings(max_examples=100, deadline=None)
    def test_matrix_and_reuse_repairing_every_removal(self, k, mode, ops):
        with repair_every_removal():
            check_matrix_churn(k, mode, ops)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_matrix_dropped_past_its_slot_limit(self, mode):
        # the insert that claims the 65th slot drops the matrix; the next
        # read builds rows, which every later change repairs and none drops,
        # down to k members and below and back up. Rounded features make ties.
        idx = NeighborIndex(3, mode=mode)
        rng = np.random.default_rng(17)
        for ident in range(NeighborIndex._MATRIX_SLOTS):
            idx.insert(ident, rng.normal(size=2).round(1))
        idx.member_scores()
        assert idx._D.shape == (64, 64) and not idx._built
        idx.insert(99, rng.normal(size=2).round(1))
        assert idx._D is None

        def check():
            got = idx.member_scores()
            assert idx._built and idx._D is None
            if len(idx) > idx.k:
                assert np.array_equal(got, idx.recompute_member_scores())
            else:
                assert np.isnan(got).all()

        check()
        for ident in [99, *range(63)]:
            idx.remove(ident)
            check()
        assert len(idx) == 1
        for ident in range(100, 110):
            idx.insert(ident, rng.normal(size=2).round(1))
            check()

    def test_matrix_sized_to_the_highest_slot(self):
        idx = NeighborIndex(3)
        for ident in range(10):
            idx.insert(ident, (ident, 0.0))
        idx.member_scores()
        assert idx._D.shape == (16, 16)
        for ident in range(10, 17):
            idx.insert(ident, (ident, 0.0))
        assert idx._D.shape == (32, 32)
        assert_matrix_exact(idx)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_score_then_insert_computes_no_distance(self, mode, monkeypatch):
        import refstream.nonconformity as nc

        idx, _ = filled_pair(mode)
        x = np.array([0.3, -0.2])
        idx.score(x)
        idx.remove(4)
        calls = []
        kernel = nc._distances
        monkeypatch.setattr(nc, "_distances", lambda *a: calls.append(1) or kernel(*a))
        idx.insert(99, x)
        assert calls == []
        assert_matrix_exact(idx)

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_reuse_keyed_on_the_bytes(self, mode):
        # the buffer scored is changed in place before it is inserted, as a
        # reused feature window would be
        idx, fresh = filled_pair(mode)
        buf = np.array([0.3, -0.2])
        idx.score(buf)
        buf[:] = (1.5, 0.7)
        idx.insert(99, buf)
        fresh.insert(99, np.array([1.5, 0.7]))
        assert_matrix_exact(idx)
        assert_same_state(idx, fresh, (0.1, 0.1))

    @pytest.mark.parametrize("mode", ["distance", "density"])
    def test_no_reuse_after_an_arrival(self, mode):
        idx, fresh = filled_pair(mode)
        x = np.array([0.3, -0.2])
        idx.score(x)
        for group in (idx, fresh):
            group.insert(98, (0.4, -0.1))
            group.insert(99, x)
        assert_matrix_exact(idx)
        assert_same_state(idx, fresh, (0.1, 0.1))


# --- clustering ----------------------------------------------------------------


class TestLloydKmeans:
    @given(
        base=st.lists(st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 2),
                      min_size=1, max_size=12),
        picks=st.lists(st.integers(0, 11), min_size=1, max_size=80),
        n_clusters=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_per_cluster_loop(self, base, picks, n_clusters, seed):
        # repeated picks of a few points make duplicates and tied distances
        feats = np.array([base[i % len(base)] for i in picks])
        rng = np.random.default_rng(seed)
        centroids, assign, sums, counts = lloyd_kmeans(feats, n_clusters, rng)
        want = loop_lloyd_kmeans(feats, n_clusters, np.random.default_rng(seed))
        assert np.array_equal(centroids, want[0])
        assert np.array_equal(assign, want[1])
        # the sums and counts of the final assignment, summed in arrival order
        want_sums = np.zeros_like(centroids)
        np.add.at(want_sums, assign, feats)
        assert np.array_equal(sums, want_sums)
        assert np.array_equal(counts, np.bincount(assign, minlength=len(centroids)))

    def test_emptied_cluster_keeps_its_centroid(self):
        # distinct seeds each hold a member after the first sweep, so only a
        # constructed case reaches a later sweep that empties a cluster
        feats = np.array([[3, 0], [4, 5], [5, 5], [0, 4], [3, 2]], dtype=float)
        got = lloyd_kmeans(feats, 3, np.random.default_rng(176))
        want = loop_lloyd_kmeans(feats, 3, np.random.default_rng(176))
        assert np.bincount(want[1], minlength=3).min() == 0
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# a coarse grid with both zeros makes duplicate centroids, tied distances
# and signed-zero differences
COARSE = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
# duplicate-heavy tables of one to three columns on that grid
COARSE_ROWS = st.integers(1, 3).flatmap(lambda w: st.lists(
    st.lists(COARSE, min_size=w, max_size=w), min_size=1, max_size=40))


class TestDistinctRows:
    @given(rows=COARSE_ROWS)
    @settings(max_examples=300)
    def test_rows_and_order_of_np_unique(self, rows):
        feats = np.array(rows)
        got, want = _distinct_rows(feats), np.unique(feats, axis=0)
        # under ==, as np.unique keeps either sign of a zero
        assert got.shape == want.shape
        assert (got == want).all()

    @given(rows=COARSE_ROWS)
    @settings(max_examples=200)
    def test_keeps_the_first_arrival_of_each_row(self, rows):
        feats = np.array(rows)
        for row in _distinct_rows(feats):
            first = feats[(feats == row).all(axis=1)][0]
            assert row.tobytes() == first.tobytes()

    @given(rows=COARSE_ROWS, n_clusters=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rng_state_after_kmeans_equals_the_np_unique_oracle(self, rows, n_clusters, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lloyd_kmeans(np.array(rows), n_clusters, rng)
        loop_lloyd_kmeans(np.array(rows), n_clusters, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(points=st.lists(st.tuples(COARSE, COARSE), min_size=1, max_size=50),
           n_clusters=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sign_of_a_seeded_zero_reaches_no_record(self, points, n_clusters, seed):
        # the same stream with every zero of every seed table negated: the
        # scores, member scores, bound and baseline keep their bits
        def flipped(feats):
            rows = _distinct_rows(feats)
            return rows * np.where(rows == 0.0, -1.0, 1.0)

        def run():
            model = ClusterModel(n_clusters, 0.05, np.random.default_rng(seed))
            out = []
            for ident, p in enumerate(points):
                if ident >= 8:
                    out.append(model.score(p))
                    model.remove(ident - 8)
                model.insert(ident, p)
                out += [model.member_scores().tobytes(), model._bound, model._baseline,
                        model.recompute_count]
            return [struct.pack("<d", v) if isinstance(v, float) else v for v in out]

        want = run()
        with mock.patch.object(nonconformity, "_distinct_rows", flipped):
            assert run() == want


class TestClusterScore:
    def test_single_centroid(self):
        assert _nearest([(0.0, 0.0)], (3.0, 4.0)) == (0, pytest.approx(5.0))

    def test_at_centroid(self):
        assert _nearest([(1.0, 1.0), (9.0, 9.0)], (1.0, 1.0)) == (0, 0.0)

    def test_nearest_wins(self):
        assert _nearest([(0.0, 0.0), (10.0, 0.0)], (6.0, 0.0)) == (1, pytest.approx(4.0))

    def test_empty_model_rejected(self):
        with pytest.raises(DegenerateGroupError):
            ClusterModel(2, 0.25, np.random.default_rng(0)).score((0.0, 0.0))

    @given(st.integers(1, 3).flatmap(lambda w: st.tuples(
        st.lists(st.lists(COARSE, min_size=w, max_size=w), min_size=1, max_size=8),
        st.lists(COARSE, min_size=w, max_size=w))))
    @settings(max_examples=300)
    def test_bitwise_numpy_min_and_argmin(self, case):
        centroids, x = np.array(case[0]), np.array(case[1])
        want = _distances(centroids, x)
        got = _nearest(centroids.tolist(), x.tolist())
        assert np.float64(got[1]).tobytes() == want.min().tobytes()
        assert got == (want.argmin(), want.min())

    def test_first_nan_distance_wins_as_in_numpy(self):
        # inf - inf makes a NaN distance; numpy's min and argmin stop at the
        # first one, and an all-inf table gives index 0
        x = np.array([math.inf, 0.0])
        for rows in ([[1.0, 0.0], [math.inf, 0.0], [math.nan, 0.0]],
                     [[math.nan, 0.0], [1.0, 0.0]], [[2.0, 2.0], [math.inf, 1.0]],
                     [[1.0, 0.0], [2.0, 0.0]]):
            centroids = np.array(rows)
            with np.errstate(invalid="ignore"):
                want = _distances(centroids, x)
            got = _nearest(centroids.tolist(), x.tolist())
            assert got[0] == want.argmin()
            assert np.float64(got[1]).tobytes() == want.min().tobytes()


class TestClusterModel:
    def test_add_at_centroid_never_triggers(self):
        model = ClusterModel(2, 0.25, np.random.default_rng(0))
        model.insert(1, (0.0, 0.0))
        model.insert(2, (10.0, 0.0))
        model.insert(3, (0.1, 0.0))
        before = model.recompute_count
        model.insert(4, (0.0, 0.0))
        assert model.recompute_count == before

    def test_distribution_shift_triggers(self):
        model = ClusterModel(2, 0.25, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        ident = 1
        for _ in range(60):
            model.insert(ident, rng.normal(size=2) * 0.5)
            ident += 1
        settled = model.recompute_count
        for _ in range(30):
            model.insert(ident, rng.normal(size=2) * 0.5 + 20.0)
            ident += 1
        assert model.recompute_count > settled

    def test_recompute_matches_seeded_batch_kmeans(self):
        import copy

        model = ClusterModel(3, 0.25, np.random.default_rng(42))
        rng = np.random.default_rng(3)
        for i in range(1, 41):
            model.insert(i, rng.normal(size=2) + (i % 3) * 8)
        feats = model.member_features()
        rng_copy = copy.deepcopy(model.rng)
        model.recluster()
        want = lloyd_kmeans(feats, 3, rng_copy)[0]
        np.testing.assert_allclose(model.centroids, want, atol=1e-12)

    def test_counts_mirror_membership(self):
        model = ClusterModel(2, 0.25, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        alive = {}
        for i in range(1, 60):
            model.insert(i, rng.normal(size=2))
            alive[i] = True
            if i % 3 == 0:
                victim = next(iter(alive))
                model.remove(victim)
                del alive[victim]
            assert sum(model._counts) == len(alive)

    @given(st.lists(st.tuples(COARSE, COARSE),
                    min_size=4, max_size=30))
    @settings(max_examples=200)
    def test_insert_joins_numpy_argmin(self, pts):
        # drift checks are switched off, so no recluster rewrites the choice
        model = ClusterModel(3, 0.25, np.random.default_rng(8))
        model._check_drift = lambda: None
        for i, p in enumerate(pts):
            x = np.array(p)
            want = _distances(model.centroids, x).argmin() if len(model.centroids) == 3 else i
            model.insert(i, x)
            assert model._assign[model._slot_of[i]] == want

    def test_repeated_id_rejected(self):
        model = ClusterModel(2, 0.25, np.random.default_rng(7))
        model.insert(1, (0.0, 0.0))
        model.insert(2, (1.0, 0.0))
        with pytest.raises(DegenerateGroupError, match="entry 1 already in"):
            model.insert(1, (5.0, 5.0))
        assert len(model) == 2
        assert sum(model._counts) == 2
        assert len(model.member_scores()) == 2

    def test_member_scores_are_centroid_distances(self):
        model = ClusterModel(2, 0.25, np.random.default_rng(6))
        pts = [(0.0, 0.0), (10.0, 0.0), (1.0, 0.0), (9.0, 0.0)]
        for i, p in enumerate(pts, start=1):
            model.insert(i, p)
        scores = model.member_scores()
        want = [min(math.dist(p, c) for c in model.centroids) for p in pts]
        np.testing.assert_allclose(scores, want, atol=1e-12)


# duplicate rows, ties between centroids and signed zeros
CLUSTER_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                          st.floats(-1e3, 1e3, allow_subnormal=False))


class TestClusterMemberScores:
    @given(points=st.lists(st.tuples(CLUSTER_VALUE, CLUSTER_VALUE), min_size=1, max_size=60),
           n_clusters=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_transposed_kernel_is_bitwise_the_member_major_one(self, points, n_clusters, seed):
        model = ClusterModel(n_clusters, 0.25, np.random.default_rng(seed))
        for ident, p in enumerate(points):
            model.insert(ident, p)
        feats = model.member_features()
        want = _distances(feats[:, None, :], model.centroids).min(axis=1)
        assert model.member_scores().tobytes() == want.tobytes()


def summed_distance(model):
    """Σ‖x − c(a)‖ over the members, each distance and the sum correctly rounded."""
    return math.fsum(math.dist(model._X[slot], model.centroids[model._assign[slot]])
                     for slot in model._rows())


CLUSTER_OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 99)),
    max_size=80,
)


class TestClusterDriftBound:
    @given(ops=CLUSTER_OPS, n_clusters=st.integers(1, 4),
           factor=st.sampled_from([0.05, 0.25, 1.0]), drift=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_skipped_checks_change_nothing(self, ops, n_clusters, factor, drift, seed):
        # features on a half-unit grid, drifting along the first axis, so
        # duplicates, ties, emptied clusters and reclusters all occur
        model = ClusterModel(n_clusters, factor, np.random.default_rng(seed))
        exact = ClusterModel(n_clusters, factor, np.random.default_rng(seed))
        alive, arrivals = [], 0
        for is_insert, a, b, pick in ops:
            exact._bound = math.inf  # proves nothing, so the twin checks exactly
            if is_insert or not alive:
                feature = (a / 2 + drift * arrivals, b / 2)
                for group in (model, exact):
                    group.insert(arrivals, feature)
                alive.append(arrivals)
                arrivals += 1
            else:
                victim = alive.pop(pick % len(alive))
                for group in (model, exact):
                    group.remove(victim)
            assert model._bound >= summed_distance(model)
            assert np.array_equal(model.centroids, exact.centroids)
            assert np.array_equal(model._assign[model._rows()], exact._assign[exact._rows()])
            assert model._baseline == exact._baseline
            assert model.recompute_count == exact.recompute_count
            assert np.array_equal(model.member_scores(), exact.member_scores())

    def test_stationary_stream_skips_most_exact_checks(self, monkeypatch):
        model = ClusterModel(5, 0.25, np.random.default_rng(0))
        calls = []
        mean_distance = model._mean_distance
        monkeypatch.setattr(model, "_mean_distance", lambda: calls.append(1) or mean_distance())
        rng = np.random.default_rng(1)
        checks = 0
        for ident in range(400):  # a sliding window of 30 over N(0, 1) points
            if ident >= 30:
                model.remove(ident - 30)
                checks += 1
            model.insert(ident, rng.normal(size=2))
            checks += len(model) >= model.n_clusters
        assert model._baseline > 0
        assert len(calls) * 4 < checks

    def test_bound_follows_the_update_rule(self):
        # a factor this large keeps every check below from being exact; the
        # removed member's distance, which may be rounded up, is discounted
        # by the margin rather than subtracted whole
        model = ClusterModel(2, 1e6, np.random.default_rng(9))
        for ident, p in enumerate([(0.0, 0.0), (4.0, 0.0), (1.0, 0.0), (5.0, 1.0)]):
            model.insert(ident, p)
        assert model.recompute_count == 1
        up, down = 1.0 + ClusterModel._SLACK, 1.0 - ClusterModel._SLACK
        steps = [("insert", 4, (0.5, 0.25)), ("remove", 2, None), ("insert", 5, (4.25, 3.0)),
                 ("remove", 1, None), ("remove", 4, None), ("remove", 0, None)]
        for op, ident, feature in steps:
            before, counts, bound = model.centroids.copy(), model._counts.copy(), model._bound
            if op == "insert":
                model.insert(ident, feature)
                c = model._assign[model._slot_of[ident]]
                shift = math.dist(model.centroids[c], before[c])
                want = bound + (math.dist(feature, model.centroids[c]) + counts[c] * shift) * up
            else:
                slot = model._slot_of[ident]
                c, x = model._assign[slot], model._X[slot].copy()
                model.remove(ident)
                shift = math.dist(model.centroids[c], before[c])
                want = bound + model._counts[c] * shift * up - math.dist(x, before[c]) * down
            assert model._bound == pytest.approx(want, rel=1e-14, abs=0)
        assert model.recompute_count == 1
        assert model._bound >= summed_distance(model)


def assert_same_cluster_state(model, twin):
    bits = struct.Struct("<d").pack
    assert model.centroids.tobytes() == twin.centroids.tobytes()
    assert model.centroids.shape == twin.centroids.shape
    assert np.array(model._sums, dtype=float).tobytes() == twin._sums.tobytes()
    assert model._counts == twin._counts.tolist()
    assert np.array_equal(model._assign[model._rows()], twin._assign[twin._rows()])
    assert bits(model._bound) == bits(twin._bound)
    assert (model._baseline is None) == (twin._baseline is None)
    if model._baseline is not None:
        assert bits(model._baseline) == bits(twin._baseline)
    assert model.recompute_count == twin.recompute_count


def run_cluster_twins(ops, n_clusters, factor, seed):
    """Apply (op, a, b, pick) steps to a model and its array twin, comparing after each.

    Returns whether some cluster was left empty along the way.
    """
    model = ClusterModel(n_clusters, factor, np.random.default_rng(seed))
    twin = ArrayClusterModel(n_clusters, factor, np.random.default_rng(seed))
    alive, arrivals, emptied = [], 0, False
    for op, a, b, pick in ops:
        feature = (a / 2, b / 2)
        if op == "score" and len(model.centroids):
            bits = struct.Struct("<d").pack
            assert bits(model.score(feature)) == bits(twin.score(feature))
        elif op == "remove" and alive:
            victim = alive.pop(pick % len(alive))
            model.remove(victim)
            twin.remove(victim)
        else:
            model.insert(arrivals, feature)
            twin.insert(arrivals, feature)
            alive.append(arrivals)
            arrivals += 1
        assert_same_cluster_state(model, twin)
        emptied |= 0 in model._counts
    return emptied


class TestClusterModelArrayTwin:
    @given(ops=st.lists(st.tuples(st.sampled_from(["insert", "remove", "score"]),
                                  COARSE, COARSE, st.integers(0, 99)), max_size=80),
           n_clusters=st.integers(1, 4), factor=st.sampled_from([0.05, 0.25, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_list_state_is_bitwise_the_array_state(self, ops, n_clusters, factor, seed):
        run_cluster_twins(ops, n_clusters, factor, seed)

    def test_emptied_cluster_and_first_clusters(self):
        # three members open three clusters at a zero baseline, so the next
        # insert reclusters; a removal then empties a cluster, a score meets
        # its kept centroid, and an insert joins it again from zero members
        ops = [("insert", 0, 0, 0), ("insert", 8, 0, 0), ("insert", 0, 8, 0),
               ("score", 1, 1, 0), ("insert", 1, 0, 0), ("remove", 0, 0, 1),
               ("score", 7, 0, 0), ("remove", 0, 0, 0), ("score", 0, 7, 0),
               ("insert", 16, 16, 0), ("score", 16, 15, 0)]
        assert run_cluster_twins(ops, 3, 1e6, 5)


class TestFeatureWidth:
    @pytest.mark.parametrize("store", ["unbuilt index", "built index", "cluster model"])
    def test_other_width_rejected_without_change(self, store):
        group = (ClusterModel(2, 0.25, np.random.default_rng(8)) if store == "cluster model"
                 else NeighborIndex(2, mode="density"))
        for i, p in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 3.0)], start=1):
            group.insert(i, p)
        if store == "built index":
            group.member_scores()
        before, rows = group.member_features(), group._rows()
        with pytest.raises(ValueError, match="has 1 columns"):
            group.insert(5, np.array([5.0]))
        assert np.array_equal(group.member_features(), before)
        assert np.array_equal(group._rows(), rows)
        group.insert(5, (5.0, 5.0))
        assert np.array_equal(group.member_scores(), group.recompute_member_scores())


# --- frequency -------------------------------------------------------------------


def frequency_measure(words):
    measure = FrequencyMeasure()
    for ident, w in enumerate(words):
        measure.insert(ident, w)
    return measure


class TestFrequency:
    def test_unseen_word_scores_group_size(self):
        measure = frequency_measure(["ab"] * 6 + ["cd"] * 4)
        assert measure.score("zz") == pytest.approx(10.0)

    def test_seen_word(self):
        measure = frequency_measure(["ab"] * 4 + ["cd"] * 6)
        assert measure.score("ab") == pytest.approx(2.0)

    def test_uniform_group_floor(self):
        measure = frequency_measure(["aa"] * 8)
        assert measure.score("aa") == pytest.approx(8 / 9)
        assert measure.score("aa") < 1.0

    def test_strictly_decreasing_in_frequency(self):
        measure = frequency_measure(["a", "b", "b", "c", "c", "c"])
        assert measure.score("a") > measure.score("b") > measure.score("c")

    def test_empty_table_rejected(self):
        with pytest.raises(DegenerateGroupError):
            FrequencyMeasure().score("ab")

    def test_measure_rejects_repeated_id(self):
        measure = FrequencyMeasure()
        measure.insert(1, "ab")
        with pytest.raises(DegenerateGroupError, match="entry 1 already in"):
            measure.insert(1, "cd")
        assert len(measure) == 1
        assert measure.counts == {"ab": 1}

    def test_measure_tracks_recomputation(self):
        measure = FrequencyMeasure()
        rng = np.random.default_rng(7)
        words = ["aa", "ab", "ba", "bb"]
        alive = []
        for i in range(1, 200):
            if alive and rng.random() < 0.4:
                victim = alive.pop(int(rng.integers(len(alive))))
                measure.remove(victim)
            else:
                measure.insert(i, words[int(rng.integers(len(words)))])
                alive.append(i)
            if len(alive) >= 2:
                np.testing.assert_array_equal(
                    measure.member_scores(), measure.recompute_member_scores()
                )
