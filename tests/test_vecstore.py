from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched.errors import EmptyCorrelationError
from edgesched.marl import correlation_features
from edgesched.seeding import substream
from edgesched.vecstore import (
    _cluster_means,
    CorrelationEntry,
    CorrelationSet,
    IvfIndex,
    RecordKind,
    VectorRecord,
    VectorStore,
    best_hit,
    clamp_negative,
    filter_best,
)
from edgesched.workload import random_unit


def make_store(dim=16, nlist=1, seed=0, **kw):
    return VectorStore(dim=dim, nlist=nlist, seed=seed, server=0, **kw)


def fill(store, n, seed=1, value=-1.0):
    rng = np.random.default_rng(seed)
    rids = []
    for _ in range(n):
        q = random_unit(rng, store.dim)
        a = random_unit(rng, store.dim)
        rid_q, rid_a = store.insert_qa(q, a, slot=0, initial_cache_value=value)
        rids.append((rid_q, rid_a))
    return rids


def test_record_kind_codes():
    assert int(RecordKind.QUESTION) == 1
    assert int(RecordKind.ANSWER) == 2


def test_clamp_negative():
    assert clamp_negative(-2.5) == -2.5
    assert clamp_negative(0.0) == -1e-6
    assert clamp_negative(3.0) == -1e-6


def test_similarity_from_distance():
    rec = VectorRecord(0, np.zeros(4), RecordKind.QUESTION, 0, -1.0, 0, 0)
    assert CorrelationEntry(rec, 0.0).similarity == 1.0
    assert CorrelationEntry(rec, 1.0).similarity == 0.5
    assert CorrelationEntry(rec, 3.0).similarity == 0.25


class TestInsertAndPairs:
    def test_insert_creates_linked_pair(self):
        store = make_store()
        q = np.zeros(16)
        q[0] = 1.0
        a = np.zeros(16)
        a[1] = 1.0
        rid_q, rid_a = store.insert_qa(q, a, slot=3, initial_cache_value=-0.5)
        rq = store.record(rid_q)
        ra = store.record(rid_a)
        assert rq.kind == RecordKind.QUESTION
        assert ra.kind == RecordKind.ANSWER
        assert rq.pair_id == ra.pair_id
        assert rq.cache_value == ra.cache_value == -0.5
        assert rq.freq == 0 and ra.freq == 0
        assert rq.inserted_at == 3
        # each half, hit by a query, finds its partner
        for vec, hit in ((q, rid_q), (a, rid_a)):
            corr = store.query(vec, 1)
            assert corr[0].record.rid == hit
            row, question, answer = store.hit_pair(corr, 0)
            assert row == hit
            assert question.tolist() == q.tolist() and answer.tolist() == a.tolist()

    def test_initial_value_clamped_negative(self):
        store = make_store()
        rid_q, _ = store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=0.7)
        assert store.record(rid_q).cache_value == -1e-6

    def test_len_counts_records(self):
        store = make_store()
        assert len(store) == 0
        fill(store, 5)
        assert len(store) == 10  # question + answer per insert


class TestQuery:
    def brute_force(self, store, qvec, k):
        # matrix-form norms, matching how the store scores candidates (the
        # per-row reduction is bitwise identical regardless of subset)
        recs = list(store.records())
        rids = np.array([r.rid for r in recs])
        mat = np.stack([r.vec for r in recs])
        dists = np.linalg.norm(mat - qvec[None, :], axis=1)
        order = np.lexsort((rids, dists))[:k]
        return [(int(rids[i]), float(dists[i])) for i in order]

    def test_exact_knn_matches_brute_force(self):
        store = make_store(dim=8)
        fill(store, 30, seed=2)
        rng = np.random.default_rng(3)
        stored = [r.vec for r in store.records()][::7]
        for qvec in [random_unit(rng, 8) for _ in range(20)] + stored:
            got = store.exact_knn(qvec, 7)
            want = self.brute_force(store, qvec, 7)
            assert [(e.record.rid, e.distance) for e in got] == want
        for qvec in stored:  # an inserted vector comes back exactly
            assert store.exact_knn(qvec, 7)[0].distance == 0.0

    def test_nlist_one_is_exact_scan(self):
        exact = make_store(dim=8, nlist=1, seed=4)
        fill(exact, 40, seed=5)
        rng = np.random.default_rng(6)
        stored = [r.vec for r in exact.records()][::9]
        for qvec in [random_unit(rng, 8) for _ in range(25)] + stored:
            via_index = exact.query(qvec, 6)
            via_scan = exact.exact_knn(qvec, 6)
            assert [(e.record.rid, e.distance) for e in via_index] == [
                (e.record.rid, e.distance) for e in via_scan
            ]
        for qvec in stored:  # an inserted vector comes back exactly
            assert exact.query(qvec, 6)[0].distance == 0.0

    def test_query_on_empty_store(self):
        store = make_store()
        assert len(store.query(np.ones(16), 5)) == 0

    def test_width_larger_than_store(self):
        store = make_store()
        fill(store, 2)
        assert len(store.query(random_unit(np.random.default_rng(0), 16), 10)) == 4

    def test_ties_break_by_rid(self):
        store = make_store(dim=16)
        v = np.eye(16)[0]
        w = np.eye(16)[1]
        store.insert_qa(v, w, slot=0, initial_cache_value=-1.0)  # rids 0, 1
        store.insert_qa(v, w, slot=0, initial_cache_value=-1.0)  # rids 2, 3: duplicate vectors
        got = store.query(v, 4)
        assert [e.record.rid for e in got] == [0, 2, 1, 3]

    def test_probes_enough_lists_for_min_candidates(self):
        # 20 tight clusters and min_candidates=10: a single inverted list
        # only holds ~8 records, so queries must widen their probe set.
        rng = np.random.default_rng(7)
        centers = [random_unit(rng, 16) for _ in range(20)]
        store = make_store(dim=16, nlist=20, min_candidates=10, seed=8)
        for c in centers:
            for _ in range(4):
                q = c + 0.01 * random_unit(rng, 16)
                a = c + 0.01 * random_unit(rng, 16)
                store.insert_qa(q / np.linalg.norm(q), a / np.linalg.norm(a), 0, -1.0)
        store.rebuild_index()
        for c in centers[:5]:
            got = store.query(c, 10)
            # 10 results despite an 8-record nearest list: >= 2 lists probed
            assert len(got) == 10
            dists = [e.distance for e in got]
            assert dists == sorted(dists)
            # the query's own cluster dominates the exact top-8
            want = self.brute_force(store, c, 8)
            got_pairs = [(e.record.rid, e.distance) for e in list(got)[:8]]
            assert got_pairs == want


class TestFilterBest:
    def entry(self, rid, dist, freq):
        rec = VectorRecord(rid, np.zeros(4), RecordKind.QUESTION, freq, -1.0, 0, rid)
        return CorrelationEntry(rec, dist)

    def test_picks_highest_combined_score(self):
        # similarity-dominant weights: closest wins despite lower freq
        corr = CorrelationSet([self.entry(0, 0.1, 0), self.entry(1, 0.9, 50)])
        best = filter_best(corr, value_weight=1.0, freq_weight=0.001)
        assert best.record.rid == 0
        # freq-dominant weights flip the choice
        best = filter_best(corr, value_weight=0.001, freq_weight=1.0)
        assert best.record.rid == 1

    def test_score_is_weighted_sum(self):
        # score = w_v * 1/(1+d) + w_f * freq; verify the argmax crossover
        a = self.entry(0, 1.0, 0)  # sim 0.5
        b = self.entry(1, 3.0, 2)  # sim 0.25, freq 2
        # w_v=1, w_f=0.1: a -> 0.5, b -> 0.45: a wins
        assert filter_best(CorrelationSet([a, b]), 1.0, 0.1).record.rid == 0
        # w_v=1, w_f=0.2: a -> 0.5, b -> 0.65: b wins
        assert filter_best(CorrelationSet([a, b]), 1.0, 0.2).record.rid == 1

    def test_first_max_wins_on_ties(self):
        corr = CorrelationSet([self.entry(5, 0.5, 1), self.entry(2, 0.5, 1)])
        assert filter_best(corr, 1.0, 0.1).record.rid == 5

    def test_empty_raises(self):
        with pytest.raises(EmptyCorrelationError):
            filter_best(CorrelationSet([]), 1.0, 0.1)

    def test_matrix_layout_and_padding(self):
        corr = CorrelationSet([self.entry(0, 1.0, 3)])
        m = correlation_features(corr, 4).reshape(3, 4)
        assert m[0, 0] == 0.5  # similarity
        assert m[1, 0] == float(RecordKind.QUESTION)
        assert m[2, 0] == np.log1p(3.0)  # use count
        assert np.all(m[:, 1:] == 0.0)


class TestCacheValue:
    def test_update_recurrence_hand_values(self):
        store = make_store()
        rid_q, _ = store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-1.0)
        rec = store.record(rid_q)
        store.update_cache_value(rec, q=-0.2, d=0.8)
        # (-1.0 + (-0.2 - 0.8)) / 2 = -1.0
        assert rec.cache_value == pytest.approx(-1.0, abs=1e-15)
        assert rec.freq == 1
        store.update_cache_value(rec, q=-0.1, d=0.5)
        # (-1.0 + (-0.6)) / 2 = -0.8
        assert rec.cache_value == pytest.approx(-0.8, abs=1e-15)
        assert rec.freq == 2

    def test_update_converges_to_closed_form(self):
        # c_t = (q - d) + (c_0 - (q - d)) * 2^-t  for constant q, d
        store = make_store()
        rid_q, _ = store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-3.0)
        rec = store.record(rid_q)
        q, d = -0.3, 0.7
        for t in range(1, 12):
            store.update_cache_value(rec, q=q, d=d)
            expected = (q - d) + (-3.0 - (q - d)) * 0.5**t
            assert rec.cache_value == pytest.approx(expected, abs=1e-12)

    def test_update_validates_inputs(self):
        store = make_store()
        rid_q, _ = store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-1.0)
        rec = store.record(rid_q)
        with pytest.raises(ValueError):
            store.update_cache_value(rec, q=0.2, d=0.5)
        with pytest.raises(ValueError):
            store.update_cache_value(rec, q=-0.2, d=-0.5)

    def test_update_rejects_foreign_record(self):
        store = make_store()
        other = make_store()
        rid_q, _ = other.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-1.0)
        with pytest.raises(KeyError):
            store.update_cache_value(other.record(rid_q), q=-0.1, d=0.5)

    def test_mean_cache_value(self):
        store = make_store()
        store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-1.0)
        store.insert_qa(np.eye(16)[2], np.eye(16)[3], slot=0, initial_cache_value=-3.0)
        assert store.mean_cache_value() == pytest.approx(-2.0, abs=1e-15)


class TestEviction:
    def test_drops_strictly_below_mean(self):
        store = make_store()
        values = [-1.0, -2.0, -3.0, -4.0]
        for i, v in enumerate(values):
            store.insert_qa(np.eye(16)[2 * i], np.eye(16)[2 * i + 1], slot=0, initial_cache_value=v)
        mean = store.mean_cache_value()
        assert mean == pytest.approx(-2.5)
        dropped = store.evict(slot=10)
        kept = [r.cache_value for r in store.records()]
        assert dropped == 4  # two pairs below the mean
        assert min(kept) >= mean
        assert store.eviction_log[-1] == (10, 4)

    def test_records_at_mean_survive(self):
        # np.mean of six -0.1s is -0.09999999999999999, above every value.
        for value in (-2.0, -0.1):
            store = make_store()
            for i in range(3):
                store.insert_qa(np.eye(16)[2 * i], np.eye(16)[2 * i + 1], slot=0, initial_cache_value=value)
            assert store.evict(slot=1) == 0
            assert len(store) == 6

    def test_empty_store_noop(self):
        store = make_store()
        assert store.evict(slot=0) == 0

    def test_random_stores_match_brute_force(self):
        # smaller-scale version of the acceptance sweep
        for trial in range(60):
            rng = np.random.default_rng(1000 + trial)
            store = make_store(dim=8, seed=trial)
            n = int(rng.integers(1, 25))
            for _ in range(n):
                store.insert_qa(
                    random_unit(rng, 8),
                    random_unit(rng, 8),
                    slot=0,
                    initial_cache_value=float(-rng.uniform(0.1, 5.0)),
                )
            pre = {r.rid: r.cache_value for r in store.records()}
            mean = store.mean_cache_value()
            expect_drop = {rid for rid, v in pre.items() if v < mean}
            store.evict(slot=1)
            post = {r.rid for r in store.records()}
            assert post == set(pre) - expect_drop
            if post:
                assert store.mean_cache_value() >= mean or np.isclose(
                    store.mean_cache_value(), mean
                )

    def test_pairs_index_survives_eviction(self):
        store = make_store()
        store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-5.0)
        keep_q, keep_a = store.insert_qa(np.eye(16)[2], np.eye(16)[3], slot=0, initial_cache_value=-1.0)
        store.evict(slot=1)
        corr = store.query(np.eye(16)[2], 1)
        assert corr[0].record.rid == keep_q
        row, question, answer = store.hit_pair(corr, 0)
        assert [r.rid for r in store.records()] == [keep_q, keep_a]
        assert row == 0  # the surviving pair moved to the front
        assert question.tolist() == np.eye(16)[2].tolist()
        assert answer.tolist() == np.eye(16)[3].tolist()
        assert len(store) == 2

    def test_queries_exclude_evicted(self):
        store = make_store()
        drop_q, _ = store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-5.0)
        store.insert_qa(np.eye(16)[2], np.eye(16)[3], slot=0, initial_cache_value=-1.0)
        store.evict(slot=1)
        rids = {e.record.rid for e in store.query(np.eye(16)[0], 10)}
        assert drop_q not in rids


class TestRebuild:
    def test_incremental_adds_between_rebuilds(self):
        store = make_store(dim=8, nlist=4, rebuild_every=1000, seed=3)
        fill(store, 30, seed=4)
        rng = np.random.default_rng(5)
        # entries added since the last rebuild must still be findable
        probe = random_unit(rng, 8)
        rid_q, _ = store.insert_qa(probe, random_unit(rng, 8), slot=0, initial_cache_value=-1.0)
        got = store.query(probe, 1)
        assert got[0].record.rid == rid_q

    def test_rebuild_threshold_triggers(self):
        store = make_store(dim=8, nlist=2, rebuild_every=10, seed=6)
        builds_before = store.index_builds
        fill(store, 11, seed=7)  # 22 records: enough for >= 2 rebuilds
        assert store.index_builds > builds_before + 1

    def test_deterministic_given_same_ops(self):
        results = []
        for _ in range(2):
            store = make_store(dim=8, nlist=4, seed=9)
            fill(store, 25, seed=10)
            qvec = random_unit(np.random.default_rng(11), 8)
            results.append([(e.record.rid, e.distance) for e in store.query(qvec, 5)])
        assert results[0] == results[1]


# -- properties over random operation sequences ------------------------------
#
# A plain dict model (rid -> fields) replays the same inserts, cache hits and
# eviction sweeps as the store.  Vectors come from a coarse integer grid so
# that duplicate vectors and exact distance ties are common.

_DIM = 4
_GRID_VECS = st.lists(st.integers(-2, 2), min_size=_DIM, max_size=_DIM).map(
    lambda xs: np.array(xs, dtype=float)
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _GRID_VECS, _GRID_VECS, st.floats(-5.0, 0.5)),
        st.tuples(
            st.just("hit"),
            st.integers(0, 10**6),
            st.floats(-3.0, -0.01),
            st.floats(0.05, 4.0),
        ),
        st.tuples(st.just("evict")),
    ),
    min_size=1,
    max_size=40,
)
_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _fields(rec):
    return [rec.vec.tolist(), rec.kind, rec.freq, rec.cache_value, rec.inserted_at, rec.pair_id]


def _check_pairs(store, model):
    """Every live row, hit by a query, finds its own and its partner's vector
    as the model pairs them, or None for an evicted partner.  Every row is
    checked, so each pairing is checked from both halves."""
    if not len(store):
        return
    rows = {rec.rid: row for row, rec in enumerate(store.records())}
    corr = store.exact_knn(np.zeros(store.dim), len(store))  # every row
    for i, e in enumerate(corr):
        rec = e.record
        row, question, answer = store.hit_pair(corr, i)
        assert row == rows[rec.rid]
        own, partner = (question, answer) if rec.kind == RecordKind.QUESTION else (answer, question)
        assert own.tolist() == model[rec.rid][0]
        want = [
            rid
            for rid, m in model.items()
            if m[5] == rec.pair_id and m[1] != rec.kind
        ]
        if not want:
            assert partner is None
        else:
            # the partner's row is adjacent; its own hit pairs back to this one
            assert partner.tolist() == model[want[0]][0]
            assert abs(rows[want[0]] - row) == 1


def _replay(store, ops, on_evict=None):
    """Apply ``ops`` to ``store`` and to a dict model; returns the model,
    rid -> [vec as a list, kind, freq, cache_value, inserted_at, pair_id]."""
    model: dict[int, list] = {}
    next_pair = 0
    for step, op in enumerate(ops):
        if op[0] == "insert":
            _, qv, av, value = op
            rq, ra = store.insert_qa(qv, av, slot=step, initial_cache_value=value)
            v = clamp_negative(value)
            model[rq] = [qv.tolist(), RecordKind.QUESTION, 0, v, step, next_pair]
            model[ra] = [av.tolist(), RecordKind.ANSWER, 0, v, step, next_pair]
            next_pair += 1
        elif op[0] == "hit" and model:
            _, pick, q, d = op
            rid = sorted(model)[pick % len(model)]
            m = model[rid]
            got = store.update_cache_value(store.record(rid), q, d)
            m[3] = (m[3] + (q - d)) / 2.0
            m[2] += 1
            assert got == m[3]
        elif op[0] == "evict":
            pre = {r.rid: r.cache_value for r in store.records()}
            mean = store.mean_cache_value() if pre else None
            dropped = store.evict(slot=step)
            if on_evict is not None:
                on_evict(pre, mean, dropped)
            for rid in [rid for rid, v in pre.items() if v < mean]:
                del model[rid]
        assert {r.rid: _fields(r) for r in store.records()} == model
    return model


class TestStoreProperties:
    @_PROPERTY_SETTINGS
    @given(ops=_OPS, nlist=st.integers(1, 4), rebuild_every=st.integers(1, 12))
    def test_store_matches_a_dict_model(self, ops, nlist, rebuild_every):
        store = make_store(dim=_DIM, nlist=nlist, rebuild_every=rebuild_every, seed=3)
        model = _replay(store, ops)
        assert len(store) == len(model)
        _check_pairs(store, model)

    @_PROPERTY_SETTINGS
    @given(ops=_OPS)
    def test_eviction_drops_exactly_the_records_below_the_mean(self, ops):
        def on_evict(pre, mean, dropped):
            below = {rid for rid, v in pre.items() if v < mean}
            if pre:
                assert mean == pytest.approx(float(np.mean(list(pre.values()))))
            assert dropped == len(below)
            assert {r.rid for r in store.records()} == set(pre) - below

        store = make_store(dim=_DIM, nlist=2, rebuild_every=5, seed=4)
        _replay(store, ops + [("evict",)], on_evict)

    @_PROPERTY_SETTINGS
    @given(ops=_OPS, nlist=st.integers(1, 4), query=_GRID_VECS, width=st.integers(1, 8))
    def test_query_returns_a_sorted_subset_of_live_records(self, ops, nlist, query, width):
        store = make_store(dim=_DIM, nlist=nlist, min_candidates=3, rebuild_every=7, seed=5)
        model = _replay(store, ops)
        got = store.query(query, width)
        assert len(got) == min(width, len(model))
        keys = [(e.distance, e.record.rid) for e in got]
        assert keys == sorted(keys)
        assert len({e.record.rid for e in got}) == len(got)
        for e in got:
            assert e.record.rid in model
            assert _fields(e.record) == _fields(store.record(e.record.rid))
            # grid vectors: squared distances are small integers, so exact
            want = np.linalg.norm(np.array(model[e.record.rid][0]) - query)
            assert e.distance == float(want)

    @_PROPERTY_SETTINGS
    @given(ops=_OPS, query=_GRID_VECS, width=st.integers(1, 8))
    def test_single_list_equals_exact_scan(self, ops, query, width):
        store = make_store(dim=_DIM, nlist=1, rebuild_every=3, seed=6)
        _replay(store, ops)
        via_index = [(e.record.rid, e.distance) for e in store.query(query, width)]
        via_scan = [(e.record.rid, e.distance) for e in store.exact_knn(query, width)]
        assert via_index == via_scan


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    k=st.integers(1, 40),
    dim=st.sampled_from([2, 4, 16, 64]),
    grid=st.booleans(),
)
def test_cluster_means_match_member_means_bitwise(seed, n, k, dim, grid):
    rng = np.random.default_rng(seed)
    vecs = (
        rng.integers(-2, 3, size=(n, dim)).astype(float)
        if grid
        else rng.normal(size=(n, dim))
    )
    assign = rng.integers(0, k, size=n)
    centroids = rng.normal(size=(k, dim))
    want = centroids.copy()
    for j in range(k):
        members = vecs[assign == j]
        if members.shape[0]:
            want[j] = members.mean(axis=0)
    assert np.array_equal(_cluster_means(vecs, assign, centroids), want)


# -- guarded rankings ---------------------------------------------------------
#
# The index ranks its lists, and the exact scan its rows, by one
# matrix-vector product behind a rounding guard.  Each property compares
# against the computation the store made before the guard: the exact stable
# walk over all centroids, and scoring every row.


def reference_walk(centroids, lists, query, target):
    d2 = ((centroids - query[None, :]) ** 2).sum(axis=1)
    probed, count = [], 0
    for li in np.argsort(d2, kind="stable").tolist():
        probed.append(li)
        count += len(lists[li])
        if count >= target:
            break
    return probed


def _hits(corr):
    return [
        (
            e.record.rid,
            e.distance.hex(),  # NaN distances compare equal, bit for bit

            e.record.vec.tolist(),
            e.record.kind,
            e.record.freq,
            e.record.cache_value,
            e.record.inserted_at,
            e.record.pair_id,
        )
        for e in corr
    ]


def _check_probe(index, query, target):
    got = [int(li) for li in index.probe_order(query, target)]
    want = reference_walk(index.centroids, index.lists, query, target)
    if sum(map(len, index.lists)) >= target:
        assert got == want
    else:  # every list is probed, in whatever order
        assert sorted(got) == sorted(want) == list(range(len(index.lists)))
    return got


@st.composite
def _indexes(draw):
    k = draw(st.integers(1, 12))
    dim = draw(st.sampled_from([1, 2, 3, 8]))
    if draw(st.booleans()):  # a coarse grid: duplicated centroids and exact ties
        cells = st.integers(-2, 2)
        rows = st.lists(cells, min_size=dim, max_size=dim)
        centroids = np.array(draw(st.lists(rows, min_size=k, max_size=k)), dtype=float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-160, 1e-3, 1.0, 1e3]))
        centroids = rng.normal(size=(k, dim)) * scale
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        for i, j in draw(st.lists(pairs, max_size=3)):  # duplicated centroids
            centroids[i] = centroids[j]
    sizes = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    lists = [list(range(size)) for size in sizes]
    return IvfIndex(centroids, lists)


@st.composite
def _probe_queries(draw, index):
    centroids = index.centroids
    k, dim = centroids.shape
    kind = draw(st.sampled_from(["centroid", "midpoint", "grid", "normal"]))
    if kind == "centroid":
        return centroids[draw(st.integers(0, k - 1))].copy()
    if kind == "midpoint":  # equidistant from two centroids
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        return (centroids[i] + centroids[j]) / 2.0
    if kind == "grid":
        cells = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        return np.array(draw(cells), dtype=float)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=dim)


class TestGuardedProbe:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_probe_set_is_the_exact_stable_walk(self, data):
        index = data.draw(_indexes())
        query = data.draw(_probe_queries(index))
        total = sum(map(len, index.lists))
        target = data.draw(st.integers(1, total + 3))  # up to past the store size
        _check_probe(index, query, target)

    def test_duplicated_nearest_centroid_forces_the_exact_walk(self):
        rng = np.random.default_rng(0)
        centroids = rng.normal(size=(6, 8))
        centroids = np.vstack([centroids, centroids[2]])  # list 6 duplicates list 2
        index = IvfIndex(centroids, [[i] for i in range(7)])
        assert index._ranked_probe(centroids[2], 2) is None
        assert _check_probe(index, centroids[2], 2) == [2, 6]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_take_the_exact_walk(self, bad):
        rng = np.random.default_rng(1)
        index = IvfIndex(rng.normal(size=(5, 4)), [[i] for i in range(5)])
        query = rng.normal(size=4)
        query[1] = bad
        assert index._ranked_probe(query, 2) is None
        _check_probe(index, query, 2)

    def test_separated_centroids_take_the_ranked_walk(self):
        rng = np.random.default_rng(2)
        index = IvfIndex(rng.normal(size=(128, 16)), [[i, i] for i in range(128)])
        for query in rng.normal(size=(50, 16)):
            assert index._ranked_probe(query, 10) is not None
            _check_probe(index, query, 10)

    def test_store_queries_probe_the_exact_walk(self):
        store = make_store(dim=16, nlist=32, seed=9)
        fill(store, 400, seed=10)
        store.rebuild_index()
        rng = np.random.default_rng(11)
        for query in rng.normal(size=(30, 16)):
            lists = _check_probe(store._index, query, store.min_candidates)
            rows = np.array([row for li in lists for row in store._index.lists[li]])
            assert _hits(store.query(query, 5)) == _hits(store._score(rows, query, 5))


def _full_scan(store, query, width):
    return store._score(np.arange(len(store)), query, width)


def _check_exact(store, query, width):
    got = store.exact_knn(query, width)
    want = _full_scan(store, query, width)
    assert _hits(got) == _hits(want)
    n = len(store)
    vecs = store._vec[:n]
    assert np.array_equal(store._sq[:n], [v.dot(v) for v in vecs])


class TestGuardedExactScan:
    @_PROPERTY_SETTINGS
    @given(ops=_OPS, query=_GRID_VECS, width=st.integers(1, 8))
    def test_grid_stores_match_the_full_scan(self, ops, query, width):
        # grid vectors: duplicate rows and exact distance ties are common
        store = make_store(dim=_DIM, nlist=1, rebuild_every=3, seed=6)
        _replay(store, ops)
        _check_exact(store, query, width)
        assert _hits(store.query(query, width)) == _hits(_full_scan(store, query, width))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        dups=st.integers(0, 30),
        scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e3]),
        width=st.integers(1, 12),
        near=st.booleans(),
    )
    def test_float_stores_match_the_full_scan(self, seed, n, dups, scale, width, near):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(2 * n, 8)) * scale
        for i in rng.integers(0, 2 * n, size=dups):
            vecs[i] = vecs[rng.integers(0, 2 * n)]
        store = make_store(dim=8, nlist=1)
        for q, a in zip(vecs[0::2], vecs[1::2]):
            store.insert_qa(q, a, slot=0, initial_cache_value=-1.0)
        if near:  # a query at a stored vector: exact zero-distance ties
            query = vecs[rng.integers(0, 2 * n)].copy()
        else:
            query = rng.normal(size=8) * scale
        _check_exact(store, query, width)

    def test_norms_follow_growth_and_eviction(self):
        store = make_store(dim=8, nlist=1)
        fill(store, 40, seed=12)  # 80 rows: the arrays double past 16, 32 and 64
        for rid in range(0, 80, 3):
            store.update_cache_value(store.record(rid), -0.01, 0.01)
        assert store.evict(slot=1) > 0
        query = random_unit(np.random.default_rng(13), 8)
        for width in (1, 5, len(store), len(store) + 3):
            _check_exact(store, query, width)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_score_every_row(self, bad):
        store = make_store(dim=8, nlist=1)
        fill(store, 10, seed=14)
        query = np.ones(8)
        query[3] = bad
        _check_exact(store, query, 3)


class TestLazyColumns:
    """A set's hits are columns of arrays, and records are copied out of
    them only on demand; entry-built sets give the same columns."""

    def test_entries_and_query_results_agree(self):
        store = make_store(dim=8, nlist=4)
        fill(store, 30, seed=15)
        rng = np.random.default_rng(16)
        for width in (1, 3, 7):
            queried = store.query(random_unit(rng, 8), width)
            rebuilt = CorrelationSet(list(queried))
            want_fields = ("row", *[f.name for f in fields(VectorRecord)], "distance")
            assert queried.hits._fields == rebuilt.hits._fields == want_fields
            for name in queried.hits._fields:
                want = np.full(width, -1) if name == "row" else getattr(queried.hits, name)
                assert np.array_equal(getattr(rebuilt.hits, name), want), name
            for w in (1, width, width + 2):
                want = correlation_features(queried, w)
                assert np.array_equal(correlation_features(rebuilt, w), want)
            nearest = queried[0].distance
            assert queried.nearest_distance() == rebuilt.nearest_distance() == nearest

    def test_a_fresh_result_reports_its_nearest_without_building_records(self, monkeypatch):
        store = make_store(dim=8)
        fill(store, 5, seed=17)
        got = store.query(random_unit(np.random.default_rng(18), 8), 3)
        built = _count_inits(monkeypatch, VectorRecord, CorrelationEntry)
        nearest = got.nearest_distance()
        assert best_hit(got, 1.0, 0.1) in range(3)
        assert sum(built.values()) == 0
        assert nearest == got[0].distance == got.hits.distance[0]
        assert built == {"VectorRecord": 1, "CorrelationEntry": 1}

    def test_empty_sets(self):
        for empty in (CorrelationSet([]), make_store().query(np.ones(16), 2)):
            assert empty.nearest_distance() is None
            assert np.array_equal(correlation_features(empty, 2), np.zeros(6))


def _record_features(corr, width):
    """``correlation_features`` rebuilt from record copies."""
    out = np.zeros((3, width))
    for i, e in enumerate(list(corr)[:width]):
        out[:, i] = e.similarity, e.record.kind, np.log1p(e.record.freq)
    return out.ravel()


_ENTRY_SETS = st.lists(
    st.tuples(st.floats(0.0, 4.0), st.sampled_from(list(RecordKind)), st.integers(0, 10**6)),
    max_size=8,
).map(
    lambda hits: CorrelationSet([
        CorrelationEntry(VectorRecord(i, np.zeros(_DIM), kind, freq, -1.0, 0, i // 2), d)
        for i, (d, kind, freq) in enumerate(hits)
    ])
)
_WEIGHTS = st.floats(-2.0, 2.0)


class TestHitReaders:
    """The features and the filter read a set's hit arrays as its record
    copies would give them, bit for bit."""

    def check(self, corr, width, vw, fw):
        assert np.array_equal(correlation_features(corr, width), _record_features(corr, width))
        if not len(corr):
            with pytest.raises(EmptyCorrelationError):
                best_hit(corr, vw, fw)
            return
        scores = [vw * e.similarity + fw * e.record.freq for e in corr]
        assert best_hit(corr, vw, fw) == scores.index(max(scores))

    @_PROPERTY_SETTINGS
    @given(
        ops=_OPS,
        nlist=st.integers(1, 2),
        query=_GRID_VECS,
        k=st.integers(1, 8),
        width=st.integers(1, 10),
        vw=_WEIGHTS,
        fw=_WEIGHTS,
    )
    def test_query_results(self, ops, nlist, query, k, width, vw, fw):
        store = make_store(dim=_DIM, nlist=nlist, rebuild_every=3, seed=4)
        _replay(store, ops)
        self.check(store.query(query, k), width, vw, fw)

    @_PROPERTY_SETTINGS
    @given(corr=_ENTRY_SETS, width=st.integers(1, 10), vw=_WEIGHTS, fw=_WEIGHTS)
    def test_entry_sets(self, corr, width, vw, fw):
        self.check(corr, width, vw, fw)


def _count_inits(monkeypatch, *classes):
    """Count constructions of each class from here on, by class name."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestHitPair:
    def two_pairs(self, **kw):
        store = make_store(**kw)
        store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-5.0)
        store.insert_qa(np.eye(16)[2], np.eye(16)[3], slot=0, initial_cache_value=-1.0)
        return store

    def test_each_half_finds_its_partner(self):
        store = self.two_pairs()
        corr = store.exact_knn(np.eye(16)[3], 4)
        assert corr.hits.row.tolist() == [3, 0, 1, 2]
        for i, row in enumerate(corr.hits.row.tolist()):
            got_row, question, answer = store.hit_pair(corr, i)
            assert got_row == row
            first = row - row % 2  # the pair's question row
            assert question.tolist() == np.eye(16)[first].tolist()
            assert answer.tolist() == np.eye(16)[first + 1].tolist()

    def test_an_evicted_half_is_none(self):
        for kind, vec in ((RecordKind.ANSWER, 0), (RecordKind.QUESTION, 1)):
            store = make_store()
            store.insert_qa(np.eye(16)[0], np.eye(16)[1], slot=0, initial_cache_value=-1.0)
            (rec,) = [r for r in store.records() if r.kind == kind]
            store.update_cache_value(rec, -10.0, 1.0)
            store.evict(slot=1)
            corr = store.query(np.eye(16)[vec], 1)
            row, question, answer = store.hit_pair(corr, 0)
            assert row == 0
            if kind == RecordKind.ANSWER:
                assert answer is None and question.tolist() == np.eye(16)[0].tolist()
            else:
                assert question is None and answer.tolist() == np.eye(16)[1].tolist()

    def test_a_hand_built_set_names_no_row(self):
        store = self.two_pairs()
        rebuilt = CorrelationSet(list(store.query(np.eye(16)[2], 2)))
        assert rebuilt.hits.row.tolist() == [-1, -1]
        with pytest.raises(KeyError):
            store.hit_pair(rebuilt, 0)

    def test_another_stores_result_is_rejected_even_where_rows_agree(self):
        store, twin = self.two_pairs(), self.two_pairs()
        corr = twin.query(np.eye(16)[2], 1)  # same row, rid and vectors as in store
        assert store.records()[2].rid == corr[0].record.rid
        with pytest.raises(KeyError):
            store.hit_pair(corr, 0)

    def test_a_row_moved_by_eviction_is_rejected(self):
        store = self.two_pairs()
        corr = store.query(np.eye(16)[2], 2)  # rows 2 and 3
        stale = store.query(np.eye(16)[0], 1)  # row 0, evicted below
        store.evict(slot=1)
        assert len(store) == 2
        for c, i in ((corr, 0), (corr, 1), (stale, 0)):
            with pytest.raises(KeyError):
                store.hit_pair(c, i)
        fresh = store.query(np.eye(16)[2], 1)
        assert store.hit_pair(fresh, 0)[0] == 0

    def test_refresh_writes_the_row(self):
        store = self.two_pairs()
        assert store.refresh(2, -0.2, 0.8) == -1.0
        assert store.refresh(2, -0.1, 0.5) == pytest.approx(-0.8, abs=1e-15)
        rec = store.records()[2]
        assert rec.freq == 2 and rec.cache_value == pytest.approx(-0.8, abs=1e-15)
        assert [r.freq for r in store.records()] == [0, 0, 2, 0]
        with pytest.raises(ValueError):
            store.refresh(2, 0.2, 0.5)
        with pytest.raises(ValueError):
            store.refresh(2, -0.2, 0.0)


class TestOneListStore:
    def test_keeps_no_index(self, monkeypatch):
        built = _count_inits(monkeypatch, IvfIndex)
        calls = []
        monkeypatch.setattr(IvfIndex, "add", lambda *a: calls.append(a))
        store = make_store(dim=8, nlist=1, rebuild_every=3)
        rng = np.random.default_rng(21)
        for slot in range(40):
            store.insert_qa(random_unit(rng, 8), random_unit(rng, 8), slot, -rng.uniform(0.1, 3))
            if slot % 10 == 9:
                assert store.evict(slot) > 0
        assert store.rebuild_index() is None
        assert store.index_builds == 0 and store._index is None
        assert built == {"IvfIndex": 0} and calls == []
        for query in rng.normal(size=(10, 8)):
            assert _hits(store.query(query, 5)) == _hits(_full_scan(store, query, 5))

    def test_a_two_list_store_still_builds(self):
        store = make_store(dim=8, nlist=2, rebuild_every=3)
        fill(store, 4, seed=22)
        assert store.index_builds > 0 and store._index is not None
