import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched import run_experiment
from edgesched.errors import ConfigError
from edgesched.seeding import DOMAIN_DELAY, substream
from edgesched.simenv import (
    DIRECT_CLOUD,
    USE_CACHE,
    ActionChoice,
    AnswerModel,
    DelayModel,
    EdgeEnv,
    Transition,
    qos_cost,
    reward,
    satisfaction,
)
from edgesched.vecstore import (
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
from edgesched.workload import Request, random_unit
from golden.make_goldens import RUNS

E = np.eye(16)

CACHE = ActionChoice(USE_CACHE)
CLOUD = ActionChoice(DIRECT_CLOUD)


def sphere_point(dist):
    """Unit vector at the requested chord distance from E[0], in span(E0, E1)."""
    theta = 2.0 * np.arcsin(dist / 2.0)
    return np.cos(theta) * E[0] + np.sin(theta) * E[1]


def make_env(n_servers=1, seed=0, jitter=0.0, **kw):
    stores = [
        VectorStore(dim=16, nlist=1, seed=seed, server=i) for i in range(n_servers)
    ]
    return EdgeEnv(stores, delay_model=DelayModel(jitter_sigma=jitter), seed=seed, **kw)


def make_request(rid, question, reference, server=0, slot=0):
    return Request(
        id=rid,
        user=0,
        server=server,
        slot=slot,
        question_vec=question,
        reference_vec=reference,
    )


class TestFormulas:
    def test_satisfaction_is_negative_distance(self):
        assert satisfaction(E[0], E[1]) == pytest.approx(-np.sqrt(2.0), abs=1e-15)
        assert satisfaction(np.zeros(16), 3.0 * E[0]) == -3.0

    def test_satisfaction_clamps_perfect_match(self):
        assert satisfaction(E[0], E[0]) == -1e-9

    def test_satisfaction_shape_mismatch(self):
        with pytest.raises(ConfigError):
            satisfaction(np.zeros(3), np.zeros(4))

    def test_qos_cost_hand_values(self):
        # cost = -w1*q + w2*d with q = -0.15, d = 3.34, w = 0.1
        assert qos_cost(-0.15, 3.34, 1.0, 0.1) == pytest.approx(0.484, abs=1e-12)

    def test_reward_is_scaled_negated_cost(self):
        q, d = -0.37, 2.2
        c = qos_cost(q, d, 1.0, 0.1)
        assert reward(q, d, 1.0, 0.1, scale=10.0) == pytest.approx(-10.0 * c, abs=1e-15)

    def test_reward_hand_value(self):
        assert reward(-0.15, 3.34, 1.0, 0.1) == pytest.approx(-4.84, abs=1e-12)

    def test_reward_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            reward(-0.1, 1.0, 0.0, 0.1)
        with pytest.raises(ConfigError):
            reward(-0.1, 1.0, 1.0, -0.2)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_reward_scale_must_be_positive(self, scale):
        # A zero scale flattens every reward and a negative one inverts it.
        with pytest.raises(ConfigError, match="reward_scale must be strictly positive"):
            reward(-0.1, 1.0, 1.0, 0.1, scale)
        with pytest.raises(ConfigError, match="reward_scale must be strictly positive"):
            make_env(reward_scale=scale)


class TestModels:
    def test_delay_model_no_jitter_is_exact(self):
        m = DelayModel(jitter_sigma=0.0)
        rng = np.random.default_rng(0)
        assert m.sample_edge(rng) == 0.81
        assert m.sample_cloud(rng) == 3.34

    def test_delay_jitter_is_multiplicative(self):
        m = DelayModel(jitter_sigma=0.2)
        rng = np.random.default_rng(1)
        draws = np.array([m.sample_cloud(rng) for _ in range(4000)])
        assert np.all(draws > 0)
        # lognormal(0, s) has median 1, so the median delay is the base
        assert abs(np.median(draws) - 3.34) < 0.05

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            DelayModel(edge_delay=0.0)
        with pytest.raises(ConfigError):
            DelayModel(jitter_sigma=-0.1)
        with pytest.raises(ConfigError):
            AnswerModel(sigma_llm=-0.1)
        with pytest.raises(ConfigError):
            AnswerModel(relevance_radius=0.0)


class TestEnvSettings:
    def test_needs_a_store(self):
        with pytest.raises(ConfigError, match="at least one store"):
            EdgeEnv([])

    def test_reward_applies_the_env_weights_and_scale(self):
        env = make_env(quality_weight=2.0, delay_weight=0.3, reward_scale=4.0)
        assert env.reward(-0.2, 1.5) == reward(-0.2, 1.5, 2.0, 0.3, 4.0)
        t = env.step(make_request(0, E[0], E[2]), CLOUD)
        assert t.r == env.reward(t.q, t.d)

    @pytest.mark.parametrize("server", [-1, 2, 3])
    @pytest.mark.parametrize("via", ["request", "argument"])
    def test_step_rejects_a_server_out_of_range(self, server, via):
        env = make_env(n_servers=2)
        env.step(make_request(0, E[0], E[2]), CLOUD)
        before = [len(store) for store in env.stores]
        if via == "request":
            req, kw = make_request(1, E[0], E[2], server=server), {}
        else:
            req, kw = make_request(1, E[0], E[2]), {"server": server}
        with pytest.raises(ConfigError, match=f"server {server} out of range for 2 stores"):
            env.step(req, CACHE, **kw)
        assert [len(store) for store in env.stores] == before
        assert env.action_counts == {"A": 0, "B": 1, "C": 0}


class TestActionChoice:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ActionChoice(2)


class TestRouting:
    """Primes one store with a direct-cloud exchange, then routes against it."""

    def primed(self):
        env = make_env()
        r0 = make_request(0, E[0], E[2], slot=0)
        env.begin_slot(0)
        t0 = env.step(r0, CLOUD)
        return env, t0

    def test_direct_cloud_outcome(self):
        env, t0 = self.primed()
        assert t0.resolved == "B"
        assert t0.action == DIRECT_CLOUD
        assert t0.d == 3.34
        assert t0.q == pytest.approx(-0.15, abs=1e-12)
        assert t0.r == pytest.approx(-4.84, abs=1e-12)
        assert len(env.stores[0]) == 2  # question + answer cached

    def test_cached_pair_seeded_with_payoff(self):
        env, t0 = self.primed()
        for rec in env.stores[0].records():
            assert rec.cache_value == pytest.approx(t0.q - t0.d, abs=1e-12)
            assert rec.freq == 0

    def test_near_repeat_serves_from_cache(self):
        env, t0 = self.primed()
        r1 = make_request(1, sphere_point(0.05), E[2], slot=1)
        t1 = env.step(r1, CACHE)
        assert t1.resolved == "A"
        assert t1.d == 0.81
        # the served answer is the stored one, sigma_llm from the reference
        assert t1.q == pytest.approx(-0.15, abs=1e-12)
        assert t1.r == pytest.approx(-2.31, abs=1e-12)
        assert len(env.stores[0]) == 2  # serving adds nothing

    def test_cache_hit_updates_value_and_freq(self):
        env, t0 = self.primed()
        r1 = make_request(1, E[0], E[2], slot=1)
        t1 = env.step(r1, CACHE)
        assert t1.resolved == "A"
        hit = [r for r in env.stores[0].records() if r.freq == 1]
        assert len(hit) == 1
        expected = ((t0.q - t0.d) + (t1.q - t1.d)) / 2.0
        assert hit[0].cache_value == pytest.approx(expected, abs=1e-12)

    def test_moderate_distance_enhances(self):
        env, _ = self.primed()
        r1 = make_request(1, sphere_point(0.3), E[2], slot=1)
        t1 = env.step(r1, CACHE)
        assert t1.resolved == "C"
        assert t1.d == pytest.approx(4.15, abs=1e-12)  # edge + cloud
        # retrieved entry within the relevance radius: enhanced quality
        assert t1.q == pytest.approx(-0.05, abs=1e-12)
        assert t1.r == pytest.approx(-4.65, abs=1e-12)
        assert len(env.stores[0]) == 4  # enhanced answers are cached too

    def test_enhance_updates_matched_record(self):
        env, t0 = self.primed()
        r1 = make_request(1, sphere_point(0.3), E[2], slot=1)
        t1 = env.step(r1, CACHE)
        hit = [r for r in env.stores[0].records() if r.freq == 1]
        assert len(hit) == 1
        expected = ((t0.q - t0.d) + (t1.q - t1.d)) / 2.0
        assert hit[0].cache_value == pytest.approx(expected, abs=1e-12)

    def test_far_retrieval_misleads(self):
        env, _ = self.primed()
        # nothing stored is within the relevance radius of this question
        r1 = make_request(1, E[5], E[6], slot=1)
        t1 = env.step(r1, CACHE)
        assert t1.resolved == "C"
        assert t1.q == pytest.approx(-0.25, abs=1e-12)  # sigma_llm + sigma_mislead
        assert t1.r == pytest.approx(-6.65, abs=1e-12)

    def primed_pair(self, question, answer):
        """A store holding one pair whose halves are ``question`` and ``answer``."""
        env = make_env()
        store = env.stores[0]
        store.insert_qa(question, answer, 0, -1.0)
        return env, store

    def evict_half(self, env, store, kind):
        """Sink the ``kind`` half's cache value below the pair mean and sweep."""
        (rec,) = [r for r in store.records() if r.kind == kind]
        store.update_cache_value(rec, -10.0, 1.0)
        env.evict_period = 1
        env.begin_slot(1)
        (survivor,) = store.records()
        assert survivor.kind != kind

    def test_answer_wins_with_near_partner_question_serves(self):
        answer = sphere_point(0.1)
        env, store = self.primed_pair(E[0], answer)
        t1 = env.step(make_request(1, answer, answer, slot=1), CACHE)
        assert t1.resolved == "A"
        assert t1.d == 0.81
        assert t1.q == -1e-9  # the stored answer itself was served
        (hit,) = [r for r in store.records() if r.freq == 1]
        assert hit.kind == RecordKind.ANSWER

    def test_answer_wins_with_far_partner_question_enhances(self):
        env, store = self.primed_pair(E[0], E[1])
        t1 = env.step(make_request(1, E[1], E[2], slot=1), CACHE)
        assert t1.resolved == "C"
        assert t1.q == pytest.approx(-0.05, abs=1e-12)  # relevant context
        (hit,) = [r for r in store.records() if r.freq == 1]
        assert hit.kind == RecordKind.ANSWER

    def test_question_wins_with_evicted_answer_enhances(self):
        env, store = self.primed_pair(E[0], E[1])
        self.evict_half(env, store, RecordKind.ANSWER)
        t1 = env.step(make_request(1, E[0], E[2], slot=1), CACHE)
        assert t1.resolved == "C"
        assert t1.q == pytest.approx(-0.05, abs=1e-12)

    def test_answer_wins_with_evicted_question_enhances(self):
        env, store = self.primed_pair(E[0], E[1])
        self.evict_half(env, store, RecordKind.QUESTION)
        t1 = env.step(make_request(1, E[1], E[2], slot=1), CACHE)
        assert t1.resolved == "C"
        assert t1.q == pytest.approx(-0.05, abs=1e-12)

    def test_cache_on_empty_store_falls_back_to_cloud(self):
        env = make_env()
        r0 = make_request(0, E[0], E[2])
        t0 = env.step(r0, CACHE)
        assert t0.resolved == "B"
        assert t0.fallback
        assert env.fallback_count == 1

    def test_action_counts_accumulate(self):
        env, _ = self.primed()
        env.step(make_request(1, E[0], E[2], slot=1), CACHE)
        env.step(make_request(2, sphere_point(0.3), E[2], slot=1), CACHE)
        assert env.action_counts == {"A": 1, "B": 1, "C": 1}


class TestEviction:
    def seeded_env(self, evict_period):
        env = make_env(evict_period=evict_period)
        store = env.stores[0]
        store.insert_qa(E[0], E[1], 0, -1.0)
        store.insert_qa(E[2], E[3], 0, -5.0)  # below the pair mean of -3
        return env, store

    def test_sweep_runs_on_period(self):
        env, store = self.seeded_env(evict_period=10)
        env.begin_slot(5)
        assert len(store) == 4
        env.begin_slot(10)
        assert len(store) == 2
        assert store.eviction_log == [(10, 2)]

    def test_sweep_runs_once_per_slot(self):
        env, store = self.seeded_env(evict_period=10)
        env.begin_slot(10)
        env.begin_slot(10)
        assert store.eviction_log == [(10, 2)]

    def test_zero_period_disables(self):
        env, store = self.seeded_env(evict_period=0)
        env.begin_slot(0)
        env.begin_slot(500)
        assert len(store) == 4
        assert store.eviction_log == []

    def test_sweep_precedes_queries(self):
        # protocol: begin_slot before correlations, so decisions never see
        # records the sweep is about to drop
        env, store = self.seeded_env(evict_period=10)
        env.begin_slot(10)
        corr = env.correlations(0, E[2])
        assert all(e.record.cache_value >= -3.0 for e in corr)


class TestBroadcast:
    def test_fastest_server_wins(self):
        env = make_env(n_servers=3)
        # prime server 1 so it can serve from cache
        prime = make_request(0, E[0], E[2], server=1)
        env.step(prime, CLOUD, server=1)
        req = make_request(1, E[0], E[2], slot=1)
        t, outcomes = env.broadcast_step(req, [CLOUD, CACHE, CLOUD])
        assert t.server == 1
        assert t.resolved == "A"
        assert t.d == 0.81
        assert len(outcomes) == 3
        assert [x.server for x in outcomes] == [0, 1, 2]
        assert t is outcomes[1]

    def test_all_servers_mutate_their_stores(self):
        env = make_env(n_servers=3)
        req = make_request(0, E[0], E[2])
        env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert [len(s) for s in env.stores] == [2, 2, 2]

    def test_delay_ties_break_by_server_index(self):
        env = make_env(n_servers=3)
        req = make_request(0, E[0], E[2])
        t, _ = env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert t.server == 0
        assert t.d == 3.34

    def test_wrong_action_count_rejected(self):
        env = make_env(n_servers=2)
        with pytest.raises(ConfigError):
            env.broadcast_step(make_request(0, E[0], E[2]), [CLOUD])

    def test_winner_is_min_delay(self):
        env = make_env(n_servers=3, jitter=0.3, seed=7)
        req = make_request(0, E[0], E[2])
        t, outcomes = env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert t.d == min(x.d for x in outcomes)


class TestDeterminism:
    def script(self, env):
        out = []
        env.begin_slot(0)
        out.append(env.step(make_request(0, E[0], E[2]), CLOUD))
        env.begin_slot(1)
        out.append(env.step(make_request(1, sphere_point(0.3), E[2], slot=1), CACHE))
        env.begin_slot(2)
        out.append(env.step(make_request(2, E[0], E[2], slot=2), CACHE))
        return [(t.resolved, t.q, t.d, t.r) for t in out]

    def test_same_seed_same_outcomes(self):
        a = self.script(make_env(seed=3, jitter=0.1))
        b = self.script(make_env(seed=3, jitter=0.1))
        assert a == b

    def test_different_seed_differs(self):
        a = self.script(make_env(seed=3, jitter=0.1))
        b = self.script(make_env(seed=4, jitter=0.1))
        assert a != b

    def test_noise_keyed_by_request_and_server(self):
        # a request served at server n draws the same noise whether it got
        # there by nearest-mode step or as one branch of a broadcast
        env_a = make_env(n_servers=3, seed=5, jitter=0.2)
        env_b = make_env(n_servers=3, seed=5, jitter=0.2)
        req = make_request(7, E[0], E[2])
        t_near = env_a.step(req, CLOUD)  # server 0, request.server default
        _, outcomes = env_b.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        b0 = outcomes[0]
        assert (t_near.q, t_near.d) == (b0.q, b0.d)
        # other servers draw different, but deterministic, noise
        assert outcomes[1].d != b0.d

    def test_ids_out_of_order_draw_as_a_fresh_env(self):
        # ids 300 and 5 lie in different blocks of the env's noise tables
        def serve(env, rid):
            t = env.step(make_request(rid, E[0], E[2], server=1), CLOUD)
            return t.q, t.d

        env = make_env(n_servers=2, seed=5, jitter=0.2)
        for rid in (300, 5, 300):
            assert serve(env, rid) == serve(make_env(n_servers=2, seed=5, jitter=0.2), rid)

    def test_enhanced_delays_are_one_streams_two_lognormals(self):
        env = make_env(seed=7, jitter=0.2)
        env.step(make_request(0, E[0], E[2]), CLOUD)
        t = env.step(make_request(1, sphere_point(0.3), E[2], slot=1), CACHE)
        assert t.resolved == "C"
        rng = substream(7, DOMAIN_DELAY, 1, 0)
        edge = env.delay_model.edge_delay * float(rng.lognormal(0.0, 0.2))
        assert t.d == edge + env.delay_model.cloud_delay * float(rng.lognormal(0.0, 0.2))


# -- the row path against the record path ------------------------------------
#
# ``RecordPathEnv.step`` serves a request the way EdgeEnv did when hits were
# handed out as records: ``filter_best`` picks the entry, a scan of
# ``records()`` finds its pair, and ``update_cache_value`` refreshes it by
# rid.  EdgeEnv itself works on the hit's store row.


class RecordPathEnv(EdgeEnv):
    def step(self, request, action, correlations=None, action_prob=1.0, server=None):
        # The noise and the Transition are built as in EdgeEnv.step.
        n = request.server if server is None else server
        store = self.stores[n]
        corr = correlations
        if corr is None:
            corr = store.query(request.question_vec, self.query_width)
        resolved, entry = "B", None
        fallback = action.a == USE_CACHE and not len(corr)
        if action.a == USE_CACHE and len(corr):
            entry = filter_best(corr, self.filter_value_weight, self.filter_freq_weight)
            rec = entry.record
            pair = {r.kind: r for r in store.records() if r.pair_id == rec.pair_id}
            question = pair.get(RecordKind.QUESTION)
            answer = pair.get(RecordKind.ANSWER)
            if rec.kind == RecordKind.QUESTION:
                qdist = entry.distance
            elif question is None:
                qdist = np.inf
            else:
                qdist = float(np.linalg.norm(request.question_vec - question.vec))
            resolved = "A" if qdist < self.tau_serve and answer is not None else "C"
        delay_rng = self._delay_streams(request.id, n)
        if resolved == "A":
            answer_vec = answer.vec.copy()
            d = self.delay_model.sample_edge(delay_rng)
        else:
            model = self.answer_model
            if resolved == "B":
                sigma = model.sigma_llm
                d = self.delay_model.sample_cloud(delay_rng)
            else:
                relevant = entry.distance < model.relevance_radius
                mislead = model.sigma_llm + model.sigma_mislead
                sigma = model.sigma_enhance if relevant else mislead
                d = self.delay_model.sample_edge(delay_rng)
                d += self.delay_model.sample_cloud(delay_rng)
            answer_rng = self._answer_streams(request.id, n)
            answer_vec = request.reference_vec + sigma * random_unit(answer_rng, store.dim)
        q = satisfaction(answer_vec, request.reference_vec)
        if resolved != "B":
            store.update_cache_value(entry.record, q, d)
        if resolved != "A":
            value = clamp_negative(q - d)
            store.insert_qa(request.question_vec, answer_vec, request.slot, value)
        self.fallback_count += fallback
        self.action_counts[resolved] += 1
        return Transition(
            slot=request.slot,
            server=n,
            user=request.user,
            request_id=request.id,
            action=action.a,
            resolved=resolved,
            action_prob=action_prob,
            q=q,
            d=d,
            r=self.reward(q, d),
            fallback=fallback,
            topic=request.topic,
        )


_SERVERS = 2
_DIM = 4
# Coarse grid vectors, mostly a tenth apart: duplicates, exact distance ties,
# and distances on both sides of tau_serve (0.15) and the relevance radius (0.5).
_VECS = st.tuples(
    st.lists(st.integers(-1, 1), min_size=_DIM, max_size=_DIM),
    st.sampled_from([0.1, 0.1, 0.3]),
).map(lambda grid: np.array(grid[0], dtype=float) * grid[1])
_ACTION = st.sampled_from([CACHE, CACHE, CLOUD])
_SERVER = st.integers(0, _SERVERS - 1)
_ENV_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _SERVER, _VECS, _VECS, st.floats(-3.0, 0.2)),
        st.tuples(st.just("step"), _SERVER, _VECS, _VECS, _ACTION, st.booleans()),
        st.tuples(
            st.just("broadcast"), _VECS, _VECS,
            st.lists(_ACTION, min_size=_SERVERS, max_size=_SERVERS),
        ),
        st.tuples(st.just("evict")),
        st.tuples(st.just("stale"), _SERVER, _VECS, _VECS, _VECS),
    ),
    min_size=1,
    max_size=30,
)


def _env_pair(nlist):
    """A row-path and a record-path env over equal, empty stores."""

    def env(cls):
        stores = [
            VectorStore(_DIM, nlist, min_candidates=3, rebuild_every=5, server=i)
            for i in range(_SERVERS)
        ]
        jitter = DelayModel(jitter_sigma=0.2)
        return cls(stores, delay_model=jitter, query_width=3, seed=1)

    return env(EdgeEnv), env(RecordPathEnv)


def _store_state(env):
    rows = [
        [
            (r.rid, r.vec.tolist(), r.kind, r.freq, r.cache_value, r.inserted_at, r.pair_id)
            for r in store.records()
        ]
        for store in env.stores
    ]
    return rows, dict(env.action_counts), env.fallback_count


def _moved(store, corr, weights):
    """Whether the hit ``filter_best`` picks no longer holds its row."""
    i = best_hit(corr, *weights)
    row, rid = int(corr.hits.row[i]), int(corr.hits.rid[i])
    return row >= len(store) or store.records()[row].rid != rid


class TestRowPathMatchesRecordPath:
    @settings(max_examples=80, deadline=None)
    @given(ops=_ENV_OPS, nlist=st.sampled_from([1, 2]))
    def test_same_stores_and_transitions(self, ops, nlist):
        envs = _env_pair(nlist)
        slot = 0
        for op in ops:
            slot += 1
            for env in envs:
                env.begin_slot(slot)  # evict_period 500: no sweep
            kind = op[0]
            if kind == "insert":
                _, n, qv, av, value = op
                for env in envs:
                    env.stores[n].insert_qa(qv, av, slot, value)
            elif kind == "step":
                _, n, qv, ref, action, pass_corr = op
                req = make_request(slot, qv, ref, server=n, slot=slot)
                got = [
                    env.step(req, action, env.correlations(n, qv) if pass_corr else None)
                    for env in envs
                ]
                assert got[0] == got[1]
            elif kind == "broadcast":
                _, qv, ref, actions = op
                req = make_request(slot, qv, ref, slot=slot)
                got = [
                    env.broadcast_step(
                        req, actions, [env.correlations(n, qv) for n in range(_SERVERS)]
                    )
                    for env in envs
                ]
                assert got[0] == got[1]  # the served transition and every outcome
            elif kind == "evict":
                for env in envs:
                    env.evict_period = 1
                    env.begin_slot(slot + 1)
                    env.evict_period = 500
                slot += 1
            else:  # a set taken before an eviction sweep
                _, n, qv, ref, sink = op
                corrs = [env.correlations(n, qv) for env in envs]
                for env in envs:  # sink one record, then sweep
                    store = env.stores[n]
                    if len(store):
                        hit = store.query(sink, 1)[0].record
                        store.update_cache_value(hit, -10.0, 1.0)
                    env.evict_period = 1
                    env.begin_slot(slot + 1)
                    env.evict_period = 500
                slot += 1
                req = make_request(slot, qv, ref, server=n, slot=slot)
                weights = (envs[0].filter_value_weight, envs[0].filter_freq_weight)
                if len(corrs[0]) and _moved(envs[0].stores[n], corrs[0], weights):
                    before = _store_state(envs[0])
                    with pytest.raises(KeyError):
                        envs[0].step(req, CACHE, corrs[0])
                    assert _store_state(envs[0]) == before
                else:
                    got = [env.step(req, CACHE, c) for env, c in zip(envs, corrs)]
                    assert got[0] == got[1]
            assert _store_state(envs[0]) == _store_state(envs[1])


class TestStepRejectsForeignHits:
    def primed(self, n_servers=1):
        env = make_env(n_servers=n_servers)
        for n in range(n_servers):
            env.step(make_request(n, E[0], E[2], server=n), CLOUD)
        return env

    def test_a_hand_built_set(self):
        env = self.primed()
        entries = list(env.correlations(0, E[0]))
        with pytest.raises(KeyError):
            env.step(make_request(9, E[0], E[2], slot=1), CACHE, CorrelationSet(entries))

    def test_a_set_from_another_servers_store(self):
        env = self.primed(n_servers=2)
        corr = env.correlations(1, E[0])  # same rows and rids as server 0's
        assert corr.hits.row.tolist() == env.correlations(0, E[0]).hits.row.tolist()
        with pytest.raises(KeyError):
            env.step(make_request(9, E[0], E[2], slot=1), CACHE, corr, server=0)
        assert env.action_counts == {"A": 0, "B": 2, "C": 0}

    def test_a_set_taken_before_a_sweep_moved_its_row(self):
        env = make_env(evict_period=10)
        store = env.stores[0]
        store.insert_qa(E[3], E[4], 0, -5.0)  # below the mean: swept
        store.insert_qa(E[0], E[1], 0, -1.0)
        corr = env.correlations(0, E[0])
        env.begin_slot(10)
        assert len(store) == 2
        with pytest.raises(KeyError):
            env.step(make_request(9, E[0], E[2], slot=10), CACHE, corr)
        assert [r.freq for r in store.records()] == [0, 0]
        t = env.step(make_request(9, E[0], E[2], slot=10), CACHE)
        assert t.resolved == "A"


def _profile_steps(monkeypatch):
    """The names of the C functions and methods called inside EdgeEnv.step,
    and the routes its calls resolved."""
    names, routes = set(), []

    def profile(frame, event, arg):
        if event == "c_call":
            names.add(arg.__name__)

    step = EdgeEnv.step

    def profiled(self, *args, **kw):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            transition = step(self, *args, **kw)
        finally:
            sys.setprofile(previous)
        routes.append(transition.resolved)
        return transition

    monkeypatch.setattr(EdgeEnv, "step", profiled)
    return names, routes


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestServingPath:
    def test_a_broadcast_greedy_llm_run_builds_no_record_and_searches_no_row(
        self, monkeypatch
    ):
        records = _count_calls(monkeypatch, VectorRecord, "__init__")
        entries = _count_calls(monkeypatch, CorrelationEntry, "__init__")
        names, routes = _profile_steps(monkeypatch)
        run_experiment(RUNS["mid-greedy-llm-broadcast"])
        assert min(routes.count("A"), routes.count("C")) > 500
        assert records == [] and entries == []
        assert "argmax" in names and "searchsorted" not in names

    def test_a_one_list_golden_run_builds_and_feeds_no_index(self, monkeypatch):
        cfg = RUNS["greedy-llm-broadcast"]
        assert cfg.nlist == 1
        inserts = _count_calls(monkeypatch, VectorStore, "insert_qa")
        adds = _count_calls(monkeypatch, IvfIndex, "add")
        builds = _count_calls(monkeypatch, IvfIndex, "__init__")
        run_experiment(cfg)
        assert len(inserts) > 10
        assert adds == [] and builds == []
