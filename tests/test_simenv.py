import numpy as np
import pytest

from edgesched.errors import ConfigError
from edgesched.seeding import DOMAIN_DELAY, substream
from edgesched.simenv import (
    DIRECT_CLOUD,
    USE_CACHE,
    ActionChoice,
    AnswerModel,
    DelayModel,
    EdgeEnv,
    qos_cost,
    reward,
    satisfaction,
)
from edgesched.vecstore import RecordKind, VectorStore
from edgesched.workload import Request

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
            DelayModel(edge_query=0.0)
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
        t = env.broadcast_step(req, [CLOUD, CACHE, CLOUD])
        assert t.server == 1
        assert t.resolved == "A"
        assert t.d == 0.81
        assert len(env.last_broadcast) == 3
        assert [x.server for x in env.last_broadcast] == [0, 1, 2]

    def test_all_servers_mutate_their_stores(self):
        env = make_env(n_servers=3)
        req = make_request(0, E[0], E[2])
        env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert [len(s) for s in env.stores] == [2, 2, 2]

    def test_delay_ties_break_by_server_index(self):
        env = make_env(n_servers=3)
        req = make_request(0, E[0], E[2])
        t = env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert t.server == 0
        assert t.d == 3.34

    def test_wrong_action_count_rejected(self):
        env = make_env(n_servers=2)
        with pytest.raises(ConfigError):
            env.broadcast_step(make_request(0, E[0], E[2]), [CLOUD])

    def test_winner_is_min_delay(self):
        env = make_env(n_servers=3, jitter=0.3, seed=7)
        req = make_request(0, E[0], E[2])
        t = env.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        assert t.d == min(x.d for x in env.last_broadcast)


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
        t_cast = env_b.broadcast_step(req, [CLOUD, CLOUD, CLOUD])
        b0 = env_b.last_broadcast[0]
        assert (t_near.q, t_near.d) == (b0.q, b0.d)
        # other servers draw different, but deterministic, noise
        assert env_b.last_broadcast[1].d != b0.d

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
        edge = env.delay_model.edge_query * float(rng.lognormal(0.0, 0.2))
        assert t.d == edge + env.delay_model.cloud_llm * float(rng.lognormal(0.0, 0.2))
