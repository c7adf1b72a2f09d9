"""Tests for the comparison schedulers and learned-variant presets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched import baselines
from edgesched.baselines import (
    ABLATIONS,
    LearnedPolicy,
    PayoffGreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from edgesched.errors import ConfigError
from edgesched.marl import Trainer, TrainerConfig, correlation_features
from edgesched.seeding import DOMAIN_POLICY, substream
from edgesched.simenv import AnswerModel, DelayModel, EdgeEnv, Transition, reward
from edgesched.vecstore import (
    CorrelationEntry,
    CorrelationSet,
    RecordKind,
    VectorRecord,
    VectorStore,
)
from edgesched.workload import Request


def make_record(rid=0, kind=RecordKind.ANSWER, freq=0, value=-0.5, dim=8):
    vec = np.zeros(dim)
    vec[0] = 1.0
    return VectorRecord(
        rid=rid,
        vec=vec,
        kind=kind,
        freq=freq,
        cache_value=value,
        inserted_at=0,
        pair_id=rid // 2,
    )


def corr_of(*dists):
    entries = [
        CorrelationEntry(make_record(rid=i), float(d)) for i, d in enumerate(dists)
    ]
    return CorrelationSet(entries)


def make_env(n_servers=1, seed=0, **kw):
    stores = [VectorStore(dim=8, nlist=1, seed=seed, server=n) for n in range(n_servers)]
    return EdgeEnv(stores, seed=seed, **kw)


def make_ctx(corr, server=0, request_id=0, q_dim=8):
    """``decide``'s arguments: the set, a request from ``server``, the server."""
    q = np.zeros(q_dim)
    q[0] = 1.0
    request = Request(
        id=request_id, user=0, server=server, slot=0, question_vec=q, reference_vec=q
    )
    return corr, request, server


def fake_transition(server=0, resolved="B", r=-4.0):
    return Transition(
        slot=0,
        server=server,
        user=0,
        request_id=0,
        action=1 if resolved == "B" else 0,
        resolved=resolved,
        action_prob=1.0,
        q=-0.15,
        d=3.34,
        r=r,
    )


class TestThresholdPolicy:
    def test_close_hit_uses_cache(self):
        pol = ThresholdPolicy(0.3)
        choice, prob = pol.decide(*make_ctx(corr_of(0.1, 0.5)))
        assert choice.a == 0
        assert prob == 1.0

    def test_far_hit_goes_direct(self):
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(*make_ctx(corr_of(0.31)))
        assert choice.a == 1

    def test_boundary_is_inclusive(self):
        # distance exactly at the threshold still counts as a hit
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(*make_ctx(corr_of(0.3)))
        assert choice.a == 0

    def test_empty_set_goes_direct(self):
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(*make_ctx(corr_of()))
        assert choice.a == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(0.0)
        with pytest.raises(ConfigError):
            ThresholdPolicy(-0.1)


class TestPayoffGreedy:
    def test_initial_estimate_is_model_cloud_reward(self):
        pol = PayoffGreedyPolicy(make_env(n_servers=2))
        expected = reward(-0.15, 3.34, 1.0, 0.1, 10.0)
        assert pol.initial_estimate == expected
        assert pol.cloud_estimate(0) == expected
        assert pol.cloud_estimate(1) == expected

    def test_near_hit_beats_initial_estimate(self):
        # predicted = 10 * (-d - 0.081); crosses -4.84 at d = 0.403
        pol = PayoffGreedyPolicy(make_env())
        choice, _ = pol.decide(*make_ctx(corr_of(0.40)))
        assert choice.a == 0
        choice, _ = pol.decide(*make_ctx(corr_of(0.41)))
        assert choice.a == 1

    def test_crossover_distance(self):
        env = make_env()
        pol = PayoffGreedyPolicy(env)
        crossover = (
            -pol.initial_estimate / env.reward_scale
            - env.delay_weight * env.delay_model.edge_delay
        )
        assert crossover == pytest.approx(0.403, abs=1e-12)
        eps = 1e-9
        below, _ = pol.decide(*make_ctx(corr_of(crossover - 1e-6)))
        above, _ = pol.decide(*make_ctx(corr_of(crossover + 1e-6)))
        assert below.a == 0
        assert above.a == 1
        assert eps < crossover  # the -1e-9 clamp never binds at the crossover

    def test_empty_set_goes_direct(self):
        pol = PayoffGreedyPolicy(make_env())
        choice, _ = pol.decide(*make_ctx(corr_of()))
        assert choice.a == 1

    def test_observe_tracks_direct_cloud_rewards_per_server(self):
        pol = PayoffGreedyPolicy(make_env(n_servers=2))
        pol.observe(fake_transition(server=0, resolved="B", r=-2.0))
        pol.observe(fake_transition(server=0, resolved="B", r=-4.0))
        assert pol.cloud_estimate(0) == pytest.approx(-3.0)
        # the other server is untouched
        assert pol.cloud_estimate(1) == pol.initial_estimate

    def test_observe_ignores_cache_outcomes(self):
        pol = PayoffGreedyPolicy(make_env())
        pol.observe(fake_transition(resolved="A", r=-1.0))
        pol.observe(fake_transition(resolved="C", r=-5.0))
        assert pol.cloud_estimate(0) == pol.initial_estimate

    def test_window_drops_old_rewards(self):
        # 51 rewards -1 .. -51: the window keeps the last 50, -2 .. -51
        pol = PayoffGreedyPolicy(make_env())
        for r in range(1, 52):
            pol.observe(fake_transition(resolved="B", r=-float(r)))
        assert pol.cloud_estimate(0) == pytest.approx(-26.5)

    def test_estimate_shifts_decision(self):
        # a glut of terrible cloud outcomes should make a mediocre hit tempting
        pol = PayoffGreedyPolicy(make_env())
        ctx = make_ctx(corr_of(0.6))
        assert pol.decide(*ctx)[0].a == 1
        for _ in range(10):
            pol.observe(fake_transition(resolved="B", r=-9.0))
        assert pol.decide(*ctx)[0].a == 0

    def test_custom_delay_model_moves_crossover(self):
        cheap_edge = DelayModel(edge_delay=0.2, cloud_delay=3.34)
        pol = PayoffGreedyPolicy(make_env(delay_model=cheap_edge))
        # crossover now at 0.484 - 0.02 = 0.464
        assert pol.decide(*make_ctx(corr_of(0.45)))[0].a == 0
        assert pol.decide(*make_ctx(corr_of(0.47)))[0].a == 1

    def test_custom_qos_settings_move_crossover(self):
        env = make_env(
            delay_model=DelayModel(edge_delay=0.5, cloud_delay=2.0),
            answer_model=AnswerModel(sigma_llm=0.2),
            quality_weight=2.0,
            delay_weight=0.3,
            reward_scale=4.0,
        )
        pol = PayoffGreedyPolicy(env)
        # -4 (2 * 0.2 + 0.3 * 2.0) = -4 (2 d + 0.3 * 0.5) at d = 0.425
        assert pol.initial_estimate == env.reward(-0.2, 2.0)
        assert pol.initial_estimate == pytest.approx(-4.0)
        assert pol.decide(*make_ctx(corr_of(0.42)))[0].a == 0
        assert pol.decide(*make_ctx(corr_of(0.43)))[0].a == 1


class TestRandomPolicy:
    @pytest.mark.parametrize("seed", [0, 17])
    def test_coin_is_the_policy_substream(self, seed):
        # ids 0-600 cross the 256-id blocks of the policy's stream tables
        servers = 3
        pol = RandomPolicy(make_env(n_servers=servers, seed=seed))
        for rid in range(601):
            for n in range(servers):
                choice, prob = pol.decide(*make_ctx(corr_of(0.1), server=n, request_id=rid))
                coin = substream(seed, DOMAIN_POLICY, rid, n).random() < 0.5
                assert choice.a == (0 if coin else 1)
                assert prob == 0.5

    def test_both_actions_occur(self):
        pol = RandomPolicy(make_env())
        actions = {
            pol.decide(*make_ctx(corr_of(0.1), request_id=i))[0].a for i in range(40)
        }
        assert actions == {0, 1}


class TestLearnedPolicy:
    def make_snapshot(self, width=5, q_dim=8):
        trainer = Trainer(
            n_agents=1,
            corr_dim=3 * width,
            question_dim=q_dim,
            cfg=TrainerConfig(policy_hidden=(8,), value_hidden=(8,)),
            seed=0,
        )
        return trainer.snapshot()

    def test_deterministic_matches_argmax(self):
        snap = self.make_snapshot()
        pol = LearnedPolicy(snap, make_env(query_width=5))
        corr, request, server = make_ctx(corr_of(0.1, 0.4))
        feats = correlation_features(corr, 5)
        dist = snap.action_probs(feats[None, :], request.question_vec[None, :])[0]
        choice, prob = pol.decide(corr, request, server)
        assert choice.a == int(np.argmax(dist))
        assert prob == dist[choice.a]

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 6),
        dists=st.lists(st.floats(0.0, 3.0), max_size=8),
        freqs=st.lists(st.integers(0, 50), min_size=8, max_size=8),
        trained=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_decides_from_the_env_width_features(self, width, dists, freqs, trained, seed):
        snap = self.make_snapshot(width=width)
        if trained:  # move the zero-initialized head off its even split
            rng = np.random.default_rng(seed)
            for name in snap.params.names():
                snap.params[name][...] = rng.normal(size=snap.params[name].shape)
        entries = [
            CorrelationEntry(make_record(rid=i, freq=f, kind=RecordKind(1 + i % 2)), d)
            for i, (d, f) in enumerate(zip(sorted(dists), freqs))
        ]
        corr, request, server = make_ctx(CorrelationSet(entries), q_dim=8)
        request.question_vec[:] = np.random.default_rng(seed).normal(size=8)
        feats = correlation_features(corr, width)
        dist = snap.action_probs(feats[None, :], request.question_vec[None, :])[0]
        policy = LearnedPolicy(snap, make_env(query_width=width))
        choice, prob = policy.decide(corr, request, server)
        assert choice.a == int(np.argmax(dist))
        assert prob == dist[choice.a]

    def test_fresh_nets_split_evenly_and_pick_cache(self):
        # zero-initialized heads emit 0.5/0.5; argmax keeps the first index
        pol = LearnedPolicy(self.make_snapshot(), make_env(query_width=5))
        choice, prob = pol.decide(*make_ctx(corr_of(0.2)))
        assert choice.a == 0
        assert prob == pytest.approx(0.5)


class TestHeuristicDecisions:
    def test_decide_without_features_from_shared_choices(self):
        env = make_env(n_servers=2)
        shared = baselines._CHOICES
        for pol in (ThresholdPolicy(0.3), PayoffGreedyPolicy(env), RandomPolicy(env)):
            for corr in (corr_of(), corr_of(0.01, 0.5), corr_of(0.9)):
                for rid in range(6):
                    choice, _ = pol.decide(*make_ctx(corr, server=rid % 2, request_id=rid))
                    assert choice is shared[choice.a]

    def test_shared_choices_are_frozen(self):
        with pytest.raises(AttributeError):
            baselines._CHOICES[0].a = 1


class TestAblations:
    def test_four_variants(self):
        assert set(ABLATIONS) == {"mappo", "g-mappo", "t-mappo", "lrs"}

    def test_component_matrix(self):
        assert (ABLATIONS["mappo"].use_encoder, ABLATIONS["mappo"].use_demos) == (
            False,
            False,
        )
        assert (ABLATIONS["g-mappo"].use_encoder, ABLATIONS["g-mappo"].use_demos) == (
            False,
            True,
        )
        assert (ABLATIONS["t-mappo"].use_encoder, ABLATIONS["t-mappo"].use_demos) == (
            True,
            False,
        )
        assert (ABLATIONS["lrs"].use_encoder, ABLATIONS["lrs"].use_demos) == (
            True,
            True,
        )

    def test_lookup_returns_named_spec(self):
        for name, spec in ABLATIONS.items():
            assert resolve_policy(name) is spec

    def test_unknown_variant_raises(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            resolve_policy("dqn")
