"""Tests for the comparison schedulers and learned-variant presets."""

import functools

import numpy as np
import pytest

from edgesched.baselines import (
    ABLATIONS,
    DecisionContext,
    LearnedPolicy,
    PayoffGreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
    ablation_spec,
)
from edgesched.errors import ConfigError
from edgesched.marl import Trainer, TrainerConfig, correlation_features
from edgesched.simenv import DelayModel, Transition, reward
from edgesched.vecstore import CorrelationEntry, CorrelationSet, RecordKind, VectorRecord


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


def make_ctx(corr, server=0, seed=0, q_dim=8, width=5):
    feats = correlation_features(corr.matrix(width))
    q = np.zeros(q_dim)
    q[0] = 1.0
    return DecisionContext(
        corr=corr,
        corr_features=feats,
        question_vec=q,
        server=server,
        make_rng=functools.partial(np.random.default_rng, seed),
    )


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
        choice, prob = pol.decide(make_ctx(corr_of(0.1, 0.5)))
        assert choice.a == 0
        assert prob == 1.0

    def test_far_hit_goes_direct(self):
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(make_ctx(corr_of(0.31)))
        assert choice.a == 1

    def test_boundary_is_inclusive(self):
        # distance exactly at the threshold still counts as a hit
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(make_ctx(corr_of(0.3)))
        assert choice.a == 0

    def test_empty_set_goes_direct(self):
        pol = ThresholdPolicy(0.3)
        choice, _ = pol.decide(make_ctx(corr_of()))
        assert choice.a == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(0.0)
        with pytest.raises(ConfigError):
            ThresholdPolicy(-0.1)


class TestPayoffGreedy:
    def test_initial_estimate_is_model_cloud_reward(self):
        pol = PayoffGreedyPolicy(num_servers=2)
        expected = reward(-0.15, 3.34, 1.0, 0.1, 10.0)
        assert pol.initial_estimate == expected
        assert pol.cloud_estimate(0) == expected
        assert pol.cloud_estimate(1) == expected

    def test_near_hit_beats_initial_estimate(self):
        # predicted = 10 * (-d - 0.081); crosses -4.84 at d = 0.403
        pol = PayoffGreedyPolicy(num_servers=1)
        choice, _ = pol.decide(make_ctx(corr_of(0.40)))
        assert choice.a == 0
        choice, _ = pol.decide(make_ctx(corr_of(0.41)))
        assert choice.a == 1

    def test_crossover_distance(self):
        pol = PayoffGreedyPolicy(num_servers=1)
        crossover = (
            -pol.initial_estimate / pol.reward_scale - 0.1 * pol.edge_delay
        )
        assert crossover == pytest.approx(0.403, abs=1e-12)
        eps = 1e-9
        below, _ = pol.decide(make_ctx(corr_of(crossover - 1e-6)))
        above, _ = pol.decide(make_ctx(corr_of(crossover + 1e-6)))
        assert below.a == 0
        assert above.a == 1
        assert eps < crossover  # the -1e-9 clamp never binds at the crossover

    def test_empty_set_goes_direct(self):
        pol = PayoffGreedyPolicy(num_servers=1)
        choice, _ = pol.decide(make_ctx(corr_of()))
        assert choice.a == 1

    def test_observe_tracks_direct_cloud_rewards_per_server(self):
        pol = PayoffGreedyPolicy(num_servers=2, window=3)
        pol.observe(fake_transition(server=0, resolved="B", r=-2.0))
        pol.observe(fake_transition(server=0, resolved="B", r=-4.0))
        assert pol.cloud_estimate(0) == pytest.approx(-3.0)
        # the other server is untouched
        assert pol.cloud_estimate(1) == pol.initial_estimate

    def test_observe_ignores_cache_outcomes(self):
        pol = PayoffGreedyPolicy(num_servers=1)
        pol.observe(fake_transition(resolved="A", r=-1.0))
        pol.observe(fake_transition(resolved="C", r=-5.0))
        assert pol.cloud_estimate(0) == pol.initial_estimate

    def test_window_drops_old_rewards(self):
        pol = PayoffGreedyPolicy(num_servers=1, window=2)
        for r in (-9.0, -1.0, -3.0):
            pol.observe(fake_transition(resolved="B", r=r))
        assert pol.cloud_estimate(0) == pytest.approx(-2.0)

    def test_estimate_shifts_decision(self):
        # a glut of terrible cloud outcomes should make a mediocre hit tempting
        pol = PayoffGreedyPolicy(num_servers=1)
        ctx = make_ctx(corr_of(0.6))
        assert pol.decide(ctx)[0].a == 1
        for _ in range(10):
            pol.observe(fake_transition(resolved="B", r=-9.0))
        assert pol.decide(ctx)[0].a == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PayoffGreedyPolicy(num_servers=0)
        with pytest.raises(ConfigError):
            PayoffGreedyPolicy(num_servers=1, window=0)

    def test_custom_delay_model_moves_crossover(self):
        cheap_edge = DelayModel(edge_query=0.2, cloud_llm=3.34)
        pol = PayoffGreedyPolicy(num_servers=1, delay_model=cheap_edge)
        # crossover now at 0.484 - 0.02 = 0.464
        assert pol.decide(make_ctx(corr_of(0.45)))[0].a == 0
        assert pol.decide(make_ctx(corr_of(0.47)))[0].a == 1


class TestRandomPolicy:
    def test_flips_a_fair_coin_from_the_context_stream(self):
        pol = RandomPolicy()
        for seed in range(30):
            ctx = make_ctx(corr_of(0.1), seed=seed)
            expected = 0 if np.random.default_rng(seed).random() < 0.5 else 1
            choice, prob = pol.decide(ctx)
            assert choice.a == expected
            assert prob == 0.5

    def test_both_actions_occur(self):
        pol = RandomPolicy()
        actions = {
            pol.decide(make_ctx(corr_of(0.1), seed=s))[0].a for s in range(40)
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
        pol = LearnedPolicy(snap)
        ctx = make_ctx(corr_of(0.1, 0.4))
        dist = snap.action_probs(ctx.corr_features[None, :], ctx.question_vec[None, :])[0]
        choice, prob = pol.decide(ctx)
        assert choice.a == int(np.argmax(dist))
        assert prob == pytest.approx(dist[choice.a])

    def test_fresh_nets_split_evenly_and_pick_cache(self):
        # zero-initialized heads emit 0.5/0.5; argmax keeps the first index
        pol = LearnedPolicy(self.make_snapshot())
        choice, prob = pol.decide(make_ctx(corr_of(0.2)))
        assert choice.a == 0
        assert prob == pytest.approx(0.5)


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
        spec = ablation_spec("t-mappo")
        assert spec.name == "t-mappo"

    def test_unknown_variant_raises(self):
        with pytest.raises(ConfigError, match="known"):
            ablation_spec("dqn")
