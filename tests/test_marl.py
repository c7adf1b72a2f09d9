from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched.errors import ConfigError
from edgesched.marl import (
    DemoSet,
    ExperienceBuffer,
    PpoBatch,
    RolloutDriver,
    Segment,
    Trainer,
    TrainerConfig,
    compute_gae,
    correlation_features,
    expert_quota,
    ppo_loss,
)
from edgesched.nn import EncoderConfig, ParamSet
from edgesched.nn.models import FeatureEncoder
from edgesched.seeding import DOMAIN_TRAINER, substream
from edgesched.nn.gradcheck import finite_difference_grads, gradient_relative_error
from edgesched.vecstore import CorrelationEntry, CorrelationSet, RecordKind, VectorRecord


def small_cfg(**kw):
    base = dict(
        min_agent_batch=4,
        minibatch_size=8,
        epochs=1,
        policy_hidden=(8,),
        value_hidden=(8,),
    )
    base.update(kw)
    return TrainerConfig(**base)


def make_trainer(n_agents=2, corr_dim=3, question_dim=4, **kw):
    demos = kw.pop("demos", None)
    seed = kw.pop("seed", 0)
    encoder_cfg = kw.pop("encoder_cfg", None)
    return Trainer(
        n_agents=n_agents,
        corr_dim=corr_dim,
        question_dim=question_dim,
        cfg=small_cfg(**kw),
        encoder_cfg=encoder_cfg,
        demos=demos,
        seed=seed,
    )


def random_segment(rng, T=4, N=2, corr_dim=3, question_dim=4):
    return Segment(
        corr=rng.normal(size=(T, N, corr_dim)),
        question=rng.normal(size=(T, N, question_dim)),
        actions=rng.integers(0, 2, size=(T, N)),
        probs=np.full((T, N), 0.5),
        rewards=rng.normal(size=(T, N)),
        final_corr=rng.normal(size=(N, corr_dim)),
        final_question=rng.normal(size=(N, question_dim)),
    )


def feed_slots(trainer, rng, slots, T_corr=3, T_q=4):
    N = trainer.n_agents
    for _ in range(slots):
        trainer.buffer.record_slot(
            rng.normal(size=(N, T_corr)),
            rng.normal(size=(N, T_q)),
            rng.integers(0, 2, size=N),
            np.full(N, 0.5),
            rng.normal(size=N),
        )


def flat(params):
    """Every tensor of a parameter set, concatenated in sorted-name order."""
    return np.concatenate([params[k].ravel() for k in params.names()])


def entry_set(*hits):
    """A hand-built correlation set of (distance, kind code, freq) hits."""
    return CorrelationSet([
        CorrelationEntry(VectorRecord(i, np.zeros(4), RecordKind(kind), freq, -1.0, 0, i), d)
        for i, (d, kind, freq) in enumerate(hits)
    ])


class TestFeatures:
    def test_correlation_features_log_scales_counts(self):
        corr = entry_set((1.0, 1, 3), (3.0, 2, 0))
        f = correlation_features(corr, 4)
        assert f.shape == (12,)
        assert np.array_equal(f[:4], [0.5, 0.25, 0.0, 0.0])  # similarity
        assert np.array_equal(f[4:8], [1.0, 2.0, 0.0, 0.0])  # kind code
        assert f[8] == np.log1p(3.0)  # use count
        assert np.array_equal(f[9:], [0.0, 0.0, 0.0])  # padding
        assert np.array_equal(correlation_features(corr, 1), [0.5, 1.0, np.log1p(3.0)])

    def test_input_not_mutated(self):
        corr = entry_set((0.5, 2, 7), (0.75, 1, 1))
        before = [a.copy() for a in corr.hits]
        correlation_features(corr, 3)
        for old, new in zip(before, corr.hits):
            assert np.array_equal(old, new)


class TestGae:
    def double_sum(self, rewards, values, bootstrap, gamma, lam):
        T = len(rewards)
        v_next = np.append(values[1:], bootstrap)
        deltas = rewards + gamma * v_next - values
        adv = np.zeros(T)
        for t in range(T):
            adv[t] = sum((gamma * lam) ** i * deltas[t + i] for i in range(T - t))
        return adv

    def test_matches_explicit_double_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            T = int(rng.integers(2, 30))
            rewards = rng.normal(size=T)
            values = rng.normal(size=T)
            bootstrap = float(rng.normal())
            gamma = float(rng.uniform(0.5, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            a = compute_gae(rewards, values, bootstrap, gamma, lam)
            b = self.double_sum(rewards, values, bootstrap, gamma, lam)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_hand_value(self):
        # rewards [1, 1], values 0, bootstrap 0, gamma 0.5, lambda 1:
        # A_1 = 1, A_0 = 1 + 0.5 * 1 = 1.5
        adv = compute_gae(np.array([1.0, 1.0]), np.zeros(2), 0.0, 0.5, 1.0)
        assert np.allclose(adv, [1.5, 1.0], atol=1e-15)

    def test_lambda_one_is_discounted_return_minus_baseline(self):
        rng = np.random.default_rng(1)
        rewards = rng.normal(size=6)
        values = rng.normal(size=6)
        bootstrap = 0.7
        gamma = 0.9
        adv = compute_gae(rewards, values, bootstrap, gamma, 1.0)
        for t in range(6):
            ret = sum(gamma ** (i - t) * rewards[i] for i in range(t, 6))
            ret += gamma ** (6 - t) * bootstrap
            assert adv[t] == pytest.approx(ret - values[t], abs=1e-12)

    def test_lambda_zero_is_td_error(self):
        rewards = np.array([1.0, 2.0])
        values = np.array([0.5, 0.25])
        adv = compute_gae(rewards, values, 0.125, 0.5, 0.0)
        assert adv[0] == pytest.approx(1.0 + 0.5 * 0.25 - 0.5, abs=1e-15)
        assert adv[1] == pytest.approx(2.0 + 0.5 * 0.125 - 0.25, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            compute_gae(np.zeros(3), np.zeros(4), 0.0, 0.9, 0.9)


class TestQuota:
    def test_floor_division(self):
        assert expert_quota(100, 1) == 100
        assert expert_quota(100, 3) == 33
        assert expert_quota(100, 101) == 0

    def test_non_increasing(self):
        for pool in (0, 7, 64, 1000):
            seq = [expert_quota(pool, u) for u in range(1, 50)]
            assert seq == sorted(seq, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            expert_quota(10, 0)
        with pytest.raises(ValueError):
            expert_quota(-1, 1)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainerConfig(gamma=0.0)
        with pytest.raises(ConfigError):
            TrainerConfig(gae_lambda=1.5)
        with pytest.raises(ConfigError):
            TrainerConfig(clip_epsilon=1.0)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainerConfig(min_demo_quota=-1)


class TestBuffer:
    def record(self, buf, rng):
        N = buf.n_agents
        buf.record_slot(
            rng.normal(size=(N, 3)),
            rng.normal(size=(N, 4)),
            rng.integers(0, 2, size=N),
            np.full(N, 0.5),
            rng.normal(size=N),
        )

    def test_record_and_hand_off(self):
        buf = ExperienceBuffer(2, 8)
        rng = np.random.default_rng(0)
        for _ in range(3):
            self.record(buf, rng)
        assert buf.pending_steps == 3
        seg = buf.hand_off(np.zeros((2, 3)), np.zeros((2, 4)))
        assert seg.steps == 3
        assert seg.n_agents == 2
        assert seg.corr.shape == (3, 2, 3)
        assert buf.pending_steps == 0
        assert buf.segments == [seg]
        assert sum(s.steps for s in buf.segments) == 3

    def test_begin_slot_cuts_every_segment_len_slots(self):
        buf = ExperienceBuffer(2, 3)
        rng = np.random.default_rng(1)
        cut_at = []
        for slot in range(10):
            corr, question = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
            seg = buf.begin_slot(corr, question)
            if seg is not None:
                cut_at.append(slot)
                assert seg.steps == 3
                assert np.array_equal(seg.final_corr, corr)
                assert np.array_equal(seg.final_question, question)
            self.record(buf, rng)
        assert cut_at == [3, 6, 9]
        assert buf.pending_steps == 1

    def test_hand_off_empty_is_noop(self):
        buf = ExperienceBuffer(1, 1)
        assert buf.hand_off(np.zeros((1, 3)), np.zeros((1, 4))) is None
        assert buf.begin_slot(np.zeros((1, 3)), np.zeros((1, 4))) is None
        assert buf.segments == []

    def test_clear_pool_empties_the_pool(self):
        buf = ExperienceBuffer(1, 1)
        self.record(buf, np.random.default_rng(2))
        buf.hand_off(np.zeros((1, 3)), np.zeros((1, 4)))
        buf.clear_pool()
        assert sum(s.steps for s in buf.segments) == 0

    def test_wrong_agent_count_rejected(self):
        buf = ExperienceBuffer(2, 1)
        with pytest.raises(ConfigError):
            buf.record_slot(
                np.zeros((3, 3)), np.zeros((3, 4)), np.zeros(3, dtype=int),
                np.full(3, 0.5), np.zeros(3),
            )

    @pytest.mark.parametrize("field", ["question", "actions", "probs", "rewards"])
    @pytest.mark.parametrize("misfit", ["extra_agent", "column"])
    def test_every_field_needs_one_entry_per_agent(self, field, misfit):
        buf = ExperienceBuffer(2, 1)
        slot = {
            "corr": np.zeros((2, 3)),
            "question": np.zeros((2, 4)),
            "actions": np.zeros(2, dtype=int),
            "probs": np.full(2, 0.5),
            "rewards": np.zeros(2),
        }
        x = slot[field]
        if misfit == "extra_agent":
            slot[field] = np.concatenate([x, x[:1]])
        else:  # one more axis: (2, 1) entries, or (2, 4, 1) for a question
            slot[field] = x[..., None] if x.ndim == 1 else x[..., None, :]
        with pytest.raises(ConfigError, match=f"one {field} entry per agent"):
            buf.record_slot(**slot)
        assert buf.pending_steps == 0

    @pytest.mark.parametrize("field,shape", [("corr", (2, 5)), ("question", (2, 6))])
    def test_a_slot_of_another_width_is_rejected(self, field, shape):
        buf = ExperienceBuffer(2, 4)
        rng = np.random.default_rng(7)
        self.record(buf, rng)  # corr width 3, question width 4
        slot = {
            "corr": np.zeros((2, 3)),
            "question": np.zeros((2, 4)),
            "actions": np.zeros(2, dtype=int),
            "probs": np.full(2, 0.5),
            "rewards": np.zeros(2),
        }
        slot[field] = np.zeros(shape)
        with pytest.raises(ConfigError, match=rf"^{field} shape \(2, \d\) != \(2, \d\)"):
            buf.record_slot(**slot)
        assert buf.pending_steps == 1
        self.record(buf, rng)  # a slot of the staged widths is still taken
        assert buf.hand_off(np.zeros((2, 3)), np.zeros((2, 4))).steps == 2

    @pytest.mark.parametrize(
        "field,shape",
        [
            ("final_corr", (7,)),
            ("final_corr", (1, 1)),
            ("final_corr", (2, 5)),
            ("final_question", (2, 6)),
            ("final_question", (3, 4)),
        ],
    )
    def test_a_final_observation_of_another_shape_is_rejected(self, field, shape):
        buf = ExperienceBuffer(2, 4)
        self.record(buf, np.random.default_rng(8))
        final = {"final_corr": np.zeros((2, 3)), "final_question": np.zeros((2, 4))}
        final[field] = np.zeros(shape)
        with pytest.raises(ConfigError, match=rf"^{field} shape"):
            buf.hand_off(**final)
        assert buf.pending_steps == 1 and buf.segments == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperienceBuffer(0, 1)
        with pytest.raises(ConfigError):
            ExperienceBuffer(1, 0)


class TestDemoSet:
    def test_flat_index_counts_all_transitions(self):
        rng = np.random.default_rng(2)
        demos = DemoSet([random_segment(rng, T=4, N=2), random_segment(rng, T=3, N=2)])
        assert len(demos) == 4 * 2 + 3 * 2

    def test_sample_is_without_replacement(self):
        rng = np.random.default_rng(4)
        demos = DemoSet([random_segment(rng, T=5, N=2)])
        chosen = demos.sample(6, np.random.default_rng(5))
        assert len(chosen) == 6
        assert len(set(chosen.tolist())) == 6
        assert np.all(np.diff(chosen) > 0)  # sorted
        everything = demos.sample(100, np.random.default_rng(6))
        assert everything.tolist() == list(range(len(demos)))

    def test_transition_numbers_address_segment_rows(self):
        rng = np.random.default_rng(8)
        segs = [random_segment(rng, T=T, N=2) for T in (3, 1, 4)]
        demos = DemoSet(segs)
        assert demos.starts.tolist() == [0, 6, 8, 16]
        number = 0
        for si, seg in enumerate(segs):
            for t in range(seg.steps):
                for n in range(seg.n_agents):
                    row = number - demos.starts[si]
                    assert seg.rewards.ravel()[row] == seg.rewards[t, n]
                    number += 1
        assert number == len(demos)


class TestPpoLoss:
    def fresh_setup(self, B=6, seed=0):
        rng = np.random.default_rng(seed)
        trainer = make_trainer()
        batch = PpoBatch(
            corr=rng.normal(size=(B, 3)),
            question=rng.normal(size=(B, 4)),
            actions=rng.integers(0, 2, size=B),
            old_probs=np.full(B, 0.5),
            advantages=rng.normal(size=B),
            returns=rng.normal(size=B),
            global_corr=rng.normal(size=(B, 2, 3)),
            global_question=rng.normal(size=(B, 2, 4)),
        )
        return trainer, batch

    def test_freshly_initialized_nets_give_closed_form_loss(self):
        # zero-final heads: probs are exactly 0.5 and values exactly 0, so
        # every term of the objective has a closed form
        trainer, batch = self.fresh_setup()
        res = ppo_loss(
            trainer.nets, trainer.policy_params, trainer.value_params,
            batch, trainer.cfg,
        )
        assert res.surrogate == pytest.approx(batch.advantages.mean(), abs=1e-12)
        assert res.entropy == pytest.approx(np.log(2.0), abs=1e-12)
        assert res.value_mse == pytest.approx((batch.returns**2).mean(), abs=1e-12)
        expected = -(
            res.surrogate - 0.5 * res.value_mse + 0.01 * np.log(2.0)
        )
        assert res.loss == pytest.approx(expected, abs=1e-12)
        assert res.clip_fraction == 0.0

    def test_clipping_engages_for_large_ratios(self):
        trainer, batch = self.fresh_setup(B=1)
        batch.advantages = np.array([2.0])
        batch.old_probs = np.array([0.1])  # current prob 0.5: ratio 5
        res = ppo_loss(
            trainer.nets, trainer.policy_params, trainer.value_params,
            batch, trainer.cfg,
        )
        assert res.surrogate == pytest.approx(1.2 * 2.0, abs=1e-12)
        assert res.clip_fraction == 1.0

    def test_negative_advantage_keeps_raw_branch_when_ratio_high(self):
        # min() picks the unclipped branch for ratio > 1+eps with adv < 0
        trainer, batch = self.fresh_setup(B=1)
        batch.advantages = np.array([-2.0])
        batch.old_probs = np.array([0.1])
        res = ppo_loss(
            trainer.nets, trainer.policy_params, trainer.value_params,
            batch, trainer.cfg,
        )
        assert res.surrogate == pytest.approx(5.0 * -2.0, abs=1e-12)

    def test_rejects_bad_old_probs(self):
        trainer, batch = self.fresh_setup()
        batch.old_probs = np.zeros(len(batch))
        with pytest.raises(ConfigError):
            ppo_loss(
                trainer.nets, trainer.policy_params, trainer.value_params,
                batch, trainer.cfg,
            )

    def test_rejects_nan_old_prob(self):
        # a NaN passes a `<= 0` test; it must not reach Adam as a NaN gradient
        trainer, batch = self.fresh_setup()
        batch.old_probs[2] = np.nan
        with pytest.raises(ConfigError, match="positive"):
            ppo_loss(
                trainer.nets, trainer.policy_params, trainer.value_params,
                batch, trainer.cfg,
            )

    def test_rejects_empty_batch(self):
        trainer = make_trainer()
        # no rows: with cell = None no slot either; with cells, one slot
        for S, cell in ((0, None), (1, np.zeros(0, dtype=int))):
            empty = PpoBatch(
                corr=np.zeros((0, 3)),
                question=np.zeros((0, 4)),
                actions=np.zeros(0, dtype=int),
                old_probs=np.zeros(0),
                advantages=np.zeros(0),
                returns=np.zeros(0),
                global_corr=np.zeros((S, 2, 3)),
                global_question=np.zeros((S, 2, 4)),
                cell=cell,
            )
            with pytest.raises(ConfigError, match="empty"):
                ppo_loss(
                    trainer.nets, trainer.policy_params, trainer.value_params,
                    empty, trainer.cfg,
                )

    def perturbed(self, trainer, rng, scale=0.2):
        pol = {
            k: v + scale * rng.normal(size=v.shape)
            for k, v in trainer.policy_params.tensors.items()
        }
        val = {
            k: v + scale * rng.normal(size=v.shape)
            for k, v in trainer.value_params.tensors.items()
        }
        return ParamSet(pol), ParamSet(val)

    def smooth_batch(self, trainer, batch):
        """Set old_probs to the current p_taken: ratio 1, inside the clip,
        away from the min()'s tie point, so the loss is locally smooth."""
        if trainer.nets.encoder is not None:
            feats, _ = trainer.nets.encoder.forward(
                trainer.policy_params, batch.question
            )
        else:
            feats = batch.question
        state = np.concatenate([batch.corr, feats], axis=1)
        probs, _ = trainer.nets.policy.forward(trainer.policy_params, state)
        batch.old_probs = probs[np.arange(len(batch)), batch.actions] * 1.001
        return batch

    def test_policy_gradients_match_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            trainer, batch = self.fresh_setup(seed=seed)
            trainer.policy_params, trainer.value_params = self.perturbed(trainer, rng)
            batch = self.smooth_batch(trainer, batch)
            cfg = small_cfg(value_coeff=0.0)  # isolate the policy path

            def f(ps):
                return ppo_loss(
                    trainer.nets, ps, trainer.value_params, batch, cfg
                ).loss

            res = ppo_loss(
                trainer.nets, trainer.policy_params, trainer.value_params, batch, cfg
            )
            fd = finite_difference_grads(f, trainer.policy_params)
            assert gradient_relative_error(res.policy_grads, fd) < 1e-6

    def test_value_gradients_match_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            trainer, batch = self.fresh_setup(seed=seed)
            trainer.policy_params, trainer.value_params = self.perturbed(trainer, rng)
            batch = self.smooth_batch(trainer, batch)

            def f(ps):
                return ppo_loss(
                    trainer.nets, trainer.policy_params, ps, batch, trainer.cfg
                ).loss

            res = ppo_loss(
                trainer.nets, trainer.policy_params, trainer.value_params,
                batch, trainer.cfg,
            )
            fd = finite_difference_grads(f, trainer.value_params)
            assert gradient_relative_error(res.value_grads, fd) < 1e-6


class TestTrainer:
    def test_param_split(self):
        trainer = make_trainer()
        assert all(k.startswith("pi.") for k in trainer.policy_params.names())
        assert all(k.startswith("vf.") for k in trainer.value_params.names())

    def test_encoder_params_travel_with_policy(self):
        enc = EncoderConfig(
            input_dim=8, num_patches=2, num_blocks=1, num_heads=2,
            model_dim=4, feature_dim=3,
        )
        trainer = make_trainer(question_dim=8, encoder_cfg=enc)
        names = trainer.policy_params.names()
        assert any(k.startswith("enc.") for k in names)
        assert any(k.startswith("pi.") for k in names)
        assert trainer.state_dim == 3 + 3  # corr_dim + feature_dim

    def test_update_requires_strictly_more_than_min_batch(self):
        trainer = make_trainer()
        rng = np.random.default_rng(0)
        feed_slots(trainer, rng, 4)
        trainer.buffer.hand_off(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
        res = trainer.train_update()
        assert res.status == "insufficient"  # 4 <= min_agent_batch of 4
        assert trainer.buffer.segments  # pool kept for the next attempt
        feed_slots(trainer, rng, 4)
        trainer.buffer.hand_off(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
        res = trainer.train_update()
        assert res.status == "updated"
        assert res.batch_size == 8 * 2  # all pooled slots, both agents
        assert trainer.buffer.segments == []
        assert trainer.updates_done == 1
        assert trainer.history == [res]

    @pytest.mark.parametrize("with_encoder", [False, True])
    def test_snapshot_stays_frozen_through_an_update(self, with_encoder):
        enc = EncoderConfig(
            input_dim=4, num_patches=2, num_blocks=1, num_heads=2,
            model_dim=4, feature_dim=3,
        )
        trainer = make_trainer(encoder_cfg=enc if with_encoder else None)
        rng = np.random.default_rng(1)
        snap = trainer.snapshot()
        frozen = {k: v.copy() for k, v in snap.params.tensors.items()}
        corr, q = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
        probs = snap.action_probs(corr, q)
        feed_slots(trainer, rng, 5)
        trainer.buffer.hand_off(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
        assert trainer.train_update().status == "updated"
        assert not np.array_equal(flat(trainer.policy_params), flat(snap.params))
        assert snap.params.names() == sorted(frozen)
        for name, tensor in frozen.items():
            assert np.array_equal(snap.params[name], tensor)
        assert np.array_equal(snap.action_probs(corr, q), probs)

    @pytest.mark.parametrize("shape", [{"N": 3}, {"corr_dim": 5}, {"question_dim": 6}])
    def test_demo_segment_of_another_shape_rejected(self, shape):
        rng = np.random.default_rng(6)
        demos = DemoSet([random_segment(rng), random_segment(rng, **shape)])
        with pytest.raises(ConfigError, match="demo segment 1"):
            make_trainer(demos=demos)

    @pytest.mark.parametrize(
        "field,shape",
        [
            ("final_corr", (7,)),
            ("final_corr", (2, 5)),
            ("final_question", (1, 1)),
            ("final_question", (3, 4)),
            ("corr", (5, 2, 3)),
            ("actions", (4, 3)),
            ("probs", (4,)),
            ("rewards", (4, 3)),
        ],
    )
    def test_demo_segment_with_a_misshapen_field_rejected(self, field, shape):
        rng = np.random.default_rng(9)
        bad = random_segment(rng)  # 4 steps, 2 agents, corr width 3, question width 4
        setattr(bad, field, np.zeros(shape))
        with pytest.raises(ConfigError, match=rf"demo segment 1: {field} shape"):
            make_trainer(demos=DemoSet([random_segment(rng), bad]))

    def test_demo_quota_anneals_and_ceases(self):
        rng = np.random.default_rng(2)
        demos = DemoSet([random_segment(rng, T=20, N=2)])  # pool of 40
        trainer = make_trainer(demos=demos, min_demo_quota=16)

        def one_update():
            feed_slots(trainer, rng, 5)
            trainer.buffer.hand_off(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
            return trainer.train_update()

        r1 = one_update()
        assert (r1.demo_quota, r1.demo_count) == (40, 40)
        assert r1.batch_size == 10 + 40
        r2 = one_update()
        assert (r2.demo_quota, r2.demo_count) == (20, 20)
        assert r2.batch_size == 10 + 20
        r3 = one_update()  # quota 40 // 3 = 13 <= 16: demos cease
        assert (r3.demo_quota, r3.demo_count) == (13, 0)
        assert r3.batch_size == 10

    def test_demo_quota_boundary_is_exclusive(self):
        rng = np.random.default_rng(3)
        demos = DemoSet([random_segment(rng, T=8, N=2)])  # pool of 16
        trainer = make_trainer(demos=demos, min_demo_quota=16)
        feed_slots(trainer, rng, 5)
        trainer.buffer.hand_off(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
        res = trainer.train_update()
        # quota == min_demo_quota: not strictly above, so no demos are used
        assert (res.demo_quota, res.demo_count) == (16, 0)

    def test_same_seed_same_training(self):
        outs = []
        for _ in range(2):
            trainer = make_trainer(seed=9)
            rng = np.random.default_rng(5)
            feed_slots(trainer, rng, 5)
            trainer.buffer.hand_off(np.zeros((2, 3)), np.zeros((2, 4)))
            trainer.train_update()
            outs.append(flat(trainer.policy_params))
        assert np.array_equal(outs[0], outs[1])


def run_update(N, own_steps, demo_steps, updates_done, minibatch_size, seed):
    """Run one ``train_update`` over fresh own and demo segments.

    Every transition's correlation features start with its (segment, slot,
    agent) key, so rows can be traced back to their slot.  Returns the
    segments (own first), the update's result, the batch its minibatches
    are taken from, each minibatch's rows as batch positions in call order,
    each segment's critic values before the update, and the slot count of
    every ``values_of`` call the update made."""
    rng = np.random.default_rng(seed)
    segments = [random_segment(rng, T=T, N=N) for T in own_steps + demo_steps]
    for k, seg in enumerate(segments):
        seg.corr[:, :, 0] = k
        seg.corr[:, :, 1] = np.arange(seg.steps)[:, None]
        seg.corr[:, :, 2] = np.arange(N)
        seg.probs = rng.uniform(0.1, 0.9, size=(seg.steps, N))
    demos = DemoSet(segments[len(own_steps) :]) if demo_steps else None
    trainer = make_trainer(
        n_agents=N, demos=demos, seed=seed, min_agent_batch=1, min_demo_quota=0,
        minibatch_size=minibatch_size, epochs=2,
    )
    for tensor in trainer.value_params.tensors.values():
        tensor += rng.normal(size=tensor.shape)  # a critic with nonzero values
    trainer.buffer.segments = segments[: len(own_steps)]
    trainer.updates_done = updates_done
    values = [
        trainer.values_of(
            np.concatenate([seg.corr, seg.final_corr[None]]),
            np.concatenate([seg.question, seg.final_question[None]]),
        )
        for seg in segments
    ]
    batches, calls, critic_slots = [], [], []
    take, values_of = PpoBatch.take, Trainer.values_of

    def keep_take(batch, rows):
        batches.append(batch)
        calls.append(np.array(rows))
        return take(batch, rows)

    def keep_values(self, corr, question):
        critic_slots.append(len(corr))
        return values_of(self, corr, question)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PpoBatch, "take", keep_take)
        mp.setattr(Trainer, "values_of", keep_values)
        result = trainer.train_update()
    assert result.status == "updated"
    assert all(b is batches[0] for b in batches)
    return segments, result, batches[0], calls, values, critic_slots


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchRows:
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(1, 4),
        own_steps=st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
            lambda steps: sum(steps) > 1
        ),
        demo_steps=st.lists(st.integers(1, 5), max_size=3),
        updates_done=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_rows_hold_their_cells(self, N, own_steps, demo_steps, updates_done, seed):
        segments, result, batch, _, values, critic_slots = run_update(
            N, own_steps, demo_steps, updates_done, 4, seed
        )
        tables = segments if result.demo_count else segments[: len(own_steps)]
        where = [(k, t) for k, seg in enumerate(tables) for t in range(seg.steps)]
        own = sum(own_steps) * N
        cell = batch.cell
        assert len(batch) == len(cell) == result.batch_size == own + result.demo_count
        assert np.array_equal(cell[:own], np.arange(own))  # own rows, in order
        assert np.all(np.diff(cell) > 0) and cell[-1] < len(where) * N  # demo cells
        assert batch.global_corr.shape[:2] == batch.global_question.shape[:2] == (len(where), N)
        cfg = small_cfg()
        raw = np.empty(len(batch))
        for i, c in enumerate(cell):
            (k, t), n = where[c // N], c % N
            seg, v = tables[k], values[k]
            assert same_bits(batch.corr[i], seg.corr[t, n])
            assert same_bits(batch.question[i], seg.question[t, n])
            assert batch.actions[i] == seg.actions[t, n]
            assert batch.old_probs[i] == seg.probs[t, n]
            assert same_bits(batch.global_corr[c // N], seg.corr[t])  # its slot
            assert same_bits(batch.global_question[c // N], seg.question[t])
            gae = compute_gae(seg.rewards[:, n], v[:-1], v[-1], cfg.gamma, cfg.gae_lambda)
            raw[i] = gae[t]
            assert batch.returns[i] == gae[t] + v[t]
        # the update normalises the raw advantages, each its segment's GAE
        assert same_bits(batch.advantages, (raw - raw.mean()) / (raw.std() + 1e-8))
        # the critic scores exactly the segments that hold a row, in order
        held = sorted({where[c // N][0] for c in cell})
        assert critic_slots == [tables[k].steps + 1 for k in held]

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(1, 5),
        N=st.integers(1, 3),
        with_cells=st.booleans(),
        data=st.data(),
    )
    def test_take_keeps_the_observed_slots(self, S, N, with_cells, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        cell = np.array(
            data.draw(st.lists(st.integers(0, S * N - 1), min_size=1, unique=True))
        )
        B = len(cell)
        batch = PpoBatch(
            corr=rng.normal(size=(B, 3)),
            question=rng.normal(size=(B, 4)),
            actions=rng.integers(0, 2, size=B),
            old_probs=rng.uniform(0.1, 0.9, size=B),
            advantages=rng.normal(size=B),
            returns=rng.normal(size=B),
            global_corr=rng.normal(size=(B if not with_cells else S, N, 3)),
            global_question=rng.normal(size=(B if not with_cells else S, N, 4)),
            cell=cell if with_cells else None,
        )
        rows = np.array(data.draw(st.lists(st.integers(0, B - 1), max_size=2 * B)), dtype=int)
        taken = batch.take(rows)
        for f in fields(PpoBatch)[:6]:
            assert same_bits(getattr(taken, f.name), getattr(batch, f.name)[rows]), f.name
        if not with_cells:  # row i keeps observing its own slot
            assert taken.cell is None
            assert same_bits(taken.global_corr, batch.global_corr[rows])
            assert same_bits(taken.global_question, batch.global_question[rows])
            return
        old_slot, new_slot = batch.cell[rows] // N, taken.cell // N
        assert np.array_equal(taken.cell % N, batch.cell[rows] % N)
        assert same_bits(taken.global_corr[new_slot], batch.global_corr[old_slot])
        assert same_bits(taken.global_question[new_slot], batch.global_question[old_slot])
        # only the observed slots, numbered in the order rows first observe them
        assert list(dict.fromkeys(new_slot.tolist())) == list(range(len(taken.global_corr)))
        assert taken.global_question.shape[0] == len(set(old_slot.tolist()))


SMALL_ENCODER = EncoderConfig(
    input_dim=4, num_patches=2, num_blocks=1, num_heads=2, model_dim=4, feature_dim=3
)


def reference_ppo_loss(nets, policy_params, value_params, batch, cfg):
    """The loss as first written: the critic re-encodes each row's whole slot."""
    B = len(batch)
    eps = cfg.clip_epsilon
    idx = np.arange(B)
    state, enc_cache = nets.states(policy_params, batch.corr, batch.question)
    probs, pi_cache = nets.policy.forward(policy_params, state)
    ratio = probs[idx, batch.actions] / batch.old_probs
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    s_raw = ratio * batch.advantages
    s_clip = clipped * batch.advantages
    take_raw = s_raw <= s_clip
    surrogate = float(np.where(take_raw, s_raw, s_clip).mean())
    logp = np.log(np.maximum(probs, 1e-300))
    entropy = float(-(probs * logp).sum(axis=1).mean())
    slot = idx if batch.cell is None else batch.cell // batch.global_corr.shape[1]
    gstate, _ = nets.states(policy_params, batch.global_corr[slot], batch.global_question[slot])
    values, v_cache = nets.value.forward(value_params, gstate.reshape(B, -1))
    v_err = values - batch.returns
    value_mse = float(np.mean(v_err**2))
    loss = -(surrogate - cfg.value_coeff * value_mse + cfg.entropy_coeff * entropy)
    inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
    dsurr_dp = (
        batch.advantages
        * np.where(take_raw, 1.0, inside.astype(float))
        / (B * batch.old_probs)
    )
    dobj_dprobs = np.zeros_like(probs)
    dobj_dprobs[idx, batch.actions] += dsurr_dp
    dobj_dprobs += cfg.entropy_coeff * (-(logp + 1.0) / B)
    dstate, pol_grads = nets.policy.backward(policy_params, pi_cache, -dobj_dprobs)
    if nets.encoder is not None:
        dfeats = dstate[:, batch.corr.shape[1] :]
        pol_grads.update(nets.encoder.backward(policy_params, enc_cache, dfeats)[1])
    dv = cfg.value_coeff * 2.0 * v_err / B
    _, val_grads = nets.value.backward(value_params, v_cache, dv)
    return dict(
        loss=loss, surrogate=surrogate, value_mse=value_mse, entropy=entropy,
        clip_fraction=float(np.mean(~inside)), policy_grads=pol_grads,
        value_grads=val_grads,
    )


def slot_major_batch(rng, present, copies=(), cells=True, corr_dim=3, question_dim=4):
    """Slot tables ``(S, N, dim)`` and one row per cell ``(s, n)`` where
    ``present[s, n]``, rows in a random order.  Each ``(src, dst)`` in
    ``copies`` (flat ``s * N + n`` numbers) makes question ``dst`` a copy of
    question ``src``.  With ``cells=False`` the rows keep their values but
    the batch takes ``cell = None`` and ``(B, N, dim)`` global tables that
    are unrelated to the rows, as in the acceptance gradient check."""
    S, N = present.shape
    corr = rng.normal(size=(S * N, corr_dim))
    question = rng.normal(size=(S * N, question_dim))
    for src, dst in copies:
        question[dst] = question[src]
    cell = rng.permutation(np.flatnonzero(present.ravel()))
    B = len(cell)
    if cells:
        global_corr = corr.reshape(S, N, corr_dim)
        global_question = question.reshape(S, N, question_dim)
    else:
        global_corr = rng.normal(size=(B, N, corr_dim))
        global_question = rng.normal(size=(B, N, question_dim))
    return PpoBatch(
        corr=corr[cell],
        question=question[cell],
        actions=rng.integers(0, 2, size=B),
        old_probs=rng.uniform(0.1, 0.9, size=B),
        advantages=rng.normal(size=B),
        returns=rng.normal(size=B),
        global_corr=global_corr,
        global_question=global_question,
        cell=cell if cells else None,
    )


class TestSlotMajorLoss:
    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(1, 5),
        N=st.integers(1, 4),
        with_encoder=st.booleans(),
        cells=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_the_reference_formula(self, S, N, with_encoder, cells, seed, data):
        present = np.array(
            data.draw(st.lists(st.booleans(), min_size=S * N, max_size=S * N)),
            dtype=bool,
        ).reshape(S, N)
        present.flat[data.draw(st.integers(0, S * N - 1))] = True
        copies = data.draw(
            st.lists(st.tuples(st.integers(0, S * N - 1), st.integers(0, S * N - 1)))
        )
        rng = np.random.default_rng(seed)
        trainer = make_trainer(
            n_agents=N, encoder_cfg=SMALL_ENCODER if with_encoder else None
        )
        for params in (trainer.policy_params, trainer.value_params):
            for tensor in params.tensors.values():
                tensor += 0.3 * rng.normal(size=tensor.shape)
        batch = slot_major_batch(rng, present, copies, cells)
        args = (trainer.nets, trainer.policy_params, trainer.value_params, batch, trainer.cfg)
        got, want = ppo_loss(*args), reference_ppo_loss(*args)
        for name in ("loss", "surrogate", "value_mse", "entropy", "clip_fraction"):
            assert getattr(got, name) == pytest.approx(want[name], rel=1e-9, abs=0), name
        for part in ("policy_grads", "value_grads"):
            grads = getattr(got, part)
            assert sorted(grads) == sorted(want[part])
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, want[part][name], rtol=1e-9, err_msg=name)

    def test_each_question_is_encoded_once(self, monkeypatch):
        rows = {"forward": 0, "backward": 0}
        forward, backward = FeatureEncoder.forward, FeatureEncoder.backward

        def counted_forward(self, params, x):
            rows["forward"] += x.shape[0]
            return forward(self, params, x)

        def counted_backward(self, params, cache, dfeats):
            rows["backward"] += dfeats.shape[0]
            return backward(self, params, cache, dfeats)

        monkeypatch.setattr(FeatureEncoder, "forward", counted_forward)
        monkeypatch.setattr(FeatureEncoder, "backward", counted_backward)
        trainer = make_trainer(n_agents=3, encoder_cfg=SMALL_ENCODER)
        rng = np.random.default_rng(4)

        def loss_rows(present, copies=(), cells=True):
            rows.update(forward=0, backward=0)
            batch = slot_major_batch(rng, present, copies, cells)
            ppo_loss(
                trainer.nets, trainer.policy_params, trainer.value_params,
                batch, trainer.cfg,
            )
            return rows["forward"], rows["backward"]

        present = np.ones((5, 3), dtype=bool)
        assert loss_rows(present) == (5 * 3, 5 * 3)
        # missing agents of partial slots are encoded once more, without
        # gradient, once per cell: a missing cell whose question equals a
        # present row's (5 copies 0) or another missing cell's (10 copies 9)
        # is still encoded
        present[1, 2] = False
        present[3, :2] = False
        assert loss_rows(present) == (12 + 3, 12)
        assert loss_rows(present, copies=[(0, 5), (9, 10)]) == (12 + 3, 12)
        # with cell = None no row is a cell: each row's slot is encoded whole
        assert loss_rows(present, cells=False) == (12 + 12 * 3, 12)


class TestSlotMinibatches:
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(1, 4),
        own_steps=st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
            lambda steps: sum(steps) > 1
        ),
        demo_steps=st.lists(st.integers(1, 5), max_size=3),
        updates_done=st.integers(0, 3),
        minibatch_size=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_minibatches_are_whole_slots(
        self, N, own_steps, demo_steps, updates_done, minibatch_size, seed
    ):
        _, _, batch, calls, _, _ = run_update(
            N, own_steps, demo_steps, updates_done, minibatch_size, seed
        )
        B = len(batch)
        slot_of = [tuple(key) for key in batch.corr[:, :2]]  # (segment, slot)
        ends = [int(e) for e in np.cumsum([len(c) for c in calls])]
        assert ends[-1] == 2 * B and B in ends
        k = ends.index(B) + 1
        for epoch in (calls[:k], calls[k:]):
            order = np.concatenate(epoch)
            assert sorted(order) == list(range(B))  # every row exactly once
            for rows in epoch:
                slots = dict.fromkeys(slot_of[r] for r in rows)
                # whole slots, each slot's rows together and in batch order
                whole = [r for slot in slots for r in range(B) if slot_of[r] == slot]
                assert list(rows) == whole
            # cut at the last slot start at or before each multiple of the size
            slot_order = [slot_of[r] for r in order]
            starts = [p for p in range(B) if p == 0 or slot_order[p] != slot_order[p - 1]]
            cuts = {
                max(q for q in starts if q <= m)
                for m in range(minibatch_size, B, minibatch_size)
            }
            assert [int(e) for e in np.cumsum([len(c) for c in epoch])] == sorted(
                (cuts - {0}) | {B}
            )
            if minibatch_size >= N:  # no cut lost: as many calls as row chunks
                assert len(epoch) == -(-B // minibatch_size)

    @pytest.mark.parametrize("demo_steps", [[], [6, 3]])
    @pytest.mark.parametrize("minibatch_size", [1, 3, 8])
    def test_one_agent_keeps_the_row_permutation(self, demo_steps, minibatch_size):
        _, _, batch, calls, _, _ = run_update(1, [4, 5], demo_steps, 1, minibatch_size, seed=21)
        B = len(batch)
        want = []
        for epoch in range(2):
            order = substream(21, DOMAIN_TRAINER, 2, 1 + epoch).permutation(B)
            want += np.split(order, range(minibatch_size, B, minibatch_size))
        assert [c.tolist() for c in calls] == [w.tolist() for w in want]


class TestStates:
    def test_no_encoder_joins_raw_rows(self):
        trainer = make_trainer()
        rng = np.random.default_rng(11)
        corr, q = rng.normal(size=(3, 2, 3)), rng.normal(size=(3, 2, 4))
        states, cache = trainer.nets.states(trainer.policy_params, corr, q)
        assert cache is None
        assert np.array_equal(states, np.concatenate([corr, q], axis=-1))

    def test_encoder_rows_keep_their_leading_shape(self):
        enc = EncoderConfig(
            input_dim=4, num_patches=2, num_blocks=1, num_heads=2,
            model_dim=4, feature_dim=3,
        )
        trainer = make_trainer(encoder_cfg=enc)
        ps = trainer.policy_params
        rng = np.random.default_rng(12)
        corr, q = rng.normal(size=(3, 2, 3)), rng.normal(size=(3, 2, 4))
        states, cache = trainer.nets.states(ps, corr, q)
        assert cache is not None
        assert states.shape == (3, 2, trainer.state_dim)
        flat, _ = trainer.nets.states(ps, corr.reshape(6, 3), q.reshape(6, 4))
        assert np.array_equal(states.reshape(6, -1), flat)
        for t in range(3):
            for n in range(2):
                feats, _ = trainer.nets.encoder.forward(ps, q[t, n][None])
                assert np.array_equal(states[t, n, :3], corr[t, n])
                assert np.allclose(states[t, n, 3:], feats[0], rtol=0, atol=1e-12)


class TestRolloutDriver:
    def obs(self, rng, N=2):
        return rng.normal(size=(N, 3)), rng.normal(size=(N, 4))

    def test_choose_is_deterministic_per_key(self):
        picks = []
        for _ in range(2):
            trainer = make_trainer(seed=3)
            driver = RolloutDriver(trainer)
            corr, q = self.obs(np.random.default_rng(7))
            actions, probs, dists = driver.choose(corr, q, decision_keys=[11, 12])
            picks.append((actions.tolist(), probs.tolist()))
        assert picks[0] == picks[1]

    def test_begin_slot_trains_and_resyncs(self):
        trainer = make_trainer(min_agent_batch=2, minibatch_size=4)
        driver = RolloutDriver(trainer)
        rng = np.random.default_rng(10)
        result = None
        for _ in range(6):
            corr, q = self.obs(rng)
            out = driver.begin_slot(corr, q)
            if out is not None and out.status == "updated":
                result = out
            actions, probs, _ = driver.choose(corr, q, decision_keys=[1, 2])
            driver.record(corr, q, actions, probs, rng.normal(size=2))
        assert result is not None
        # resynced after the last update: equal values, separate arrays
        for name in trainer.policy_params.names():
            mine, theirs = driver.snapshot.params[name], trainer.policy_params[name]
            assert np.array_equal(mine, theirs)
            assert not np.shares_memory(mine, theirs)


class TestBanditLearning:
    def test_policy_learns_on_single_state_bandit(self):
        # action 0 pays +1, action 1 pays -1; the sampled policy should tilt
        # toward action 0 within a handful of updates
        trainer = Trainer(
            n_agents=1,
            corr_dim=2,
            question_dim=2,
            cfg=TrainerConfig(
                min_agent_batch=8,
                minibatch_size=8,
                epochs=4,
                policy_hidden=(8,),
                value_hidden=(8,),
                gamma=0.9,
                lr_policy=0.01,
                lr_value=0.01,
            ),
            seed=0,
        )
        driver = RolloutDriver(trainer)
        corr = np.zeros((1, 2))
        question = np.ones((1, 2))
        slot = 0
        while trainer.updates_done < 12:
            driver.begin_slot(corr, question)
            actions, probs, _ = driver.choose(corr, question, decision_keys=[slot])
            reward = 1.0 if actions[0] == 0 else -1.0
            driver.record(corr, question, actions, probs, np.array([reward]))
            slot += 1
        p0 = driver.snapshot.action_probs(corr, question)[0, 0]
        assert p0 > 0.8
