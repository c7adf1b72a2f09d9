"""Comparison schedulers and learned-policy wiring presets.

Heuristics here share one interface: ``decide(ctx) -> (ActionChoice, prob)``
with an optional ``observe(transition)`` hook for policies that track
outcomes.  The experiment harness drives them interchangeably with the
learned schedulers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .marl import PolicySnapshot
from .simenv import ActionChoice, DelayModel, AnswerModel, reward
from .vecstore import CorrelationSet


@dataclass
class DecisionContext:
    """Everything a scheduler may look at when routing one request."""

    corr: CorrelationSet
    corr_features: np.ndarray  # flattened network-style correlation features
    question_vec: np.ndarray
    server: int
    # Builds the per-decision stream, keyed by (request, server); only
    # policies that draw call it.
    make_rng: Callable[[], np.random.Generator]


class BasePolicy:
    """Interface stub: decide on an action, optionally observe the outcome."""

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        raise NotImplementedError

    def observe(self, transition) -> None:
        pass


class ThresholdPolicy(BasePolicy):
    """Take the cache path whenever the nearest hit is within ``threshold``."""

    def __init__(self, threshold: float):
        if threshold <= 0:
            raise ConfigError(f"threshold must be strictly positive, got {threshold}")
        self.threshold = threshold

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        best = ctx.corr.best()
        if best is None or best.distance > self.threshold:
            return ActionChoice(1), 1.0
        return ActionChoice(0), 1.0


class PayoffGreedyPolicy(BasePolicy):
    """Compare a predicted cache payoff against recent direct-cloud rewards.

    The cache payoff prediction treats the nearest hit's distance as the
    dissatisfaction a served answer would incur and charges only the edge
    delay.  The cloud side is a running mean of the last ``window`` rewards
    this server actually earned from direct-cloud requests, initialized with
    the model-implied direct-cloud reward so the policy is defined before any
    observation arrives.
    """

    def __init__(
        self,
        num_servers: int,
        delay_model: DelayModel | None = None,
        answer_model: AnswerModel | None = None,
        quality_weight: float = 1.0,
        delay_weight: float = 0.1,
        reward_scale: float = 10.0,
        window: int = 50,
    ):
        if num_servers < 1:
            raise ConfigError(f"num_servers must be >= 1, got {num_servers}")
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        delay_model = delay_model or DelayModel()
        answer_model = answer_model or AnswerModel()
        self.quality_weight = quality_weight
        self.delay_weight = delay_weight
        self.reward_scale = reward_scale
        self.edge_delay = delay_model.edge_query
        self.initial_estimate = reward(
            -answer_model.sigma_llm,
            delay_model.cloud_llm,
            quality_weight,
            delay_weight,
            reward_scale,
        )
        self._windows = [deque(maxlen=window) for _ in range(num_servers)]
        self._estimates = [self.initial_estimate] * num_servers

    def cloud_estimate(self, server: int) -> float:
        return self._estimates[server]

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        best = ctx.corr.best()
        if best is None:
            return ActionChoice(1), 1.0
        predicted = reward(
            # A perfect hit has distance 0; keep satisfaction strictly
            # negative the same way served answers do.
            min(-best.distance, -1e-9),
            self.edge_delay,
            self.quality_weight,
            self.delay_weight,
            self.reward_scale,
        )
        if predicted > self.cloud_estimate(ctx.server):
            return ActionChoice(0), 1.0
        return ActionChoice(1), 1.0

    def observe(self, transition) -> None:
        if transition.resolved == "B":
            window = self._windows[transition.server]
            window.append(transition.r)
            self._estimates[transition.server] = float(np.mean(window))


class RandomPolicy(BasePolicy):
    """Uniform coin flip between the cache path and the direct cloud call."""

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        a = 0 if ctx.make_rng().random() < 0.5 else 1
        return ActionChoice(a), 0.5


class LearnedPolicy(BasePolicy):
    """Acts greedily from a frozen policy snapshot."""

    def __init__(self, snapshot: PolicySnapshot):
        self.snapshot = snapshot

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        dist = self.snapshot.action_probs(
            ctx.corr_features[None, :], ctx.question_vec[None, :]
        )[0]
        a = int(np.argmax(dist))
        return ActionChoice(a), float(dist[a])


@dataclass(frozen=True)
class AblationSpec:
    """Which learned-scheduler components a named variant enables."""

    name: str
    use_encoder: bool
    use_demos: bool


ABLATIONS = {
    "mappo": AblationSpec("mappo", use_encoder=False, use_demos=False),
    "g-mappo": AblationSpec("g-mappo", use_encoder=False, use_demos=True),
    "t-mappo": AblationSpec("t-mappo", use_encoder=True, use_demos=False),
    "lrs": AblationSpec("lrs", use_encoder=True, use_demos=True),
}


def ablation_spec(name: str) -> AblationSpec:
    try:
        return ABLATIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown learned variant {name!r}; known: {sorted(ABLATIONS)}"
        ) from None
