"""Comparison schedulers and learned-policy wiring presets.

Heuristics here share one interface: ``decide(ctx) -> (ActionChoice, prob)``
with an optional ``observe(transition)`` hook for policies that track
outcomes.  The experiment harness drives them interchangeably with the
learned schedulers.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .marl import PolicySnapshot, correlation_features
from .seeding import DOMAIN_POLICY, KeyedStreams
from .simenv import DIRECT_CLOUD, USE_CACHE, ActionChoice, EdgeEnv
from .vecstore import CorrelationSet

# Direct-cloud rewards in each server's running cloud estimate.
CLOUD_WINDOW = 50

# The two decisions; ActionChoice is frozen, so every request can share them.
_CHOICES = (ActionChoice(USE_CACHE), ActionChoice(DIRECT_CLOUD))
_CACHE, _CLOUD = _CHOICES


@dataclass
class DecisionContext:
    """Everything a scheduler may look at when routing one request."""

    corr: CorrelationSet
    question_vec: np.ndarray
    server: int
    request_id: int


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
        nearest = ctx.corr.nearest_distance()
        if nearest is None or nearest > self.threshold:
            return _CLOUD, 1.0
        return _CACHE, 1.0


class PayoffGreedyPolicy(BasePolicy):
    """Compare a predicted cache payoff against recent direct-cloud rewards.

    Both sides are scored with ``env.reward``, the reward the environment
    pays.  The cache payoff prediction treats the nearest hit's distance as
    the dissatisfaction a served answer would incur and charges only the
    edge delay.  The cloud side is a running mean of the last
    ``CLOUD_WINDOW`` rewards this server actually earned from direct-cloud
    requests, initialized with the model-implied direct-cloud reward so the
    policy is defined before any observation arrives.
    """

    def __init__(self, env: EdgeEnv):
        self.env = env
        self.edge_delay = env.delay_model.edge_delay
        self.initial_estimate = env.reward(
            -env.answer_model.sigma_llm, env.delay_model.cloud_delay
        )
        self._windows = [deque(maxlen=CLOUD_WINDOW) for _ in range(env.num_servers)]
        self._estimates = [self.initial_estimate] * env.num_servers

    def cloud_estimate(self, server: int) -> float:
        return self._estimates[server]

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        nearest = ctx.corr.nearest_distance()
        if nearest is None:
            return _CLOUD, 1.0
        # A perfect hit has distance 0; keep satisfaction strictly negative
        # the same way served answers do.
        predicted = self.env.reward(min(-nearest, -1e-9), self.edge_delay)
        if predicted > self.cloud_estimate(ctx.server):
            return _CACHE, 1.0
        return _CLOUD, 1.0

    def observe(self, transition) -> None:
        if transition.resolved == "B":
            window = self._windows[transition.server]
            window.append(transition.r)
            self._estimates[transition.server] = float(np.mean(window))


class RandomPolicy(BasePolicy):
    """Uniform coin flip between the cache path and the direct cloud call.

    Request ``i`` at server ``n`` flips the first draw of
    ``substream(env.seed, DOMAIN_POLICY, i, n)``, the stream the learned
    schedulers explore from.
    """

    def __init__(self, env: EdgeEnv):
        self._streams = KeyedStreams(env.seed, DOMAIN_POLICY, env.num_servers)

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        heads = self._streams(ctx.request_id, ctx.server).random() < 0.5
        return (_CACHE if heads else _CLOUD), 0.5


class LearnedPolicy(BasePolicy):
    """Acts greedily from a frozen policy snapshot, on the correlation
    features of ``env.query_width`` hits."""

    def __init__(self, snapshot: PolicySnapshot, env: EdgeEnv):
        self.snapshot = snapshot
        self.width = env.query_width

    def decide(self, ctx: DecisionContext) -> tuple[ActionChoice, float]:
        feats = correlation_features(ctx.corr, self.width)
        dist = self.snapshot.action_probs(feats[None, :], ctx.question_vec[None, :])[0]
        a = int(np.argmax(dist))
        return _CHOICES[a], float(dist[a])


@dataclass(frozen=True)
class AblationSpec:
    """Which learned-scheduler components a named variant enables."""

    use_encoder: bool
    use_demos: bool


ABLATIONS = {
    "mappo": AblationSpec(use_encoder=False, use_demos=False),
    "g-mappo": AblationSpec(use_encoder=False, use_demos=True),
    "t-mappo": AblationSpec(use_encoder=True, use_demos=False),
    "lrs": AblationSpec(use_encoder=True, use_demos=True),
}

_GREEDY_RE = re.compile(r"greedy-(\d+(?:\.\d+)?)")
_FIXED = {"random": RandomPolicy, "greedy-llm": PayoffGreedyPolicy, **ABLATIONS}
# Every policy name, as the CLI help and the unknown-name error list them.
POLICY_NAMES = (*_FIXED, "greedy-<threshold>")


def resolve_policy(name: str) -> AblationSpec | Callable[[EdgeEnv], BasePolicy]:
    """What the policy ``name`` runs: a learned variant's :data:`ABLATIONS`
    entry, or a constructor that builds the named heuristic for an env.
    Raises :class:`ConfigError` for a name outside :data:`POLICY_NAMES`."""
    if name in _FIXED:
        return _FIXED[name]
    m = _GREEDY_RE.fullmatch(name)
    if not m:
        raise ConfigError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        )
    policy = ThresholdPolicy(float(m.group(1)))  # rejects a zero threshold
    return lambda env: policy
