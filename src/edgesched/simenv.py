"""Discrete-time serving environment for edge request scheduling.

Each time slot, every edge server receives one request and a scheduler picks
how to serve it:

* serve a cached answer from the server's vector store (fast, quality depends
  on how well the cache matches),
* forward the question directly to the cloud LLM (slow, steady quality), or
* enhance the LLM call with retrieved cache context (slowest; better answers
  when the retrieved context is relevant, worse when it is misleading).

The scheduler's primitive action is binary — use the cache path or go direct
— and the cache path splits into serve-vs-enhance based on how close the best
cached question is to the new one.  Every completed request yields a
satisfaction score (negative distance between answer and ideal answer), a
delay, and a scalar reward combining both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .seeding import DOMAIN_ANSWER, DOMAIN_DELAY, KeyedStreams
from .seeding import substream  # noqa: F401  (bench/tracer.py wraps this binding)
from .vecstore import CorrelationSet, RecordKind, VectorStore, best_hit
from .vecstore import filter_best  # noqa: F401  (bench/tracer.py wraps this binding)
from .workload import Request, random_unit

log = logging.getLogger(__name__)

USE_CACHE = 0  # primitive action: try the local cache path
DIRECT_CLOUD = 1  # primitive action: query the cloud LLM directly


@dataclass(frozen=True)
class ActionChoice:
    """A scheduler decision: the cache path (``USE_CACHE``) or the cloud.

    The environment splits the cache path into serve or enhance.
    """

    a: int

    def __post_init__(self):
        if self.a not in (USE_CACHE, DIRECT_CLOUD):
            raise ConfigError(f"primitive action must be 0 or 1, got {self.a}")


@dataclass(frozen=True)
class DelayModel:
    """Base service delays (seconds) with multiplicative lognormal jitter."""

    edge_delay: float = 0.81
    cloud_delay: float = 3.34
    jitter_sigma: float = 0.05

    def __post_init__(self):
        if self.edge_delay <= 0 or self.cloud_delay <= 0:
            raise ConfigError("base delays must be strictly positive")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")

    def sample_edge(self, rng: np.random.Generator) -> float:
        return self.edge_delay * float(rng.lognormal(0.0, self.jitter_sigma))

    def sample_cloud(self, rng: np.random.Generator) -> float:
        return self.cloud_delay * float(rng.lognormal(0.0, self.jitter_sigma))


@dataclass(frozen=True)
class AnswerModel:
    """Answer-quality model: noise radii around the ideal answer vector.

    A direct LLM answer lands ``sigma_llm`` away from the ideal answer; an
    enhanced call with relevant context tightens that to ``sigma_enhance``,
    while misleading context (retrieved entry farther than
    ``relevance_radius``) widens it to ``sigma_llm + sigma_mislead``.
    """

    sigma_llm: float = 0.15
    sigma_enhance: float = 0.05
    sigma_mislead: float = 0.10
    relevance_radius: float = 0.5

    def __post_init__(self):
        for name in ("sigma_llm", "sigma_enhance", "sigma_mislead"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.relevance_radius <= 0:
            raise ConfigError("relevance_radius must be strictly positive")


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """L2 distance of two vectors; ``np.linalg.norm(a - b)`` bit for bit."""
    diff = a - b
    return math.sqrt(diff.dot(diff))


def satisfaction(answer_vec: np.ndarray, reference_vec: np.ndarray) -> float:
    """Negative distance between the served answer and the ideal answer.

    Always strictly negative; a bit-perfect answer is clamped to -1e-9 so
    that downstream cache values stay in the negative half-line.
    """
    if answer_vec.shape != reference_vec.shape:
        raise ConfigError(
            f"answer shape {answer_vec.shape} != reference shape {reference_vec.shape}"
        )
    q = -_distance(answer_vec, reference_vec)
    return q if q < 0.0 else -1e-9


def qos_cost(q: float, d: float, quality_weight: float, delay_weight: float) -> float:
    """Per-request quality-of-service cost: dissatisfaction plus weighted delay."""
    return -quality_weight * q + delay_weight * d


def reward(
    q: float,
    d: float,
    quality_weight: float,
    delay_weight: float,
    scale: float = 10.0,
) -> float:
    """Scalar reward: the negated QoS cost, scaled for learning."""
    if quality_weight <= 0 or delay_weight <= 0 or scale <= 0:
        raise ConfigError("QoS weights and reward_scale must be strictly positive")
    return -scale * qos_cost(q, d, quality_weight, delay_weight)


@dataclass
class Transition:
    """One completed request: the decision taken and what it earned."""

    slot: int
    server: int
    user: int
    request_id: int
    action: int  # primitive action (0 cache path, 1 direct cloud)
    resolved: str  # 'A' serve-cached, 'B' direct-cloud, 'C' cache-enhanced
    action_prob: float
    q: float
    d: float
    r: float
    fallback: bool = False  # cache path requested but cache empty
    topic: int = -1


class EdgeEnv:
    """The multi-server serving loop: routes requests, scores them, and mutates
    stores.

    Protocol per slot: call :meth:`begin_slot` once (runs the periodic cache
    eviction sweep over every store), then query correlations and call
    :meth:`step` for each request, which picks its route (serve, direct or
    enhance) and serves it in one pass, or :meth:`broadcast_step`, which steps
    a request at every server and returns the served transition with all of
    them.  Random draws are keyed by (request id, server), so a given request
    sees identical noise regardless of scheduling mode or processing order.
    """

    def __init__(
        self,
        stores: Sequence[VectorStore],
        delay_model: DelayModel | None = None,
        answer_model: AnswerModel | None = None,
        quality_weight: float = 1.0,
        delay_weight: float = 0.1,
        reward_scale: float = 10.0,
        filter_value_weight: float = 1.0,
        filter_freq_weight: float = 0.1,
        query_width: int = 5,
        tau_serve: float = 0.15,
        evict_period: int = 500,
        seed: int = 0,
    ):
        if not stores:
            raise ConfigError("need at least one store")
        if query_width < 1:
            raise ConfigError(f"query_width must be >= 1, got {query_width}")
        if tau_serve <= 0:
            raise ConfigError("tau_serve must be strictly positive")
        if evict_period < 0:
            raise ConfigError("evict_period must be >= 0 (0 disables eviction)")
        if quality_weight <= 0 or delay_weight <= 0 or reward_scale <= 0:
            raise ConfigError("QoS weights and reward_scale must be strictly positive")
        self.stores = list(stores)
        self.delay_model = delay_model or DelayModel()
        self.answer_model = answer_model or AnswerModel()
        self.quality_weight = quality_weight
        self.delay_weight = delay_weight
        self.reward_scale = reward_scale
        self.filter_value_weight = filter_value_weight
        self.filter_freq_weight = filter_freq_weight
        self.query_width = query_width
        self.tau_serve = tau_serve
        self.evict_period = evict_period
        self.seed = seed
        self._delay_streams = KeyedStreams(seed, DOMAIN_DELAY, len(self.stores))
        self._answer_streams = KeyedStreams(seed, DOMAIN_ANSWER, len(self.stores))
        self.fallback_count = 0
        self.action_counts = {"A": 0, "B": 0, "C": 0}
        self._last_evict = -1  # the slot of the last sweep

    @property
    def num_servers(self) -> int:
        return len(self.stores)

    def reward(self, q: float, d: float) -> float:
        """The reward of satisfaction ``q`` at delay ``d`` under this
        environment's QoS weights and scale."""
        return reward(q, d, self.quality_weight, self.delay_weight, self.reward_scale)

    def begin_slot(self, slot: int) -> None:
        """Run slot-boundary maintenance: the periodic eviction sweep."""
        if not self.evict_period or slot % self.evict_period or slot == self._last_evict:
            return
        self._last_evict = slot
        for n, store in enumerate(self.stores):
            dropped = store.evict(slot)
            if dropped:
                log.debug("slot %d server %d: evicted %d records", slot, n, dropped)

    def correlations(self, server: int, question_vec: np.ndarray) -> CorrelationSet:
        """Retrieve the correlation set a scheduler should decide from."""
        return self.stores[server].query(question_vec, self.query_width)

    def step(
        self,
        request: Request,
        action: ActionChoice,
        correlations: CorrelationSet | None = None,
        action_prob: float = 1.0,
        server: int | None = None,
    ) -> Transition:
        """Serve one request at one server and apply all store mutations.

        ``correlations`` defaults to :meth:`correlations` at the server.  The
        route:

        * 'B' direct cloud: the action is ``DIRECT_CLOUD``, or the cache path
          on an empty set (a fallback).  One cloud delay, noise ``sigma_llm``.
        * Otherwise :func:`best_hit` picks a hit.  'A' serves its pair's
          answer when the pair's question lies within ``tau_serve`` of the
          request and the answer half is still stored: one edge delay, no
          noise.
        * Else 'C' enhances a cloud call with the hit as context: an edge
          then a cloud delay, and noise ``sigma_enhance`` when the hit lies
          within ``relevance_radius``, else ``sigma_llm + sigma_mislead``.
        """
        n = request.server if server is None else server
        if not 0 <= n < len(self.stores):
            raise ConfigError(f"server {n} out of range for {len(self.stores)} stores")
        store = self.stores[n]
        corr = correlations
        if corr is None:
            corr = self.correlations(n, request.question_vec)
        delay_rng = self._delay_streams(request.id, n)
        fallback = action.a == USE_CACHE and not len(corr)
        if action.a == DIRECT_CLOUD or fallback:
            if fallback:
                log.debug(
                    "slot %d server %d: cache path requested on empty correlations; "
                    "falling back to direct cloud",
                    request.slot,
                    store.server,
                )
            resolved, sigma = "B", self.answer_model.sigma_llm
            d = self.delay_model.sample_cloud(delay_rng)
        else:
            i = best_hit(corr, self.filter_value_weight, self.filter_freq_weight)
            row, question, answer = store.hit_pair(corr, i)
            dist = float(corr.hits.distance[i])
            if question is None:
                qdist = np.inf
            elif int(corr.hits.kind[i]) == RecordKind.QUESTION:
                qdist = dist
            else:
                qdist = _distance(request.question_vec, question)
            if qdist < self.tau_serve and answer is not None:
                resolved, answer_vec = "A", answer
                d = self.delay_model.sample_edge(delay_rng)
            else:
                model = self.answer_model
                resolved = "C"
                if dist < model.relevance_radius:
                    sigma = model.sigma_enhance
                else:
                    sigma = model.sigma_llm + model.sigma_mislead
                d = self.delay_model.sample_edge(delay_rng)
                d += self.delay_model.sample_cloud(delay_rng)
        if resolved != "A":  # only cloud answers draw noise
            noise = sigma * random_unit(self._answer_streams(request.id, n), store.dim)
            answer_vec = request.reference_vec + noise
        q = satisfaction(answer_vec, request.reference_vec)
        # Store mutations: the retrieved record (A, C) updates its running
        # value; cloud answers (B, C) are cached as a fresh pair seeded with
        # this payoff.
        if resolved != "B":
            store.refresh(row, q, d)
        if resolved != "A":
            store.insert_qa(request.question_vec, answer_vec, request.slot, q - d)
        r = self.reward(q, d)
        if not math.isfinite(r):
            raise FloatingPointError(f"slot {request.slot} server {n}: reward {r} is not finite")
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
            r=r,
            fallback=fallback,
            topic=request.topic,
        )

    def broadcast_step(
        self,
        request: Request,
        actions: Sequence[ActionChoice],
        correlations: Sequence[CorrelationSet] | None = None,
        action_probs: Sequence[float] | None = None,
    ) -> tuple[Transition, list[Transition]]:
        """Serve one request at every server; the fastest answer wins.

        All servers process the request and mutate their stores.  Returns
        ``(served, outcomes)``: ``outcomes`` holds every server's transition
        in server order, and ``served`` is the one whose delay is smallest
        (ties to the lowest server index), what the user actually
        experiences.
        """
        if len(actions) != self.num_servers:
            raise ConfigError(
                f"need one action per server ({self.num_servers}), got {len(actions)}"
            )
        outcomes = []
        for n in range(self.num_servers):
            corr = correlations[n] if correlations is not None else None
            prob = action_probs[n] if action_probs is not None else 1.0
            outcomes.append(self.step(request, actions[n], corr, prob, server=n))
        return min(outcomes, key=lambda t: (t.d, t.server)), outcomes
