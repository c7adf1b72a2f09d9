"""Synthetic request workloads with topic and repetition structure.

A workload is a stream of requests, one per edge server per time slot.  Each
request carries a unit question vector drawn from a topic model (fresh topics
are issued verbatim, repeats are paraphrased with small noise) and a unit
reference vector representing the ideal answer for that topic.  Topics are
partitioned across servers so each server sees a clustered sub-population,
mirroring geographically grouped users.

Streams can also be exported to and loaded from JSON-lines files so that the
exact same request sequence can be replayed across processes.
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import jsonl
from .errors import ConfigError, ParseError
from .seeding import DOMAIN_TOPICS, DOMAIN_WORKLOAD, substream

log = logging.getLogger(__name__)

_NORM_TOL = 1e-6


def unit(v: np.ndarray) -> np.ndarray:
    """Return ``v`` scaled to unit L2 norm."""
    n = math.sqrt(v.dot(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a uniformly distributed unit vector."""
    return unit(rng.normal(size=dim))


@dataclass(frozen=True)
class TopicSet:
    """Unit topic centroids plus each topic's reference answer.

    A topic's reference answer is the renormalized sum of its centroid and a
    unit answer offset, so every topic has exactly one deterministic ideal
    answer; ``references`` holds them as read-only rows.
    """

    centroids: np.ndarray  # (num_topics, dim), unit rows
    references: np.ndarray  # (num_topics, dim), unit rows, read-only

    def __post_init__(self):
        if self.centroids.shape != self.references.shape:
            raise ConfigError(
                f"centroids {self.centroids.shape} and references "
                f"{self.references.shape} must have matching shapes"
            )

    @property
    def num_topics(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def reference_for(self, topic: int) -> np.ndarray:
        """Deterministic ideal-answer vector for ``topic``, read-only."""
        return self.references[topic]


def generate_topics(num_topics: int, dim: int, seed: int) -> TopicSet:
    """Sample a seeded topic population of unit centroids and answer offsets."""
    if num_topics < 1:
        raise ConfigError(f"num_topics must be >= 1, got {num_topics}")
    if dim < 8:
        raise ConfigError(f"topic dimensionality must be >= 8, got {dim}")
    rng = substream(seed, DOMAIN_TOPICS)
    centroids = rng.normal(size=(num_topics, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    offsets = rng.normal(size=(num_topics, dim))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    references = centroids + offsets
    for row in references:  # in place: no per-topic array outlives the loop
        row[...] = unit(row)
    references.flags.writeable = False
    return TopicSet(centroids=centroids, references=references)


@dataclass(eq=False)
class Request:
    """One user question: who asked it, when, and what a perfect answer is."""

    id: int
    user: int
    server: int
    slot: int
    question_vec: np.ndarray
    reference_vec: np.ndarray
    topic: int = -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return (
            self.id == other.id
            and self.user == other.user
            and self.server == other.server
            and self.slot == other.slot
            and self.topic == other.topic
            and np.array_equal(self.question_vec, other.question_vec)
            and np.array_equal(self.reference_vec, other.reference_vec)
        )


class _ServerSampler:
    """Draws the request stream for a single server.

    Fresh questions are issued exactly at the topic centroid; repeats pick a
    previously issued topic and perturb the centroid with paraphrase noise.
    If the server's fresh-topic pool runs dry, nominally-fresh draws fall back
    to repeats; conversely a repeat drawn before anything was issued falls
    back to a fresh topic.
    """

    def __init__(
        self,
        topics: TopicSet,
        topic_pool: Sequence[int],
        repeat_ratio: float,
        paraphrase_sigma: float,
        rng: np.random.Generator,
    ):
        self._topics = topics
        self._fresh = list(topic_pool)
        self._issued: list[int] = []  # distinct topics, in first-issue order
        self._repeat_ratio = repeat_ratio
        self._sigma = paraphrase_sigma
        self._rng = rng

    def next_topic(self) -> tuple[int, bool]:
        """Pick the next topic; returns (topic, is_repeat)."""
        rng = self._rng
        want_repeat = rng.random() < self._repeat_ratio
        if want_repeat and not self._issued:
            want_repeat = False
        if not want_repeat and not self._fresh:
            want_repeat = True  # pool exhausted: every further draw repeats
        if want_repeat:
            topic = self._issued[int(rng.integers(len(self._issued)))]
            return topic, True
        topic = self._fresh.pop(int(rng.integers(len(self._fresh))))
        self._issued.append(topic)
        return topic, False

    def question_for(self, topic: int, is_repeat: bool) -> np.ndarray:
        centroid = self._topics.centroids[topic]
        if not is_repeat or self._sigma == 0.0:
            return centroid.copy()
        noisy = centroid + self._sigma * random_unit(self._rng, self._topics.dim)
        return unit(noisy)


def check_workload(
    topics: int, servers: int, users: int, repeat_ratio: float, paraphrase_sigma: float
) -> None:
    """Raise :class:`ConfigError` unless a :class:`WorkloadGenerator` can run
    with these settings; its parameters are named after the config fields."""
    if servers < 1:
        raise ConfigError(f"servers must be >= 1, got {servers}")
    if users < servers:
        raise ConfigError(
            f"need at least one user per server ({users} users, {servers} servers)"
        )
    if not 0.0 <= repeat_ratio <= 1.0:
        raise ConfigError(f"repeat_ratio must lie in [0, 1], got {repeat_ratio}")
    if paraphrase_sigma < 0.0:
        raise ConfigError(f"paraphrase_sigma must be >= 0, got {paraphrase_sigma}")
    if topics < servers:
        raise ConfigError(
            f"{topics} topics cannot be partitioned across {servers} servers"
        )


class WorkloadGenerator:
    """Seeded multi-server request stream: one request per server per slot."""

    def __init__(
        self,
        topics: TopicSet,
        num_servers: int,
        num_users: int,
        repeat_ratio: float,
        paraphrase_sigma: float,
        seed: int,
    ):
        check_workload(
            topics.num_topics, num_servers, num_users, repeat_ratio, paraphrase_sigma
        )
        self.topics = topics
        # Round-robin partitions keep each server's topic population disjoint.
        self._samplers = [
            _ServerSampler(
                topics,
                range(n, topics.num_topics, num_servers),
                repeat_ratio,
                paraphrase_sigma,
                substream(seed, DOMAIN_WORKLOAD, n),
            )
            for n in range(num_servers)
        ]
        self._users = [
            [u for u in range(num_users) if u % num_servers == n]
            for n in range(num_servers)
        ]
        self._next_id = 0

    def slot_requests(self, slot: int) -> list[Request]:
        """Generate the requests for one slot, in server order."""
        out = []
        for n, sampler in enumerate(self._samplers):
            topic, is_repeat = sampler.next_topic()
            users = self._users[n]
            req = Request(
                id=self._next_id,
                user=users[slot % len(users)],
                server=n,
                slot=slot,
                question_vec=sampler.question_for(topic, is_repeat),
                reference_vec=self.topics.reference_for(topic),
                topic=topic,
            )
            self._next_id += 1
            out.append(req)
        return out

    def stream(self, num_slots: int, start_slot: int = 0) -> Iterator[Request]:
        """Yield ``num_slots`` slots' worth of requests in slot-major order."""
        for slot in range(start_slot, start_slot + num_slots):
            yield from self.slot_requests(slot)


def save_workload(path, requests: Sequence[Request]) -> int:
    """Write requests to a JSON-lines file; returns the number written."""
    with jsonl.replacing(path) as fh:
        for req in requests:
            row = {
                "id": req.id,
                "user": req.user,
                "server": req.server,
                "slot": req.slot,
                "topic": req.topic,
                "question_vec": [float(x) for x in req.question_vec],
                "reference_vec": [float(x) for x in req.reference_vec],
            }
            fh.write(json.dumps(row) + "\n")
    return len(requests)


def load_workload(path, dim: int | None = None) -> list[Request]:
    """Parse a JSON-lines workload file into requests, sorted by slot.

    Vectors whose norm drifts from 1 by more than 1e-6 are renormalized with
    a warning; malformed lines raise :class:`ParseError` naming the line, and
    vectors of the wrong length a :class:`ConfigError`.
    """
    out: list[Request] = []
    for where, row in jsonl.rows(path):
        vecs = {}
        for name in ("question_vec", "reference_vec"):
            vec = jsonl.vector(where, row, name)
            if dim is not None and vec.shape[0] != dim:
                raise ConfigError(
                    f"{where}: {name} has dimension {vec.shape[0]}, expected {dim}"
                )
            with np.errstate(over="ignore"):  # an overflowing norm is rejected below
                norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ParseError(f"{where}: {name} is a zero vector")
            if norm == np.inf:
                raise ParseError(f"{where}: {name} norm overflows")
            if abs(norm - 1.0) > _NORM_TOL:
                warnings.warn(f"{where}: {name} norm {norm:.6g} != 1; renormalizing")
                vec = vec / norm
            vecs[name] = vec
        out.append(
            Request(
                id=jsonl.integer(where, row, "id"),
                user=jsonl.integer(where, row, "user"),
                server=jsonl.integer(where, row, "server"),
                slot=jsonl.integer(where, row, "slot"),
                question_vec=vecs["question_vec"],
                reference_vec=vecs["reference_vec"],
                topic=(
                    jsonl.integer(where, row, "topic", low=-1) if "topic" in row else -1
                ),
            )
        )
    out.sort(key=lambda r: r.slot)  # stable: preserves within-slot file order
    return out
