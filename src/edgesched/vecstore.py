"""Per-server semantic vector store.

Each edge server keeps question and answer vectors from past requests in a
store searched through an IVF-flat index: a seeded k-means partitions the
vectors into inverted lists, queries probe the nearest lists until enough
candidates are gathered, and the candidates are then scored exactly.  With a
single list the index degenerates to an exact scan.

Every record carries a cache value — a running estimate of the quality-minus-
delay payoff of reusing it — which drives both retrieval filtering and the
periodic eviction sweep that drops below-average records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyCorrelationError
from .seeding import DOMAIN_INDEX, substream

__all__ = [
    "RecordKind",
    "VectorRecord",
    "CorrelationEntry",
    "CorrelationSet",
    "IvfIndex",
    "VectorStore",
    "filter_best",
    "clamp_negative",
]


class RecordKind(IntEnum):
    QUESTION = 1
    ANSWER = 2


def clamp_negative(x: float) -> float:
    """Force ``x`` strictly below zero; non-negative inputs become -1e-6."""
    return x if x < 0.0 else -1e-6


@dataclass(eq=False)
class VectorRecord:
    """A stored vector plus its bookkeeping fields.

    Stores keep their records as rows of parallel arrays and hand out
    ``VectorRecord`` copies of those rows; a record names its row by ``rid``.
    """

    rid: int
    vec: np.ndarray
    kind: RecordKind
    freq: int
    cache_value: float  # strictly negative
    inserted_at: int
    pair_id: int  # links the question/answer halves of one exchange


_KINDS = (None, RecordKind.QUESTION, RecordKind.ANSWER)  # indexed by kind code


@dataclass(frozen=True)
class CorrelationEntry:
    """One search hit: the record and its distance to the query."""

    record: VectorRecord
    distance: float

    @property
    def similarity(self) -> float:
        """Bounded similarity in (0, 1]: 1 / (1 + distance)."""
        return 1.0 / (1.0 + self.distance)


class CorrelationSet:
    """Search results for one query, ordered by ascending distance.

    ``columns`` is a (3, len) array of similarity, kind code and use count
    per entry.  A set built from entries computes it from them; a store's
    query result holds its hits' fields as arrays and makes each entry
    only when it is first read.
    """

    def __init__(self, entries: Sequence[CorrelationEntry]):
        self._entries = list(entries)
        self.columns = np.array(
            [
                (e.similarity, float(e.record.kind), float(e.record.freq))
                for e in self._entries
            ],
            dtype=float,
        ).reshape(-1, 3).T

    @classmethod
    def _of_hits(cls, hits: tuple, columns: np.ndarray) -> CorrelationSet:
        """A set over ``hits``: per-hit arrays of rid, vector, kind code,
        freq, cache value, insert slot, pair id and distance."""
        out = cls.__new__(cls)
        out._entries = [None] * columns.shape[1]
        out._hits = hits
        out.columns = columns
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> CorrelationEntry:
        entry = self._entries[i]
        if entry is None:
            rid, vec, kind, freq, value, slot, pair, dist = self._hits
            record = VectorRecord(
                int(rid[i]),
                vec[i],
                _KINDS[kind[i]],
                int(freq[i]),
                float(value[i]),
                int(slot[i]),
                int(pair[i]),
            )
            entry = self._entries[i] = CorrelationEntry(record, float(dist[i]))
        return entry

    @property
    def entries(self) -> list[CorrelationEntry]:
        return [self[i] for i in range(len(self))]

    def best(self) -> CorrelationEntry | None:
        """Nearest entry, or None when empty."""
        return self[0] if self._entries else None

    def matrix(self, width: int) -> np.ndarray:
        """A (3, width) summary: similarity, kind code, and use count per hit.

        Missing columns (fewer hits than ``width``) are zero, which no real
        record can produce (similarity > 0, kind >= 1).
        """
        out = np.zeros((3, width))
        k = min(width, len(self._entries))
        out[:, :k] = self.columns[:, :k]
        return out


def filter_best(
    correlations: CorrelationSet, value_weight: float, freq_weight: float
) -> CorrelationEntry:
    """Pick the entry maximizing ``value_weight * similarity + freq_weight * freq``.

    Ties go to the entry nearest the query (the set is distance-ordered and
    argmax keeps the first maximum).  Raises :class:`EmptyCorrelationError`
    on an empty set.
    """
    if not len(correlations):
        raise EmptyCorrelationError("cannot filter an empty correlation set")
    columns = correlations.columns
    scores = value_weight * columns[0] + freq_weight * columns[2]
    return correlations[int(scores.argmax())]


def _nearest_centroid(
    centroids: np.ndarray, vecs: np.ndarray, sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Index of the closest centroid for each row of ``vecs``.

    ``sq_norms`` are the centroids' squared norms, computed here if omitted.
    """
    if sq_norms is None:
        sq_norms = (centroids * centroids).sum(axis=1)
    # ||v - c||^2 = ||v||^2 - 2 v.c + ||c||^2; the ||v||^2 term is constant per row.
    d2 = sq_norms[None, :] - 2.0 * vecs @ centroids.T
    return np.argmin(d2, axis=1)


def _cluster_means(
    vecs: np.ndarray, assign: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Each cluster's member mean; empty clusters keep their centroid.

    One weighted bincount over (cluster, column) cells adds every cell's
    members in row order, as ``vecs[assign == j].mean(axis=0)`` does for
    two or more columns, so the two agree bit for bit there.  (numpy sums a
    single column pairwise, which can differ in the last bits.)
    """
    k, dim = centroids.shape
    counts = np.bincount(assign, minlength=k)
    cells = (assign[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=vecs.ravel(), minlength=k * dim)
    filled = counts > 0
    out = centroids.copy()
    out[filled] = sums.reshape(k, dim)[filled] / counts[filled, None]
    return out


def _lloyd_kmeans(
    vecs: np.ndarray, k: int, rng: np.random.Generator, iters: int = 25
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means with seeded initialization from k data points.

    Empty clusters keep their previous centroid.  Returns (centroids,
    assignments).
    """
    n = vecs.shape[0]
    if k > n:
        raise ValueError(f"cannot build {k} clusters from {n} vectors")
    start = rng.choice(n, size=k, replace=False)
    centroids = vecs[start].copy()
    assign = _nearest_centroid(centroids, vecs)
    for _ in range(iters):
        new_centroids = _cluster_means(vecs, assign, centroids)
        new_assign = _nearest_centroid(new_centroids, vecs)
        moved = not np.array_equal(new_assign, assign)
        centroids, assign = new_centroids, new_assign
        if not moved:
            break
    return centroids, assign


class IvfIndex:
    """Inverted-list index state: coarse centroids and per-list store rows."""

    def __init__(self, centroids: np.ndarray, lists: list[list[int]]):
        self.centroids = centroids  # (nlist, dim)
        self.lists = lists  # store rows per inverted list
        self.sq_norms = (centroids * centroids).sum(axis=1)

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    def add(self, row: int, vec: np.ndarray) -> None:
        """Assign one new row to its nearest list."""
        li = int(_nearest_centroid(self.centroids, vec[None, :], self.sq_norms)[0])
        self.lists[li].append(row)

    def probe_order(self, query: np.ndarray) -> np.ndarray:
        """List indices sorted by ascending centroid distance to ``query``."""
        d2 = ((self.centroids - query[None, :]) ** 2).sum(axis=1)
        return np.argsort(d2, kind="stable")


# VectorStore's per-row arrays besides the vector matrix, with their dtypes.
_FIELDS = {
    "_rid": np.int64,
    "_kind": np.int64,  # RecordKind code
    "_freq": np.int64,
    "_value": np.float64,  # cache value
    "_slot": np.int64,  # inserted_at
    "_pair": np.int64,
}


class VectorStore:
    """One server's record store with IVF search and cache-value upkeep.

    Records are rows of parallel arrays: a ``(capacity, dim)`` vector matrix
    that doubles when full, plus one array per bookkeeping field.  The first
    ``len(store)`` rows are live and sorted by rid: inserts append, and an
    eviction sweep compacts the survivors in place.  Inverted lists hold row
    numbers, which stay valid until the next sweep rebuilds the index.  Each
    insert takes the next rid and the next pair id, so the rows are sorted
    by pair id too.
    """

    def __init__(
        self,
        dim: int,
        nlist: int = 128,
        min_candidates: int = 10,
        rebuild_every: int = 1000,
        seed: int = 0,
        server: int = 0,
    ):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if nlist < 1:
            raise ConfigError(f"nlist must be >= 1, got {nlist}")
        if min_candidates < 1:
            raise ConfigError(f"min_candidates must be >= 1, got {min_candidates}")
        if rebuild_every < 1:
            raise ConfigError(f"rebuild_every must be >= 1, got {rebuild_every}")
        self.dim = dim
        self.nlist = nlist
        self.min_candidates = min_candidates
        self.rebuild_every = rebuild_every
        self.seed = seed
        self.server = server
        self._n = 0
        self._vecs = np.empty((16, dim))
        for name, dtype in _FIELDS.items():
            setattr(self, name, np.empty(16, dtype=dtype))
        self._next_rid = 0
        self._next_pair = 0
        self._index: IvfIndex | None = None
        self._inserts_since_build = 0
        self._builds = 0
        self.eviction_log: list[tuple[int, int]] = []  # (slot, dropped)

    def __len__(self) -> int:
        return self._n

    @property
    def index_builds(self) -> int:
        """How many times the coarse quantizer has been retrained."""
        return self._builds

    def _row_of(self, rid: int) -> int | None:
        row = int(self._rid[: self._n].searchsorted(rid))
        return row if row < self._n and self._rid[row] == rid else None

    def _record(self, row: int) -> VectorRecord:
        return VectorRecord(
            rid=int(self._rid[row]),
            vec=self._vecs[row].copy(),
            kind=_KINDS[self._kind[row]],
            freq=int(self._freq[row]),
            cache_value=float(self._value[row]),
            inserted_at=int(self._slot[row]),
            pair_id=int(self._pair[row]),
        )

    def record(self, rid: int) -> VectorRecord:
        row = self._row_of(rid)
        if row is None:
            raise KeyError(rid)
        return self._record(row)

    def records(self) -> list[VectorRecord]:
        """Every live record, in rid order."""
        return [self._record(row) for row in range(self._n)]

    # -- insertion ---------------------------------------------------------

    def _append(self, vec, kind, value, slot, pair) -> int:
        """Write a record with the next rid and a use count of zero into the
        next free row; returns the row."""
        row = self._n
        if row == self._rid.shape[0]:
            for name in ("_vecs", *_FIELDS):
                old = getattr(self, name)
                new = np.empty((2 * row,) + old.shape[1:], dtype=old.dtype)
                new[:row] = old
                setattr(self, name, new)
        self._vecs[row] = vec
        self._rid[row] = self._next_rid
        self._next_rid += 1
        self._kind[row] = kind
        self._freq[row] = 0
        self._value[row] = value
        self._slot[row] = slot
        self._pair[row] = pair
        self._n += 1
        return row

    def insert_qa(
        self,
        question_vec: np.ndarray,
        answer_vec: np.ndarray,
        slot: int,
        initial_cache_value: float,
    ) -> tuple[int, int]:
        """Store a question/answer pair; returns the two record ids.

        Both records share a pair id and start with the same strictly
        negative cache value and a use count of zero.
        """
        for name, vec in (("question", question_vec), ("answer", answer_vec)):
            if vec.shape != (self.dim,):
                raise ConfigError(
                    f"{name} vector shape {vec.shape} != ({self.dim},)"
                )
        value = clamp_negative(float(initial_cache_value))
        pair = self._next_pair
        self._next_pair += 1
        for vec, kind in (
            (question_vec, RecordKind.QUESTION),
            (answer_vec, RecordKind.ANSWER),
        ):
            row = self._append(vec, kind, value, slot, pair)
            if self._index is not None:
                self._index.add(row, self._vecs[row])
        self._inserts_since_build += 2
        if self._index is None or self._inserts_since_build >= self.rebuild_every:
            self.rebuild_index()
        return self._next_rid - 2, self._next_rid - 1

    # -- pair lookups ------------------------------------------------------

    def pair_record(self, pair_id: int, kind: RecordKind) -> VectorRecord | None:
        # Pair ids grow with rid, so the (at most two) rows of a pair are
        # adjacent and sorted by pair id.
        n = self._n
        first = int(self._pair[:n].searchsorted(pair_id))
        for row in range(first, min(first + 2, n)):
            if self._pair[row] == pair_id and int(self._kind[row]) == kind:
                return self._record(row)
        return None

    # -- search ------------------------------------------------------------

    def _score(self, rows: np.ndarray, query: np.ndarray, width: int) -> CorrelationSet:
        if not rows.size:
            return CorrelationSet([])
        vecs = self._vecs[rows]
        diff = vecs - query[None, :]
        # np.linalg.norm(diff, axis=1)'s own formula, without its dispatch.
        dists = np.sqrt((diff * diff).sum(axis=1))
        # Rows are in rid order, so distance ties break by rid.
        order = np.lexsort((rows, dists))[:width]
        hit, dists = rows[order], dists[order]
        kinds, freqs = self._kind[hit], self._freq[hit]
        columns = np.array([1.0 / (1.0 + dists), kinds, freqs], dtype=float)
        hits = (
            self._rid[hit],
            vecs[order],
            kinds,
            freqs,
            self._value[hit],
            self._slot[hit],
            self._pair[hit],
            dists,
        )
        return CorrelationSet._of_hits(hits, columns)

    def exact_knn(self, query: np.ndarray, width: int) -> CorrelationSet:
        """Exact nearest neighbours by full scan; the reference for the index."""
        self._check_query(query, width)
        return self._score(np.arange(self._n), query, width)

    def query(self, query: np.ndarray, width: int) -> CorrelationSet:
        """Approximate nearest neighbours through the IVF index.

        Probes inverted lists in ascending centroid distance until at least
        ``max(min_candidates, width)`` candidates are collected, then scores
        those candidates exactly.
        """
        self._check_query(query, width)
        index = self._index
        if index is None:  # the store is empty
            return CorrelationSet([])
        target = max(self.min_candidates, width)
        candidates: list[int] = []
        for li in index.probe_order(query):
            candidates.extend(index.lists[li])
            if len(candidates) >= target:
                break
        return self._score(np.array(candidates), query, width)

    def _check_query(self, query: np.ndarray, width: int) -> None:
        if query.shape != (self.dim,):
            raise ConfigError(f"query shape {query.shape} != ({self.dim},)")
        if width < 1:
            raise ConfigError(f"width must be >= 1, got {width}")

    # -- index maintenance -------------------------------------------------

    def rebuild_index(self) -> IvfIndex | None:
        """Re-cluster all records into fresh inverted lists."""
        self._inserts_since_build = 0
        n = self._n
        if not n:
            self._index = None
            return None
        k = min(self.nlist, n)
        rng = substream(self.seed, DOMAIN_INDEX, self.server, self._builds)
        self._builds += 1
        centroids, assign = _lloyd_kmeans(self._vecs[:n], k, rng)
        lists: list[list[int]] = [[] for _ in range(k)]
        for row, li in enumerate(assign.tolist()):
            lists[li].append(row)
        self._index = IvfIndex(centroids, lists)
        return self._index

    # -- cache-value dynamics ----------------------------------------------

    def update_cache_value(self, record: VectorRecord, q: float, d: float) -> float:
        """Refresh a record after a cache hit: halve-toward ``q - d``, bump freq.

        The new value is the mean of the old value and the observed payoff
        ``q - d``, so the value decays geometrically toward the recent payoff.
        The store's row is updated and so is ``record``.
        """
        row = self._row_of(record.rid)
        if (
            row is None
            or int(self._pair[row]) != record.pair_id
            or int(self._kind[row]) != record.kind
        ):
            raise KeyError(f"record {record.rid} is not in this store")
        if q >= 0.0:
            raise ValueError(f"satisfaction must be strictly negative, got {q}")
        if d <= 0.0:
            raise ValueError(f"delay must be strictly positive, got {d}")
        value = (float(self._value[row]) + (q - d)) / 2.0
        self._value[row] = value
        self._freq[row] += 1
        record.cache_value = value
        record.freq = int(self._freq[row])
        return value

    def mean_cache_value(self) -> float:
        """The live records' mean cache value.

        Rounding can put ``np.mean`` outside the values (three equal values
        of -0.1 average to -0.09999999999999999), so the result is clamped
        into their range, where the exact mean lies.
        """
        if not self._n:
            raise EmptyCorrelationError("store is empty")
        values = self._value[: self._n]
        return float(min(max(np.mean(values), values.min()), values.max()))

    def evict(self, slot: int) -> int:
        """Drop records with below-mean cache value; returns how many fell.

        Records exactly at the mean survive.  The index is rebuilt from the
        survivors.
        """
        n = self._n
        if not n:
            return 0
        keep = ~(self._value[:n] < self.mean_cache_value())
        kept = int(keep.sum())
        for name in ("_vecs", *_FIELDS):
            arr = getattr(self, name)
            arr[:kept] = arr[:n][keep]
        self._n = kept
        self.rebuild_index()
        self.eviction_log.append((slot, n - kept))
        return n - kept
