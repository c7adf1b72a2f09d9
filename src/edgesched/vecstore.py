"""Per-server semantic vector store.

Each edge server keeps question and answer vectors from past requests in a
store searched through an IVF-flat index: a seeded k-means partitions the
vectors into inverted lists, queries probe the nearest lists until enough
candidates are gathered, and the candidates are then scored exactly.  A
single-list store keeps no index and scans.  A query's hits name their store
rows, and a cache hit is served and refreshed by its row.

Every record carries a cache value — a running estimate of the quality-minus-
delay payoff of reusing it — which drives both retrieval filtering and the
periodic eviction sweep that drops below-average records.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
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
    "Hits",
    "IvfIndex",
    "VectorStore",
    "best_hit",
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
_RECORD_FIELDS = [f.name for f in fields(VectorRecord)]


@dataclass(frozen=True)
class CorrelationEntry:
    """One search hit: the record and its distance to the query."""

    record: VectorRecord
    distance: float

    @property
    def similarity(self) -> float:
        """Bounded similarity in (0, 1]: 1 / (1 + distance)."""
        return 1.0 / (1.0 + self.distance)


# A query's hits, nearest first: per-hit arrays of store row, rid, vector,
# kind code, freq, cache value, insert slot, pair id and distance.
Hits = namedtuple("Hits", "row rid vec kind freq value slot pair distance")


class CorrelationSet:
    """Search results for one query, ordered by ascending distance.

    ``hits`` holds them as one table of arrays.  A store's query result
    names each hit's row in that store; a set built from entries has row -1.
    ``self[i]`` copies hit ``i`` out.
    """

    def __init__(self, entries: Sequence[CorrelationEntry]):
        recs = [e.record for e in entries]
        cols = [np.array([getattr(r, name) for r in recs]) for name in _RECORD_FIELDS]
        dist = np.array([e.distance for e in entries], dtype=float)
        self.hits = Hits(np.full(len(recs), -1), *cols, dist)
        self._store = None

    @classmethod
    def _of_hits(cls, hits: Hits, store: VectorStore) -> CorrelationSet:
        out = cls.__new__(cls)
        out.hits, out._store = hits, store
        return out

    def __len__(self) -> int:
        return len(self.hits.row)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        h = self.hits
        record = VectorRecord(
            int(h.rid[i]),
            h.vec[i],
            _KINDS[h.kind[i]],
            int(h.freq[i]),
            float(h.value[i]),
            int(h.slot[i]),
            int(h.pair[i]),
        )
        return CorrelationEntry(record, float(h.distance[i]))

    def best(self) -> CorrelationEntry | None:
        """Nearest entry, or None when empty."""
        return self[0] if len(self) else None

    def nearest_distance(self) -> float | None:
        """The nearest hit's distance, or None when empty; builds no record."""
        return float(self.hits.distance[0]) if len(self) else None


def best_hit(
    correlations: CorrelationSet, value_weight: float, freq_weight: float
) -> int:
    """The hit maximizing ``value_weight * similarity + freq_weight * freq``.

    Ties go to the hit nearest the query (the set is distance-ordered and
    argmax keeps the first maximum).  Raises :class:`EmptyCorrelationError`
    on an empty set.
    """
    if not len(correlations):
        raise EmptyCorrelationError("cannot filter an empty correlation set")
    h = correlations.hits
    scores = value_weight * (1.0 / (1.0 + h.distance)) + freq_weight * h.freq
    return int(scores.argmax())


def filter_best(
    correlations: CorrelationSet, value_weight: float, freq_weight: float
) -> CorrelationEntry:
    """The entry at :func:`best_hit`."""
    return correlations[best_hit(correlations, value_weight, freq_weight)]


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
    return d2.argmin(axis=1)


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


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def _rounding_margin(dim: int, max_sq: float, query: np.ndarray) -> float:
    """A gap in ``|c|^2 - 2 c.q`` beyond which the exact scan agrees on order.

    The fast rankings score a vector ``c`` (a centroid or a stored row) by
    ``g = |c|^2 - 2 c.q``, which is ``|c - q|^2 - |q|^2``: the ``|q|^2`` term
    is the same for every ``c``, so ``g`` ranks as the squared distance.  The
    exact reference computes ``s = sum_j (c_j - q_j)^2`` term by term.  With
    unit roundoff ``u = eps / 2``, ``gamma_k = k u / (1 - k u)`` and
    ``R = max|c| + |q|`` (so ``|c - q| <= R`` and ``|c|^2 + 2|c||q| <= R^2``):

    * ``s``: each term carries two roundings (the difference and its square)
      and a ``dim``-term sum at most ``dim - 1`` more, in any summation
      order, so ``|s - |c - q|^2| <= gamma_{dim+2} R^2``.
    * ``g``: ``|c|^2`` is a ``dim``-term sum (``gamma_dim |c|^2``), the
      product with the exactly scaled ``-2c`` a ``dim``-term dot product
      (``gamma_dim 2|c||q|``, whatever order or fused multiply-adds the BLAS
      uses), and the final addition one more rounding, so ``g`` is within
      ``gamma_{dim+1} R^2`` of ``|c - q|^2 - |q|^2``.

    So ``g_b - g_a > 2 (gamma_{dim+1} + gamma_{dim+2}) R^2`` forces
    ``|c_b - q|^2 - |c_a - q|^2 > 2 gamma_{dim+2} R^2``, hence ``s_b > s_a``:
    the exact reference ranks ``a`` strictly before ``b``.  That bound is
    below ``4 gamma_{dim+2} R^2``, about ``2 (dim + 2) eps R^2``.  The margin
    returned is twice that, ``4 (dim + 2) eps R^2``.  The slack covers the
    ``gamma`` denominators, the rounding of ``R`` and of the margin itself,
    and the square root the store's scoring takes: ``fl(sqrt(s_b)) >
    fl(sqrt(s_a))`` once ``s_b - s_a > u (sqrt(s_a) + sqrt(s_b))^2``, at most
    ``2 eps R^2 (1 + gamma_{dim+2})``.

    A product that underflows also loses up to half a subnormal spacing
    ``tiny``, absolutely: at most ``3 dim tiny`` over the four values
    compared, and two spacings at the square root.  The margin adds
    ``8 (dim + 2) tiny`` for them.

    A NaN or infinite input makes the margin or the values non-finite; every
    comparison against them fails, and the callers then take the exact path.
    """
    r = math.sqrt(max_sq) + math.sqrt(query.dot(query))
    return 4.0 * (dim + 2) * (_EPS * r * r + 2.0 * _TINY)


def _walk(order, lists: list[list[int]], target: int) -> tuple[list[int], bool]:
    """The lists taken in ``order`` until they hold ``target`` rows, and
    whether they got there before ``order`` ran out."""
    probed: list[int] = []
    count = 0
    for li in order:
        probed.append(li)
        count += len(lists[li])
        if count >= target:
            return probed, True
    return probed, False


class IvfIndex:
    """Inverted-list index state: coarse centroids and per-list store rows."""

    def __init__(self, centroids: np.ndarray, lists: list[list[int]]):
        self.centroids = centroids  # (nlist, dim)
        self.lists = lists  # store rows per inverted list
        self.sq_norms = (centroids * centroids).sum(axis=1)
        self.neg2c = -2.0 * centroids
        self._max_sq = float(self.sq_norms.max())

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    def add(self, row: int, vec: np.ndarray) -> None:
        """Assign one new row to its nearest list."""
        li = int(_nearest_centroid(self.centroids, vec[None, :], self.sq_norms)[0])
        self.lists[li].append(row)

    def probe_order(self, query: np.ndarray, target: int) -> list[int]:
        """The lists to probe for ``query``: by ascending centroid distance,
        until they hold ``target`` rows.

        The lists are ranked by one matrix-vector product,
        ``sq_norms + neg2c @ query``.  That ranking is returned when the gaps
        between consecutive values, over every list taken and the next one
        ranked, all exceed :func:`_rounding_margin`: then the exact walk
        takes the same lists in the same order.  When the lists hold fewer
        than ``target`` rows in all, every list is taken and the order
        cannot matter.  Otherwise the exact walk runs.
        """
        probed = self._ranked_probe(query, target)
        return self._exact_probe(query, target) if probed is None else probed

    def _ranked_probe(self, query: np.ndarray, target: int) -> list[int] | None:
        """The guarded matrix-vector walk; None where the guard fails."""
        g = self.sq_norms + self.neg2c @ query
        order = g.argsort()
        probed, reached = _walk(order, self.lists, target)
        if not reached:
            return probed
        ranked = g[order[: len(probed) + 1]].tolist()
        margin = _rounding_margin(self.centroids.shape[1], self._max_sq, query)
        if all(b - a > margin for a, b in zip(ranked, ranked[1:])):
            return probed
        return None

    def _exact_probe(self, query: np.ndarray, target: int) -> list[int]:
        """The exact walk: lists by stable argsort of the exact squared
        centroid distances."""
        d2 = ((self.centroids - query[None, :]) ** 2).sum(axis=1)
        return _walk(np.argsort(d2, kind="stable"), self.lists, target)[0]


# VectorStore's per-row arrays besides the vector matrix, with their dtypes.
_FIELDS = {
    "_rid": np.int64,
    "_kind": np.int64,  # RecordKind code
    "_freq": np.int64,
    "_value": np.float64,  # cache value
    "_slot": np.int64,  # inserted_at
    "_pair": np.int64,
    "_sq": np.float64,  # squared norm of the row's vector
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

    def _row_of(self, rid: int) -> int:
        row = int(self._rid[: self._n].searchsorted(rid))
        if row < self._n and self._rid[row] == rid:
            return row
        raise KeyError(f"record {rid} is not in this store")

    def _hit_set(self, rows: np.ndarray, dists: np.ndarray) -> CorrelationSet:
        """``rows`` as hits at distances ``dists``."""
        hits = Hits(
            rows,
            self._rid[rows],
            self._vecs[rows],
            self._kind[rows],
            self._freq[rows],
            self._value[rows],
            self._slot[rows],
            self._pair[rows],
            dists,
        )
        return CorrelationSet._of_hits(hits, self)

    def record(self, rid: int) -> VectorRecord:
        return self._hit_set(np.array([self._row_of(rid)]), np.zeros(1))[0].record

    def records(self) -> list[VectorRecord]:
        """Every live record, in rid order."""
        n = self._n
        return [e.record for e in self._hit_set(np.arange(n), np.zeros(n))]

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
        self._sq[row] = self._vecs[row].dot(self._vecs[row])
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
        stale = self._index is None or self._inserts_since_build >= self.rebuild_every
        if self.nlist > 1 and stale:
            self.rebuild_index()
        return self._next_rid - 2, self._next_rid - 1

    # -- cache hits --------------------------------------------------------

    def hit_pair(
        self, corr: CorrelationSet, i: int
    ) -> tuple[int, np.ndarray | None, np.ndarray | None]:
        """Hit ``i``'s row in this store and the question and answer vectors
        of its pair; a half that has been evicted is None.  A question is
        stored just before its answer: the partner is adjacent.

        Raises ``KeyError`` unless ``corr`` is this store's query result and
        the row still holds the hit's record (an eviction sweep moves rows).
        """
        row = int(corr.hits.row[i])
        n = self._n
        if corr._store is not self or row >= n or self._rid[row] != corr.hits.rid[i]:
            raise KeyError(f"hit {i} is not a live row of this store")
        question = row if int(self._kind[row]) == RecordKind.QUESTION else row - 1
        pair = self._pair[row]
        return row, *[
            self._vecs[r] if 0 <= r < n and self._pair[r] == pair else None
            for r in (question, question + 1)
        ]

    # -- search ------------------------------------------------------------

    def _score(self, rows: np.ndarray, query: np.ndarray, width: int) -> CorrelationSet:
        vecs = self._vecs[rows]
        diff = vecs - query[None, :]
        # np.linalg.norm(diff, axis=1)'s own formula, without its dispatch.
        dists = np.sqrt((diff * diff).sum(axis=1))
        # Rows are in rid order, so distance ties break by rid.
        order = np.lexsort((rows, dists))[:width]
        return self._hit_set(rows[order], dists[order])

    def exact_knn(self, query: np.ndarray, width: int) -> CorrelationSet:
        """Exact nearest neighbours; the reference for the index.

        Equal, bit for bit, to scoring every row.  Rows are ranked by
        ``|x|^2 - 2 x.q`` from the kept squared norms, and only the rows
        within :func:`_rounding_margin` of the ``width``-th value are scored:
        every other row is strictly farther than ``width`` scored rows.
        """
        self._check_query(query, width)
        n = self._n
        rows = np.arange(n)
        if n > width:
            sq = self._sq[:n]
            g = sq + self._vecs[:n] @ (-2.0 * query)
            bound = float(np.partition(g, width - 1)[width - 1])
            bound += _rounding_margin(self.dim, sq.max(), query)
            # ``not >`` keeps every row when a value or the bound is NaN.
            rows = np.flatnonzero(~(g > bound))
        return self._score(rows, query, width)

    def query(self, query: np.ndarray, width: int) -> CorrelationSet:
        """Approximate nearest neighbours through the IVF index.

        Probes inverted lists in ascending centroid distance until at least
        ``max(min_candidates, width)`` candidates are collected, then scores
        those candidates exactly.  A store without an index (a single-list
        or an empty one) is an exact scan.
        """
        index = self._index
        if index is None:
            return self.exact_knn(query, width)
        self._check_query(query, width)
        candidates: list[int] = []
        for li in index.probe_order(query, max(self.min_candidates, width)):
            candidates.extend(index.lists[li])
        return self._score(np.array(candidates), query, width)

    def _check_query(self, query: np.ndarray, width: int) -> None:
        if query.shape != (self.dim,):
            raise ConfigError(f"query shape {query.shape} != ({self.dim},)")
        if width < 1:
            raise ConfigError(f"width must be >= 1, got {width}")

    # -- index maintenance -------------------------------------------------

    def rebuild_index(self) -> IvfIndex | None:
        """Re-cluster all records into fresh inverted lists.  An empty or a
        single-list store keeps no index: its queries scan every row."""
        self._inserts_since_build = 0
        n = self._n
        if not n or self.nlist == 1:
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

    def refresh(self, row: int, q: float, d: float) -> float:
        """Refresh a row after a cache hit: halve-toward ``q - d``, bump freq.

        The new value is the mean of the old value and the observed payoff
        ``q - d``, so the value decays geometrically toward the recent payoff.
        Returns the new value.
        """
        if q >= 0.0:
            raise ValueError(f"satisfaction must be strictly negative, got {q}")
        if d <= 0.0:
            raise ValueError(f"delay must be strictly positive, got {d}")
        value = (float(self._value[row]) + (q - d)) / 2.0
        self._value[row] = value
        self._freq[row] += 1
        return value

    def update_cache_value(self, record: VectorRecord, q: float, d: float) -> float:
        """:meth:`refresh` the row holding ``record``, and ``record`` with it."""
        row = self._row_of(record.rid)
        if (
            int(self._pair[row]) != record.pair_id
            or int(self._kind[row]) != record.kind
        ):
            raise KeyError(f"record {record.rid} is not in this store")
        record.cache_value = self.refresh(row, q, d)
        record.freq = int(self._freq[row])
        return record.cache_value

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
