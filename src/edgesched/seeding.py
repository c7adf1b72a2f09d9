"""Deterministic random-stream management.

Every stochastic component draws from its own substream, derived from the
master seed plus a structured key (domain, slot, server, ...).  Two runs with
the same seed therefore consume identical random numbers even when unrelated
components are added, removed, or reordered, and a given (slot, server) pair
sees the same draws regardless of how many other servers ran before it.

:func:`substream` builds a ``SeedSequence`` and a ``PCG64`` for each key,
about 29 us a call.  The per-request streams of the environment and of the
learned policy's exploration go through :class:`KeyedStreams` instead, which
returns the same generator, bit for bit, for about 5 us.  It redoes
``SeedSequence``'s mixing and ``PCG64``'s seeding itself: numpy fixes both
algorithms as part of its stream-compatibility policy (NEP 19), so a key's
``PCG64`` state never changes between numpy releases, and
``tests/test_seeding.py`` checks the derivation against ``substream``.  Keys
outside its one-word fast path fall back to :func:`substream`.
"""

from __future__ import annotations

import numpy as np

# Stream domains.  Keep these stable: changing a value silently changes every
# seeded run.
DOMAIN_TOPICS = 0
DOMAIN_WORKLOAD = 1
DOMAIN_ANSWER = 2
DOMAIN_DELAY = 3
DOMAIN_POLICY = 4
DOMAIN_PARAMS = 5
DOMAIN_TRAINER = 6
DOMAIN_INDEX = 7
DOMAIN_DEMO = 8


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, key)``.

    The same (seed, key) always yields the same stream, and distinct keys
    yield statistically independent streams.
    """
    if any(k < 0 for k in key):
        raise ValueError(f"substream key components must be non-negative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# SeedSequence's hash constants.  Its hash multiplier advances once per
# hashmix call whatever the data, so the constants of every step are known.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 256  # request ids per table


def _hash_steps(init: int, mult: int, first: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiply) constants of hash steps ``first .. first + count - 1``."""
    h = init * pow(mult, first, 1 << 32) & _M32
    steps = []
    for _ in range(count):
        nxt = h * mult & _M32
        steps.append((h, nxt))
        h = nxt
    return steps


def _hash(value: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``value`` at one hash step."""
    value = (value ^ step[0]) * step[1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


def _words(x: int) -> int:
    """How many 32-bit words ``SeedSequence`` makes of ``x``."""
    return max(1, -(-x.bit_length() // 32))


class KeyedStreams:
    """The generators of ``substream(seed, domain, i, n)``, for ``n < servers``.

    ``SeedSequence`` folds its entropy words into a pool of four one at a
    time, and the seed and domain come first, so their pool is built once.
    The id and server words are then mixed in for a block of 256
    consecutive ids times every server with uint32 array arithmetic,
    giving each key's eight state words.  A call turns its key's words
    into ``PCG64``'s 128-bit ``(state, inc)`` and rewinds one private
    generator to it.

    That generator is shared: each call rewinds it, so draw everything from
    one call's generator before the next call.  Only the current block is
    kept.  Ids ascend in every generated and exported workload; a replay
    whose ids jump between blocks refills a block (about 0.4 ms) on each
    jump.  Ids of 2**32 and up, servers outside the table and negative keys
    go to :func:`substream`.
    """

    def __init__(self, seed: int, domain: int, servers: int):
        head = np.random.SeedSequence(seed, spawn_key=(domain,))
        self.seed, self.domain, self.servers = seed, domain, servers
        self._head = head.pool
        # The seed is padded to the pool size once a spawn key exists; the
        # pool's first fill and the all-pairs pass take 4 + 12 hash steps.
        words = max(_POOL, _words(int(seed))) + _words(int(domain))
        first = _POOL * _POOL + _POOL * (words - _POOL)
        self._id_steps = _hash_steps(_INIT_A, _MULT_A, first, _POOL)
        self._server_steps = _hash_steps(_INIT_A, _MULT_A, first + _POOL, _POOL)
        self._state_steps = _hash_steps(_INIT_B, _MULT_B, 0, 2 * _POOL)
        self._base = -1
        self._table: list = []
        self._bitgen = np.random.PCG64()
        self._rng = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._state["has_uint32"] = self._state["uinteger"] = 0

    def _fill(self, base: int) -> None:
        ids = np.arange(base, base + _BLOCK, dtype=np.uint32)
        pool = np.tile(self._head, (_BLOCK, 1))
        for dst, step in enumerate(self._id_steps):
            pool[:, dst] = _mix(pool[:, dst], _hash(ids, step))
        pool = np.repeat(pool[:, None, :], self.servers, axis=1)
        servers = np.arange(self.servers, dtype=np.uint32)
        for dst, step in enumerate(self._server_steps):
            pool[:, :, dst] = _mix(pool[:, :, dst], _hash(servers, step))
        steps = enumerate(self._state_steps)
        words = np.stack([_hash(pool[:, :, w % _POOL], s) for w, s in steps], axis=-1)
        # Little-endian word pairs make the four uint64 seeding values.
        self._table = words.astype("<u4").view("<u8").tolist()
        self._base = base

    def __call__(self, i: int, n: int) -> np.random.Generator:
        if not (0 <= i <= _M32 and 0 <= n < self.servers):
            return substream(self.seed, self.domain, i, n)
        base = i - i % _BLOCK
        if base != self._base:
            self._fill(base)
        s_hi, s_lo, inc_hi, inc_lo = self._table[i - base][n]
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
        state = self._state["state"]
        state["inc"] = inc
        state["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        self._bitgen.state = self._state
        return self._rng
