"""KeyedStreams returns substream's generators bit for bit."""

import pytest
from hypothesis import given, settings, strategies as st

from edgesched.seeding import (
    DOMAIN_ANSWER,
    DOMAIN_DELAY,
    DOMAIN_POLICY,
    KeyedStreams,
    substream,
)

SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**140),
)
IDS = st.one_of(
    st.sampled_from([0, 255, 256, 511, 2**32 - 1]),  # block edges
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**40),  # past the one-word fast path: substream
)


def assert_same_stream(a, b, sigma):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()
    assert a.lognormal(0.0, sigma) == b.lognormal(0.0, sigma)
    assert a.normal(size=64).tobytes() == b.normal(size=64).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    domain=st.sampled_from([DOMAIN_DELAY, DOMAIN_ANSWER, DOMAIN_POLICY]),
    servers=st.integers(1, 4),
    ids=st.lists(IDS, min_size=1, max_size=4),
    sigma=st.floats(0.01, 1.0),
)
def test_every_server_matches_substream(seed, domain, servers, ids, sigma):
    streams = KeyedStreams(seed, domain, servers)
    for i in ids:
        for n in range(servers):
            assert_same_stream(streams(i, n), substream(seed, domain, i, n), sigma)


def test_server_outside_the_table_matches_substream():
    streams = KeyedStreams(9, DOMAIN_DELAY, 2)
    assert_same_stream(streams(40, 2), substream(9, DOMAIN_DELAY, 40, 2), 0.5)


@pytest.mark.parametrize("key", [(-1, 0), (0, -1)])
def test_negative_key_rejected_like_substream(key):
    with pytest.raises(ValueError, match="non-negative"):
        KeyedStreams(0, DOMAIN_DELAY, 2)(*key)
