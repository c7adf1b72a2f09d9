import numpy as np
import pytest

from edgesched.errors import ConfigError, ParseError
from edgesched.seeding import DOMAIN_TOPICS, substream
from edgesched.workload import (
    Request,
    TopicSet,
    WorkloadGenerator,
    generate_topics,
    load_workload,
    random_unit,
    save_workload,
    unit,
)


def test_unit_normalizes():
    v = np.array([3.0, 4.0])
    assert np.allclose(unit(v), [0.6, 0.8])
    assert np.linalg.norm(unit(np.ones(17))) == pytest.approx(1.0, abs=1e-12)


def test_unit_rejects_zero_vector():
    with pytest.raises(ValueError):
        unit(np.zeros(4))


def test_random_unit_has_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert np.linalg.norm(random_unit(rng, 32)) == pytest.approx(1.0, abs=1e-12)


def answer_offsets(num_topics, dim, seed):
    """The unit answer offsets ``generate_topics`` draws after its centroids."""
    rng = substream(seed, DOMAIN_TOPICS)
    rng.normal(size=(num_topics, dim))
    offsets = rng.normal(size=(num_topics, dim))
    return offsets / np.linalg.norm(offsets, axis=1, keepdims=True)


class TestTopics:
    def test_shapes_and_norms(self):
        topics = generate_topics(50, 64, seed=3)
        assert topics.centroids.shape == (50, 64)
        assert topics.references.shape == (50, 64)
        assert np.allclose(np.linalg.norm(topics.centroids, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(topics.references, axis=1), 1.0)

    def test_deterministic_per_seed(self):
        a = generate_topics(20, 32, seed=7)
        b = generate_topics(20, 32, seed=7)
        c = generate_topics(20, 32, seed=8)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.references, b.references)
        assert not np.array_equal(a.centroids, c.centroids)

    def test_topics_well_separated(self):
        # Brute-force min pairwise distance: random unit vectors in high
        # dimension concentrate near sqrt(2) apart, far above the paraphrase
        # noise scale, so topics never collide.
        topics = generate_topics(200, 64, seed=1)
        c = topics.centroids
        d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        assert np.sqrt(d2.min()) > 0.7

    def test_reference_is_deterministic_unit(self):
        topics = generate_topics(300, 64, seed=2)
        offsets = answer_offsets(300, 64, seed=2)
        for t in range(300):
            ref = topics.reference_for(t)
            assert np.array_equal(ref, unit(topics.centroids[t] + offsets[t]))
            assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-12)

    def test_reference_is_computed_once_and_read_only(self):
        topics = generate_topics(10, 16, seed=2)
        ref = topics.reference_for(4)
        assert np.shares_memory(ref, topics.references)
        assert np.array_equal(ref, topics.references[4])
        assert not ref.flags.writeable and not topics.references.flags.writeable
        with pytest.raises(ValueError):
            ref[0] = 0.0
        gen = WorkloadGenerator(topics, 2, 4, 0.9, 0.05, seed=3)
        reqs = [r for slot in range(20) for r in gen.slot_requests(slot)]
        for r in reqs:
            assert np.shares_memory(r.reference_vec, topics.references)
            assert np.array_equal(r.reference_vec, topics.references[r.topic])

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            generate_topics(0, 64, seed=0)
        with pytest.raises(ConfigError):
            generate_topics(10, 4, seed=0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigError):
            TopicSet(centroids=np.eye(3), references=np.eye(4))


class TestGenerator:
    def make(self, **kw):
        defaults = dict(
            num_servers=3,
            num_users=9,
            repeat_ratio=0.4,
            paraphrase_sigma=0.05,
            seed=11,
        )
        defaults.update(kw)
        topics = generate_topics(120, 32, seed=5)
        return WorkloadGenerator(topics, **defaults)

    def test_one_request_per_server_per_slot(self):
        gen = self.make()
        reqs = gen.slot_requests(0)
        assert [r.server for r in reqs] == [0, 1, 2]
        assert all(r.slot == 0 for r in reqs)

    def test_ids_unique_and_slots_non_decreasing(self):
        gen = self.make()
        stream = list(gen.stream(40))
        ids = [r.id for r in stream]
        assert ids == list(range(len(stream)))
        slots = [r.slot for r in stream]
        assert slots == sorted(slots)

    def test_users_belong_to_their_server(self):
        gen = self.make()
        for r in gen.stream(30):
            assert r.user % 3 == r.server

    def test_topics_partitioned_round_robin(self):
        gen = self.make()
        for r in gen.stream(60):
            assert r.topic % 3 == r.server

    def test_question_vectors_unit(self):
        gen = self.make()
        for r in gen.stream(50):
            assert np.linalg.norm(r.question_vec) == pytest.approx(1.0, abs=1e-9)

    def test_fresh_questions_sit_on_centroid(self):
        gen = self.make(repeat_ratio=0.0)
        for r in gen.stream(20):
            assert np.array_equal(r.question_vec, gen.topics.centroids[r.topic])

    def test_repeats_are_paraphrased_within_noise_scale(self):
        gen = self.make(repeat_ratio=0.6, paraphrase_sigma=0.05)
        seen: dict[tuple[int, int], int] = {}
        repeat_dists = []
        for r in gen.stream(200):
            key = (r.server, r.topic)
            if key in seen:
                d = np.linalg.norm(r.question_vec - gen.topics.centroids[r.topic])
                repeat_dists.append(d)
            seen[key] = r.id
        assert repeat_dists, "expected some repeats"
        # unit(c + 0.05 u) stays within ~2 sigma of the centroid
        assert max(repeat_dists) < 0.11
        assert min(repeat_dists) > 0.0

    def test_repeat_fraction_matches_ratio(self):
        # Pool must outlast the stream: once fresh topics run out, every
        # draw degrades to a repeat and the measured rate drifts up.
        topics = generate_topics(4000, 32, seed=5)
        gen = WorkloadGenerator(topics, 1, 1, 0.4, 0.05, seed=11)
        seen: set[int] = set()
        repeats = 0
        total = 0
        for i, r in enumerate(gen.stream(2500)):
            if i >= 500:  # skip warm-up where the issued pool is still small
                total += 1
                repeats += r.topic in seen
            seen.add(r.topic)
        assert abs(repeats / total - 0.4) < 0.05

    def test_zero_repeat_ratio_never_repeats_until_pool_empty(self):
        topics = generate_topics(30, 32, seed=5)
        gen = WorkloadGenerator(topics, 1, 1, 0.0, 0.05, seed=2)
        first_30 = [r.topic for r in gen.stream(30)]
        assert len(set(first_30)) == 30
        # pool exhausted: further draws fall back to repeats
        more = [r.topic for r in gen.stream(10)]
        assert set(more) <= set(first_30)

    def test_deterministic_per_seed(self):
        a = list(self.make().stream(25))
        b = list(self.make().stream(25))
        assert a == b
        c = list(self.make(seed=12).stream(25))
        assert a != c

    def test_validation(self):
        topics = generate_topics(10, 32, seed=0)
        with pytest.raises(ConfigError):
            WorkloadGenerator(topics, 0, 1, 0.4, 0.05, seed=0)
        with pytest.raises(ConfigError):
            WorkloadGenerator(topics, 3, 2, 0.4, 0.05, seed=0)
        with pytest.raises(ConfigError):
            WorkloadGenerator(topics, 2, 4, 1.4, 0.05, seed=0)
        with pytest.raises(ConfigError):
            WorkloadGenerator(topics, 2, 4, 0.4, -0.1, seed=0)
        with pytest.raises(ConfigError):
            WorkloadGenerator(topics, 11, 11, 0.4, 0.05, seed=0)


class TestFiles:
    def test_round_trip(self, tmp_path):
        topics = generate_topics(40, 16, seed=9)
        gen = WorkloadGenerator(topics, 2, 4, 0.3, 0.05, seed=1)
        reqs = list(gen.stream(15))
        path = tmp_path / "workload.jsonl"
        assert save_workload(path, reqs) == 30
        back = load_workload(path)
        assert back == reqs

    def test_round_trip_preserves_float_bits(self, tmp_path):
        topics = generate_topics(5, 16, seed=9)
        gen = WorkloadGenerator(topics, 1, 1, 0.5, 0.05, seed=1)
        reqs = list(gen.stream(8))
        path = tmp_path / "w.jsonl"
        save_workload(path, reqs)
        back = load_workload(path)
        for a, b in zip(reqs, back):
            assert np.array_equal(a.question_vec, b.question_vec)
            assert np.array_equal(a.reference_vec, b.reference_vec)

    def test_loader_sorts_by_slot(self, tmp_path):
        topics = generate_topics(6, 16, seed=0)
        gen = WorkloadGenerator(topics, 1, 1, 0.0, 0.0, seed=0)
        reqs = list(gen.stream(4))
        path = tmp_path / "w.jsonl"
        save_workload(path, [reqs[2], reqs[0], reqs[3], reqs[1]])
        back = load_workload(path)
        assert [r.slot for r in back] == [0, 1, 2, 3]

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = (
            '{"id": 0, "user": 0, "server": 0, "slot": 0, '
            '"question_vec": [1.0, 0.0], "reference_vec": [1.0, 0.0]}'
        )
        path.write_text(good + "\nnot json at all\n")
        with pytest.raises(ParseError, match="line 2"):
            load_workload(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row = (
            '{"id": 0, "user": 0, "server": 0, "slot": 0, '
            '"question_vec": [1.0, 0.0]}'
        )
        path.write_text(row + "\n")
        with pytest.raises(ParseError, match="line 1.*reference_vec"):
            load_workload(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row = (
            '{"id": 0, "user": 0, "server": 0, "slot": 0, '
            '"question_vec": [0.0, 0.0], "reference_vec": [1.0, 0.0]}'
        )
        path.write_text(row + "\n")
        with pytest.raises(ParseError, match="zero vector"):
            load_workload(path)

    def test_non_unit_vector_renormalized_with_warning(self, tmp_path):
        path = tmp_path / "w.jsonl"
        row = (
            '{"id": 0, "user": 0, "server": 0, "slot": 0, '
            '"question_vec": [3.0, 4.0], "reference_vec": [1.0, 0.0]}'
        )
        path.write_text(row + "\n")
        with pytest.warns(UserWarning, match="renormalizing"):
            back = load_workload(path)
        assert np.allclose(back[0].question_vec, [0.6, 0.8])

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        path = tmp_path / "w.jsonl"
        row = (
            '{"id": 0, "user": 0, "server": 0, "slot": 0, '
            '"question_vec": [1.0, 0.0], "reference_vec": [1.0, 0.0]}'
        )
        path.write_text(row + "\n")
        with pytest.raises(ConfigError, match="dimension"):
            load_workload(path, dim=3)

    def test_request_equality_covers_vectors(self):
        r1 = Request(0, 0, 0, 0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        r2 = Request(0, 0, 0, 0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        r3 = Request(0, 0, 0, 0, np.array([1.0, 0.1]), np.array([0.0, 1.0]))
        assert r1 == r2
        assert r1 != r3
