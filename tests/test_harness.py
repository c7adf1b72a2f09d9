"""Tests for config parsing, metric windows, report files, and the CLI."""

import dataclasses
import functools
import importlib
import inspect
import json
import os
import re
import shlex
import shutil
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import edgesched
from edgesched import baselines, harness, seeding, simenv
from edgesched.baselines import LearnedPolicy, resolve_policy
from edgesched.config import ExperimentConfig, load_config
from edgesched.errors import ConfigError, GradientError, ParseError
from edgesched.harness import (
    MetricsReport,
    MetricsWindow,
    PhaseSummary,
    WindowAccumulator,
    build_arg_parser,
    build_expert_demos,
    cli_main,
    emit_report,
    load_report,
    run_experiment,
)
from edgesched.marl import Trainer, TrainerConfig
from edgesched.nn import EncoderConfig
from edgesched.simenv import Transition
from edgesched.vecstore import VectorStore
from edgesched.workload import WorkloadGenerator, generate_topics, load_workload, save_workload


def tiny_cfg(**kw):
    base = dict(
        seed=3,
        policy="random",
        mode="nearest",
        servers=2,
        users=4,
        dim=16,
        train_slots=8,
        test_slots=4,
        window_size=5,
        topics=40,
        nlist=1,
        min_candidates=4,
        query_width=3,
        evict_period=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def learned_cfg(policy, **kw):
    return tiny_cfg(
        policy=policy,
        min_agent_batch=4,
        minibatch_size=8,
        epochs=1,
        demo_slots=6,
        num_patches=4,
        num_blocks=1,
        num_heads=2,
        model_dim=8,
        feature_dim=4,
        **kw,
    )


def make_t(server=0, q=-0.1, d=1.0, r=-2.0, resolved="A", slot=0, rid=0):
    return Transition(
        slot=slot,
        server=server,
        user=0,
        request_id=rid,
        action=1 if resolved == "B" else 0,
        resolved=resolved,
        action_prob=1.0,
        q=q,
        d=d,
        r=r,
    )


def small_env():
    return simenv.EdgeEnv([VectorStore(dim=8, nlist=1)])


class TestPolicyKind:
    """What each policy name resolves to, through ``baselines.resolve_policy``."""

    def test_fixed_names(self):
        env = small_env()
        assert isinstance(resolve_policy("random")(env), baselines.RandomPolicy)
        assert isinstance(resolve_policy("greedy-llm")(env), baselines.PayoffGreedyPolicy)
        for name in ("mappo", "g-mappo", "t-mappo", "lrs"):
            assert resolve_policy(name) is baselines.ABLATIONS[name]

    def test_greedy_threshold_parses(self):
        policy = resolve_policy("greedy-0.3")(small_env())
        assert isinstance(policy, baselines.ThresholdPolicy)
        assert policy.threshold == pytest.approx(0.3)
        assert resolve_policy("greedy-1")(small_env()).threshold == 1.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            resolve_policy("dqn")

    def test_bad_threshold(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_policy("greedy-0")
        with pytest.raises(ConfigError, match="positive"):
            tiny_cfg(policy="greedy-0").validate()
        with pytest.raises(ConfigError):
            resolve_policy("greedy--1")

    def test_help_and_error_list_exactly_the_names_that_resolve(self):
        help_text = " ".join(build_arg_parser().format_help().split())
        listed = re.search(r"override the scheduling policy \((.*?)\)", help_text)[1]
        with pytest.raises(ConfigError, match="unknown policy") as exc:
            resolve_policy("dqn")
        assert str(exc.value).endswith(f"expected one of {listed}")
        names = listed.split(", ")
        assert len(names) == len(set(names)) == 7
        for name in names:
            resolve_policy(name.replace("<threshold>", "0.3"))
        expected = {"random", "greedy-llm", "greedy-<threshold>", *baselines.ABLATIONS}
        assert set(names) == expected
        near_misses = ["greedy", "greedy-", "greedy-x", "Random", "lrs ", "mappo2", ""]
        for name in near_misses:
            with pytest.raises(ConfigError, match="unknown policy"):
                resolve_policy(name)


# The classes ExperimentConfig.build serves, each with its parameters that
# name no config field: a run passes those itself or leaves their defaults.
BUILT = {
    VectorStore: {"server"},
    simenv.EdgeEnv: {"stores", "delay_model", "answer_model"},
    simenv.DelayModel: set(),
    simenv.AnswerModel: set(),
    TrainerConfig: {"policy_hidden", "value_hidden"},
    EncoderConfig: {"input_dim"},
    Trainer: {"n_agents", "corr_dim", "question_dim", "cfg", "encoder_cfg", "demos"},
}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def fed_fields(cls) -> set:
    """The config fields that ``ExperimentConfig.build`` passes to ``cls``."""
    return set(inspect.signature(cls).parameters) & CONFIG_FIELDS


class TestConfigValidation:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_tiny_validates(self):
        tiny_cfg().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("servers", 0),
            ("users", 1),  # fewer users than servers
            ("dim", 4),
            ("train_slots", -1),
            ("window_size", 0),
            ("mode", "multicast"),
            ("repeat_ratio", 1.5),
            ("topics", 1),
            ("policy", "nope"),
            ("seed", -1),
            ("seed", 2**63),
            ("nlist", 0),
            ("min_candidates", 0),
            ("rebuild_every", 0),
            ("query_width", 0),
            ("tau_serve", 0.0),
            ("evict_period", -1),
            ("quality_weight", 0.0),
            ("delay_weight", -1.0),
            ("paraphrase_sigma", -0.1),
            ("reward_scale", 0.0),
            ("reward_scale", -1.0),
            ("transitions_out", "log\n part2.jsonl"),
            ("workload_file", "wl\r.jsonl"),
            ("transitions_out", "log\0.jsonl"),
        ],
    )
    def test_bad_fields_raise(self, field, value):
        cfg = tiny_cfg(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_demo_policy_needs_demo_slots(self):
        with pytest.raises(ConfigError, match="demo_slots"):
            tiny_cfg(policy="lrs", demo_slots=0).validate()
        # encoder-only variant does not use demonstrations
        tiny_cfg(
            policy="t-mappo",
            demo_slots=0,
            num_patches=4,
            num_blocks=1,
            num_heads=2,
            model_dim=8,
            feature_dim=4,
        ).validate()

    def test_sub_configs_receive_every_setting(self, monkeypatch):
        # Distinct, valid, non-default values, so a setting that reaches the
        # wrong component, or none, shows on the components a run builds.
        store = dict(nlist=7, min_candidates=9, rebuild_every=50, query_width=8)
        env = dict(
            quality_weight=1.5, delay_weight=0.12, reward_scale=6.5,
            filter_value_weight=1.25, filter_freq_weight=0.35, tau_serve=0.18,
            evict_period=70, edge_delay=0.65, cloud_delay=2.9, jitter_sigma=0.08,
            sigma_llm=0.25, sigma_enhance=0.04, sigma_mislead=0.2, relevance_radius=0.6,
        )
        trainer = dict(
            gamma=0.9, gae_lambda=0.8, clip_epsilon=0.3, value_coeff=0.7,
            entropy_coeff=0.02, lr_policy=2e-4, lr_value=5e-4, min_agent_batch=32,
            min_demo_quota=6, epochs=5, minibatch_size=48,
        )
        encoder = dict(
            num_patches=4, num_blocks=3, num_heads=2, model_dim=12, feature_dim=10,
            use_positional=False,
        )
        settings = {**store, **env, **trainer, **encoder, "dim": 40, "seed": 11}
        defaults = ExperimentConfig()
        assert all(getattr(defaults, k) != v for k, v in settings.items())
        assert len({repr(v) for v in settings.values()}) == len(settings)
        assert set(settings) == {k for cls in BUILT for k in fed_fields(cls)}
        made = []
        for cls in BUILT:
            init = cls.__init__

            @functools.wraps(init)
            def recorded(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                made.append(self)

            monkeypatch.setattr(cls, "__init__", recorded)
        # t-mappo builds every class in BUILT, and records no demos, whose
        # deployment runs under a seed of its own.
        run_experiment(tiny_cfg(policy="t-mappo", train_slots=4, **settings))
        assert {type(obj) for obj in made} == set(BUILT)
        # validate()'s one store, then the run's two.
        assert sorted(o.server for o in made if type(o) is VectorStore) == [0, 0, 1]
        for obj in made:
            fed = fed_fields(type(obj))
            assert {k: getattr(obj, k) for k in fed} == {k: settings[k] for k in fed}
            if type(obj) is EncoderConfig:
                assert obj.input_dim == settings["dim"]

    def test_each_default_equals_the_default_it_feeds(self):
        # A default declared in two places can drift apart unseen: runs read
        # the config's, and direct constructions the other.
        cfg = ExperimentConfig()
        for target, explicit in BUILT.items():
            params = inspect.signature(target).parameters
            assert set(params) - explicit == fed_fields(target), target
            fed = {
                name: params[name].default
                for name in fed_fields(target)
                if params[name].default is not inspect.Parameter.empty
            }
            assert fed, target
            for field, default in fed.items():
                assert getattr(cfg, field) == default, (target.__name__, field)

    def test_shipped_demo_config_validates(self):
        cfg = load_config(Path(__file__).parents[1] / "demos" / "small.ini").validate()
        assert (cfg.policy, cfg.dim, cfg.train_slots) == ("greedy-0.3", 32, 300)

    def test_flat_dict_covers_every_field(self):
        cfg = tiny_cfg()
        flat = cfg.flat_dict()
        names = {key.split(".", 1)[1] for key in flat}
        assert names == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert flat["experiment.seed"] == "3"
        assert flat["workload.workload_file"] == ""  # None prints empty


class TestLoadConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "exp.ini"
        p.write_text(text)
        return p

    def test_full_parse(self, tmp_path):
        p = self.write(
            tmp_path,
            """
[experiment]
seed = 11
policy = greedy-0.25
mode = broadcast
servers = 2
users = 6

[workload]
repeat_ratio = 0.5  ; inline comment
workload_file =

[env]
jitter_sigma = 0.0

[encoder]
use_positional = no
""",
        )
        cfg = load_config(p)
        assert cfg.seed == 11
        assert cfg.policy == "greedy-0.25"
        assert cfg.mode == "broadcast"
        assert cfg.servers == 2
        assert cfg.users == 6
        assert cfg.repeat_ratio == 0.5
        assert cfg.workload_file is None  # empty optional string
        assert cfg.jitter_sigma == 0.0
        assert cfg.use_positional is False
        # untouched options keep their defaults
        assert cfg.dim == 64
        assert cfg.gamma == 0.99

    @pytest.mark.parametrize("raw,value", [("1", True), ("yes", True), ("on", True),
                                           ("true", True), ("0", False), ("off", False)])
    def test_bool_spellings(self, tmp_path, raw, value):
        cfg = load_config(self.write(tmp_path, f"[encoder]\nuse_positional = {raw}\n"))
        assert cfg.use_positional is value

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="use_positional"):
            load_config(self.write(tmp_path, "[encoder]\nuse_positional = maybe\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="known"):
            load_config(self.write(tmp_path, "[scheduler]\nx = 1\n"))

    def test_unknown_option(self, tmp_path):
        with pytest.raises(ConfigError, match="option"):
            load_config(self.write(tmp_path, "[experiment]\nbatch = 1\n"))

    def test_bad_value_names_section_and_option(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[trainer\] gamma"):
            load_config(self.write(tmp_path, "[trainer]\ngamma = fast\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nseed = 3\n",
            "[DEFAULT]\nseed = 3\n[experiment]\nservers = 2\n",
            "[DEFAULT]\nseed = 3\n[experiment]\nservers = 2\n[env]\ntau_serve = 0.2\n",
        ],
        ids=["alone", "one-section", "two-sections"],
    )
    def test_default_section_rejected(self, tmp_path, text):
        p = self.write(tmp_path, text)
        want = f"{p}: unknown section [DEFAULT]; known: ['encoder', 'env', "
        with pytest.raises(ConfigError, match=re.escape(want)):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_directory_is_not_a_config(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path}: cannot read")):
            load_config(tmp_path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"[experiment]\nseed = 1\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: cannot read")):
            load_config(path)

    @given(st.data())
    def test_flat_dict_round_trips_through_ini(self, data):
        cfg = data.draw(configs())
        sections: dict[str, list[str]] = {}
        for key, value in cfg.flat_dict().items():
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}\n")
        text = "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.ini"
            path.write_text(text)
            assert load_config(path) == cfg


# Printable ASCII without whitespace other than the space.
_INI_CHARS = string.ascii_letters + string.digits + string.punctuation + " "


def _ini_value(text: str) -> bool:
    """True for strings an INI value keeps verbatim: no surrounding
    whitespace (stripped) and no "#" or ";" at the start or after
    whitespace (an inline comment)."""
    return text == text.strip() and not re.search(r"(^|\s)[#;]", text)


_STRINGS = st.text(_INI_CHARS, max_size=12).filter(_ini_value)
_PATHS = st.builds(
    lambda head, tail: f"{head}%{tail}",
    st.text(_INI_CHARS, max_size=8),
    st.text(_INI_CHARS, max_size=8),
).filter(_ini_value)


@st.composite
def configs(draw) -> ExperimentConfig:
    """Any ExperimentConfig whose fields have the declared types; paths
    always contain a "%"."""
    values = {}
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in ("workload_file", "transitions_out"):
            values[field.name] = draw(st.none() | _PATHS)
        elif field.type == "int":
            values[field.name] = draw(st.integers(-10**9, 10**9))
        elif field.type == "float":
            values[field.name] = draw(st.floats(allow_nan=False))
        elif field.type == "bool":
            values[field.name] = draw(st.booleans())
        else:
            values[field.name] = draw(_STRINGS)
    return ExperimentConfig(**values)


class TestWindowAccumulator:
    def test_exact_window_means(self):
        acc = WindowAccumulator("train", window_size=4, n_agents=2)
        ts = [
            make_t(server=0, q=-0.1, d=1.0, r=-2.0, resolved="A"),
            make_t(server=1, q=-0.2, d=3.0, r=-5.0, resolved="B"),
            make_t(server=0, q=-0.3, d=2.0, r=-4.0, resolved="B"),
            make_t(server=1, q=-0.1, d=1.5, r=-3.0, resolved="C"),
        ]
        assert acc.add(ts[0]) is None
        assert acc.add(ts[1]) is None
        assert acc.add(ts[2]) is None
        win = acc.add(ts[3])
        assert win is not None
        assert win.phase == "train"
        assert win.index == 0
        assert win.count == 4
        assert win.mean_reward == pytest.approx(-3.5, abs=1e-15)
        assert win.mean_satisfaction == pytest.approx(-0.175, abs=1e-15)
        assert win.mean_delay == pytest.approx(1.875, abs=1e-15)
        assert win.llm_direct_freq == 0.5
        # agent means -3 and -4 -> population variance 0.25
        assert win.reward_variance == pytest.approx(0.25, abs=1e-15)

    def test_single_agent_variance_is_zero(self):
        acc = WindowAccumulator("train", window_size=2, n_agents=1)
        acc.add(make_t(r=-1.0))
        win = acc.add(make_t(r=-9.0))
        assert win.reward_variance == 0.0

    def test_flush_closes_partial_window(self):
        acc = WindowAccumulator("test", window_size=10, n_agents=1)
        acc.add(make_t(r=-2.0))
        acc.add(make_t(r=-4.0))
        win = acc.flush()
        assert win.count == 2
        assert win.mean_reward == -3.0
        assert acc.flush() is None  # nothing pending afterwards

    def test_indexes_and_reset(self):
        acc = WindowAccumulator("train", window_size=2, n_agents=1)
        wins = [acc.add(make_t(r=float(-i))) for i in range(6)]
        closed = [w for w in wins if w is not None]
        assert [w.index for w in closed] == [0, 1, 2]
        assert [w.mean_reward for w in closed] == [-0.5, -2.5, -4.5]
        assert acc.windows == closed

    def test_summary_uses_all_completions(self):
        # train: a full window and a flushed partial one; test: one partial
        acc = WindowAccumulator("train", window_size=2, n_agents=1)
        for r, resolved in ((-1.0, "B"), (-2.0, "A"), (-3.0, "B")):
            acc.add(make_t(r=r, resolved=resolved))
        acc.flush()
        test_acc = WindowAccumulator("test", window_size=2, n_agents=1)
        test_acc.add(make_t(r=-7.0))
        test_acc.flush()
        report = MetricsReport("random", "nearest", 0, {}, acc.windows + test_acc.windows)
        s = report.train
        assert [w.count for w in acc.windows] == [2, 1]
        assert (s.phase, s.requests) == ("train", 3)
        assert s.mean_reward == -2.0
        assert s.llm_direct_freq == 2 / 3
        assert (report.test.requests, report.test.mean_reward) == (1, -7.0)

    def test_empty_summary(self):
        acc = WindowAccumulator("train", 5, 1)
        acc.add(make_t(r=-1.0))
        acc.flush()
        s = MetricsReport("random", "nearest", 0, {}, acc.windows).test
        assert s == PhaseSummary("test", 0, 0.0, 0.0, 0.0, 0.0)

    # No shrink phase: shrinking a failure's 60 free floats took minutes.
    @settings(max_examples=200, deadline=None, phases=set(Phase) - {Phase.shrink})
    @given(data=st.data(), n_agents=st.integers(1, 4), window_size=st.integers(1, 7))
    def test_windows_and_summaries_equal_the_plain_formulas(
        self, data, n_agents, window_size
    ):
        # Some servers may never be served; each phase ends in a flush,
        # which closes a partial tail window when there is one.
        served = data.draw(st.sets(st.integers(0, n_agents - 1), min_size=1))
        value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        transition = st.builds(
            make_t, server=st.sampled_from(sorted(served)), q=value, d=value, r=value,
            resolved=st.sampled_from("ABC"),
        )
        windows, expected = [], []
        for phase in ("train", "test"):
            stream = data.draw(st.lists(transition, max_size=30))
            acc = WindowAccumulator(phase, window_size, n_agents)
            ref = RunningSumWindows(phase, window_size, n_agents)
            for t in stream:
                assert acc.add(t) == ref.add(t)
            assert acc.flush() == ref.flush()
            assert acc.windows == ref.windows
            windows += acc.windows
            expected.append(ref.windows)
        report = MetricsReport("random", "nearest", 0, {}, windows)
        assert report.train == count_weighted_summary("train", expected[0])
        assert report.test == count_weighted_summary("test", expected[1])


class RunningSumWindows:
    """The reference for :class:`WindowAccumulator`: windows kept as running
    sums, the arithmetic reports were computed with before windows were
    computed from their transitions."""

    def __init__(self, phase, window_size, n_agents):
        self.phase = phase
        self.window_size = window_size
        self.n_agents = n_agents
        self.windows = []
        self._reset()

    def _reset(self):
        self._count = 0
        self._r = 0.0
        self._q = 0.0
        self._d = 0.0
        self._direct = 0
        self._agent_r = np.zeros(self.n_agents)
        self._agent_n = np.zeros(self.n_agents, dtype=int)

    def add(self, t):
        self._count += 1
        self._r += t.r
        self._q += t.q
        self._d += t.d
        self._direct += t.resolved == "B"
        self._agent_r[t.server] += t.r
        self._agent_n[t.server] += 1
        if self._count == self.window_size:
            return self._close()
        return None

    def _close(self):
        active = self._agent_n > 0
        if active.sum() > 1:
            means = self._agent_r[active] / self._agent_n[active]
            variance = float(np.var(means))
        else:
            variance = 0.0
        win = MetricsWindow(
            phase=self.phase,
            index=len(self.windows),
            count=self._count,
            mean_reward=self._r / self._count,
            mean_satisfaction=self._q / self._count,
            mean_delay=self._d / self._count,
            llm_direct_freq=self._direct / self._count,
            reward_variance=variance,
        )
        self.windows.append(win)
        self._reset()
        return win

    def flush(self):
        if self._count:
            return self._close()
        return None


def count_weighted_summary(phase, windows):
    """A phase summary as the count-weighted means of the phase's windows."""
    n = sum(w.count for w in windows)
    fields = ("mean_reward", "mean_satisfaction", "mean_delay", "llm_direct_freq")
    means = [sum(getattr(w, f) * w.count for w in windows) / max(n, 1) for f in fields]
    return PhaseSummary(phase, n, *means)


def sample_report():
    rng = np.random.default_rng(7)
    windows = []
    for i in range(3):
        windows.append(
            MetricsWindow(
                phase="train" if i < 2 else "test",
                index=i if i < 2 else 0,
                count=5,
                mean_reward=float(rng.normal(-4, 1)),
                mean_satisfaction=float(rng.normal(-0.1, 0.02)),
                mean_delay=float(rng.normal(2.0, 0.3)),
                llm_direct_freq=float(rng.random()),
                reward_variance=float(rng.random() * 0.1),
            )
        )
    return MetricsReport(
        policy="greedy-0.3",
        mode="nearest",
        seed=42,
        config={"experiment.seed": "42", "env.tau_serve": "0.15"},
        windows=windows,
    )


class TestReportFiles:
    def test_csv_round_trip_is_exact(self, tmp_path):
        report = sample_report()
        # Values a config line must carry as they are: the " = " separator,
        # a comment mark, CSV's comma and quote, and outer spaces.
        report.config.update(
            {"a.eq": "x = y = z", "a.hash": "# no comment", "a.comma": "1,2",
             "a.quote": 'say "hi"', "a.space": "  padded  ", "a.empty": ""}
        )
        path = tmp_path / "report.csv"
        emit_report(report, path)
        loaded = load_report(path)
        assert loaded.policy == report.policy
        assert loaded.mode == report.mode
        assert loaded.seed == report.seed
        assert loaded.config == report.config
        assert loaded.windows == report.windows  # float fields bit-identical

    def test_loaded_summaries_match_windows(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        loaded = load_report(path)
        ws = [w for w in loaded.windows if w.phase == "train"]
        n = sum(w.count for w in ws)
        expect = sum(w.mean_reward * w.count for w in ws) / n
        assert loaded.train.mean_reward == expect
        assert loaded.train.requests == n

    @pytest.mark.parametrize("suffix", [".csv", ".txt"])
    def test_run_report_round_trip(self, tmp_path, suffix):
        # Windows come back bit for bit, and the run's summaries were built
        # from those windows, so the whole report is equal.  A report is
        # CSV whatever its file is called.
        report = run_experiment(tiny_cfg(policy="greedy-0.3", train_slots=23))
        path = tmp_path / f"report{suffix}"
        emit_report(report, path)
        assert load_report(path) == report

    def test_csv_missing_header_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# edgesched-report v1\n# policy = random\n")
        with pytest.raises(ParseError, match="header"):
            load_report(path)

    @pytest.mark.parametrize("key", ["policy", "mode", "seed"])
    def test_csv_missing_provenance_line(self, tmp_path, key):
        path = tmp_path / "bad.csv"
        emit_report(sample_report(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(f"# {key} = ")))
        with pytest.raises(ParseError, match=re.escape(f"{path}: missing '# {key} = ' line")):
            load_report(path)

    def test_csv_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = tmp_path / "good.csv"
        emit_report(sample_report(), good)
        lines = good.read_text().splitlines()
        lines.append("train,9,5")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="fields"):
            load_report(path)

    def test_csv_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = tmp_path / "good.csv"
        emit_report(sample_report(), good)
        lines = good.read_text().splitlines()
        lines.append("train,x,5,1.0,1.0,1.0,0.5,0.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="bad window row"):
            load_report(path)


class TestRunExperiment:
    def test_report_shape_random(self):
        cfg = tiny_cfg()
        report = run_experiment(cfg)
        assert report.policy == "random"
        assert report.mode == "nearest"
        assert report.seed == 3
        assert report.config == cfg.flat_dict()
        # 16 train completions in windows of 5 -> 3 full + 1 flushed
        train_ws = [w for w in report.windows if w.phase == "train"]
        test_ws = [w for w in report.windows if w.phase == "test"]
        assert [w.count for w in train_ws] == [5, 5, 5, 1]
        assert [w.count for w in test_ws] == [5, 3]
        assert [w.index for w in train_ws] == [0, 1, 2, 3]
        assert [w.index for w in test_ws] == [0, 1]
        assert report.train.requests == 16
        assert report.test.requests == 8
        for w in report.windows:
            assert 0.0 <= w.llm_direct_freq <= 1.0
            assert w.reward_variance >= 0.0

    def test_windows_match_transition_log_exactly(self, tmp_path):
        log_path = tmp_path / "transitions.jsonl"
        cfg = tiny_cfg(transitions_out=str(log_path))
        report = run_experiment(cfg)
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(rows) == (cfg.train_slots + cfg.test_slots) * cfg.servers
        split = cfg.train_slots * cfg.servers
        phases = {"train": rows[:split], "test": rows[split:]}
        for phase, phase_rows in phases.items():
            wins = [w for w in report.windows if w.phase == phase]
            start = 0
            for w in wins:
                chunk = phase_rows[start : start + w.count]
                start += w.count
                assert abs(w.mean_reward - np.mean([r["r"] for r in chunk])) < 1e-12
                assert abs(w.mean_satisfaction - np.mean([r["q"] for r in chunk])) < 1e-12
                assert abs(w.mean_delay - np.mean([r["d"] for r in chunk])) < 1e-12
                direct = sum(r["resolved"] == "B" for r in chunk) / w.count
                assert abs(w.llm_direct_freq - direct) < 1e-12
            assert start == len(phase_rows)

    def test_same_seed_reports_are_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_experiment(cfg), a)
        emit_report(run_experiment(tiny_cfg()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        r3 = run_experiment(tiny_cfg())
        r4 = run_experiment(tiny_cfg(seed=4))
        assert r3.test.mean_reward != r4.test.mean_reward

    def test_threshold_policy_runs(self):
        report = run_experiment(tiny_cfg(policy="greedy-0.3"))
        assert report.policy == "greedy-0.3"
        assert report.test.requests == 8

    def test_payoff_greedy_policy_runs(self):
        report = run_experiment(tiny_cfg(policy="greedy-llm"))
        assert report.train.requests == 16

    def test_broadcast_mode_counts(self):
        report = run_experiment(tiny_cfg(mode="broadcast"))
        assert report.mode == "broadcast"
        # one completion per request: same totals as nearest routing
        assert report.test.requests == 8

    def test_learned_policy_without_extras_runs(self):
        report = run_experiment(learned_cfg("mappo"))
        assert report.policy == "mappo"
        assert report.train.requests == 16
        assert report.test.requests == 8

    def test_learned_policy_with_encoder_and_demos_runs(self):
        report = run_experiment(learned_cfg("lrs"))
        assert report.policy == "lrs"
        assert report.test.requests == 8

    def test_learned_runs_are_deterministic(self):
        a = run_experiment(learned_cfg("mappo"))
        b = run_experiment(learned_cfg("mappo"))
        assert a.windows == b.windows

    @pytest.mark.parametrize("policy", ["greedy-0.3", "random", "lrs"])
    def test_requests_build_no_generator_of_their_own(self, policy, monkeypatch):
        # The env's and the policy's per-request streams come from
        # KeyedStreams tables, which fall back to seeding.substream only
        # for keys outside them.  The one call left is lrs's demo seed.
        calls = []
        real = seeding.substream

        def counted(*key):
            calls.append(key)
            return real(*key)

        for module in (harness, simenv, seeding):
            monkeypatch.setattr(module, "substream", counted)
        size = dict(servers=3, train_slots=150, test_slots=50)
        if policy == "lrs":
            cfg = learned_cfg(policy, **size)
        else:
            cfg = tiny_cfg(policy=policy, **size)
        assert run_experiment(cfg).test.requests == 150
        assert calls == ([(cfg.seed, seeding.DOMAIN_DEMO)] if policy == "lrs" else [])


class TestFeaturePath:
    """Correlation features are built only where something reads them: by
    the slot loop for a learner or a buffer, and by ``LearnedPolicy``."""

    @staticmethod
    def count_features(monkeypatch):
        calls = []
        real = harness.correlation_features

        def counted(corr, width):
            calls.append(width)
            return real(corr, width)

        for module in (harness, baselines):
            monkeypatch.setattr(module, "correlation_features", counted)
        return calls

    @pytest.mark.parametrize("mode", ["nearest", "broadcast"])
    @pytest.mark.parametrize("policy", ["greedy-0.3", "greedy-llm", "random"])
    def test_heuristic_runs_build_none(self, policy, mode, monkeypatch):
        calls = self.count_features(monkeypatch)
        report = run_experiment(tiny_cfg(policy=policy, mode=mode, servers=3))
        assert report.test.requests == 12
        assert calls == []

    @pytest.mark.parametrize("mode", ["nearest", "broadcast"])
    def test_lrs_builds_them_for_demos_training_and_testing(self, mode, monkeypatch):
        calls = self.count_features(monkeypatch)
        cfg = learned_cfg("lrs", mode=mode, servers=3)
        test_rows = cfg.test_slots * cfg.servers * (cfg.servers if mode == "broadcast" else 1)
        decided = []
        real_decide = LearnedPolicy.decide

        def decide(policy, corr, request, server):
            decided.append(len(calls))
            out = real_decide(policy, corr, request, server)
            assert len(calls) == decided[-1] + 1  # its own features, once
            return out

        monkeypatch.setattr(LearnedPolicy, "decide", decide)
        run_experiment(cfg)
        # one row per request: demo slots plus the bootstrap slot, the
        # training slots, and every test decision
        demo_rows = (cfg.demo_slots + 1) * cfg.servers
        assert len(calls) == demo_rows + cfg.train_slots * cfg.servers + test_rows
        assert calls == [cfg.query_width] * len(calls)
        assert len(decided) == test_rows

    def test_demo_recording_builds_them(self, monkeypatch):
        calls = self.count_features(monkeypatch)
        cfg = learned_cfg("lrs", servers=3)
        demos = build_expert_demos(cfg)
        assert len(calls) == (cfg.demo_slots + 1) * cfg.servers
        assert len(demos) == cfg.demo_slots * cfg.servers


class TestWorkloadReplay:
    def export(self, tmp_path, cfg):
        topics = generate_topics(cfg.topics, cfg.dim, cfg.seed)
        gen = WorkloadGenerator(
            topics, cfg.servers, cfg.users, cfg.repeat_ratio,
            cfg.paraphrase_sigma, cfg.seed,
        )
        path = tmp_path / "workload.jsonl"
        save_workload(path, list(gen.stream(cfg.train_slots + cfg.test_slots)))
        return path

    def test_replay_reproduces_generated_run(self, tmp_path):
        cfg = tiny_cfg()
        path = self.export(tmp_path, cfg)
        direct = run_experiment(cfg)
        replayed = run_experiment(dataclasses.replace(cfg, workload_file=str(path)))
        assert replayed.windows == direct.windows
        assert replayed.train == direct.train
        assert replayed.test == direct.test

    def test_too_few_slots(self, tmp_path):
        cfg = tiny_cfg()
        path = self.export(tmp_path, cfg)
        reqs = load_workload(path, dim=cfg.dim)
        short = tmp_path / "short.jsonl"
        save_workload(short, [r for r in reqs if r.slot < 3])
        with pytest.raises(ConfigError, match="slots in file"):
            run_experiment(dataclasses.replace(cfg, workload_file=str(short)))

    def test_slot_missing_a_server(self, tmp_path):
        cfg = tiny_cfg()
        path = self.export(tmp_path, cfg)
        reqs = load_workload(path, dim=cfg.dim)
        broken = tmp_path / "broken.jsonl"
        save_workload(broken, [r for r in reqs if not (r.slot == 2 and r.server == 1)])
        with pytest.raises(ConfigError, match="expected 2"):
            run_experiment(dataclasses.replace(cfg, workload_file=str(broken)))

    def test_slot_with_two_requests_for_one_server(self, tmp_path):
        cfg = tiny_cfg()
        path = self.export(tmp_path, cfg)
        reqs = load_workload(path, dim=cfg.dim)
        for r in reqs:
            if r.slot == 2:
                r.server = 0
        dup = tmp_path / "dup.jsonl"
        save_workload(dup, reqs)
        with pytest.raises(ConfigError, match=r"servers \[0, 0\], expected one per"):
            run_experiment(dataclasses.replace(cfg, workload_file=str(dup)))

    @pytest.mark.parametrize(
        "renumber,missing",
        [(lambda s: 7 + 3 * s, 0), (lambda s: s + (s >= 2), 2), (lambda s: s + 1, 0)],
        ids=["spaced-from-7", "gap-at-2", "from-1"],
    )
    def test_misnumbered_slots_fail_before_the_run(
        self, tmp_path, monkeypatch, renumber, missing
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with misnumbered slots")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        cfg = tiny_cfg()
        reqs = load_workload(self.export(tmp_path, cfg), dim=cfg.dim)
        for r in reqs:
            r.slot = renumber(r.slot)
        bad = tmp_path / "renumbered.jsonl"
        save_workload(bad, reqs)
        with pytest.raises(ConfigError, match=f"slot {missing} is missing"):
            run_experiment(dataclasses.replace(cfg, workload_file=str(bad)))

    def test_failed_replay_check_opens_no_log(self, tmp_path):
        cfg = tiny_cfg()
        reqs = load_workload(self.export(tmp_path, cfg), dim=cfg.dim)
        gap = tmp_path / "gap.jsonl"
        save_workload(gap, [r for r in reqs if r.slot != 3])
        log = tmp_path / "log.jsonl"
        cfg = dataclasses.replace(cfg, workload_file=str(gap), transitions_out=str(log))
        with pytest.raises(ConfigError, match="slot 3 is missing"):
            run_experiment(cfg)
        assert not log.exists()

    def test_repeated_request_id_fails_before_the_run(self, tmp_path, monkeypatch):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with repeated request ids")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        cfg = tiny_cfg()
        reqs = load_workload(self.export(tmp_path, cfg), dim=cfg.dim)
        for r in reqs:
            r.id = 0
        same = tmp_path / "same-ids.jsonl"
        save_workload(same, reqs)
        with pytest.raises(ConfigError, match=re.escape(f"{same}: request id 0 is repeated")):
            run_experiment(dataclasses.replace(cfg, workload_file=str(same)))

    def test_server_index_out_of_range(self, tmp_path):
        cfg = tiny_cfg()
        path = self.export(tmp_path, cfg)
        reqs = load_workload(path, dim=cfg.dim)
        reqs[0].server = cfg.servers
        bad = tmp_path / "bad.jsonl"
        save_workload(bad, reqs)
        with pytest.raises(ConfigError, match="exceeds"):
            run_experiment(dataclasses.replace(cfg, workload_file=str(bad)))


class TestExpertDemos:
    def test_segments_cover_demo_slots(self):
        cfg = tiny_cfg(min_agent_batch=4, demo_slots=10)
        demos = build_expert_demos(cfg)
        assert len(demos) == cfg.demo_slots * cfg.servers
        assert demos.segments
        for seg in demos.segments:
            assert seg.corr.shape[1] == cfg.servers
        assert all(np.isfinite(seg.rewards).all() for seg in demos.segments)

    def test_demo_build_is_deterministic(self):
        cfg = tiny_cfg(min_agent_batch=4, demo_slots=6)
        a = build_expert_demos(cfg)
        b = build_expert_demos(cfg)
        assert len(a) == len(b)
        for sa, sb in zip(a.segments, b.segments):
            assert np.array_equal(sa.rewards, sb.rewards)
            assert np.array_equal(sa.actions, sb.actions)

    def test_expert_scores_with_the_demo_envs_reward(self, monkeypatch):
        cfg = tiny_cfg(
            min_agent_batch=4,
            demo_slots=4,
            quality_weight=2.0,
            delay_weight=0.3,
            reward_scale=4.0,
            sigma_llm=0.2,
            edge_delay=0.5,
            cloud_delay=2.0,
        )
        experts = []

        class Recorded(harness.PayoffGreedyPolicy):
            def __init__(self, env):
                super().__init__(env)
                experts.append(self)

        monkeypatch.setattr(harness, "PayoffGreedyPolicy", Recorded)
        build_expert_demos(cfg)
        [expert] = experts
        env = expert.env
        demo_seed = seeding.substream(cfg.seed, seeding.DOMAIN_DEMO).integers(2**31)
        assert env.seed == int(demo_seed)
        assert (env.quality_weight, env.delay_weight, env.reward_scale) == (2.0, 0.3, 4.0)
        assert expert.edge_delay == 0.5
        assert expert.initial_estimate == env.reward(-0.2, 2.0)
        assert expert.initial_estimate == pytest.approx(-4.0)

    def test_demo_streams_leave_main_run_untouched(self):
        # a run that builds demos must not perturb a later identical run
        cfg = learned_cfg("g-mappo")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.windows == b.windows


CLI_INI = """
[experiment]
seed = 3
policy = random
mode = nearest
servers = 2
users = 4
dim = 16
train_slots = 8
test_slots = 4
window_size = 5

[workload]
topics = 40

[store]
nlist = 1
min_candidates = 4
query_width = 3

[env]
evict_period = 0
"""


class TestCli:
    def write_cfg(self, tmp_path, text=CLI_INI):
        p = tmp_path / "exp.ini"
        p.write_text(text)
        return p

    def test_console_script_runs(self, tmp_path):
        # the packaged entry point, run from the checkout the way pip's
        # generated wrapper runs it, so no install is needed
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        src = Path(edgesched.__file__).resolve().parent.parent
        pyproject = src.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "edgesched" in scripts, "no edgesched entry in [project.scripts]"
        module, sep, func = scripts["edgesched"].partition(":")
        assert sep and module and func.isidentifier(), scripts["edgesched"]
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'edgesched'; sys.exit({func}())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        self.write_cfg(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--config", "exp.ini", "--out", "r.csv"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_report(tmp_path / "r.csv").policy == "random"

    @pytest.mark.skipif(
        shutil.which("edgesched") is None,
        reason="edgesched console script not on PATH",
    )
    def test_installed_console_script(self, tmp_path):
        self.write_cfg(tmp_path)
        proc = subprocess.run(
            [shutil.which("edgesched"), "--config", "exp.ini", "--out", "r.csv"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_report(tmp_path / "r.csv").policy == "random"

    def test_missing_config_argument(self, capsys):
        assert cli_main([]) == 2
        assert "--config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "nope.ini")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, "[experiment]\nservers = many\n")
        assert cli_main(["--config", str(p)]) == 2

    def test_bad_policy_override(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path)
        assert cli_main(["--config", str(p), "--policy", "dqn"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_bad_mode_rejected_by_parser(self, tmp_path):
        p = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(p), "--mode", "multicast"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("path_kind", ["out", "transitions_out"])
    def test_unwritable_output_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, path_kind
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered before the output checks")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        missing = tmp_path / "no" / "such" / "dir"
        text, argv = CLI_INI, []
        if path_kind == "out":
            argv = ["--out", str(missing / "report.csv")]
        else:
            text = CLI_INI.replace(
                "dim = 16", f"dim = 16\ntransitions_out = {missing / 'log.jsonl'}"
            )
        p = self.write_cfg(tmp_path, text)
        assert cli_main(["--config", str(p), *argv]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_replay_row_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        p = self.write_cfg(tmp_path)
        wl = tmp_path / "wl.jsonl"
        assert cli_main(["--config", str(p), "--export-workload", str(wl)]) == 0
        lines = wl.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), "id": -1})
        wl.write_text("\n".join(lines) + "\n")

        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered before the replay file was checked")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        text = CLI_INI.replace("topics = 40", f"topics = 40\nworkload_file = {wl}")
        replay = self.write_cfg(tmp_path, text)
        capsys.readouterr()
        assert cli_main(["--config", str(replay)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{wl}: line {len(lines)}: id:" in err

    @pytest.mark.parametrize(
        "fault, code, earlier",
        [("gap", 2, None), ("bad-row", 1, None), ("gap", 2, b"an earlier report\n")],
        ids=["gap-new-out", "bad-row-new-out", "gap-old-out"],
    )
    def test_failed_run_leaves_no_report_it_made(
        self, tmp_path, capsys, fault, code, earlier
    ):
        wl = tmp_path / "wl.jsonl"
        argv = ["--config", str(self.write_cfg(tmp_path)), "--export-workload", str(wl)]
        assert cli_main(argv) == 0
        lines = wl.read_text().splitlines()
        if fault == "gap":
            lines = [l for l in lines if json.loads(l)["slot"] != 3]
        else:
            lines[-1] = json.dumps({**json.loads(lines[-1]), "id": -1})
        wl.write_text("\n".join(lines) + "\n")
        text = CLI_INI.replace("topics = 40", f"topics = 40\nworkload_file = {wl}")
        out = tmp_path / "rep.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        capsys.readouterr()
        argv = ["--config", str(self.write_cfg(tmp_path, text)), "--out", str(out)]
        assert cli_main(argv) == code
        assert capsys.readouterr().err.startswith("config error:" if code == 2 else "error:")
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier

    @pytest.mark.parametrize("name", ["r.jsonl", "r.json", "R.JSONL"])
    def test_json_report_path_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, name
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with a JSON report path")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        out = tmp_path / name
        argv = ["--config", str(self.write_cfg(tmp_path)), "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "reports are CSV" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["transitions_out", "workload_file"])
    def test_path_setting_spanning_lines_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, field
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with a two-line path")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        monkeypatch.chdir(tmp_path)
        anchor = "dim = 16" if field == "transitions_out" else "topics = 40"
        # An indented line continues the INI value above it.
        text = CLI_INI.replace(anchor, f"{anchor}\n{field} = log\n    part2.jsonl")
        argv = ["--config", str(self.write_cfg(tmp_path, text)), "--out", "r.csv"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be one line")
        assert os.listdir(tmp_path) == ["exp.ini"]

    @pytest.mark.parametrize(
        "flag, out, log",
        [
            ("--out", "./exp.ini", "run.log"),
            ("--out", "wl.replay", "run.log"),
            ("--out", "{tmp}/run.log", "run.log"),
            ("--out", "r.csv", "./wl.replay"),
            ("--out", "r.csv", "./exp.ini"),
            ("--export-workload", "./exp.ini", "run.log"),
            ("--export-workload", "wl.replay", "run.log"),
            ("--export-workload", "{tmp}/run.log", "run.log"),
        ],
        ids=[
            "out-config", "out-workload", "out-log", "log-workload", "log-config",
            "export-config", "export-workload", "export-log",
        ],
    )
    def test_output_over_a_run_file_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, flag, out, log
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with an output over a run file")

        wl = tmp_path / "wl.replay"
        argv = ["--config", str(self.write_cfg(tmp_path)), "--export-workload", str(wl)]
        assert cli_main(argv) == 0
        (tmp_path / "run.log").write_text("an earlier run's log\n")
        text = CLI_INI.replace("dim = 16", f"dim = 16\ntransitions_out = {log}")
        text = text.replace("topics = 40", f"topics = 40\nworkload_file = {wl}")
        p = self.write_cfg(tmp_path, text)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        out = out.format(tmp=tmp_path)
        assert cli_main(["--config", str(p), flag, out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "same file as" in err
        if out != "r.csv":  # the clash is the output's, not the log's
            assert err.startswith(f"config error: {flag} {out} names the same file as")
        else:
            assert err.startswith(f"config error: transitions_out {log} names the same file as")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fault", ["directory", "non-utf8", "seed-flag", "seed-ini"])
    def test_bad_config_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch, fault):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with a bad config")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        argv = ["--config", str(self.write_cfg(tmp_path))]
        if fault == "directory":
            argv = ["--config", str(tmp_path)]
        elif fault == "non-utf8":
            (tmp_path / "exp.ini").write_bytes(CLI_INI.encode() + b"# \xff\n")
        elif fault == "seed-flag":
            argv += ["--seed", "-1"]
        else:
            self.write_cfg(tmp_path, CLI_INI.replace("seed = 3", "seed = -1"))
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n" + CLI_INI.split("\n[workload]")[0]],
        ids=["alone", "with-experiment"],
    )
    def test_default_section_exits_2_before_the_report_opens(
        self, tmp_path, capsys, monkeypatch, text
    ):
        def slot_loop(*args, **kwargs):
            raise AssertionError("slot loop entered with a [DEFAULT] section")

        monkeypatch.setattr(harness._Deployment, "play", slot_loop)
        out = tmp_path / "r.csv"
        argv = ["--config", str(self.write_cfg(tmp_path, text)), "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown section [DEFAULT]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("nlist = 32", "nlist = 0"),
            ("paraphrase_sigma = 0.05", "paraphrase_sigma = -0.1"),
            ("tau_serve = 0.15", "tau_serve = 0.15\nreward_scale = -1.0"),
        ],
        ids=["nlist", "paraphrase_sigma", "reward_scale"],
    )
    def test_bad_setting_exits_2_before_the_report_opens(
        self, tmp_path, capsys, old, new
    ):
        demo = (Path(__file__).parents[1] / "demos" / "small.ini").read_text()
        assert old in demo
        out = tmp_path / "r.csv"
        argv = ["--config", str(self.write_cfg(tmp_path, demo.replace(old, new)))]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_odd_positional_model_dim_exits_2_before_the_report_opens(
        self, tmp_path, capsys
    ):
        demo = (Path(__file__).parents[1] / "demos" / "small.ini").read_text()
        text = demo.replace("num_heads = 4\nmodel_dim = 32", "num_heads = 3\nmodel_dim = 9")
        assert text != demo
        out = tmp_path / "r.csv"
        argv = ["--config", str(self.write_cfg(tmp_path, text)), "--policy", "lrs"]
        assert cli_main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "model_dim 9" in err
        assert not out.exists()

    def test_percent_in_config_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = CLI_INI.replace("dim = 16", "dim = 16\ntransitions_out = run_100%.jsonl")
        assert cli_main(["--config", str(self.write_cfg(tmp_path, text))]) == 0
        assert len((tmp_path / "run_100%.jsonl").read_text().splitlines()) == 24

    def test_full_run_writes_report(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path)
        out = tmp_path / "report.csv"
        assert cli_main(["--config", str(p), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "train: 16 requests" in stdout
        assert "test: 8 requests" in stdout
        report = load_report(out)
        assert report.policy == "random"
        assert report.seed == 3

    def test_seed_and_policy_overrides_reach_report(self, tmp_path):
        p = self.write_cfg(tmp_path)
        out = tmp_path / "report.csv"
        code = cli_main(
            ["--config", str(p), "--seed", "9", "--policy", "greedy-0.3",
             "--out", str(out)]
        )
        assert code == 0
        report = load_report(out)
        assert report.seed == 9
        assert report.policy == "greedy-0.3"
        assert report.config["experiment.seed"] == "9"

    def test_readme_flag_table_names_every_option(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| flag | meaning |\n", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"^\| `(--[\w-]+)", table, flags=re.M)
        actions = build_arg_parser()._actions
        options = {o for a in actions for o in a.option_strings} - {"-h", "--help"}
        assert sorted(listed) == sorted(options)
        # every command of the Quick start parses
        quick = readme.split("## Quick start\n\n```\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in quick.splitlines()]
        assert commands and all(c[0] == "edgesched" for c in commands)
        for command in commands:
            build_arg_parser().parse_args(command[1:])

    def test_readme_dotted_names_resolve(self):
        # every edgesched.<dotted.name> in README: the longest prefix that
        # imports as a module, then attributes for the rest
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        names = sorted(set(re.findall(r"\bedgesched(?:\.[A-Za-z_]\w*)+", readme)))
        assert "edgesched.simenv.Transition" in names
        for name in names:
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError as exc:
                    assert exc.name == ".".join(parts[:cut]), exc
            for attr in parts[cut:]:
                assert hasattr(obj, attr), f"README names {name}: no {attr}"
                obj = getattr(obj, attr)

    def test_out_with_export_workload_exits_2_before_writing(self, tmp_path, capsys):
        argv = [
            "--config", str(self.write_cfg(tmp_path)),
            "--out", str(tmp_path / "r.csv"),
            "--export-workload", str(tmp_path / "wl.jsonl"),
        ]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["exp.ini"]

    def test_non_finite_report_exits_1_and_leaves_no_report(self, tmp_path, capsys):
        # rewards overflow to -inf; one server, so np.var sees no inf means
        text = CLI_INI.replace("policy = random", "policy = greedy-0.3")
        text = text.replace("servers = 2\nusers = 4", "servers = 1\nusers = 1")
        text = text.replace("train_slots = 8\ntest_slots = 4", "train_slots = 20\ntest_slots = 5")
        text = text.replace("[env]\n", "[env]\nreward_scale = 1e308\ndelay_weight = 1e308\n")
        out = tmp_path / "r.csv"
        assert cli_main(["--config", str(self.write_cfg(tmp_path, text)), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "mean reward -inf" in captured.out
        assert captured.err.startswith("error: train window 0: mean_reward is -inf")
        assert os.listdir(tmp_path) == ["exp.ini"]

    @pytest.mark.parametrize(
        "fault", [GradientError("non-finite gradient"), KeyboardInterrupt()],
        ids=["gradient", "interrupt"],
    )
    def test_runtime_failure_leaves_no_report_it_made(
        self, tmp_path, capsys, monkeypatch, fault
    ):
        def run(cfg):
            raise fault

        monkeypatch.setattr(harness, "run_experiment", run)
        out = tmp_path / "r.csv"
        argv = ["--config", str(self.write_cfg(tmp_path)), "--out", str(out)]
        if isinstance(fault, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                cli_main(argv)
        else:
            assert cli_main(argv) == 1
            assert capsys.readouterr().err == "error: non-finite gradient\n"
        assert os.listdir(tmp_path) == ["exp.ini"]

    def test_export_workload(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path)
        wl = tmp_path / "wl.jsonl"
        assert cli_main(["--config", str(p), "--export-workload", str(wl)]) == 0
        assert "wrote 24 requests" in capsys.readouterr().out
        reqs = load_workload(wl, dim=16)
        assert len(reqs) == 24

    def test_exported_workload_replays(self, tmp_path):
        p = self.write_cfg(tmp_path)
        wl = tmp_path / "wl.jsonl"
        assert cli_main(["--config", str(p), "--export-workload", str(wl)]) == 0
        replay_ini = CLI_INI + f"\nworkload_file = {wl}\n"
        # workload options live in [workload]; append there instead
        replay_ini = CLI_INI.replace(
            "topics = 40", f"topics = 40\nworkload_file = {wl}"
        )
        p2 = tmp_path / "replay.ini"
        p2.write_text(replay_ini)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["--config", str(p), "--out", str(out_a)]) == 0
        assert cli_main(["--config", str(p2), "--out", str(out_b)]) == 0
        wa = load_report(out_a).windows
        wb = load_report(out_b).windows
        assert wa == wb
