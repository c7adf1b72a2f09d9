"""Experiment harness: seeded end-to-end runs, metric windows, reports, CLI.

A run has two phases sharing one environment and one set of stores: a
training phase where requests go to their origin server (and learned
policies update), then a frozen test phase in either ``nearest`` mode (same
routing) or ``broadcast`` mode (every request is served by all servers and
the fastest answer wins).  Metrics are aggregated into fixed-size windows of
completed requests and written as a CSV report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jsonl
from .baselines import (
    POLICY_NAMES,
    AblationSpec,
    BasePolicy,
    LearnedPolicy,
    PayoffGreedyPolicy,
    resolve_policy,
)
from .config import MODES, ExperimentConfig, load_config
from .errors import ConfigError, GradientError, ParseError
from .marl import (
    CORR_ROWS,
    DemoSet,
    ExperienceBuffer,
    RolloutDriver,
    Trainer,
    TrainerConfig,
    correlation_features,
)
from .seeding import DOMAIN_DEMO, substream
from .simenv import ActionChoice, Transition
from .workload import WorkloadGenerator, generate_topics, load_workload, save_workload

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsWindow:
    """Aggregates over one window of completed requests."""

    phase: str
    index: int
    count: int
    mean_reward: float
    mean_satisfaction: float
    mean_delay: float
    llm_direct_freq: float  # fraction of completions served by direct cloud
    reward_variance: float  # population variance of per-agent mean rewards


@dataclass
class PhaseSummary:
    phase: str
    requests: int
    mean_reward: float
    mean_satisfaction: float
    mean_delay: float
    llm_direct_freq: float


class WindowAccumulator:
    """Folds completed transitions into fixed-size metric windows."""

    def __init__(self, phase: str, window_size: int, n_agents: int):
        self.phase = phase
        self.window_size = window_size
        self.n_agents = n_agents
        self.windows: list[MetricsWindow] = []
        self._open: list[Transition] = []  # the open window, in arrival order

    def add(self, t: Transition) -> MetricsWindow | None:
        self._open.append(t)
        if len(self._open) == self.window_size:
            return self._close()
        return None

    def _close(self) -> MetricsWindow:
        ts, self._open = self._open, []
        n = len(ts)
        # Not sum(): from Python 3.12 it rounds floats differently.
        r = q = d = 0.0
        agent_r = np.zeros(self.n_agents)
        agent_n = np.zeros(self.n_agents, dtype=int)
        for t in ts:
            r += t.r
            q += t.q
            d += t.d
            agent_r[t.server] += t.r
            agent_n[t.server] += 1
        active = agent_n > 0
        means = agent_r[active] / agent_n[active]
        win = MetricsWindow(
            phase=self.phase,
            index=len(self.windows),
            count=n,
            mean_reward=r / n,
            mean_satisfaction=q / n,
            mean_delay=d / n,
            llm_direct_freq=sum(t.resolved == "B" for t in ts) / n,
            reward_variance=float(np.var(means)) if len(means) > 1 else 0.0,
        )
        self.windows.append(win)
        return win

    def flush(self) -> MetricsWindow | None:
        """Close a partial tail window, if any completions are pending."""
        if self._open:
            return self._close()
        return None


@dataclass
class MetricsReport:
    """Everything a finished run reports: provenance and windows.  The phase
    summaries are computed from the windows, so they cannot disagree."""

    policy: str
    mode: str
    seed: int
    config: dict[str, str]
    windows: list[MetricsWindow]

    def _summary(self, phase: str) -> PhaseSummary:
        """The count-weighted means of the phase's windows."""
        ws = [w for w in self.windows if w.phase == phase]
        n = sum(w.count for w in ws)
        means = [
            sum(getattr(w, f.name) * w.count for w in ws) / max(n, 1)
            for f in dataclasses.fields(PhaseSummary)[2:]
        ]
        return PhaseSummary(phase, n, *means)

    train = property(lambda self: self._summary("train"))
    test = property(lambda self: self._summary("test"))


# ---------------------------------------------------------------------------
# report files

_WINDOW_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsWindow))


def emit_report(report: MetricsReport, path) -> None:
    """Write a report as CSV to ``path``, which changes only if it succeeds."""
    with jsonl.replacing(path) as fh:
        _write_report(report, fh)


def _write_report(report: MetricsReport, fh) -> None:
    """Provenance comment lines, then the window rows.  A window value that
    is not finite raises ValueError before anything is written."""
    for w in report.windows:
        for f in _WINDOW_FIELDS[3:]:
            if not np.isfinite(getattr(w, f)):
                raise ValueError(
                    f"{w.phase} window {w.index}: {f} is {getattr(w, f)}; "
                    "a report holds finite values only"
                )
    fh.write("# edgesched-report v1\n")
    fh.write(f"# policy = {report.policy}\n")
    fh.write(f"# mode = {report.mode}\n")
    fh.write(f"# seed = {report.seed}\n")
    for key, value in sorted(report.config.items()):
        fh.write(f"# config {key} = {value}\n")
    writer = csv.writer(fh)
    writer.writerow(_WINDOW_FIELDS)
    for w in report.windows:
        writer.writerow([str(getattr(w, f)) for f in _WINDOW_FIELDS])


# How load_report converts the report's provenance lines.
_META_FIELDS = {"policy": jsonl.text, "mode": jsonl.text, "seed": jsonl.integer}
_TEXT_FIELDS = ("policy", "mode", "phase")


def load_report(path) -> MetricsReport:
    """Read a CSV report back; it equals the report that was written, as
    window fields round-trip exactly."""
    windows: list[MetricsWindow] = []
    meta = {"config": {}}
    header = None
    for where, line in jsonl.lines(path):
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config "):
                # Split the unstripped rest: an empty value ends in " = ".
                rest = line[1:].lstrip()[len("config ") :].rstrip("\n")
                key, _, value = rest.partition(" = ")
                meta["config"][key.strip()] = value
            elif " = " in body:
                key, _, value = (part.strip() for part in body.partition(" = "))
                if key in _META_FIELDS:
                    meta[key] = _META_FIELDS[key](where, _cells({key: value}), key)
            continue
        row = next(csv.reader([line]))
        if header is None:
            header = tuple(row)
            if header != _WINDOW_FIELDS:
                raise ParseError(f"{where}: malformed header row")
        elif len(row) != len(_WINDOW_FIELDS):
            raise ParseError(f"{where}: window row has {len(row)} fields")
        else:
            windows.append(_window_from(where, _cells(zip(_WINDOW_FIELDS, row))))
    if header is None:
        raise ParseError(f"{path}: missing header row")
    for key in _META_FIELDS:
        if key not in meta:
            raise ParseError(f"{path}: missing '# {key} = ' line")
    return MetricsReport(**meta, windows=windows)


def _cells(pairs) -> dict:
    """A CSV report's ``(field, text)`` cells as a row for the :mod:`jsonl`
    converters: the cell of a numeric field becomes the JSON value it
    spells, if it spells one."""
    row = dict(pairs)
    for key, cell in row.items():
        if key not in _TEXT_FIELDS:
            with contextlib.suppress(ValueError, RecursionError):
                row[key] = json.loads(cell)
    return row


def _window_from(where: str, row: dict) -> MetricsWindow:
    where = f"{where}: bad window row"
    return MetricsWindow(
        phase=jsonl.text(where, row, "phase"),
        index=jsonl.integer(where, row, "index"),
        count=jsonl.integer(where, row, "count"),
        **{f: jsonl.number(where, row, f) for f in _WINDOW_FIELDS[3:]},
    )


# ---------------------------------------------------------------------------
# experiment assembly


def _slot_requests(cfg: ExperimentConfig) -> Callable[[int], list]:
    """``requests(slot)``: the slot's requests in server order, drawn from the
    generator or read from a replay file.  A file's request ids must be
    unique and its slots numbered 0, 1, 2, ..., each holding one request
    per server; they are checked, grouped and sorted here, once."""
    if not cfg.workload_file:
        topics = generate_topics(cfg.topics, cfg.dim, cfg.seed)
        return WorkloadGenerator(
            topics,
            cfg.servers,
            cfg.users,
            cfg.repeat_ratio,
            cfg.paraphrase_sigma,
            cfg.seed,
        ).slot_requests
    requests = load_workload(cfg.workload_file, dim=cfg.dim)
    if any(r.server >= cfg.servers for r in requests):
        raise ConfigError(
            f"{cfg.workload_file}: request server index exceeds "
            f"configured servers ({cfg.servers})"
        )
    # Every per-request draw is keyed by the request's id.
    ids = set()
    for r in requests:
        if r.id in ids:
            raise ConfigError(f"{cfg.workload_file}: request id {r.id} is repeated")
        ids.add(r.id)
    slots: dict[int, list] = {}
    for r in sorted(requests, key=lambda r: r.server):
        slots.setdefault(r.slot, []).append(r)
    for s in range(len(slots)):
        if s not in slots:
            raise ConfigError(
                f"{cfg.workload_file}: slot {s} is missing; "
                "slots must be numbered 0, 1, 2, ..."
            )
        servers = [r.server for r in slots[s]]
        if len(servers) != cfg.servers:
            raise ConfigError(
                f"{cfg.workload_file}: slot {s} has "
                f"{len(servers)} requests, expected {cfg.servers}"
            )
        if servers != list(range(cfg.servers)):
            raise ConfigError(
                f"{cfg.workload_file}: slot {s} has requests "
                f"for servers {servers}, expected one per server"
            )
    needed = cfg.train_slots + cfg.test_slots
    if len(slots) < needed:
        raise ConfigError(
            f"{cfg.workload_file}: {len(slots)} slots in file, run needs {needed}"
        )
    return slots.__getitem__


class _Deployment:
    """One run's servers and requests; outcomes are logged to ``log_fh``,
    if it is set."""

    def __init__(self, cfg: ExperimentConfig):
        self.env = cfg.edge_env(cfg.servers)
        self.requests = _slot_requests(cfg)
        self.log_fh = None

    def observe(self, group, features: bool) -> tuple:
        """Correlation sets for a group of (server, request) pairs, with the
        group's feature and question matrices if ``features`` (else None)."""
        corrsets = [self.env.correlations(n, r.question_vec) for n, r in group]
        if not features:
            return corrsets, None, None
        width = self.env.query_width
        feats = np.stack([correlation_features(c, width) for c in corrsets])
        questions = np.stack([req.question_vec for _, req in group])
        return corrsets, feats, questions

    def play(
        self,
        slots: range,
        mode: str,
        actor: BasePolicy | RolloutDriver,
        buffer: ExperienceBuffer | None,
        acc: WindowAccumulator | None,
    ) -> None:
        """The slot loop of every phase: demos, training and testing.

        Requests form decision groups of (server, request) pairs: per slot
        one group at the origin servers, or in ``broadcast`` mode one group
        per request covering every server.  Each group is observed, decided
        by ``actor`` (a policy, or a :class:`RolloutDriver` that also
        trains), then stepped; served requests go to ``acc`` and, with
        ``buffer``, each slot is recorded for training.  Feature and
        question matrices are built only where they are read: by a learner
        or a buffer.
        """
        env = self.env
        learned = isinstance(actor, RolloutDriver)
        features = learned or buffer is not None
        for slot in slots:
            reqs = self.requests(slot)
            env.begin_slot(slot)
            groups = [list(enumerate(reqs))]
            if mode == "broadcast":
                groups = [[(n, req) for n in range(env.num_servers)] for req in reqs]
            for group in groups:
                corrsets, feats, questions = self.observe(group, features)
                if learned:
                    actor.begin_slot(feats, questions)
                    keys = [req.id for _, req in group]
                    actions, probs, _ = actor.choose(feats, questions, keys)
                    choices = [ActionChoice(int(a)) for a in actions]
                else:
                    if buffer is not None:
                        buffer.begin_slot(feats, questions)
                    choices, probs = [], []
                    for (n, req), corr in zip(group, corrsets):
                        choice, prob = actor.decide(corr, req, n)
                        choices.append(choice)
                        probs.append(prob)
                if mode == "broadcast":
                    won, outcomes = env.broadcast_step(group[0][1], choices, corrsets, probs)
                    served = [won]
                else:
                    outcomes = served = [
                        env.step(req, choices[i], corrsets[i], float(probs[i]))
                        for i, (_, req) in enumerate(group)
                    ]
                for t in outcomes:
                    if not learned:
                        actor.observe(t)
                    if self.log_fh is not None:
                        self.log_fh.write(json.dumps(dataclasses.asdict(t)) + "\n")
                if acc is not None:
                    for t in served:
                        acc.add(t)
                if buffer is not None:
                    taken = [c.a for c in choices]
                    rewards = [t.r for t in outcomes]
                    buffer.record_slot(feats, questions, taken, probs, rewards)


def build_expert_demos(cfg: ExperimentConfig) -> DemoSet:
    """Record demonstration segments from the payoff-greedy expert.

    The expert runs on its own sibling copy of the experiment (fresh stores
    and workload under a demo-specific seed) so the main run's random
    streams stay untouched.  Recorded action probabilities are 1.0: the
    expert is deterministic.
    """
    demo_seed = int(substream(cfg.seed, DOMAIN_DEMO).integers(2**31))
    demo_cfg = dataclasses.replace(cfg, workload_file=None, seed=demo_seed)
    deployment = _Deployment(demo_cfg)
    expert = PayoffGreedyPolicy(deployment.env)
    buffer = ExperienceBuffer(cfg.servers, cfg.min_agent_batch)
    deployment.play(range(cfg.demo_slots), "nearest", expert, buffer, None)
    # Bootstrap observation for the final partial segment.
    reqs = deployment.requests(cfg.demo_slots)
    deployment.env.begin_slot(cfg.demo_slots)
    _, feats, questions = deployment.observe(list(enumerate(reqs)), features=True)
    buffer.hand_off(feats, questions)
    return DemoSet(buffer.segments)


# ---------------------------------------------------------------------------
# the run itself


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Execute one full seeded experiment and return its report.

    ``cfg.transitions_out`` gets one row per outcome as it completes (N rows
    per broadcast request) and appears only if the run returns.  A float
    overflow, invalid value or division by zero raises FloatingPointError.
    """
    cfg.validate()
    variant = resolve_policy(cfg.policy)
    learned = isinstance(variant, AblationSpec)
    deployment = _Deployment(cfg)
    with (
        jsonl.replacing(cfg.transitions_out) as deployment.log_fh,
        np.errstate(over="raise", invalid="raise", divide="raise"),
    ):
        buffer = None
        if learned:
            demos = build_expert_demos(cfg) if variant.use_demos else None
            trainer = cfg.build(
                Trainer,
                n_agents=cfg.servers,
                corr_dim=CORR_ROWS * cfg.query_width,
                question_dim=cfg.dim,
                cfg=cfg.build(TrainerConfig),
                encoder_cfg=cfg.encoder_config() if variant.use_encoder else None,
                demos=demos,
            )
            actor: BasePolicy | RolloutDriver = RolloutDriver(trainer)
            buffer = trainer.buffer
        else:
            actor = variant(deployment.env)

        # Training phase: origin-server routing, learned policies update.
        acc_train = WindowAccumulator("train", cfg.window_size, cfg.servers)
        deployment.play(range(cfg.train_slots), "nearest", actor, buffer, acc_train)
        acc_train.flush()

        # Frozen test phase.
        if learned:
            actor = LearnedPolicy(trainer.snapshot(), deployment.env)
        acc_test = WindowAccumulator("test", cfg.window_size, cfg.servers)
        test_slots = range(cfg.train_slots, cfg.train_slots + cfg.test_slots)
        deployment.play(test_slots, cfg.mode, actor, None, acc_test)
        acc_test.flush()

        return MetricsReport(
            policy=cfg.policy,
            mode=cfg.mode,
            seed=cfg.seed,
            config=cfg.flat_dict(),
            windows=acc_train.windows + acc_test.windows,
        )


# ---------------------------------------------------------------------------
# CLI


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesched",
        description="Run a cloud-edge request-scheduling experiment.",
    )
    parser.add_argument("--config", help="INI experiment config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--policy",
        help=f"override the scheduling policy ({', '.join(POLICY_NAMES)})",
    )
    parser.add_argument("--mode", choices=MODES, help="test-phase routing mode")
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--out", help="CSV report file")
    target.add_argument(
        "--export-workload",
        metavar="PATH",
        help="generate the configured workload, write it as JSON lines, and exit",
    )
    return parser


def _check_output_path(
    name: str, path: str, config_path: str, cfg: ExperimentConfig
) -> None:
    """Reject an output ``path``, given as ``name``, that names a file the
    run reads or writes besides that output."""
    others = {
        "--config": config_path,
        "workload_file": cfg.workload_file,
        "transitions_out": cfg.transitions_out,
    }
    others.pop(name, None)
    for other_name, other in others.items():
        if other and os.path.realpath(other) == os.path.realpath(path):
            raise ConfigError(f"{name} {path} names the same file as {other_name}")


def cli_main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.policy is not None:
            cfg.policy = args.policy
        if args.mode is not None:
            cfg.mode = args.mode
        cfg.validate()
        if args.out and args.out.lower().endswith((".json", ".jsonl")):
            raise ConfigError(f"--out {args.out}: reports are CSV; use a .csv path")
        outputs = {
            "transitions_out": cfg.transitions_out,
            "--out": args.out,
            "--export-workload": args.export_workload,
        }
        for name, path in outputs.items():
            if path:
                _check_output_path(name, path, args.config, cfg)
        if args.export_workload:
            requests = _slot_requests(dataclasses.replace(cfg, workload_file=None))
            slots = range(cfg.train_slots + cfg.test_slots)
            count = save_workload(
                args.export_workload, [req for s in slots for req in requests(s)]
            )
            print(f"wrote {count} requests to {args.export_workload}")
            return 0
        # Opening the report first fails an unwritable path before the run.
        with jsonl.replacing(args.out) as out:
            report = run_experiment(cfg)
            for phase in (report.train, report.test):
                print(
                    f"{phase.phase}: {phase.requests} requests, "
                    f"mean reward {phase.mean_reward:.4f}, "
                    f"mean delay {phase.mean_delay:.4f}s, "
                    f"direct-cloud share {phase.llm_direct_freq:.3f}"
                )
            if out is not None:
                _write_report(report, out)
        if args.out:
            print(f"report written to {args.out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, GradientError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli_main())
