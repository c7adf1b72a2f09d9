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
    DecisionContext,
    LearnedPolicy,
    PayoffGreedyPolicy,
    resolve_policy,
)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, ParseError
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
from .vecstore import VectorStore
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
        self._reset()

    def _reset(self):
        self._count = 0
        self._r = 0.0
        self._q = 0.0
        self._d = 0.0
        self._direct = 0
        self._agent_r = np.zeros(self.n_agents)
        self._agent_n = np.zeros(self.n_agents, dtype=int)

    def add(self, t: Transition) -> MetricsWindow | None:
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

    def _close(self) -> MetricsWindow:
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

    def flush(self) -> MetricsWindow | None:
        """Close a partial tail window, if any completions are pending."""
        if self._count:
            return self._close()
        return None


@dataclass
class MetricsReport:
    """Everything a finished run reports: provenance, windows, summaries."""

    policy: str
    mode: str
    seed: int
    config: dict[str, str]
    windows: list[MetricsWindow]
    train: PhaseSummary
    test: PhaseSummary


# ---------------------------------------------------------------------------
# report files

_WINDOW_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsWindow))
_SUMMARY_MEANS = [f.name for f in dataclasses.fields(PhaseSummary)[2:]]


def _summaries_from_windows(windows: list[MetricsWindow]) -> dict[str, PhaseSummary]:
    """Phase summaries as count-weighted means of the phase's windows.

    This is the one source of summaries: :func:`run_experiment` and
    :func:`load_report` both call it, so a report read back from a file has
    the summaries of the run that wrote it, bit for bit.
    """
    out = {}
    for phase in ("train", "test"):
        ws = [w for w in windows if w.phase == phase]
        n = sum(w.count for w in ws)
        means = [
            sum(getattr(w, f) * w.count for w in ws) / max(n, 1) for f in _SUMMARY_MEANS
        ]
        out[phase] = PhaseSummary(phase, n, *means)
    return out


def emit_report(report: MetricsReport, path) -> None:
    """Write a report as CSV: provenance comment lines, then the window rows."""
    with open(path, "w", newline="") as fh:
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
    """Read a CSV report back; it equals the report that was written.

    Window fields round-trip exactly, and the phase summaries are rebuilt
    from them with :func:`_summaries_from_windows`, as the run built them.
    """
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
    summaries = _summaries_from_windows(windows)
    return MetricsReport(
        **meta, windows=windows, train=summaries["train"], test=summaries["test"]
    )


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
    generator or read from a replay file.  A file's slots must be numbered
    0, 1, 2, ... and hold one request per server; they are checked, grouped
    and sorted here, once."""
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
    """One run's servers and requests; outcomes are logged to ``log_fh``."""

    def __init__(self, cfg: ExperimentConfig, log_fh):
        self.env = cfg.edge_env(cfg.servers)
        self.requests = _slot_requests(cfg)
        self.log_fh = log_fh

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
                        ctx = DecisionContext(corr, req.question_vec, n, req.id)
                        choice, prob = actor.decide(ctx)
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
    deployment = _Deployment(demo_cfg, log_fh=None)
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

    ``cfg.transitions_out`` is opened before the first slot and receives one
    row per outcome as it completes (N rows per broadcast request).
    """
    cfg.validate()
    log_fh = open(cfg.transitions_out, "w") if cfg.transitions_out else None
    with log_fh or contextlib.nullcontext():
        variant = resolve_policy(cfg.policy)
        learned = isinstance(variant, AblationSpec)
        deployment = _Deployment(cfg, log_fh)
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

        windows = acc_train.windows + acc_test.windows
        summaries = _summaries_from_windows(windows)
        return MetricsReport(
            policy=cfg.policy,
            mode=cfg.mode,
            seed=cfg.seed,
            config=cfg.flat_dict(),
            windows=windows,
            train=summaries["train"],
            test=summaries["test"],
        )


# ---------------------------------------------------------------------------
# self-checks


def run_invariant_checks(out=sys.stdout) -> bool:
    """Fast deterministic self-diagnostics; True when everything passes."""
    from .nn.gradcheck import finite_difference_grads, gradient_relative_error
    from .nn.models import MlpNet
    from .nn.params import ParamSet
    from .marl import compute_gae
    from .simenv import reward, qos_cost
    from .vecstore import IvfIndex

    ok = True

    def check(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'}: {name}", file=out)

    # Reward is exactly the negated, scaled QoS cost.
    r = reward(-0.2, 1.5, 1.0, 0.1, 10.0)
    check("reward equals -scale * qos_cost", r == -10.0 * qos_cost(-0.2, 1.5, 1.0, 0.1))

    # GAE on a hand-solvable two-step segment: deltas are both 1, so the
    # earlier advantage carries gamma * lambda * 1 on top of its delta.
    adv = compute_gae(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.0, 0.5, 1.0)
    check("gae matches hand computation", np.allclose(adv, [1.5, 1.0]))

    # Gradients of a tiny MLP agree with finite differences.
    net = MlpNet(3, (4,), 2, prefix="t", zero_final=False)
    rng = np.random.default_rng(0)
    params = ParamSet(net.init_params(rng))
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, 2))

    def loss_of(p: ParamSet) -> float:
        y, _ = net.forward(p, x)
        return float((w * y).sum())

    y, cache = net.forward(params, x)
    _, grads = net.backward(params, cache, w)
    numeric = finite_difference_grads(loss_of, params, step=1e-5)
    err = gradient_relative_error(grads, numeric)
    check(f"mlp gradients match finite differences (rel err {err:.2e})", err < 1e-6)

    # Store round-trip through search.
    store = VectorStore(dim=8, nlist=1, seed=1)
    v = np.zeros(8)
    v[0] = 1.0
    store.insert_qa(v, -v, slot=0, initial_cache_value=-1.0)
    hit = store.query(v, 1).best()
    check("store returns an inserted vector exactly", hit is not None and hit.distance == 0.0)

    # The IVF probe's guarded matrix-vector ranking takes the lists the exact
    # stable walk takes: on a seeded 128-list store, and on a copy whose
    # nearest centroid is duplicated, where the guard must fall back.
    store = VectorStore(dim=16, nlist=128, seed=2)
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(600, 16))
    for q, a in zip(vecs[0::2], vecs[1::2]):
        store.insert_qa(q, a, slot=0, initial_cache_value=-1.0)
    index = store.rebuild_index()
    queries = rng.normal(size=(40, 16))
    agree = index.nlist == 128 and all(
        sorted(index.probe_order(q, t)) == sorted(index._exact_probe(q, t))
        for q in queries
        for t in (10, 60, len(store) + 1)
    )
    twin = IvfIndex(np.vstack([index.centroids[:1], index.centroids]), [[], *index.lists])
    q = index.centroids[0]
    forced = twin._ranked_probe(q, 10) is None
    agree = agree and forced and twin.probe_order(q, 10) == twin._exact_probe(q, 10)
    check("ivf probe sets equal the exact walk, with one forced fallback", agree)

    return ok


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
    parser.add_argument(
        "--mode", choices=("nearest", "broadcast"), help="test-phase routing mode"
    )
    parser.add_argument("--out", help="CSV report file")
    parser.add_argument(
        "--export-workload",
        metavar="PATH",
        help="generate the configured workload, write it as JSON lines, and exit",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run built-in invariant self-checks and exit",
    )
    return parser


def _check_report_path(out: str, config_path: str, cfg: ExperimentConfig) -> None:
    """Reject a ``--out`` path that is not a CSV report's or that names a
    file the run reads or writes besides the report."""
    if out.lower().endswith((".json", ".jsonl")):
        raise ConfigError(f"--out {out}: reports are CSV; use a .csv path")
    others = {
        "--config": config_path,
        "workload_file": cfg.workload_file,
        "transitions_out": cfg.transitions_out,
    }
    for name, other in others.items():
        if other and os.path.realpath(other) == os.path.realpath(out):
            raise ConfigError(f"--out {out} names the same file as {name}")


def cli_main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.check:
        return 0 if run_invariant_checks() else 1

    if not args.config:
        print("error: --config is required (or use --check)", file=sys.stderr)
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
        if args.out:
            _check_report_path(args.out, args.config, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.export_workload:
        try:
            requests = _slot_requests(dataclasses.replace(cfg, workload_file=None))
            slots = range(cfg.train_slots + cfg.test_slots)
            count = save_workload(
                args.export_workload, [req for s in slots for req in requests(s)]
            )
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {count} requests to {args.export_workload}")
        return 0

    try:
        if args.out:
            # Fail before the run, not after it, on an unwritable report path.
            open(args.out, "a").close()
        report = run_experiment(cfg)
        for phase in (report.train, report.test):
            print(
                f"{phase.phase}: {phase.requests} requests, "
                f"mean reward {phase.mean_reward:.4f}, "
                f"mean delay {phase.mean_delay:.4f}s, "
                f"direct-cloud share {phase.llm_direct_freq:.3f}"
            )
        if args.out:
            emit_report(report, args.out)
            print(f"report written to {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli_main())
