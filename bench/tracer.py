"""Layer tracing for one edgesched run, installed from outside the package.

:class:`Tracer` replaces public functions and methods of edgesched's modules
with wrappers that record a span per call (name, parent span, start, end).
Spans stay in memory until :meth:`Tracer.write_spans`.  A span's self time is
its duration minus the durations of the spans nested directly inside it.

Besides spans, a few hooks read return values to count layer outcomes: the
environment's action mix, store sizes at each slot boundary, evicted records,
PPO batch shapes, and a sampled recall of the IVF search against the exact
scan.  None of the hooks write to program state, so a traced run produces
the same report as an untraced one.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

import numpy as np

from edgesched import baselines, harness, marl, simenv, vecstore, workload
from edgesched.nn import layers, models, params

# Every Nth VectorStore.query is repeated through exact_knn to sample recall.
RECALL_EVERY = 10

_DEMOS = "harness.build_expert_demos"

# (owner, attribute, span name).  ``substream`` is bound by name in each
# module that imports it, so each binding is patched.
_TARGETS = [
    (workload.WorkloadGenerator, "slot_requests", "workload.slot_requests"),
    *[
        (module, "substream", "seeding.substream")
        for module in (harness, simenv, workload, vecstore, marl)
    ],
    (vecstore.VectorStore, "query", "vecstore.query"),
    (vecstore.VectorStore, "insert_qa", "vecstore.insert_qa"),
    (vecstore.IvfIndex, "add", "vecstore.ivf_add"),
    (vecstore.IvfIndex, "probe_order", "vecstore.probe_order"),
    (vecstore.VectorStore, "rebuild_index", "vecstore.rebuild_index"),
    (vecstore.VectorStore, "evict", "vecstore.evict"),
    (vecstore.VectorStore, "update_cache_value", "vecstore.update_cache_value"),
    (simenv, "filter_best", "vecstore.filter_best"),
    (simenv.EdgeEnv, "step", "simenv.step"),
    (simenv.EdgeEnv, "broadcast_step", "simenv.broadcast_step"),
    (simenv.EdgeEnv, "begin_slot", "simenv.begin_slot"),
    *[
        (cls, "decide", "baselines.decide")
        for cls in (
            baselines.ThresholdPolicy,
            baselines.PayoffGreedyPolicy,
            baselines.RandomPolicy,
            baselines.LearnedPolicy,
        )
    ],
    (harness, "build_expert_demos", _DEMOS),
    (marl.Trainer, "train_update", "marl.train_update"),
    (marl, "ppo_loss", "marl.ppo_loss"),
    (marl.Trainer, "values_of", "marl.values_of"),
    (marl.RolloutDriver, "choose", "marl.choose"),
    (marl.PolicySnapshot, "action_probs", "marl.action_probs"),
    (models.FeatureEncoder, "forward", "nn.encoder_forward"),
    (models.FeatureEncoder, "backward", "nn.encoder_backward"),
    (layers, "attention_forward", "nn.attention_forward"),
    (models.PolicyNet, "forward", "nn.policy_forward"),
    (models.PolicyNet, "backward", "nn.policy_backward"),
    (models.ValueNet, "forward", "nn.value_forward"),
    (models.ValueNet, "backward", "nn.value_backward"),
    (params.Adam, "step", "nn.adam_step"),
]


class Tracer:
    """Spans and layer counters for one run; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 0
        self.query_s: list[float] = []
        self.recall: list[float] = []
        self.top1: list[float] = []
        self.actions = {"A": 0, "B": 0, "C": 0}
        self.fallbacks = 0
        self.evicted = 0
        self.store_sizes: list[int] = []
        self.slot_s: list[float] = []
        self._last_slot: float | None = None
        self.updates: list[tuple[int, int, int]] = []  # (rows, demo rows, minibatches)
        self.clip_fractions: list[float] = []
        self.encoder_rows = 0
        self._queries = 0
        self._hooks = {
            "vecstore.query": self._after_query,
            "vecstore.evict": self._after_evict,
            "simenv.step": self._after_step,
            "simenv.begin_slot": self._after_begin_slot,
            "marl.train_update": self._after_train_update,
            "nn.encoder_forward": self._after_encoder_forward,
        }
        self._traced_recall = self.wrap("bench.recall_sample", self._sample_recall)

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans = self._stack, self.spans
        after = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans.append((span_id, name, parent, start, end))
            if after is not None:
                after(args, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target for the rest of the process."""
        for owner, attr, name in _TARGETS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _in_demos(self) -> bool:
        return any(frame[1] == _DEMOS for frame in self._stack)

    # -- hooks -------------------------------------------------------------

    def _after_query(self, args, result, duration):
        self.query_s.append(duration)
        self._queries += 1
        if self._queries % RECALL_EVERY == 0 and len(result):
            self._traced_recall(args, result)

    def _sample_recall(self, args, result):
        store, query, width = args[0], args[1], args[2]
        exact = store.exact_knn(query, width)
        got = {e.record.rid for e in result}
        want = [e.record.rid for e in exact]
        self.recall.append(len(got.intersection(want)) / len(want))
        self.top1.append(float(result[0].record.rid == want[0]))

    def _after_evict(self, args, result, duration):
        self.evicted += result

    def _after_step(self, args, result, duration):
        if not self._in_demos():
            self.actions[result.resolved] += 1
            self.fallbacks += result.fallback

    def _after_begin_slot(self, args, result, duration):
        if self._in_demos():
            return
        now = perf_counter()
        if self._last_slot is not None:
            self.slot_s.append(now - self._last_slot)
        self._last_slot = now
        self.store_sizes.extend(len(store) for store in args[0].stores)

    def _after_train_update(self, args, result, duration):
        if result.status != "updated":
            return
        cfg = args[0].cfg
        batches = cfg.epochs * math.ceil(result.batch_size / cfg.minibatch_size)
        self.updates.append((result.batch_size, result.demo_count, batches))
        self.clip_fractions.append(result.clip_fraction)

    def _after_encoder_forward(self, args, result, duration):
        self.encoder_rows += args[2].shape[0]

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics keyed ``<module>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["harness.other_self_s"] = out.pop("harness.run_experiment.self_s")
        out["vecstore.query.p50_us"] = _pct(self.query_s, 50) * 1e6
        out["vecstore.query.p99_us"] = _pct(self.query_s, 99) * 1e6
        out["vecstore.evicted_records"] = self.evicted
        out["vecstore.store_size_mean"] = _mean(self.store_sizes)
        out["vecstore.store_size_max"] = max(self.store_sizes, default=0)
        out["vecstore.recall_at5"] = _mean(self.recall)
        out["vecstore.top1_agree"] = _mean(self.top1)
        done = sum(self.actions.values())
        for label, key in (("A", "serve"), ("B", "direct"), ("C", "enhance")):
            out[f"simenv.{key}_frac"] = self.actions[label] / max(done, 1)
        out["simenv.fallbacks"] = self.fallbacks
        cache_path = self.actions["A"] + self.actions["C"]
        out["simenv.cache_hit_ratio"] = self.actions["A"] / max(cache_path, 1)
        out["harness.slot_ms_p50"] = _pct(self.slot_s, 50) * 1e3
        out["harness.slot_ms_p99"] = _pct(self.slot_s, 99) * 1e3
        out["marl.batch_rows"] = sum(u[0] for u in self.updates)
        out["marl.demo_rows"] = sum(u[1] for u in self.updates)
        out["marl.minibatches"] = sum(u[2] for u in self.updates)
        out["marl.clip_fraction_mean"] = _mean(self.clip_fractions)
        out["nn.encoder_forward.rows"] = self.encoder_rows
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for span_id, name, parent, start, end in sorted(self.spans):
                fh.write(
                    f"{span_id},{name},{parent},{start - origin:.9f},{end - origin:.9f}\n"
                )


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
