"""One benchmark repeat, run by ``bench/run.py`` in a fresh process.

Builds the named workload's config at the given seed, runs
``run_experiment`` once (optionally traced or profiled), writes the report as
CSV, checks it, and prints one JSON line with the timings, the report's
SHA-256 and the check's findings.  ``ready`` is ``time.monotonic()`` just
before ``run_experiment`` is called; the launcher subtracts its spawn time
from it to get the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import time

_WINDOW_VALUES = (
    "mean_reward",
    "mean_satisfaction",
    "mean_delay",
    "llm_direct_freq",
    "reward_variance",
)


def check_report(report, cfg) -> list[str]:
    """Problems with a finished run's report; empty when it is sound.

    Each phase must complete one request per server per slot (broadcast test
    requests count once, for the winning server), and every window value must
    be finite.
    """
    problems = []
    for phase, slots in (("train", cfg.train_slots), ("test", cfg.test_slots)):
        got = getattr(report, phase).requests
        if got != slots * cfg.servers:
            problems.append(f"{phase}: {got} requests, expected {slots * cfg.servers}")
    for w in report.windows:
        bad = [f for f in _WINDOW_VALUES if not math.isfinite(getattr(w, f))]
        if bad:
            problems.append(f"{w.phase} window {w.index}: non-finite {bad}")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True, help="CSV report path")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--profile", help="profile the run and write the top here")
    args = parser.parse_args()

    from edgesched import ExperimentConfig, emit_report, run_experiment
    from workloads import WORKLOADS

    cfg = ExperimentConfig(seed=args.seed, **WORKLOADS[args.workload]["config"])
    cfg.validate()
    run = run_experiment
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("harness.run_experiment", run_experiment)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    ready = time.monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    report = run(cfg)
    if profiler is not None:
        profiler.disable()
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    emit_report(report, args.report)
    with open(args.report, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    out = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": report.train.requests + report.test.requests,
        "test_reward": report.test.mean_reward,
        "test_satisfaction": report.test.mean_satisfaction,
        "test_delay_s": report.test.mean_delay,
        "digest": digest,
        "problems": check_report(report, cfg),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    if profiler is not None:
        import pstats

        with open(args.profile, "w") as fh:
            pstats.Stats(profiler, stream=fh).sort_stats("tottime").print_stats(40)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
