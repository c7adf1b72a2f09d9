"""edgesched benchmark: time ``run_experiment`` on a named workload.

Usage, from the repository root::

    python3 bench/run.py --workload serve-ivf --seed 0 --seconds 40 --trace 0

Each repeat is a fresh single-threaded process (``bench/child.py``) that runs
the workload's experiment once at ``--seed``.  Repeats go on until
``--seconds`` would be exceeded, and every repeat's report is checked.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported as
medians over the repeats; with ``--trace 1`` untraced and traced repeats
alternate and the per-layer metrics are reported.  ``--profile`` adds one
cProfile repeat afterwards, for diagnosis only.

Results, with the machine and environment they were measured on, go to
``bench/results/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# One BLAS thread: with OpenBLAS's default threading the trainer used about
# twice the CPU for the same wall time on a 2-core machine.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# A run ends within this many seconds even if a repeat hangs.
RUN_LIMIT_S = 170.0

# Host-time units; per-layer metrics in any other unit must repeat exactly
# between traced repeats of one seed.
TIME_UNITS = ("s", "ms", "us")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "platform": platform.platform(),
    }


def run_child(workload: str, seed: int, deadline: float, *, spans=None, profile=None) -> dict:
    """Run one repeat; returns the child's record plus ``setup_s``/``error``."""
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}"
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--report", f"{stem}.report.csv",
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    if profile:
        cmd += ["--profile", str(profile)]
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - spawn, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "wall_s": time.monotonic() - spawn}
    wall_s = time.monotonic() - spawn
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}", "wall_s": wall_s}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line", "wall_s": wall_s}
    record["setup_s"] = record.pop("ready") - spawn
    record["wall_s"] = wall_s
    if record["problems"]:
        record["error"] = "; ".join(record["problems"])
    return record


def collect(workload: str, seed: int, seconds: int, traced: bool) -> list[list[dict]]:
    """Rounds of repeats until ``seconds`` would be exceeded.

    A round is one untraced repeat or, when ``traced``, an [untraced, traced]
    pair.  At least one round always runs.
    """
    start = time.monotonic()
    hard_stop = start + RUN_LIMIT_S
    spans = RESULTS / f"{workload}-seed{seed}.spans.csv"
    rounds: list[list[dict]] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        if traced:
            # Alternate which half of the pair runs first, so that drift
            # during the run does not bias the tracing overhead.
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            pair = {
                t: run_child(workload, seed, hard_stop, spans=spans if t else None)
                for t in order
            }
            rounds.append([pair[False], pair[True]])
        else:
            rounds.append([run_child(workload, seed, hard_stop)])
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(durations) > start + seconds:
            return rounds


def end_to_end(repeats: list[dict], attempted: int, failed: int) -> dict:
    ok = [r for r in repeats if "error" not in r]
    first = ok[0]

    def med(key):
        return statistics.median(r[key] for r in ok)

    return {
        "setup_s": med("setup_s"),
        "run_s": med("run_s"),
        "req_per_s": statistics.median(r["requests"] / r["run_s"] for r in ok),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "test_neg_reward": -first["test_reward"],
        "test_neg_satisfaction": -first["test_satisfaction"],
        "test_delay_s": first["test_delay_s"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict], units: dict) -> tuple[dict, list[str]]:
    """Median layer metrics over traced repeats, and any count that differed."""
    values: dict = {}
    problems = []
    for name, unit in units.items():
        if name not in traced[0]["layers"]:
            continue
        seen = [r["layers"][name] for r in traced]
        if unit in TIME_UNITS:
            values[name] = statistics.median(seen)
        elif len(set(seen)) > 1:
            problems.append(f"{name} differs between traced repeats: {seen}")
        else:
            values[name] = seen[0]
    values["bench.trace_overhead_s"] = statistics.median(
        r["run_s"] for r in traced
    ) - statistics.median(r["run_s"] for r in untraced)
    return values, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also write a cProfile top-40 of one repeat next to the results",
    )
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "edgesched" / "__init__.py").is_file():
        print(f"error: no edgesched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    rounds = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    repeats = [r for group in rounds for r in group]
    digests = {r["digest"] for r in repeats if "error" not in r}
    reference = next((r["digest"] for r in repeats if "error" not in r), None)
    for r in repeats:
        if "error" not in r and r["digest"] != reference:
            r["error"] = f"report digest {r['digest']} != first repeat's {reference}"
    attempted = len(repeats)
    failed = sum("error" in r for r in repeats)
    if failed == attempted:
        for r in repeats:
            print(f"repeat failed: {r['error']}", file=sys.stderr)
        return 1

    problems = [r["error"] for r in repeats if "error" in r]
    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [g[1] for g in rounds if "error" not in g[1]]
        untraced = [g[0] for g in rounds if "error" not in g[0]]
        if not traced or not untraced:
            print("error: no traced/untraced pair succeeded", file=sys.stderr)
            return 1
        metrics, count_problems = per_layer(traced, untraced, layer_units)
        problems += count_problems
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(repeats, attempted, failed)
        wanted = spec["end_to_end"]

    if args.profile:
        profile = RESULTS / f"{args.workload}-seed{args.seed}.profile.txt"
        run_child(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S, profile=profile)
        print(f"profile written to {profile}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = {
        "workload": args.workload,
        "config": WORKLOADS[args.workload]["config"],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "report_sha256": sorted(digests),
        "problems": problems,
        "repeats": rounds,
        "result": result,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"report sha256 {' '.join(sorted(digests))}; results in {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
