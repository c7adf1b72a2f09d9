"""Write the golden reports and transition logs checked by tests/test_golden.py.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/make_goldens.py

Every run in :data:`RUNS` writes ``<name>.csv`` (its CSV report) and
``<name>.transitions.jsonl`` (its transition log) into this directory,
replacing what is there, and ``bench-digests.json`` records the SHA-256 of
each ``bench/workloads.py`` workload's CSV report at seed 0.  The 16 runs are the seven policies in both
test-phase routing modes at the acceptance suite's determinism config, plus:
one mid-size heuristic run in broadcast mode that serves, enhances and goes
direct thousands of times and passes four eviction sweeps, and one ``lrs``
run with enough expert demonstrations that its PPO batches mix demo rows in.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
DIGESTS = GOLDEN_DIR / "bench-digests.json"

if str(GOLDEN_DIR.parent) not in sys.path:  # run as a script
    sys.path.insert(0, str(GOLDEN_DIR.parent))

from edgesched import ExperimentConfig, emit_report, load_config, run_experiment
from test_acceptance import _ALL_POLICY_KINDS, _DETERMINISM_INI


def _determinism_config() -> ExperimentConfig:
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "determinism.ini"
        ini.write_text(_DETERMINISM_INI)
        return load_config(ini)


def _runs() -> dict[str, ExperimentConfig]:
    base = _determinism_config()
    runs = {
        f"{policy}-{mode}": replace(base, policy=policy, mode=mode)
        for policy in _ALL_POLICY_KINDS
        for mode in ("nearest", "broadcast")
    }
    runs["mid-greedy-llm-broadcast"] = replace(
        base,
        policy="greedy-llm",
        mode="broadcast",
        servers=3,
        topics=200,
        repeat_ratio=0.6,
        train_slots=600,
        test_slots=300,
        nlist=8,
        evict_period=200,
    )
    # 20 demo slots x 2 servers give 40 demo transitions, above the
    # min_demo_quota of 16: update 1 mixes in all 40, update 2 samples 20.
    runs["demo-lrs-nearest"] = replace(
        base, policy="lrs", mode="nearest", train_slots=20, demo_slots=20
    )
    return runs


RUNS = _runs()


def _bench_workloads() -> dict[str, dict]:
    """``bench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    path = GOLDEN_DIR.parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = _bench_workloads()


def write_run(name: str) -> list[str]:
    """Run ``RUNS[name]`` and write its two files into the current directory.

    The transition log is named relative to the current directory because
    the report echoes ``transitions_out``; an absolute path would make the
    report depend on where it was written.  Returns the two file names.
    """
    log_name = f"{name}.transitions.jsonl"
    report = run_experiment(replace(RUNS[name], transitions_out=log_name))
    emit_report(report, f"{name}.csv")
    return [f"{name}.csv", log_name]


def bench_digest(workload: str) -> str:
    """The SHA-256 of ``workload``'s CSV report at seed 0, written as
    ``bench/child.py`` writes it."""
    cfg = ExperimentConfig(seed=0, **BENCH_WORKLOADS[workload]["config"])
    cfg.validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        emit_report(run_experiment(cfg), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    os.chdir(GOLDEN_DIR)
    for name in RUNS:
        for file_name in write_run(name):
            print(f"wrote {GOLDEN_DIR / file_name}")
    digests = {name: bench_digest(name) for name in sorted(BENCH_WORKLOADS)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
