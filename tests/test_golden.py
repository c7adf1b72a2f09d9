"""Byte-for-byte comparison of fresh runs against the committed goldens.

``tests/golden/`` holds the CSV report and the transition log of each of the
16 runs in ``make_goldens.RUNS``: the seven policies in nearest and broadcast
mode at the determinism config, one mid-size heuristic broadcast run, and one
``lrs`` run whose PPO batches mix in expert demonstrations.  A refactor must
leave every file byte-identical.

``tests/golden/bench-digests.json`` holds the SHA-256 of the CSV report of
each ``bench/workloads.py`` workload at seed 0: the default configuration
with its 128-list index, rebuild cadence and eviction sweep, which no
golden run uses.  The tests here rerun them in process, as
``bench/child.py`` does, in about 11 s.

``test_run_matches_golden_at_one_blas_thread`` writes the same 16 runs in a
child process with ``OPENBLAS_NUM_THREADS=1``, where some learner products
round differently, and holds them to the same files.

The goldens depend on numpy's and the BLAS library's floating-point
arithmetic.  When the machine, numpy or BLAS changes, regenerate them with
``PYTHONPATH=src python tests/golden/make_goldens.py`` at a commit whose
results are trusted, and record the regeneration in CHANGES.md.  Never
loosen the comparison.  A deliberate behaviour change regenerates them in the
same change that makes it.  ``make_goldens.py`` rewrites the digest file
with the goldens, so the same rule holds for it: a change that moves a
digest regenerates it and records the move in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgesched
from golden.make_goldens import (
    BENCH_WORKLOADS,
    DIGESTS,
    GOLDEN_DIR,
    RUNS,
    bench_digest,
    write_run,
)


def test_every_golden_file_belongs_to_a_run():
    expected = {f"{name}.csv" for name in RUNS}
    expected |= {f"{name}.transitions.jsonl" for name in RUNS}
    on_disk = {p.name for p in GOLDEN_DIR.iterdir() if p.suffix in (".csv", ".jsonl")}
    assert on_disk == expected


def test_every_bench_workload_has_a_digest():
    assert set(json.loads(DIGESTS.read_text())) == set(BENCH_WORKLOADS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for file_name in write_run(name):
        fresh = (tmp_path / file_name).read_bytes()
        assert fresh == (GOLDEN_DIR / file_name).read_bytes(), file_name


@pytest.fixture(scope="module")
def one_thread_runs(tmp_path_factory):
    """Every run's files, written by a child process at one BLAS thread."""
    out = tmp_path_factory.mktemp("one-thread")
    src = Path(edgesched.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(GOLDEN_DIR.parent), env.get("PYTHONPATH")])
    )
    script = "from golden.make_goldens import RUNS, write_run\nfor n in RUNS: write_run(n)"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=out, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_at_one_blas_thread(name, one_thread_runs):
    for file_name in (f"{name}.csv", f"{name}.transitions.jsonl"):
        fresh = (one_thread_runs / file_name).read_bytes()
        assert fresh == (GOLDEN_DIR / file_name).read_bytes(), file_name


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_bench_workload_matches_digest(workload):
    assert bench_digest(workload) == json.loads(DIGESTS.read_text())[workload]
