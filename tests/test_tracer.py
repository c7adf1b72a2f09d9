"""The benchmark's layer tracer names only methods and functions that exist,
and its hooks run on a real run without changing it.

``bench/tracer.py`` patches edgesched by attribute name, so a renamed method
would only surface when a traced benchmark run starts, and its hooks read
fields of transitions, update results, stores and query results.  The tracer
module is loaded from its file here.  ``Tracer.install`` patches the classes
for the whole process, so traced runs go to a child process.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# Child process: run the config untraced, then traced as bench/child.py
# traces it, write both CSV reports, and print the tracer's metrics.
_TRACED_RUN = """
import importlib.util, json, sys
from pathlib import Path
from edgesched import ExperimentConfig, emit_report, harness

tracer_file, config, out = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
spec = importlib.util.spec_from_file_location("edgesched_bench_tracer", tracer_file)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
cfg = ExperimentConfig(**config).validate()
emit_report(harness.run_experiment(cfg), out / "plain.csv")
tracer = module.Tracer()
tracer.install()
emit_report(tracer.wrap("harness.run_experiment", harness.run_experiment)(cfg), out / "traced.csv")
print(json.dumps(tracer.metrics()))
"""

_TINY = {
    "servers": 2, "users": 4, "dim": 16, "topics": 40, "window_size": 5,
    "min_candidates": 4, "query_width": 3,
}

# (config, metrics that show the hooks read what they count)
TRACED_RUNS = {
    # demos mixed into PPO updates, with the encoder
    "lrs-nearest": (
        {**_TINY, "policy": "lrs", "train_slots": 20, "test_slots": 5, "nlist": 1,
         "evict_period": 8, "min_agent_batch": 4, "minibatch_size": 8, "epochs": 1,
         "demo_slots": 20, "num_patches": 4, "num_blocks": 1, "num_heads": 2,
         "model_dim": 8, "feature_dim": 4},
        ("marl.batch_rows", "marl.demo_rows", "marl.minibatches", "nn.encoder_forward.rows"),
    ),
    # an IVF index, a broadcast test phase and an eviction sweep at slot 30
    "greedy-llm-broadcast": (
        {**_TINY, "policy": "greedy-llm", "mode": "broadcast", "train_slots": 40,
         "test_slots": 20, "repeat_ratio": 0.6, "nlist": 4, "rebuild_every": 20,
         "evict_period": 30},
        ("simenv.broadcast_step.calls", "vecstore.evicted_records",
         "vecstore.ivf_add.calls", "vecstore.recall_at5", "simenv.serve_frac"),
    ),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("edgesched_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer()._TARGETS
    assert targets
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr} ({span})"
        for owner, attr, span in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []



@pytest.mark.parametrize("name", sorted(TRACED_RUNS))
def test_traced_run_reports_every_layer_metric_and_the_same_report(name, tmp_path):
    config, counted = TRACED_RUNS[name]
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(TRACER), json.dumps(config), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # bench.trace_overhead_s is computed by bench/run.py, not by the tracer.
    names = [m["name"] for m in declared if m["name"] != "bench.trace_overhead_s"]
    assert [n for n in names if n not in metrics] == []
    assert [n for n in names if not math.isfinite(metrics[n])] == []
    assert [n for n in counted if not metrics[n] > 0] == []
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
