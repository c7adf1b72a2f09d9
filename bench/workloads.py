"""The benchmark's named workloads, as ExperimentConfig overrides.

Why each workload is in the benchmark is written in BENCHMARK.json and
NOTES.md.  The experiment seed is not part of a workload; it comes from the
benchmark's ``--seed`` argument.  This module imports nothing from edgesched,
so the launcher can check a workload name without paying the package's
import cost.
"""

WORKLOADS = {
    # The default ExperimentConfig under a heuristic: ROADMAP's north star.
    "serve-ivf": {"config": {"policy": "greedy-0.3"}},
    # Few topics, many repeats, broadcast test phase: the cache-hit path.
    "broadcast-hot": {
        "config": {
            "policy": "greedy-llm",
            "mode": "broadcast",
            "topics": 300,
            "repeat_ratio": 0.8,
            "train_slots": 1500,
            "test_slots": 1500,
        },
    },
    # test_08's trainer settings.  test_08 runs 1,350 + 450 slots with 400
    # demo slots (about 46 s); the slot counts are cut so a run holds four
    # repeats, and min_agent_batch / epochs are kept so PPO updates still
    # dominate.  The demos steer the short run's greedy test policy: over
    # seeds 0-9 the interquartile spread of test satisfaction was 28% of its
    # median with 100 demo and 300 train slots, 4.5% with 250 and 150 (the
    # choice, about 9 s a repeat), and 2.4% with 400 and 150 (about 13 s).
    "train-lrs": {
        "config": {
            "policy": "lrs",
            "train_slots": 150,
            "test_slots": 150,
            "demo_slots": 250,
            "window_size": 300,
            "min_agent_batch": 16,
            "epochs": 12,
        },
    },
}
