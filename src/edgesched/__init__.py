"""edgesched: a deterministic cloud-edge LLM request-scheduling simulator.

The package models edge servers that cache question/answer vector pairs and
choose, per request, between serving from cache, calling the cloud LLM
directly, or enhancing the LLM call with retrieved context.  It ships the
vector-store machinery, the serving environment with its QoS metrics, a
multi-agent PPO scheduler with expert-demonstration warm-up, heuristic
baselines, and a seeded experiment harness.

The top level exports the run API: the config, the run, the report writer
and reader, and the error types.  Every other name is imported from the
module that defines it, e.g. ``edgesched.vecstore.VectorStore``.
"""

from .config import ExperimentConfig, load_config
from .errors import ConfigError, EmptyCorrelationError, GradientError, ParseError
from .harness import emit_report, load_report, run_experiment

__version__ = "0.1.0"
