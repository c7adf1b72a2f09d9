"""edgesched: a deterministic cloud-edge LLM request-scheduling simulator.

The package models edge servers that cache question/answer vector pairs and
choose, per request, between serving from cache, calling the cloud LLM
directly, or enhancing the LLM call with retrieved context.  It ships the
vector-store machinery, the serving environment with its QoS metrics, a
multi-agent PPO scheduler with expert-demonstration warm-up, heuristic
baselines, and a seeded experiment harness.
"""

from .errors import ConfigError, EmptyCorrelationError, GradientError, ParseError
from .seeding import substream
from .workload import (
    Request,
    TopicSet,
    WorkloadGenerator,
    generate_topics,
    load_workload,
    save_workload,
    random_unit,
    unit,
)
from .vecstore import (
    CorrelationEntry,
    CorrelationSet,
    RecordKind,
    VectorRecord,
    VectorStore,
    clamp_negative,
    filter_best,
)
from .simenv import (
    ActionChoice,
    AnswerModel,
    DelayModel,
    EdgeEnv,
    Transition,
    qos_cost,
    reward,
    satisfaction,
)
from .marl import (
    DemoSet,
    ExperienceBuffer,
    PolicySnapshot,
    RolloutDriver,
    Segment,
    Trainer,
    TrainerConfig,
    compute_gae,
    correlation_features,
    expert_quota,
    ppo_loss,
)
from .baselines import (
    ABLATIONS,
    POLICY_NAMES,
    AblationSpec,
    LearnedPolicy,
    PayoffGreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from .config import ExperimentConfig, load_config
from .harness import (
    MetricsReport,
    MetricsWindow,
    PhaseSummary,
    WindowAccumulator,
    build_expert_demos,
    emit_report,
    load_report,
    run_experiment,
)
from .nn import (
    Adam,
    EncoderConfig,
    FeatureEncoder,
    MlpNet,
    ParamSet,
    PolicyNet,
    ValueNet,
)

__version__ = "0.1.0"
