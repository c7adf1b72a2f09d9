"""Experiment configuration: defaults, INI loading, and validation.

Config files use INI sections ([experiment], [workload], [store], [env],
[trainer], [encoder]); each field of :class:`ExperimentConfig` belongs to
exactly one of them, the section its declaration falls under.  Every option
must name a field of its section and parse to the field's type, otherwise
loading fails with a :class:`ConfigError` pointing at the offending entry.
Values are taken literally: ``%`` is an ordinary character, not an
interpolation marker.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from .baselines import AblationSpec, resolve_policy
from .errors import ConfigError
from .nn.models import EncoderConfig
from .marl import TrainerConfig
from .simenv import AnswerModel, DelayModel

MODES = ("nearest", "broadcast")


def _section(name: str, default):
    """Default of the first field of INI section ``[name]``; the fields
    declared after it belong to that section up to the next marker."""
    return dataclasses.field(default=default, metadata={"section": name})


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on.

    ``train_slots`` and ``test_slots`` count requests per server: each slot
    issues one request to every server.
    """

    seed: int = _section("experiment", 0)
    policy: str = "lrs"
    mode: str = "nearest"
    servers: int = 3
    users: int = 9
    dim: int = 64
    train_slots: int = 4500
    test_slots: int = 150
    window_size: int = 300
    transitions_out: str | None = None

    topics: int = _section("workload", 3000)
    repeat_ratio: float = 0.4
    paraphrase_sigma: float = 0.05
    workload_file: str | None = None

    nlist: int = _section("store", 128)
    min_candidates: int = 10
    rebuild_every: int = 1000
    query_width: int = 5

    quality_weight: float = _section("env", 1.0)
    delay_weight: float = 0.1
    reward_scale: float = 10.0
    filter_value_weight: float = 1.0
    filter_freq_weight: float = 0.1
    tau_serve: float = 0.15
    evict_period: int = 500
    edge_delay: float = 0.81
    cloud_delay: float = 3.34
    jitter_sigma: float = 0.05
    sigma_llm: float = 0.15
    sigma_enhance: float = 0.05
    sigma_mislead: float = 0.10
    relevance_radius: float = 0.5

    gamma: float = _section("trainer", 0.99)
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    value_coeff: float = 0.5
    entropy_coeff: float = 0.01
    lr_policy: float = 3e-4
    lr_value: float = 1e-3
    min_agent_batch: int = 128
    min_demo_quota: int = 16
    epochs: int = 4
    minibatch_size: int = 64
    demo_slots: int = 400

    num_patches: int = _section("encoder", 8)
    num_blocks: int = 2
    num_heads: int = 4
    model_dim: int = 64
    feature_dim: int = 32
    use_positional: bool = True

    # ------------------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.servers < 1:
            raise ConfigError(f"servers must be >= 1, got {self.servers}")
        if self.users < self.servers:
            raise ConfigError(
                f"users ({self.users}) must be >= servers ({self.servers})"
            )
        if self.dim < 8:
            raise ConfigError(f"dim must be >= 8, got {self.dim}")
        if self.train_slots < 0 or self.test_slots < 0:
            raise ConfigError("slot counts must be >= 0")
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.repeat_ratio <= 1.0:
            raise ConfigError(f"repeat_ratio must lie in [0, 1], got {self.repeat_ratio}")
        if self.topics < self.servers and self.workload_file is None:
            raise ConfigError(
                f"topics ({self.topics}) must cover every server ({self.servers})"
            )
        variant = resolve_policy(self.policy)
        learned = isinstance(variant, AblationSpec)
        if learned and variant.use_demos and self.demo_slots < 1:
            raise ConfigError("demo_slots must be >= 1 for demo-using policies")
        # Constructing the model objects runs their own validation.
        self.delay_model()
        self.answer_model()
        self.trainer_config()
        if learned and variant.use_encoder:
            self.encoder_config()
        return self

    # -- sub-configs -------------------------------------------------------

    def delay_model(self) -> DelayModel:
        return DelayModel(
            edge_query=self.edge_delay,
            cloud_llm=self.cloud_delay,
            jitter_sigma=self.jitter_sigma,
        )

    def _shared(self, cls, **explicit):
        """A ``cls`` built from the fields it shares by name with this config."""
        names = [f.name for f in dataclasses.fields(cls) if f.name in _FIELD_TYPES]
        return cls(**{name: getattr(self, name) for name in names}, **explicit)

    def answer_model(self) -> AnswerModel:
        return self._shared(AnswerModel)

    def trainer_config(self) -> TrainerConfig:
        return self._shared(TrainerConfig)

    def encoder_config(self) -> EncoderConfig:
        return self._shared(EncoderConfig, input_dim=self.dim)

    def flat_dict(self) -> dict[str, str]:
        """Stable string form of every field, for report echoing."""
        out = {}
        for sect, names in sorted(_SECTIONS.items()):
            for name in names:
                value = getattr(self, name)
                out[f"{sect}.{name}"] = "" if value is None else str(value)
        return out


def _sections() -> dict[str, tuple[str, ...]]:
    """Field names per INI section, in declaration order."""
    sections: dict[str, tuple[str, ...]] = {}
    section = None
    for f in dataclasses.fields(ExperimentConfig):
        section = f.metadata.get("section", section)
        sections[section] = sections.get(section, ()) + (f.name,)
    return sections


_SECTIONS = _sections()
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_OPTIONAL_STR = {name for name, ftype in _FIELD_TYPES.items() if ftype == "str | None"}


def _convert(section: str, option: str, raw: str):
    ftype = _FIELD_TYPES[option]
    raw = raw.strip()
    if option in _OPTIONAL_STR:
        return raw or None
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "bool":
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {option}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read a UTF-8 INI config file into an :class:`ExperimentConfig`."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read config file: {reason}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: {sorted(_SECTIONS)}"
            )
        allowed = _SECTIONS[section]
        for option, raw in parser.items(section):
            if option not in allowed:
                raise ConfigError(
                    f"{path}: unknown option {option!r} in [{section}]"
                )
            setattr(cfg, option, _convert(section, option, raw))
    return cfg
