"""Multi-agent PPO with a shared policy, central critic, and demo annealing.

All agents run one shared policy over their local observation (correlation
features plus the question representation); a central value network scores
the concatenated observations of every agent, in fixed server order.  Agents
therefore train centrally but act on local information only.  A PPO batch
holds each slot once, as a table, and each row is a cell of it; minibatches
are whole slots, so the critic reads the policy's features for most cells.

Expert demonstrations collected from a heuristic scheduler are mixed into
early updates under a shrinking quota (pool size divided by the update
index); once the quota falls to the configured floor the learner runs on its
own experience alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .nn.models import EncoderConfig, FeatureEncoder, PolicyNet, ValueNet
from .nn.params import Adam, ParamSet
from .seeding import (
    DOMAIN_PARAMS,
    DOMAIN_POLICY,
    DOMAIN_TRAINER,
    KeyedStreams,
    substream,
)
from .vecstore import CorrelationSet

log = logging.getLogger(__name__)


# correlation_features' rows per hit: similarity, kind code, log1p use count.
CORR_ROWS = 3


def correlation_features(corr: CorrelationSet, width: int) -> np.ndarray:
    """A correlation set as network input: ``CORR_ROWS * width`` values.

    Rows of ``width`` hold each of the nearest ``width`` hits' similarity,
    kind code and log1p use count (counts grow without bound; the others
    are O(1) and stay raw), flattened row by row.  Missing hits are zero,
    which no real record gives (similarity > 0, kind >= 1).
    """
    h = corr.hits
    k = min(width, len(corr))
    out = np.zeros((CORR_ROWS, width))
    out[0, :k] = 1.0 / (1.0 + h.distance[:k])
    out[1, :k] = h.kind[:k]
    out[2, :k] = np.log1p(h.freq[:k])
    return out.ravel()


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimates over one trajectory segment.

    ``values`` aligns with ``rewards``; ``bootstrap_value`` is the critic's
    estimate for the state following the last step.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ConfigError(
            f"rewards {rewards.shape} and values {values.shape} must align"
        )
    T = rewards.shape[0]
    adv = np.zeros(T)
    carry = 0.0
    next_value = float(bootstrap_value)
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        carry = delta + gamma * lam * carry
        adv[t] = carry
        next_value = values[t]
    return adv


def expert_quota(pool_size: int, update_index: int) -> int:
    """Demonstrations to mix into update number ``update_index`` (1-based).

    The quota is the pool size divided by the update index, rounded down;
    the trainer stops using demonstrations once it is no longer above
    ``TrainerConfig.min_demo_quota``.
    """
    if update_index < 1:
        raise ValueError(f"update_index must be >= 1, got {update_index}")
    if pool_size < 0:
        raise ValueError(f"pool_size must be >= 0, got {pool_size}")
    return pool_size // update_index


@dataclass(frozen=True)
class TrainerConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    value_coeff: float = 0.5
    entropy_coeff: float = 0.01
    lr_policy: float = 3e-4
    lr_value: float = 1e-3
    min_agent_batch: int = 128  # segment length per agent before a handoff
    min_demo_quota: int = 16  # demos stop once the quota is not above this
    epochs: int = 4
    minibatch_size: int = 64
    policy_hidden: tuple[int, ...] = (128, 128)
    value_hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError(f"gae_lambda must lie in [0, 1], got {self.gae_lambda}")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigError(f"clip_epsilon must lie in (0, 1), got {self.clip_epsilon}")
        if self.min_agent_batch < 1 or self.minibatch_size < 1 or self.epochs < 1:
            raise ConfigError("batch sizes and epochs must be >= 1")
        if self.min_demo_quota < 0:
            raise ConfigError("min_demo_quota must be >= 0")


@dataclass
class Segment:
    """A contiguous run of synchronous slots for all agents.

    ``final_corr``/``final_question`` hold the observation right after the
    last recorded slot, used to bootstrap the value of the tail state.
    """

    corr: np.ndarray  # (T, N, corr_dim)
    question: np.ndarray  # (T, N, question_dim)
    actions: np.ndarray  # (T, N) int
    probs: np.ndarray  # (T, N) probability of the action taken
    rewards: np.ndarray  # (T, N)
    final_corr: np.ndarray  # (N, corr_dim)
    final_question: np.ndarray  # (N, question_dim)

    @property
    def steps(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_agents(self) -> int:
        return self.rewards.shape[1]


class ExperienceBuffer:
    """Per-agent staging lists plus the shared pool of finished segments.

    :meth:`begin_slot` cuts a segment every ``segment_len`` recorded slots.
    """

    def __init__(self, n_agents: int, segment_len: int):
        if n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {n_agents}")
        if segment_len < 1:
            raise ConfigError(f"segment_len must be >= 1, got {segment_len}")
        self.n_agents = n_agents
        self.segment_len = segment_len
        self._pending: list[tuple] = []
        self.segments: list[Segment] = []

    @property
    def pending_steps(self) -> int:
        return len(self._pending)

    def record_slot(
        self,
        corr: np.ndarray,
        question: np.ndarray,
        actions: np.ndarray,
        probs: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        row = (
            np.array(corr, dtype=float),
            np.array(question, dtype=float),
            np.array(actions, dtype=int),
            np.array(probs, dtype=float),
            np.array(rewards, dtype=float),
        )
        names = ("corr", "question", "actions", "probs", "rewards")
        for name, x, ndim in zip(names, row, (2, 2, 1, 1, 1)):
            if x.ndim != ndim or x.shape[0] != self.n_agents:
                raise ConfigError(
                    f"expected one {name} entry per agent ({self.n_agents}), "
                    f"got shape {x.shape}"
                )
        if self._pending:
            self._match_staged(names, row)
        self._pending.append(row)

    def _match_staged(self, names, arrays) -> None:
        """Raise unless ``arrays`` have the shapes of the first staged slot's."""
        for name, x, staged in zip(names, arrays, self._pending[0]):
            if x.shape != staged.shape:
                raise ConfigError(
                    f"{name} shape {x.shape} != {staged.shape} of the staged slots"
                )

    def begin_slot(self, corr: np.ndarray, question: np.ndarray) -> Segment | None:
        """Hand off the pending run once it holds ``segment_len`` slots, with
        this slot's observation as its bootstrap state."""
        if self.pending_steps >= self.segment_len:
            return self.hand_off(corr, question)
        return None

    def hand_off(
        self, final_corr: np.ndarray, final_question: np.ndarray
    ) -> Segment | None:
        """Close the pending run into a segment; no-op when nothing is staged."""
        if not self._pending:
            return None
        final = np.array(final_corr, dtype=float), np.array(final_question, dtype=float)
        self._match_staged(("final_corr", "final_question"), final)
        corr, question, actions, probs, rewards = (
            np.stack(x) for x in zip(*self._pending)
        )
        seg = Segment(
            corr=corr,
            question=question,
            actions=actions,
            probs=probs,
            rewards=rewards,
            final_corr=final[0],
            final_question=final[1],
        )
        self.segments.append(seg)
        self._pending = []
        return seg

    def clear_pool(self) -> None:
        self.segments = []


class DemoSet:
    """A frozen pool of expert segments whose transitions are numbered.

    Numbers run through the segments in order, and within a segment slot by
    slot, agent by agent: transition ``starts[s] + t * N + n`` is agent
    ``n``'s step ``t`` of segment ``s``.  A number is therefore also the
    transition's cell in the segments' slots stacked in order.
    """

    def __init__(self, segments: list[Segment]):
        self.segments = list(segments)
        sizes = [seg.steps * seg.n_agents for seg in self.segments]
        self.starts = np.concatenate([[0], np.cumsum(sizes, dtype=int)])

    def __len__(self) -> int:
        return int(self.starts[-1])

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` distinct transition numbers, sorted (all when k >= pool size)."""
        if k >= len(self):
            return np.arange(len(self))
        return np.sort(rng.choice(len(self), size=k, replace=False))


@dataclass
class NetBundle:
    """The trainable networks: optional encoder, shared policy, central critic."""

    encoder: FeatureEncoder | None
    policy: PolicyNet
    value: ValueNet

    def states(
        self, params: ParamSet, corr: np.ndarray, question: np.ndarray
    ) -> tuple[np.ndarray, dict | None]:
        """Policy inputs for observations of shape ``(..., dim)``.

        Each row is its correlation features followed by its question,
        encoded under ``params`` when there is an encoder.  Returns the
        ``(..., state_dim)`` states and the encoder cache (``None`` without
        an encoder).
        """
        lead = corr.shape[:-1]
        feats, cache = self.encode(params, question.reshape(-1, question.shape[-1]))
        state = np.concatenate([corr.reshape(-1, corr.shape[-1]), feats], axis=1)
        return state.reshape(lead + (-1,)), cache

    def encode(
        self, params: ParamSet, question: np.ndarray
    ) -> tuple[np.ndarray, dict | None]:
        """``(rows, feature_dim)`` features and the encoder cache; without an
        encoder the rows themselves and ``None``."""
        if self.encoder is None:
            return question, None
        return self.encoder.forward(params, question)


@dataclass
class PpoBatch:
    """Agent-level samples plus the slot tables they observe.

    Row ``i`` observes slot ``cell[i] // N`` of the global tables and is
    that slot's agent ``cell[i] % N``, so its own observation is the
    table's cell ``cell[i]``.  With ``cell = None`` row ``i`` observes slot
    ``i`` and is none of its agents.
    """

    corr: np.ndarray  # (B, corr_dim)
    question: np.ndarray  # (B, question_dim)
    actions: np.ndarray  # (B,)
    old_probs: np.ndarray  # (B,)
    advantages: np.ndarray  # (B,)
    returns: np.ndarray  # (B,)
    global_corr: np.ndarray  # (S, N, corr_dim)
    global_question: np.ndarray  # (S, N, question_dim)
    cell: np.ndarray | None = None  # (B,)

    def __len__(self) -> int:
        return self.actions.shape[0]

    def take(self, rows: np.ndarray) -> "PpoBatch":
        """Rows ``rows`` with only the slots they observe, renumbered in the
        order the rows first observe them."""
        slots, cell = rows, None
        if self.cell is not None:
            N = self.global_corr.shape[1]
            slot = self.cell[rows] // N
            _, first, inverse = np.unique(slot, return_index=True, return_inverse=True)
            order = np.argsort(first)
            slots, cell = slot[first[order]], np.argsort(order)[inverse] * N + self.cell[rows] % N
        per_row = (getattr(self, f.name)[rows] for f in fields(self)[:6])
        return PpoBatch(*per_row, self.global_corr[slots], self.global_question[slots], cell)


@dataclass
class PpoLossResult:
    loss: float
    policy_grads: dict[str, np.ndarray]
    value_grads: dict[str, np.ndarray]
    surrogate: float
    value_mse: float
    entropy: float
    clip_fraction: float


_LOSS_STATS = ("loss", "surrogate", "value_mse", "entropy", "clip_fraction")


def ppo_loss(
    nets: NetBundle,
    policy_params: ParamSet,
    value_params: ParamSet,
    batch: PpoBatch,
    cfg: TrainerConfig,
) -> PpoLossResult:
    """Clipped-surrogate PPO loss and its gradients for one minibatch.

    The objective is ``surrogate - value_coeff * value_mse +
    entropy_coeff * entropy`` and the returned loss is its negation.  The
    critic consumes encoded features as data: encoder gradients flow only
    through the policy path.  Each cell of the slot tables is encoded once:
    a policy row's features fill its cell, and only the cells no row holds
    (agents missing from a partial slot) take one more encoder pass.  Each
    row's global state is its slot's row of the filled table.
    """
    B = len(batch)
    if B == 0:
        raise ConfigError("cannot compute a loss over an empty batch")
    if not np.all(batch.old_probs > 0.0):  # NaN fails too
        raise ConfigError("recorded action probabilities must be positive")
    eps = cfg.clip_epsilon
    idx = np.arange(B)

    # Policy path (differentiated end to end, encoder included).
    state, enc_cache = nets.states(policy_params, batch.corr, batch.question)
    probs, pi_cache = nets.policy.forward(policy_params, state)
    p_taken = probs[idx, batch.actions]
    ratio = p_taken / batch.old_probs
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    s_raw = ratio * batch.advantages
    s_clip = clipped * batch.advantages
    take_raw = s_raw <= s_clip  # min(); ties resolve to the unclipped branch
    surrogate = float(np.where(take_raw, s_raw, s_clip).mean())
    safe_probs = np.maximum(probs, 1e-300)
    logp = np.log(safe_probs)
    entropy = float(-(probs * logp).sum(axis=1).mean())

    # Critic path; encoded features enter as constants (no encoder gradient).
    S, N = batch.global_question.shape[:2]
    feats = state[:, batch.corr.shape[1] :]
    table = np.empty((S * N, feats.shape[1]))
    missing = np.ones(S * N, dtype=bool)
    if batch.cell is not None:
        table[batch.cell] = feats
        missing[batch.cell] = False
    if missing.any():
        questions = batch.global_question.reshape(S * N, -1)[missing]
        table[missing] = nets.encode(policy_params, questions)[0]
    gstate = np.concatenate([batch.global_corr, table.reshape(S, N, -1)], axis=2)
    slot = idx if batch.cell is None else batch.cell // N
    values, v_cache = nets.value.forward(value_params, gstate.reshape(S, -1)[slot])
    v_err = values - batch.returns
    value_mse = float(np.mean(v_err**2))

    objective = surrogate - cfg.value_coeff * value_mse + cfg.entropy_coeff * entropy
    loss = -objective

    # Backward: d loss / d probs.
    inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
    dsurr_dp = (
        batch.advantages
        * np.where(take_raw, 1.0, inside.astype(float))
        / (B * batch.old_probs)
    )
    dobj_dprobs = np.zeros_like(probs)
    dobj_dprobs[idx, batch.actions] += dsurr_dp
    dobj_dprobs += cfg.entropy_coeff * (-(logp + 1.0) / B)
    dstate, pol_grads = nets.policy.backward(policy_params, pi_cache, -dobj_dprobs)
    if nets.encoder is not None:
        dfeats = dstate[:, batch.corr.shape[1] :]
        _, enc_grads = nets.encoder.backward(policy_params, enc_cache, dfeats)
        pol_grads.update(enc_grads)  # names are disjoint: enc.* and pi.*

    dv = cfg.value_coeff * 2.0 * v_err / B
    _, val_grads = nets.value.backward(value_params, v_cache, dv)

    return PpoLossResult(
        loss=float(loss),
        policy_grads=pol_grads,
        value_grads=val_grads,
        surrogate=surrogate,
        value_mse=value_mse,
        entropy=entropy,
        clip_fraction=float(np.mean(~inside)),
    )


def slot_minibatches(
    slots: np.ndarray, size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """One epoch's minibatches of batch rows, each a union of whole slots.

    ``slots`` holds each row's slot id.  The distinct slots are put in the
    order of ``rng.permutation``, rows keep their batch order within a slot,
    and a minibatch ends at the last slot start at or before each multiple
    of ``size`` (``ceil(len(slots) / size)`` of them while ``size`` covers a
    slot).  With one row per slot, ids increasing, this is
    ``rng.permutation(len(slots))`` cut every ``size`` rows.
    """
    _, slot_of = np.unique(slots, return_inverse=True)
    key = np.argsort(rng.permutation(slot_of.max() + 1))[slot_of]  # slot ranks
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    cuts = starts[np.searchsorted(starts, np.arange(size, len(order), size), "right") - 1]
    return np.split(order, np.unique(cuts[cuts > 0]))


@dataclass
class PolicySnapshot:
    """A frozen copy of the shared policy that agents act from."""

    params: ParamSet
    nets: NetBundle

    def action_probs(
        self, corr_features: np.ndarray, question: np.ndarray
    ) -> np.ndarray:
        """Action distribution for a batch of local observations."""
        state, _ = self.nets.states(self.params, corr_features, question)
        probs, _ = self.nets.policy.forward(self.params, state)
        return probs


@dataclass
class UpdateResult:
    status: str  # 'updated' | 'insufficient'
    batch_size: int = 0
    demo_count: int = 0
    demo_quota: int = 0
    loss: float = 0.0
    surrogate: float = 0.0
    value_mse: float = 0.0
    entropy: float = 0.0
    clip_fraction: float = 0.0


class Trainer:
    """Owns the networks, their optimizers, and the update loop."""

    def __init__(
        self,
        n_agents: int,
        corr_dim: int,
        question_dim: int,
        cfg: TrainerConfig | None = None,
        encoder_cfg: EncoderConfig | None = None,
        demos: DemoSet | None = None,
        seed: int = 0,
    ):
        if n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {n_agents}")
        self.cfg = cfg or TrainerConfig()
        self.n_agents = n_agents
        self.seed = seed
        self.demos = demos
        for i, seg in enumerate(demos.segments if demos is not None else ()):
            want = {f: (seg.steps, n_agents) for f in ("actions", "probs", "rewards")}
            for name, dim in (("corr", corr_dim), ("question", question_dim)):
                want[name] = (seg.steps, n_agents, dim)
                want[f"final_{name}"] = (n_agents, dim)
            for field, shape in want.items():
                if getattr(seg, field).shape != shape:
                    raise ConfigError(
                        f"demo segment {i}: {field} shape "
                        f"{getattr(seg, field).shape} != {shape}"
                    )
        feature_dim = encoder_cfg.feature_dim if encoder_cfg else question_dim
        self.state_dim = corr_dim + feature_dim
        encoder = FeatureEncoder(encoder_cfg) if encoder_cfg else None
        self.nets = NetBundle(
            encoder=encoder,
            policy=PolicyNet(self.state_dim, self.cfg.policy_hidden),
            value=ValueNet(n_agents * self.state_dim, self.cfg.value_hidden),
        )
        pol_rng = substream(seed, DOMAIN_PARAMS, 0)
        tensors = {} if encoder is None else encoder.init_params(pol_rng)
        tensors.update(self.nets.policy.init_params(pol_rng))
        self.policy_params = ParamSet(tensors)
        self.value_params = ParamSet(
            self.nets.value.init_params(substream(seed, DOMAIN_PARAMS, 1))
        )
        self.policy_opt = Adam(self.cfg.lr_policy)
        self.value_opt = Adam(self.cfg.lr_value)
        self.buffer = ExperienceBuffer(n_agents, self.cfg.min_agent_batch)
        self.updates_done = 0
        self.history: list[UpdateResult] = []

    # -- inference helpers -------------------------------------------------

    def snapshot(self) -> PolicySnapshot:
        """The current policy, copied so later updates leave it unchanged."""
        return PolicySnapshot(params=self.policy_params.copy(), nets=self.nets)

    def values_of(self, corr: np.ndarray, question: np.ndarray) -> np.ndarray:
        """Critic values of ``(T, N, *)`` slot observations, one per slot."""
        states, _ = self.nets.states(self.policy_params, corr, question)
        gstate = states.reshape(len(corr), -1)
        return self.nets.value.forward(self.value_params, gstate)[0]

    # -- the update --------------------------------------------------------

    def train_update(self) -> UpdateResult:
        """One PPO update over the pooled segments plus the demo quota.

        Requires the pooled slot count to be strictly above
        ``min_agent_batch`` (every segment covers all agents, so each agent
        holds that many transitions); otherwise the pool is left to grow and
        the result reports ``insufficient``.
        """
        cfg = self.cfg
        segments = list(self.buffer.segments)
        cell = np.arange(sum(seg.steps for seg in segments) * self.n_agents)
        if len(cell) <= cfg.min_agent_batch * self.n_agents:
            return UpdateResult(status="insufficient")

        update = self.updates_done + 1  # 1-based: the demo quota's divisor
        quota = 0
        demo_count = 0
        if self.demos is not None:
            quota = expert_quota(len(self.demos), update)
            if quota > cfg.min_demo_quota:
                rng = substream(self.seed, DOMAIN_TRAINER, update, 0)
                chosen = self.demos.sample(quota, rng)
                cell = np.concatenate([cell, len(cell) + chosen])
                segments += self.demos.segments
                demo_count = len(chosen)

        batch = self._batch(segments, cell)
        adv = batch.advantages
        batch.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)

        stats = []  # per minibatch: the _LOSS_STATS, not the gradients
        for epoch in range(cfg.epochs):
            rng = substream(self.seed, DOMAIN_TRAINER, update, 1 + epoch)
            for take in slot_minibatches(cell // self.n_agents, cfg.minibatch_size, rng):
                result = ppo_loss(
                    self.nets,
                    self.policy_params,
                    self.value_params,
                    batch.take(take),
                    cfg,
                )
                self.policy_opt.step(self.policy_params, result.policy_grads)
                self.value_opt.step(self.value_params, result.value_grads)
                stats.append([getattr(result, f) for f in _LOSS_STATS])

        self.updates_done += 1
        self.buffer.clear_pool()
        out = UpdateResult(
            status="updated",
            batch_size=len(batch),
            demo_count=demo_count,
            demo_quota=quota,
            **{f: float(np.mean(col)) for f, col in zip(_LOSS_STATS, zip(*stats))},
        )
        self.history.append(out)
        return out

    def _batch(self, segments: list[Segment], cell: np.ndarray) -> PpoBatch:
        """The update's batch over ``segments``' slots stacked in order: row
        ``i`` is cell ``cell[i]``.  GAE runs under the current critic over
        each whole segment that holds a row, and over no other."""
        corr, question, actions, probs = (
            np.concatenate([getattr(seg, name) for seg in segments])
            for name in ("corr", "question", "actions", "probs")
        )
        adv, returns = np.zeros_like(probs), np.zeros_like(probs)
        held = np.bincount(cell // self.n_agents, minlength=len(probs)) > 0
        gamma, lam = self.cfg.gamma, self.cfg.gae_lambda
        for seg, end in zip(segments, np.cumsum([seg.steps for seg in segments])):
            steps = slice(end - seg.steps, end)
            if held[steps].any():
                values = self.values_of(
                    np.concatenate([seg.corr, seg.final_corr[None]]),
                    np.concatenate([seg.question, seg.final_question[None]]),
                )  # (T+1,)
                adv[steps] = np.column_stack(
                    [compute_gae(r, values[:-1], values[-1], gamma, lam) for r in seg.rewards.T]
                )
                returns[steps] = adv[steps] + values[:-1, None]
        t, n = np.divmod(cell, self.n_agents)
        per_row = (table[t, n] for table in (corr, question, actions, probs, adv, returns))
        return PpoBatch(*per_row, corr, question, cell)


class RolloutDriver:
    """Synchronous collection: act, record, and train at segment boundaries.

    All agents act from one shared snapshot, refreshed after each successful
    update.
    """

    def __init__(self, trainer: Trainer):
        self.trainer = trainer
        self.snapshot = trainer.snapshot()
        self._streams = KeyedStreams(trainer.seed, DOMAIN_POLICY, trainer.n_agents)

    def begin_slot(
        self, corr: np.ndarray, question: np.ndarray
    ) -> UpdateResult | None:
        """Let the buffer cut a segment at this slot (see
        :meth:`ExperienceBuffer.begin_slot`) and, if it did, attempt a train
        update."""
        if self.trainer.buffer.begin_slot(corr, question) is None:
            return None
        result = self.trainer.train_update()
        if result.status == "updated":
            self.snapshot = self.trainer.snapshot()
        return result

    def choose(
        self, corr: np.ndarray, question: np.ndarray, decision_keys
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one action per agent; returns (actions, taken probs, dists).

        ``decision_keys`` supplies one non-negative integer per agent keying
        that agent's decision stream (e.g. the request id), so identical
        observations draw identical exploration noise across runs.
        """
        dists = self.snapshot.action_probs(corr, question)
        n_agents = self.trainer.n_agents
        actions = np.zeros(n_agents, dtype=int)
        probs = np.zeros(n_agents)
        for n in range(n_agents):
            rng = self._streams(int(decision_keys[n]), n)
            actions[n] = 0 if rng.random() < dists[n, 0] else 1
            probs[n] = dists[n, actions[n]]
        return actions, probs, dists

    def record(
        self,
        corr: np.ndarray,
        question: np.ndarray,
        actions: np.ndarray,
        probs: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        self.trainer.buffer.record_slot(corr, question, actions, probs, rewards)
