"""Multi-agent actor-critic trainers with centralized critics.

Each agent owns four networks (actor, critic and their targets), two Adam
states and a replay buffer; the buffers are column views of one joint store
(``replay.JointReplay``) whose rows are already critic inputs. Training runs
in one precision, the store's ``DTYPE``: the store, every network and Adam
moment, the batches and the noises. Critics see
every agent's observation and action; actors see only their own
observation. Two algorithms share the pipeline: a deterministic-actor
variant with additive exploration noise, and an entropy-regularized variant
with a squashed Gaussian actor.
"""
from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import envs
from .nn import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    TANH_EPS,
    _UNIT_BOUNDS,
    AdamState,
    MlpParams,
    Workspace,
    _log_prob_terms,
    _squash,
    adam_step,
    init_adam,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    one_blas_thread,
    soft_update,
    squashed_gaussian_action,
    squashed_gaussian_sample,
)
from .profiler import Phase, ProfileReport, phase_scope
from .replay import (
    DTYPE,
    InsufficientDataError,
    JointBatch,
    ReplayBuffer,
    collect_joint,
    joint_buffers,
    make_index_uniform,
    neighbor_indices,
    next_observations,
)

logger = logging.getLogger(__name__)

ALGO_MADDPG = "maddpg"
ALGO_MASAC = "masac"
ALGORITHMS = (ALGO_MADDPG, ALGO_MASAC)

SAMPLER_UNIFORM = "uniform"
SAMPLER_NEIGHBOR = "neighbor"
SAMPLERS = (SAMPLER_UNIFORM, SAMPLER_NEIGHBOR)

# extra anchors drawn beyond the minimum so edge-clamped windows rarely
# leave the batch short
ANCHOR_SLACK = 8

# MADDPG's published discount, Polyak rate and width (Lowe et al. 2017; its
# lr is ``nn.ADAM_LR``), the deterministic actor's exploration noise scale
# and the entropy weight of the entropy-regularized losses
GAMMA = 0.95
TAU = 0.01
HIDDEN = 64
EXPLORATION_SIGMA = 0.1
ENTROPY_ALPHA = 0.05


class NonFiniteLossError(FloatingPointError):
    """Raised when a loss diverges; carries enough context to debug the run."""


@dataclass
class TrainerConfig:
    """What a run varies: algorithm, sampler, sizes and seed; the learning
    settings are the module constants above and ``nn.ADAM_*``."""

    algorithm: str = ALGO_MADDPG
    sampler: str = SAMPLER_UNIFORM
    neighbors: int = 3
    episodes: int = 2000
    batch_size: int = 1024
    update_every: int = 100
    buffer_capacity: int = 100_000
    seed: int = 0


def validate_trainer_config(cfg: TrainerConfig) -> None:
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}, expected one of {ALGORITHMS}")
    if cfg.sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {cfg.sampler!r}, expected one of {SAMPLERS}")
    if cfg.neighbors < 1:
        raise ValueError(f"neighbors must be >= 1, got {cfg.neighbors}")
    if min(cfg.episodes, cfg.batch_size, cfg.update_every, cfg.buffer_capacity) < 1:
        raise ValueError("episodes, batch_size, update_every and buffer_capacity must be >= 1")


@dataclass
class AgentBundle:
    """One agent's networks, optimizers and replay columns."""

    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState
    buffer: ReplayBuffer
    obs_dim: int
    act_dim: int


@dataclass
class RoundWorkspace:
    """Where an update round's network passes write their hidden
    activations and deltas (``nn.Workspace``), and where its samples are
    gathered (``batch``, allotted by the first round); ``run_training``
    keeps one for the run, so no later round allots them. A workspace
    serves one agent list and one batch size. Every round function takes
    one, and makes a fresh one when given none.

    A cache in a workspace lives until the next forward into it, and at most
    two are alive at once: the policy step's actor cache lives through the
    critic's passes. So ``actor`` takes the policy step's actor passes, and
    ``critic`` every other pass: the target actors' and target critic's
    forwards, the critic step, and the policy step's critic passes, each
    cache of which is read before the next pass into it.

    Freed at once, a round's activations return to the top of glibc's heap,
    and until the allocator's trim threshold has risen (a process's first
    training cell) each round gave them back to the kernel and refaulted
    them: about 5,200 minor faults a predator-prey maddpg N=3 round, which
    took 15.7 ms against 8.8 ms in a second cell. At N=12 a batch allotted
    per round did the same: about 1,750 faults a round.
    """

    actor: Workspace = field(default_factory=Workspace)
    critic: Workspace = field(default_factory=Workspace)
    batch: JointBatch | None = None


@dataclass
class EpisodeStats:
    episode: int
    per_agent_rewards: list[float]
    mean_episode_reward: float
    wall_ms: float


def actor_out_dim(cfg: TrainerConfig) -> int:
    # the stochastic head emits a mean and a log-std per action dimension
    return envs.ACT_DIM if cfg.algorithm == ALGO_MADDPG else 2 * envs.ACT_DIM


def make_agents(
    env_cfg: envs.EnvConfig,
    cfg: TrainerConfig,
    rng: np.random.Generator,
) -> list[AgentBundle]:
    """Build one bundle per learner; targets start as copies of the online nets.

    The weights are drawn in float64, so the rng stream does not depend on
    ``DTYPE``, and then cast to it."""
    validate_trainer_config(cfg)
    n = env_cfg.n_learners
    obs_dim = envs.observation_dim(env_cfg)
    act_dim = envs.ACT_DIM
    critic_in = n * (obs_dim + act_dim)
    out_dim = actor_out_dim(cfg)
    buffers = joint_buffers(cfg.buffer_capacity, [obs_dim] * n, [act_dim] * n)
    agents = []
    for buffer in buffers:
        actor = init_mlp_params(obs_dim, out_dim, rng, HIDDEN).astype(DTYPE)
        critic = init_mlp_params(critic_in, 1, rng, HIDDEN).astype(DTYPE)
        agents.append(
            AgentBundle(
                actor=actor,
                critic=critic,
                target_actor=actor.copy(),
                target_critic=critic.copy(),
                actor_opt=init_adam(actor),
                critic_opt=init_adam(critic),
                buffer=buffer,
                obs_dim=obs_dim,
                act_dim=act_dim,
            )
        )
    return agents


def select_action(
    bundle: AgentBundle,
    obs: np.ndarray,
    cfg: TrainerConfig,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Map one observation to one clamped 2D action.

    ``noise`` is this agent's row of the step's exploration draw, or None
    for the greedy action. The deterministic actor adds it to its action,
    a Gaussian draw of scale ``EXPLORATION_SIGMA``; the stochastic actor
    squashes it as a standard-normal draw without forming a log-prob. A
    non-finite stochastic output raises ``FloatingPointError``. The rollout
    converts ``obs`` and ``noise`` to the actor's dtype once per step, so
    nothing here casts them.
    """
    out, _ = mlp_forward(bundle.actor, obs)
    if cfg.algorithm == ALGO_MADDPG:
        action = np.tanh(out)
        if noise is not None:
            action += noise
        return action.clip(*_UNIT_BOUNDS, out=action)
    if noise is not None:
        # tanh already lies in [-1, 1]
        return squashed_gaussian_action(out, noise)
    return np.tanh(out[:bundle.act_dim])


def target_y(
    rewards: np.ndarray,
    dones: np.ndarray,
    target_q_next: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Bootstrap targets r + gamma * (1 - done) * q_next.

    A terminal row's q_next is multiplied by zero, so any finite next
    observation gives the same target; the joint replay serves the next
    episode's first one (``replay.JointReplay``). Bootstrapping on time
    limits, or replay rows that are not consecutive steps, would break it.

    The targets are computed in ``target_q_next``'s dtype, the target
    critic's (float64 for integer input).
    """
    target_q_next = np.asarray(target_q_next)
    dtype = np.result_type(target_q_next, np.float32)
    target_q_next = target_q_next.astype(dtype, copy=False)
    rewards = np.asarray(rewards, dtype=dtype)
    dones = np.asarray(dones, dtype=dtype)
    if rewards.shape != dones.shape or rewards.shape != target_q_next.shape:
        raise ValueError(
            f"shape mismatch rewards={rewards.shape} dones={dones.shape} "
            f"q_next={target_q_next.shape}"
        )
    return rewards + gamma * (1.0 - dones) * target_q_next


@dataclass
class TargetActorUnion:
    """Every target actor's raw output over one round's distinct replay rows.

    ``rows`` holds the distinct rows, padded with row 0 to whole blocks of
    the batch size; ``outs[j]`` holds target actor j's output at each of
    them; ``picks[i]`` gives, for each entry of agent i's batch, its
    position in ``rows``.
    """

    rows: np.ndarray
    picks: np.ndarray
    outs: list[np.ndarray]


def target_q_calculation(
    agents: list[AgentBundle],
    batch: JointBatch,
    agent_i: int,
    cfg: TrainerConfig,
    noises: list[np.ndarray] | None = None,
    union: TargetActorUnion | None = None,
    ws: RoundWorkspace | None = None,
) -> np.ndarray:
    """Evaluate agent_i's target critic at the next state under target policies.

    Every agent's next action comes from its own target actor, run here over
    that agent's next observations, or picked from ``union`` at agent_i's
    rows when the round already ran each target actor over its distinct
    rows. Each next action is written into its action columns of
    ``batch.x_tp1``, which then is the target critic's input. For the
    entropy-regularized algorithm the next actions are sampled with
    ``noises[j]`` for agent j, and the returned value is the critic estimate
    minus alpha times the log-prob of agent_i's own next action, the only
    log-prob formed.
    """
    if not 0 <= agent_i < len(agents):
        raise IndexError(f"agent {agent_i} out of range")
    ws = ws or RoundWorkspace()
    x = batch.x_tp1
    logp_i = None
    for j, ag in enumerate(agents):
        if union is None:
            out, _ = mlp_forward(ag.target_actor, batch[j].obses_tp1, ws.critic)
        else:
            out = union.outs[j][union.picks[agent_i]]
        if cfg.algorithm == ALGO_MADDPG:
            x[:, batch.act_cols[j]] = np.tanh(out)
        elif noises is None:
            raise ValueError("stochastic target actions need noise")
        elif j == agent_i:
            a_dim = ag.act_dim
            action, logp_i = squashed_gaussian_sample(out[:, :a_dim], out[:, a_dim:], noises[j])
            x[:, batch.act_cols[j]] = action
        else:
            x[:, batch.act_cols[j]] = squashed_gaussian_action(out, noises[j])
    q, _ = mlp_forward(agents[agent_i].target_critic, x, ws.critic)
    q = q[:, 0]
    if cfg.algorithm == ALGO_MASAC:
        q = q - ENTROPY_ALPHA * logp_i
    return q


def critic_loss_and_grads(
    agents: list[AgentBundle],
    batch: JointBatch,
    agent_i: int,
    y: np.ndarray,
    ws: RoundWorkspace | None = None,
):
    """Mean squared TD error of agent_i's critic and its parameter gradients.

    The gathered rows ``batch.x`` are the critic input as they are.
    """
    ws = ws or RoundWorkspace()
    critic = agents[agent_i].critic
    q, cache = mlp_forward(critic, batch.x, ws.critic)
    diff = q[:, 0] - y
    b = diff.shape[0]
    loss = float(np.mean(diff * diff))
    upstream = (2.0 / b) * diff[:, None]
    grads, _ = mlp_backward(critic, cache, upstream, input_cols=None, ws=ws.critic)
    return loss, grads


def critic_update(
    agents: list[AgentBundle],
    batch: JointBatch,
    agent_i: int,
    y: np.ndarray,
    ws: RoundWorkspace | None = None,
) -> float:
    """One Adam step on agent_i's critic; aborts the run on a diverged loss."""
    loss, grads = critic_loss_and_grads(agents, batch, agent_i, y, ws)
    if not np.isfinite(loss):
        raise NonFiniteLossError(
            f"critic loss diverged for agent {agent_i}: loss={loss}, "
            f"y range [{np.min(y)}, {np.max(y)}]"
        )
    ag = agents[agent_i]
    adam_step(ag.critic_opt, ag.critic, grads)
    return loss


def _policy_q(critic: MlpParams, batch: JointBatch, agent_i: int, a_i: np.ndarray,
              ws: Workspace):
    """The critic's Q at the batch's rows with agent_i's actions replaced by
    ``a_i``, and the gradient of -mean(Q) with respect to ``a_i``.

    ``a_i`` is written into agent_i's action columns of ``batch.x`` for the
    forward and backward pass and the sampled actions are put back after,
    so the rows are not copied.
    """
    own = batch.act_cols[agent_i]
    x = batch.x
    sampled = x[:, own].copy()
    x[:, own] = a_i
    try:
        q, cache = mlp_forward(critic, x, ws)
        b = x.shape[0]
        _, da = mlp_backward(critic, cache, np.full((b, 1), -1.0 / b, critic.dtype),
                             param_grads=False, input_cols=own, ws=ws)
    finally:
        x[:, own] = sampled
    return q[:, 0], da


def actor_loss_and_grads(
    agents: list[AgentBundle],
    batch: JointBatch,
    agent_i: int,
    cfg: TrainerConfig,
    noise: np.ndarray | None = None,
    ws: RoundWorkspace | None = None,
):
    """Policy loss for agent_i and gradients through its own action slot only.

    Other agents' actions come from the sampled batch, so the critic input
    carries gradient solely via agent_i's actor output. The stochastic actor
    reparameterizes its action with the standard-normal ``noise``.
    """
    ws = ws or RoundWorkspace()
    ag = agents[agent_i]
    obs_i = batch[agent_i].obses_t
    b = obs_i.shape[0]
    a_dim = ag.act_dim
    out, cache_a = mlp_forward(ag.actor, obs_i, ws.actor)

    if cfg.algorithm == ALGO_MADDPG:
        a_i = np.tanh(out)
        q, da = _policy_q(ag.critic, batch, agent_i, a_i, ws.critic)
        loss = float(-np.mean(q))
        dout = da * (1.0 - a_i * a_i)
        grads, _ = mlp_backward(ag.actor, cache_a, dout, input_cols=None, ws=ws.actor)
        return loss, grads

    mean, s_raw = out[:, :a_dim], out[:, a_dim:]
    # clamping the log-std bounds its gradient path; the mask zeroes it
    # wherever the clamp is active
    gate = (s_raw > LOG_STD_MIN) & (s_raw < LOG_STD_MAX)
    if noise is None:
        raise ValueError("stochastic actor update needs noise")
    s, u, a_i = _squash(mean, s_raw, noise)
    gauss, one_m_a2, correction = _log_prob_terms(s, noise, a_i)
    logp = np.sum(gauss, axis=1) - np.sum(correction, axis=1)

    q, da_q = _policy_q(ag.critic, batch, agent_i, a_i, ws.critic)
    alpha = ENTROPY_ALPHA
    loss = float(np.mean(alpha * logp - q))

    da_logp = (alpha / b) * 2.0 * a_i / (one_m_a2 + TANH_EPS)
    da = da_q + da_logp
    du = da * one_m_a2
    ds = (du * (u - mean) - alpha / b) * gate
    dout = np.concatenate([du, ds], axis=1)
    grads, _ = mlp_backward(ag.actor, cache_a, dout, input_cols=None, ws=ws.actor)
    return loss, grads


def actor_update(
    agents: list[AgentBundle],
    batch: JointBatch,
    agent_i: int,
    cfg: TrainerConfig,
    noise: np.ndarray | None = None,
    ws: RoundWorkspace | None = None,
) -> float:
    loss, grads = actor_loss_and_grads(agents, batch, agent_i, cfg, noise, ws)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"actor loss diverged for agent {agent_i}: loss={loss}")
    ag = agents[agent_i]
    adam_step(ag.actor_opt, ag.actor, grads)
    return loss


def draw_batch_indices(
    cfg: TrainerConfig,
    rng: np.random.Generator,
    length: int,
    meta: dict | None = None,
) -> np.ndarray:
    """Produce one batch-worth of buffer indices under the configured sampler."""
    b = cfg.batch_size
    if cfg.sampler == SAMPLER_UNIFORM:
        return make_index_uniform(rng, b, length)
    n = cfg.neighbors
    k = -(-b // (2 * n)) + ANCHOR_SLACK
    anchors = make_index_uniform(rng, k, length)
    try:
        return neighbor_indices(anchors, length, n, b)[:b]
    except InsufficientDataError:
        logger.warning("neighbor sampling short on data, falling back to uniform")
        if meta is not None:
            meta["neighbor_fallbacks"] = meta.get("neighbor_fallbacks", 0) + 1
        return make_index_uniform(rng, b, length)


def _min_buffer_fill(cfg: TrainerConfig) -> int:
    if cfg.sampler == SAMPLER_NEIGHBOR:
        return max(cfg.batch_size, 2 * cfg.neighbors + 1)
    return cfg.batch_size


def _draw_round(
    agents: list[AgentBundle],
    cfg: TrainerConfig,
    rng: np.random.Generator,
    length: int,
    meta: dict,
) -> tuple[list[np.ndarray], list, list]:
    """Make one round's random draws in the order the per-agent steps use
    them: agent i's batch indices, then for the entropy-regularized
    algorithm one target-action noise per agent and agent i's policy noise,
    then agent i+1's draws. No draw depends on a network output, so making
    them up front leaves the rng stream unchanged."""
    idx_sets, target_noises, policy_noises = [], [], []
    for ag_i in agents:
        idx = draw_batch_indices(cfg, rng, length, meta)
        idx_sets.append(idx)
        if cfg.algorithm == ALGO_MASAC:
            target_noises.append([
                rng.standard_normal((idx.size, ag.act_dim), ag.target_actor.dtype)
                for ag in agents
            ])
            policy_noises.append(rng.standard_normal((idx.size, ag_i.act_dim), ag_i.actor.dtype))
        else:
            target_noises.append(None)
            policy_noises.append(None)
    return idx_sets, target_noises, policy_noises


def _plan_union(
    agents: list[AgentBundle],
    idx_sets: list[np.ndarray],
    b: int,
) -> TargetActorUnion | None:
    """Find the round's distinct rows U and, when ceil(|U| / b) <= floor(N / 2),
    that is when running each target actor once over U in blocks of b rows
    takes at most half the forwards of running it over every agent's batch,
    allot the outputs that ``_run_union`` fills. Returns None otherwise.

    The outputs are allotted here, before the round's first gather. Made
    after it, arrays that live through the round sit above the round's
    large temporaries on the heap, and at N=12 a round's minor page faults
    rose from about 4,000 to 29,000 (about 100 MB refaulted).
    """
    distinct, inverse = np.unique(np.concatenate(idx_sets), return_inverse=True)
    blocks = -(-distinct.size // b)
    if blocks > len(agents) // 2:
        return None
    rows = np.zeros(blocks * b, dtype=np.int64)
    rows[:distinct.size] = distinct
    outs = [np.empty((rows.size, ag.target_actor.out_dim), ag.target_actor.dtype)
            for ag in agents]
    return TargetActorUnion(rows, inverse.reshape(len(idx_sets), b), outs)


def _run_union(agents: list[AgentBundle], union: TargetActorUnion, b: int,
               ws: RoundWorkspace) -> None:
    """Run each target actor over the next observations of ``union.rows``
    in blocks of exactly b rows.

    A row's output bits do not depend on its position within a forward,
    but with OpenBLAS they can depend on the forward's row count, so every
    forward keeps the batch's b rows and the last block is padded.
    """
    for ag, out in zip(agents, union.outs):
        x = next_observations(ag.buffer, union.rows)
        for k in range(0, x.shape[0], b):
            out[k:k + b] = mlp_forward(ag.target_actor, x[k:k + b], ws.critic)[0]


def update_all_trainers(
    agents: list[AgentBundle],
    cfg: TrainerConfig,
    report: ProfileReport,
    rng: np.random.Generator,
    ws: RoundWorkspace | None = None,
) -> list[tuple[float, float]] | None:
    """Run one update round: per agent, sample, build targets, step critic
    then actor; finally soft-update every target network. Agent i's sample
    is one ``collect_joint`` gather of the joint store at its index set,
    made into the arrays of ``ws.batch``. A run so allots its batch arrays
    once: at N=12, fresh 5 MB arrays for every agent's batch and P-loss
    input took about 20,000 minor page faults a round.

    The round's random draws are made up front, inside the first sampling
    scope, in the order the per-agent steps use them (``_draw_round``), so
    a seeded run draws the same stream whatever path target-Q takes. A
    target actor's output depends only on the replay row, not on which
    agent's batch holds it, and the agents' index sets overlap heavily
    while the buffers are small. So when the round's distinct rows fill at
    most floor(N / 2) batches (``_plan_union``), each target actor runs
    once over them in the first target-Q scope (``_run_union``), and every
    agent's target-Q picks its rows from those outputs. Otherwise each
    agent runs every target actor over its own batch. The passes write
    their activations into ``ws`` (``RoundWorkspace``).

    Returns per-agent (critic_loss, actor_loss), or None when any buffer is
    still too small, which callers count rather than treat as an error.
    """
    need = _min_buffer_fill(cfg)
    if any(ag.buffer.size < need for ag in agents):
        return None
    ws = ws or RoundWorkspace()
    buffers = [ag.buffer for ag in agents]
    length = buffers[0].size
    losses = []
    with phase_scope(report, Phase.UPDATE_ALL_TRAINERS):
        for i in range(len(agents)):
            with phase_scope(report, Phase.MINI_BATCH_SAMPLING):
                if i == 0:
                    idx_sets, target_noises, policy_noises = _draw_round(
                        agents, cfg, rng, length, report.meta
                    )
                    union = _plan_union(agents, idx_sets, cfg.batch_size)
                batch = ws.batch = collect_joint(buffers, idx_sets[i], ws.batch)
            with phase_scope(report, Phase.TARGET_Q_CALC):
                if i == 0 and union is not None:
                    _run_union(agents, union, cfg.batch_size, ws)
                q_next = target_q_calculation(agents, batch, i, cfg, target_noises[i], union, ws)
                y = target_y(batch[i].rewards, batch[i].dones, q_next, GAMMA)
            with phase_scope(report, Phase.Q_LOSS):
                q_loss = critic_update(agents, batch, i, y, ws)
            with phase_scope(report, Phase.P_LOSS):
                p_loss = actor_update(agents, batch, i, cfg, policy_noises[i], ws)
            losses.append((q_loss, p_loss))
        for ag in agents:
            soft_update(ag.target_actor, ag.actor, TAU)
            soft_update(ag.target_critic, ag.critic, TAU)
    return losses


def run_training(
    cfg: TrainerConfig,
    env_cfg: envs.EnvConfig,
    *,
    checkpoint_dir: str | Path | None = None,
    trajectory_path: str | Path | None = None,
) -> tuple[list[EpisodeStats], ProfileReport]:
    """Train for cfg.episodes episodes and profile every phase.

    The trainer rng drives everything stochastic on the learning side and
    the environment rng drives resets, so one (seed, config) pair fixes the
    whole run. When requested, the final networks are checkpointed and one
    extra greedy episode is rolled out to a trajectory CSV after training.

    The run keeps numpy's BLAS on one thread (``nn.one_blas_thread``), so
    its bits do not depend on the host's core count; the report's
    ``blas_threads`` says how many it ran on (None: numpy's OpenBLAS was
    not found, and its thread count was left as it was).
    """
    validate_trainer_config(cfg)
    envs.validate_env_config(env_cfg)
    with one_blas_thread() as blas_threads:
        return _train(cfg, env_cfg, blas_threads, checkpoint_dir, trajectory_path)


def _train(
    cfg: TrainerConfig,
    env_cfg: envs.EnvConfig,
    blas_threads: int | None,
    checkpoint_dir: str | Path | None,
    trajectory_path: str | Path | None,
) -> tuple[list[EpisodeStats], ProfileReport]:
    """``run_training``'s run, with BLAS on ``blas_threads`` threads."""
    rng = np.random.default_rng(cfg.seed)
    env_rng = np.random.default_rng(env_cfg.seed)
    agents = make_agents(env_cfg, cfg, rng)
    n = len(agents)
    report = ProfileReport(
        meta={
            "scenario": env_cfg.scenario,
            "n_agents": n,
            "algorithm": cfg.algorithm,
            "sampler": cfg.sampler,
            "neighbors": cfg.neighbors,
            "episodes": cfg.episodes,
            "seed": cfg.seed,
            "update_rounds": 0,
            "skipped_updates": 0,
            "neighbor_fallbacks": 0,
            "blas_threads": blas_threads,
        }
    )
    scope_act = phase_scope(report, Phase.ACTION_SELECTION)
    scope_env = phase_scope(report, Phase.ENV_STEP)
    scope_exp = phase_scope(report, Phase.EXPERIENCE_COLLECTION)
    maddpg = cfg.algorithm == ALGO_MADDPG
    # the environment works in float64; its observations, and the actions
    # it receives, are converted once per step, not once per agent
    actions = np.empty((n, envs.ACT_DIM), DTYPE)
    ws = RoundWorkspace()
    stats: list[EpisodeStats] = []
    inserts = 0
    report.start()
    for episode in range(cfg.episodes):
        t0 = time.perf_counter()
        state, obs = envs.reset(env_cfg, env_rng)
        obs = obs.astype(DTYPE)
        ep_rewards = np.zeros(n)
        done = False
        while not done:
            with scope_act:
                # one draw per step, row i being agent i's: a Generator
                # fills it in sequence, so it holds the bits of N per-agent
                # draws. normal() has no dtype, and drawing in float64 and
                # casting costs less than scaling a float32 draw
                noise = (rng.normal(0.0, EXPLORATION_SIGMA, actions.shape).astype(DTYPE)
                         if maddpg else rng.standard_normal(actions.shape, DTYPE))
                for i, ag in enumerate(agents):
                    actions[i] = select_action(ag, obs[i], cfg, noise[i])
            with scope_env:
                state, next_obs, rewards, done = envs.step(state, actions, env_cfg)
            with scope_exp:
                next_obs = next_obs.astype(DTYPE)
                for i, ag in enumerate(agents):
                    ag.buffer.add(obs[i], actions[i], rewards[i], next_obs[i], done)
            inserts += 1
            ep_rewards += rewards
            obs = next_obs
            if inserts % cfg.update_every == 0:
                result = update_all_trainers(agents, cfg, report, rng, ws)
                if result is None:
                    report.meta["skipped_updates"] += 1
                else:
                    report.meta["update_rounds"] += 1
        stats.append(
            EpisodeStats(
                episode=episode,
                per_agent_rewards=[float(r) for r in ep_rewards],
                mean_episode_reward=float(np.mean(ep_rewards)),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    report.stop()
    if checkpoint_dir is not None:
        save_checkpoint(agents, checkpoint_dir)
    if trajectory_path is not None:
        _dump_greedy_trajectory(agents, cfg, env_cfg, env_rng, trajectory_path)
    return stats, report


def _dump_greedy_trajectory(
    agents: list[AgentBundle],
    cfg: TrainerConfig,
    env_cfg: envs.EnvConfig,
    env_rng: np.random.Generator,
    path: str | Path,
) -> None:
    state, obs = envs.reset(env_cfg, env_rng)
    rows = envs.trajectory_rows(state, env_cfg, None)
    done = False
    while not done:
        actions = [select_action(ag, obs[i], cfg, None) for i, ag in enumerate(agents)]
        state, obs, rewards, done = envs.step(state, actions, env_cfg)
        rows.extend(envs.trajectory_rows(state, env_cfg, rewards))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(envs.TRAJECTORY_HEADER)
        writer.writerows(rows)


def final_window_mean(stats: list[EpisodeStats], fraction: float = 0.1) -> float:
    """Mean episode reward over the trailing fraction of episodes."""
    if not stats:
        raise ValueError("no episode stats")
    k = max(1, int(round(fraction * len(stats))))
    return float(np.mean([s.mean_episode_reward for s in stats[-k:]]))


def stats_to_csv(stats: list[EpisodeStats]) -> str:
    """Render episode stats as CSV; floats use repr so runs diff cleanly."""
    if not stats:
        raise ValueError("no episode stats to serialize")
    n = len(stats[0].per_agent_rewards)
    header = ["episode", "mean_episode_reward"]
    header += [f"reward_agent_{i}" for i in range(n)]
    header += ["wall_ms"]
    lines = [",".join(header)]
    for s in stats:
        row = [str(s.episode), repr(s.mean_episode_reward)]
        row += [repr(r) for r in s.per_agent_rewards]
        row += [repr(s.wall_ms)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_ROLES = ("actor", "critic", "target_actor", "target_critic")


def save_checkpoint(agents: list[AgentBundle], out_dir: str | Path) -> Path:
    """Write every network into one uncompressed ``networks.npz`` under
    ``out_dir``, one array per ``agent<i>.<role>.<field>`` key (field is
    w1, b1, w2, b2, w3 or b3). ``np.load`` reads it back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = {
        f"agent{i}.{role}.{name}": arr
        for i, ag in enumerate(agents)
        for role in _ROLES
        for name, arr in vars(getattr(ag, role)).items()
    }
    path = out / "networks.npz"
    np.savez(path, **arrays)
    return path
