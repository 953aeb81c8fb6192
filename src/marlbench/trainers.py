"""Multi-agent actor-critic trainers with centralized critics.

Each agent owns four networks (actor, critic and their targets), two Adam
states and a replay buffer. Critics see every agent's observation and
action; actors see only their own observation. Two algorithms share the
pipeline: a deterministic-actor variant with additive exploration noise,
and an entropy-regularized variant with a squashed Gaussian actor.
"""
from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import envs
from .nn import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    TANH_EPS,
    AdamState,
    MlpParams,
    adam_step,
    init_adam,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    soft_update,
    squashed_gaussian_sample,
)
from .profiler import Phase, ProfileReport, phase_scope
from .replay import (
    InsufficientDataError,
    ReplayBuffer,
    Transition,
    collect_joint,
    make_index_uniform,
    neighbor_indices,
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


class NonFiniteLossError(FloatingPointError):
    """Raised when a loss diverges; carries enough context to debug the run."""


@dataclass
class TrainerConfig:
    algorithm: str = ALGO_MADDPG
    sampler: str = SAMPLER_UNIFORM
    neighbors: int = 3
    episodes: int = 2000
    batch_size: int = 1024
    update_every: int = 100
    buffer_capacity: int = 100_000
    gamma: float = 0.95
    tau: float = 0.01
    lr: float = 0.01
    hidden: int = 64
    exploration_sigma: float = 0.1
    entropy_alpha: float = 0.05
    seed: int = 0


def validate_trainer_config(cfg: TrainerConfig) -> None:
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}, expected one of {ALGORITHMS}")
    if cfg.sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {cfg.sampler!r}, expected one of {SAMPLERS}")
    if cfg.neighbors < 1:
        raise ValueError(f"neighbors must be >= 1, got {cfg.neighbors}")
    if cfg.episodes < 1 or cfg.batch_size < 1 or cfg.update_every < 1:
        raise ValueError("episodes, batch_size and update_every must be >= 1")
    if cfg.buffer_capacity < 1:
        raise ValueError(f"buffer_capacity must be >= 1, got {cfg.buffer_capacity}")
    if not 0.0 < cfg.gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {cfg.gamma}")
    if not 0.0 <= cfg.tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {cfg.tau}")
    if cfg.lr <= 0.0 or cfg.hidden < 1:
        raise ValueError("lr must be positive and hidden >= 1")
    if cfg.exploration_sigma < 0.0 or cfg.entropy_alpha < 0.0:
        raise ValueError("exploration_sigma and entropy_alpha must be >= 0")


@dataclass
class AgentBundle:
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
    """Build one bundle per learner; targets start as copies of the online nets."""
    validate_trainer_config(cfg)
    n = env_cfg.n_learners
    obs_dim = envs.observation_dim(env_cfg)
    act_dim = envs.ACT_DIM
    critic_in = n * (obs_dim + act_dim)
    out_dim = actor_out_dim(cfg)
    agents = []
    for _ in range(n):
        actor = init_mlp_params(obs_dim, out_dim, rng, cfg.hidden)
        critic = init_mlp_params(critic_in, 1, rng, cfg.hidden)
        agents.append(
            AgentBundle(
                actor=actor,
                critic=critic,
                target_actor=actor.copy(),
                target_critic=critic.copy(),
                actor_opt=init_adam(actor, cfg.lr),
                critic_opt=init_adam(critic, cfg.lr),
                buffer=ReplayBuffer(cfg.buffer_capacity, obs_dim, act_dim),
                obs_dim=obs_dim,
                act_dim=act_dim,
            )
        )
    return agents


def select_action(
    bundle: AgentBundle,
    obs: np.ndarray,
    cfg: TrainerConfig,
    rng: np.random.Generator,
    explore: bool,
) -> np.ndarray:
    """Map one observation to one clamped 2D action."""
    out, _ = mlp_forward(bundle.actor, obs)
    a_dim = bundle.act_dim
    if cfg.algorithm == ALGO_MADDPG:
        action = np.tanh(out)
        if explore:
            action = action + rng.normal(0.0, cfg.exploration_sigma, size=a_dim)
        return np.clip(action, -1.0, 1.0)
    mean, log_std = out[:a_dim], out[a_dim:]
    if explore:
        action, _ = squashed_gaussian_sample(mean, log_std, rng.standard_normal(a_dim))
        return np.clip(action, -1.0, 1.0)
    return np.tanh(mean)


def target_y(
    rewards: np.ndarray,
    dones: np.ndarray,
    target_q_next: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Bootstrap targets r + gamma * (1 - done) * q_next."""
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    target_q_next = np.asarray(target_q_next, dtype=np.float64)
    if rewards.shape != dones.shape or rewards.shape != target_q_next.shape:
        raise ValueError(
            f"shape mismatch rewards={rewards.shape} dones={dones.shape} "
            f"q_next={target_q_next.shape}"
        )
    return rewards + gamma * (1.0 - dones) * target_q_next


def _action_slot(agents: list[AgentBundle], agent_i: int) -> slice:
    obs_total = sum(ag.obs_dim for ag in agents)
    start = obs_total + sum(ag.act_dim for ag in agents[:agent_i])
    return slice(start, start + agents[agent_i].act_dim)


def target_q_calculation(
    agents: list[AgentBundle],
    joint_batches: list,
    agent_i: int,
    cfg: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Evaluate agent_i's target critic at the next state under target policies.

    Every agent's next action comes from its own target actor. For the
    entropy-regularized algorithm the next actions are sampled and the
    returned value is the critic estimate minus alpha times the log-prob of
    agent_i's own next action.
    """
    if not 0 <= agent_i < len(agents):
        raise IndexError(f"agent {agent_i} out of range")
    next_actions = []
    logp_i = None
    for j, ag in enumerate(agents):
        out, _ = mlp_forward(ag.target_actor, joint_batches[j].obses_tp1)
        if cfg.algorithm == ALGO_MADDPG:
            next_actions.append(np.tanh(out))
        else:
            if rng is None:
                raise ValueError("stochastic target actions need an rng")
            a_dim = ag.act_dim
            mean, log_std = out[:, :a_dim], out[:, a_dim:]
            noise = rng.standard_normal(mean.shape)
            action, logp = squashed_gaussian_sample(mean, log_std, noise)
            next_actions.append(action)
            if j == agent_i:
                logp_i = logp
    cols = [jb.obses_tp1 for jb in joint_batches] + next_actions
    x = np.concatenate(cols, axis=1)
    q, _ = mlp_forward(agents[agent_i].target_critic, x)
    q = q[:, 0]
    if cfg.algorithm == ALGO_MASAC:
        q = q - cfg.entropy_alpha * logp_i
    return q


def critic_loss_and_grads(
    agents: list[AgentBundle],
    joint_batches: list,
    agent_i: int,
    y: np.ndarray,
):
    """Mean squared TD error of agent_i's critic and its parameter gradients."""
    cols = [jb.obses_t for jb in joint_batches] + [jb.actions for jb in joint_batches]
    x = np.concatenate(cols, axis=1)
    critic = agents[agent_i].critic
    q, cache = mlp_forward(critic, x)
    diff = q[:, 0] - y
    b = diff.shape[0]
    loss = float(np.mean(diff * diff))
    upstream = (2.0 / b) * diff[:, None]
    grads, _ = mlp_backward(critic, cache, upstream, input_cols=None)
    return loss, grads


def critic_update(
    agents: list[AgentBundle],
    joint_batches: list,
    agent_i: int,
    y: np.ndarray,
) -> float:
    """One Adam step on agent_i's critic; aborts the run on a diverged loss."""
    loss, grads = critic_loss_and_grads(agents, joint_batches, agent_i, y)
    if not np.isfinite(loss):
        raise NonFiniteLossError(
            f"critic loss diverged for agent {agent_i}: loss={loss}, "
            f"y range [{np.min(y)}, {np.max(y)}]"
        )
    ag = agents[agent_i]
    ag.critic_opt, ag.critic = adam_step(ag.critic_opt, ag.critic, grads)
    return loss


def actor_loss_and_grads(
    agents: list[AgentBundle],
    joint_batches: list,
    agent_i: int,
    cfg: TrainerConfig,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
):
    """Policy loss for agent_i and gradients through its own action slot only.

    Other agents' actions come from the sampled batch, so the critic input
    carries gradient solely via agent_i's actor output.
    """
    ag = agents[agent_i]
    obs_i = joint_batches[agent_i].obses_t
    b = obs_i.shape[0]
    a_dim = ag.act_dim
    out, cache_a = mlp_forward(ag.actor, obs_i)
    actions = [jb.actions for jb in joint_batches]

    if cfg.algorithm == ALGO_MADDPG:
        a_i = np.tanh(out)
        actions = list(actions)
        actions[agent_i] = a_i
        x = np.concatenate([jb.obses_t for jb in joint_batches] + actions, axis=1)
        q, cache_c = mlp_forward(ag.critic, x)
        loss = float(-np.mean(q[:, 0]))
        upstream_c = np.full((b, 1), -1.0 / b)
        _, da = mlp_backward(ag.critic, cache_c, upstream_c, param_grads=False,
                             input_cols=_action_slot(agents, agent_i))
        dout = da * (1.0 - a_i * a_i)
        grads, _ = mlp_backward(ag.actor, cache_a, dout, input_cols=None)
        return loss, grads

    mean, s_raw = out[:, :a_dim], out[:, a_dim:]
    # clamping the log-std bounds its gradient path; the mask zeroes it
    # wherever the clamp is active
    gate = (s_raw > LOG_STD_MIN) & (s_raw < LOG_STD_MAX)
    s = np.clip(s_raw, LOG_STD_MIN, LOG_STD_MAX)
    if noise is None:
        if rng is None:
            raise ValueError("stochastic actor update needs an rng or explicit noise")
        noise = rng.standard_normal(mean.shape)
    u = mean + np.exp(s) * noise
    a_i = np.tanh(u)
    one_m_a2 = 1.0 - a_i * a_i
    logp = np.sum(-s - 0.5 * np.log(2.0 * np.pi) - 0.5 * noise * noise, axis=1)
    logp = logp - np.sum(np.log(one_m_a2 + TANH_EPS), axis=1)

    actions = list(actions)
    actions[agent_i] = a_i
    x = np.concatenate([jb.obses_t for jb in joint_batches] + actions, axis=1)
    q, cache_c = mlp_forward(ag.critic, x)
    alpha = cfg.entropy_alpha
    loss = float(np.mean(alpha * logp - q[:, 0]))

    upstream_c = np.full((b, 1), -1.0 / b)
    _, da_q = mlp_backward(ag.critic, cache_c, upstream_c, param_grads=False,
                           input_cols=_action_slot(agents, agent_i))
    da_logp = (alpha / b) * 2.0 * a_i / (one_m_a2 + TANH_EPS)
    da = da_q + da_logp
    du = da * one_m_a2
    dmean = du
    ds = (du * (u - mean) - alpha / b) * gate
    dout = np.concatenate([dmean, ds], axis=1)
    grads, _ = mlp_backward(ag.actor, cache_a, dout, input_cols=None)
    return loss, grads


def actor_update(
    agents: list[AgentBundle],
    joint_batches: list,
    agent_i: int,
    cfg: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> float:
    loss, grads = actor_loss_and_grads(agents, joint_batches, agent_i, cfg, rng)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"actor loss diverged for agent {agent_i}: loss={loss}")
    ag = agents[agent_i]
    ag.actor_opt, ag.actor = adam_step(ag.actor_opt, ag.actor, grads)
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


def update_all_trainers(
    agents: list[AgentBundle],
    cfg: TrainerConfig,
    report: ProfileReport,
    rng: np.random.Generator,
) -> list[tuple[float, float]] | None:
    """Run one update round: per agent, sample, build targets, step critic
    then actor; finally soft-update every target network.

    Returns per-agent (critic_loss, actor_loss), or None when any buffer is
    still too small, which callers count rather than treat as an error.
    """
    need = _min_buffer_fill(cfg)
    if any(ag.buffer.size < need for ag in agents):
        return None
    buffers = [ag.buffer for ag in agents]
    length = buffers[0].size
    losses = []
    with phase_scope(report, Phase.UPDATE_ALL_TRAINERS):
        for i in range(len(agents)):
            with phase_scope(report, Phase.MINI_BATCH_SAMPLING):
                idx = draw_batch_indices(cfg, rng, length, report.meta)
                batches = collect_joint(buffers, idx)
            with phase_scope(report, Phase.TARGET_Q_CALC):
                q_next = target_q_calculation(agents, batches, i, cfg, rng)
                y = target_y(batches[i].rewards, batches[i].dones, q_next, cfg.gamma)
            with phase_scope(report, Phase.Q_LOSS):
                q_loss = critic_update(agents, batches, i, y)
            with phase_scope(report, Phase.P_LOSS):
                p_loss = actor_update(agents, batches, i, cfg, rng)
            losses.append((q_loss, p_loss))
        for ag in agents:
            ag.target_actor = soft_update(ag.target_actor, ag.actor, cfg.tau)
            ag.target_critic = soft_update(ag.target_critic, ag.critic, cfg.tau)
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
    """
    validate_trainer_config(cfg)
    envs.validate_env_config(env_cfg)
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
        }
    )
    scope_act = phase_scope(report, Phase.ACTION_SELECTION)
    scope_env = phase_scope(report, Phase.ENV_STEP)
    scope_exp = phase_scope(report, Phase.EXPERIENCE_COLLECTION)
    stats: list[EpisodeStats] = []
    inserts = 0
    report.start()
    for episode in range(cfg.episodes):
        t0 = time.perf_counter()
        state, obs = envs.reset(env_cfg, env_rng)
        ep_rewards = np.zeros(n)
        done = False
        while not done:
            with scope_act:
                actions = [
                    select_action(agents[i], obs[i], cfg, rng, explore=True)
                    for i in range(n)
                ]
            with scope_env:
                state, next_obs, rewards, done = envs.step(state, actions, env_cfg)
            with scope_exp:
                for i in range(n):
                    agents[i].buffer.add(
                        Transition(obs[i], actions[i], float(rewards[i]), next_obs[i], done)
                    )
            inserts += 1
            ep_rewards += rewards
            obs = next_obs
            if inserts % cfg.update_every == 0:
                result = update_all_trainers(agents, cfg, report, rng)
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
        _dump_greedy_trajectory(agents, cfg, env_cfg, env_rng, rng, trajectory_path)
    return stats, report


def _dump_greedy_trajectory(
    agents: list[AgentBundle],
    cfg: TrainerConfig,
    env_cfg: envs.EnvConfig,
    env_rng: np.random.Generator,
    rng: np.random.Generator,
    path: str | Path,
) -> None:
    state, obs = envs.reset(env_cfg, env_rng)
    rows = envs.trajectory_rows(state, env_cfg, None)
    done = False
    while not done:
        actions = [
            select_action(agents[i], obs[i], cfg, rng, explore=False)
            for i in range(len(agents))
        ]
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


STATS_FIELDS = ("episode", "mean_episode_reward", "per_agent_rewards", "wall_ms")


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
