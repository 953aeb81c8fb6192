"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written in the most literal style
possible (scalar loops, direct formula evaluation) and must stay decoupled
from the vectorized kernels in the package, so that agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from marlbench.envs import (
    _CHASE_SHAPING,
    _COLLISION_PENALTY,
    _TAG_REWARD,
    SCENARIO_COOP_NAV,
)
from marlbench.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    LOG_STD_MAX,
    LOG_STD_MIN,
    TANH_EPS,
    AdamState,
    MlpParams,
)
from marlbench.replay import DTYPE


# ---------------------------------------------------------------------------
# MLP forward: scalar triple-loop matrix products, no numpy matmul.
# ---------------------------------------------------------------------------

def naive_matvec(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    # w is (fan_out, fan_in): out = w @ x + b, spelled out one entry at a time
    out = np.zeros(w.shape[0], dtype=np.float64)
    for j in range(w.shape[0]):
        acc = 0.0
        for i in range(w.shape[1]):
            acc += float(w[j, i]) * float(x[i])
        out[j] = acc + float(b[j])
    return out


def naive_mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    z1 = naive_matvec(params.w1, np.asarray(x, dtype=np.float64), params.b1)
    a1 = np.array([v if v > 0.0 else 0.0 for v in z1])
    z2 = naive_matvec(params.w2, a1, params.b2)
    a2 = np.array([v if v > 0.0 else 0.0 for v in z2])
    return naive_matvec(params.w3, a2, params.b3)


# ---------------------------------------------------------------------------
# Central finite differences over a parameter struct.
# ---------------------------------------------------------------------------

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def clone_params(params: MlpParams) -> MlpParams:
    return MlpParams(*(getattr(params, f).copy() for f in PARAM_FIELDS))


def fd_param_gradient(loss_fn, params: MlpParams, eps: float = 1e-5) -> dict:
    """Central-difference gradient of a scalar loss w.r.t. every entry of params.

    loss_fn takes an MlpParams and returns a float. Returns a dict mapping
    field name to an array shaped like that field.
    """
    grads = {}
    for field in PARAM_FIELDS:
        base = getattr(params, field)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss_fn(params)
            flat[k] = orig - eps
            lo = loss_fn(params)
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * eps)
        grads[field] = g
    return grads


def assert_grad_close(analytic: np.ndarray, fd: np.ndarray,
                      rtol: float = 1e-6, atol: float = 1e-9) -> float:
    """Raise if any coordinate disagrees; return the worst relative error."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    assert analytic.shape == fd.shape
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    err = np.abs(analytic - fd)
    ok = err <= rtol * scale + atol
    if not ok.all():
        worst = int(np.argmax(err - rtol * scale))
        raise AssertionError(
            f"gradient mismatch at flat index {worst}: "
            f"analytic={analytic.reshape(-1)[worst]!r} fd={fd.reshape(-1)[worst]!r}"
        )
    denom = np.maximum(scale, 1e-12)
    return float(np.max(err / denom))


# ---------------------------------------------------------------------------
# Windowed neighbor sampling: literal transcription of the pseudocode.
# d is the buffer length, anchors are drawn outside, n is the window radius,
# b is the batch size. Returns the PRE-truncation index sequence.
# ---------------------------------------------------------------------------

def windowed_indices_transcription(anchors, d: int, n: int, b: int) -> list:
    collected = []
    for i in anchors:
        if not (0 <= i < d):
            raise IndexError(f"anchor {i} outside buffer of length {d}")
        window = [j for j in range(max(0, i - n), min(d, i + n + 1)) if j != i]
        collected.extend(window)
        if len(collected) >= b:
            break
    if len(collected) < b:
        raise ValueError("anchors exhausted before batch filled")
    return collected


# ---------------------------------------------------------------------------
# Per-record bootstrap target for the deterministic-policy algorithm:
# y = r + gamma * (1 - done) * Qbar(joint next obs, target-actor actions).
# Uses the naive forward above so the whole chain is independent.
# ---------------------------------------------------------------------------

def naive_target_y_maddpg(joint_next_obs_rows, rewards, dones,
                          target_actors, target_critic, gamma: float) -> np.ndarray:
    """joint_next_obs_rows: list over batch of list over agents of 1-D obs."""
    out = np.zeros(len(joint_next_obs_rows), dtype=np.float64)
    for r_idx, next_obs_per_agent in enumerate(joint_next_obs_rows):
        acts = []
        for agent_idx, obs in enumerate(next_obs_per_agent):
            raw = naive_mlp_forward(target_actors[agent_idx], np.asarray(obs))
            acts.append(np.tanh(raw))
        joint = np.concatenate([np.asarray(o) for o in next_obs_per_agent] + acts)
        qbar = float(naive_mlp_forward(target_critic, joint)[0])
        out[r_idx] = rewards[r_idx] + gamma * (1.0 - dones[r_idx]) * qbar
    return out


# ---------------------------------------------------------------------------
# Squashed-Gaussian log-density by the change-of-variables formula,
# written against scipy's Gaussian logpdf rather than our own.
# ---------------------------------------------------------------------------

def squashed_log_prob_reference(mean, log_std, noise,
                                log_std_min: float = -20.0,
                                log_std_max: float = 2.0,
                                eps: float = 1e-6) -> float:
    from scipy.stats import norm

    mean = np.asarray(mean, dtype=np.float64)
    clamped = np.clip(np.asarray(log_std, dtype=np.float64), log_std_min, log_std_max)
    std = np.exp(clamped)
    u = mean + std * np.asarray(noise, dtype=np.float64)
    a = np.tanh(u)
    total = 0.0
    for k in range(mean.size):
        total += float(norm.logpdf(u[k], loc=mean[k], scale=std[k]))
        total -= math.log(1.0 - float(a[k]) ** 2 + eps)
    return total


def squashed_density_quadrature(mean: float, log_std: float,
                                n_points: int = 200001) -> float:
    """Integrates the tanh-pushforward density over (-1, 1); should be ~1."""
    std = math.exp(min(max(log_std, -20.0), 2.0))
    a = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, n_points)
    u = np.arctanh(a)
    gauss = np.exp(-0.5 * ((u - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
    dens = gauss / (1.0 - a ** 2)
    return float(np.trapezoid(dens, a))


# ---------------------------------------------------------------------------
# Particle-world observations and rewards, one agent and one pair at a time.
# ---------------------------------------------------------------------------

def naive_observations(state, cfg) -> list[np.ndarray]:
    """Per learner: own velocity, own position, each landmark's displacement,
    each other movable's displacement."""
    n = cfg.n_learners
    n_mov = cfg.n_learners + cfg.n_prey
    landmarks = state.pos[n_mov:]
    obs = []
    for i in range(n):
        own = state.pos[i]
        parts = [state.vel[i], own]
        if cfg.n_landmarks:
            parts.append((landmarks - own).ravel())
        others = [state.pos[j] - own for j in range(n_mov) if j != i]
        if others:
            parts.append(np.concatenate(others))
        obs.append(np.concatenate(parts))
    return obs


def naive_overlap(state, i: int, j: int) -> bool:
    dist = float(np.linalg.norm(state.pos[i] - state.pos[j]))
    return dist < float(state.radius[i] + state.radius[j])


def naive_compute_rewards(state, cfg) -> np.ndarray:
    n = cfg.n_learners
    n_mov = cfg.n_learners + cfg.n_prey
    learners = state.pos[:n]
    if cfg.scenario == SCENARIO_COOP_NAV:
        landmarks = state.pos[n_mov:]
        total = 0.0
        for lm in landmarks:
            total -= float(np.min(np.linalg.norm(learners - lm, axis=1)))
        overlaps = 0
        for i in range(n):
            for j in range(n):
                if i != j and naive_overlap(state, i, j):
                    overlaps += 1
        total -= _COLLISION_PENALTY * overlaps
        return np.full(n, total)
    rewards = np.zeros(n)
    prey_pos = state.pos[n:n_mov]
    if prey_pos.shape[0] == 0:
        return rewards
    for i in range(n):
        tags = sum(1 for j in range(n, n_mov) if naive_overlap(state, i, j))
        nearest = float(np.min(np.linalg.norm(prey_pos - learners[i], axis=1)))
        rewards[i] = _TAG_REWARD * tags - _CHASE_SHAPING * nearest
    return rewards


# ---------------------------------------------------------------------------
# Misc small references.
# ---------------------------------------------------------------------------

def naive_adam_single(param: float, grad: float, lr: float, beta1: float,
                      beta2: float, eps: float, m: float, v: float, t: int):
    """One Adam step on a scalar, straight from the published update rule."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param = param - lr * m_hat / (math.sqrt(v_hat) + eps)
    return param, m, v, t


# ---------------------------------------------------------------------------
# The allocating kernels nn.py shipped before it updated in place, copied
# verbatim. A seeded run through these and through the package must agree
# bit for bit. The two optimizer copies return fresh objects; the
# writeback_* wrappers copy their results into the arguments, the calling
# convention the package uses now. ``_as_batch`` and ``ForwardCache`` are
# copied from the nn.py that promoted a vector input to a one-row batch.
# Each kernel computes in the dtype of what it is given, as the package's do:
# ``_as_batch`` casts to the parameters' dtype, and the sampler to the mean's.
# The forward and backward copies take the package's workspace arguments and
# ignore them, allotting every array.
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """Intermediate activations saved by the forward pass for backprop."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray
    squeeze: bool


def _as_batch(x: np.ndarray, dim: int, what: str, dtype) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"{what} has length {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != dim:
            raise ValueError(f"{what} has width {x.shape[1]}, expected {dim}")
        return x, False
    raise ValueError(f"{what} must be 1-D or 2-D, got ndim={x.ndim}")


def mlp_forward(params: MlpParams, x: np.ndarray, ws=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one input vector or a batch of rows.

    Args:
        params: network weights.
        x: input of shape (in,) or (batch, in).

    Returns:
        Tuple of (output, cache). Output has shape (out,) for vector input
        and (batch, out) for batched input. The cache feeds ``mlp_backward``.
    """
    xb, squeeze = _as_batch(x, params.in_dim, "input", params.w1.dtype)
    z1 = xb @ params.w1.T + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2.T + params.b2
    a2 = np.maximum(z2, 0.0)
    y = a2 @ params.w3.T + params.b3
    cache = ForwardCache(xb, z1, a1, z2, a2, squeeze)
    return (y[0] if squeeze else y), cache


def mlp_backward(
    params: MlpParams,
    cache: ForwardCache,
    upstream: np.ndarray,
    *,
    param_grads: bool = True,
    input_cols: slice | None = slice(None),
    ws=None,
) -> tuple[MlpParams | None, np.ndarray | None]:
    """Backpropagate an upstream gradient through the cached forward pass.

    Args:
        params: the weights used in the forward pass.
        cache: activations returned by ``mlp_forward``.
        upstream: gradient of the scalar objective with respect to the
            network output; shape (out,) or (batch, out) matching the
            forward input.
        param_grads: form the parameter gradients; when False, None
            stands in their place.
        input_cols: columns of the input gradient to form; None skips the
            input gradient and returns None in its place.

    Returns:
        Tuple of (parameter gradients summed over the batch, gradient with
        respect to the input columns ``input_cols``, shaped like the
        forward input with only those columns kept).
    """
    g, _ = _as_batch(upstream, params.out_dim, "upstream", params.w1.dtype)
    if g.shape[0] != cache.x.shape[0]:
        raise ValueError(
            f"upstream batch {g.shape[0]} does not match cached batch {cache.x.shape[0]}"
        )
    da2 = g @ params.w3
    dz2 = da2 * (cache.z2 > 0.0)
    da1 = dz2 @ params.w2
    dz1 = da1 * (cache.z1 > 0.0)
    grads = dx = None
    if param_grads:
        grads = MlpParams(
            dz1.T @ cache.x, dz1.sum(axis=0),
            dz2.T @ cache.a1, dz2.sum(axis=0),
            g.T @ cache.a2, g.sum(axis=0),
        )
    if input_cols is not None:
        # with OpenBLAS at batch > 1, this transposed form gives a column
        # subset the same bits as those columns of the full product, so
        # seeded runs do not move; dz1 @ w1[:, cols] differs in the last bits
        dx = (params.w1[:, input_cols].T @ dz1.T).T
        if cache.squeeze:
            dx = dx[0]
    return grads, dx


def adam_step(
    state: AdamState,
    params: MlpParams,
    grads: MlpParams,
) -> tuple[AdamState, MlpParams]:
    """Apply one Adam update. Pure: returns fresh state and parameters."""
    new_m, new_v, new_p = [], [], []
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient passed to adam_step")
        m2 = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v2 = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        step = ADAM_LR * (m2 / bc1) / (np.sqrt(v2 / bc2) + ADAM_EPS)
        new_m.append(m2)
        new_v.append(v2)
        new_p.append(p - step)
    next_state = AdamState(m=MlpParams(*new_m), v=MlpParams(*new_v), t=t)
    return next_state, MlpParams(*new_p)


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> MlpParams:
    """Polyak-average online weights into the target: tau*online + (1-tau)*target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    out = []
    for t_arr, o_arr in zip(target.arrays(), online.arrays()):
        if t_arr.shape != o_arr.shape:
            raise ValueError(
                f"target shape {t_arr.shape} does not match online shape {o_arr.shape}"
            )
        out.append(tau * o_arr + (1.0 - tau) * t_arr)
    return MlpParams(*out)


def squashed_gaussian_sample(
    mean: np.ndarray,
    log_std: np.ndarray,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a tanh-squashed Gaussian action via the reparameterization trick.

    Args:
        mean: distribution mean, shape (d,) or (batch, d).
        log_std: log standard deviation, same shape; clamped to
            [LOG_STD_MIN, LOG_STD_MAX] before use.
        noise: standard-normal draw of the same shape.

    Returns:
        Tuple of (action, log_prob). Actions lie strictly inside (-1, 1).
        log_prob is the density of the squashed action: per-dimension
        Gaussian log-density of the pre-squash sample minus the tanh
        change-of-variables correction, summed over action dimensions.
        Scalar for vector input, shape (batch,) for batched input.
    """
    dtype = np.result_type(np.asarray(mean), np.float32)
    mean = np.asarray(mean, dtype=dtype)
    log_std = np.asarray(log_std, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)
    if mean.shape != log_std.shape or mean.shape != noise.shape:
        raise ValueError(
            f"mean/log_std/noise shapes differ: {mean.shape} {log_std.shape} {noise.shape}"
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(log_std)) and np.all(np.isfinite(noise))):
        raise FloatingPointError("non-finite input to squashed_gaussian_sample")
    s = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    u = mean + np.exp(s) * noise
    action = np.tanh(u)
    # a Python float, which keeps a float32 expression in float32
    gauss = -s - float(0.5 * np.log(2.0 * np.pi)) - 0.5 * noise * noise
    correction = np.log(1.0 - action * action + TANH_EPS)
    log_prob = np.sum(gauss - correction, axis=-1)
    return action, log_prob


def writeback_adam_step(state: AdamState, params: MlpParams, grads: MlpParams) -> None:
    new_state, new_params = adam_step(state, params, grads)
    for dst, src in ((params, new_params), (state.m, new_state.m), (state.v, new_state.v)):
        for f in PARAM_FIELDS:
            getattr(dst, f)[...] = getattr(src, f)
    state.t = new_state.t


def writeback_soft_update(target: MlpParams, online: MlpParams, tau: float) -> None:
    new = soft_update(target, online, tau)
    for f in PARAM_FIELDS:
        getattr(target, f)[...] = getattr(new, f)


# ---------------------------------------------------------------------------
# The update round trainers.py shipped before target actors ran once per
# distinct replay row and before replay rows were stored in the critic's
# input layout: every agent draws as it goes, gathers each agent's five
# arrays separately, runs every target actor over its own batch, and builds
# each critic input with np.concatenate over the per-agent column blocks.
# update_all_trainers, target_q_calculation, critic_loss_and_grads,
# critic_update, actor_loss_and_grads, actor_update, _action_slot and the
# per-buffer collect_joint are copied verbatim, one indent deeper. The
# per-agent gather reads a joint buffer's next observations as the store
# keeps them today: row k's is row k + 1's observation, and the newest
# row's is the store's pending row. They sit
# inside a function so that their kernel names bind to the package's
# in-place kernels imported there, not to this module's allocating
# references of the same names (whose soft_update and adam_step return
# copies).
# ---------------------------------------------------------------------------

def per_batch_update_all_trainers():
    """Return the per-batch ``update_all_trainers``; seeded rounds through it
    and through the package must agree bit for bit."""
    from marlbench.nn import (
        HALF_LOG_2PI,
        mlp_backward,
        mlp_forward,
        soft_update,
        squashed_gaussian_sample,
    )
    from marlbench.profiler import Phase, phase_scope
    from marlbench.replay import BatchArrays, ReplayBuffer
    from marlbench.trainers import (
        ALGO_MADDPG,
        ALGO_MASAC,
        ENTROPY_ALPHA,
        GAMMA,
        TAU,
        NonFiniteLossError,
        _min_buffer_fill,
        adam_step,
        draw_batch_indices,
        target_y,
    )

    def gather(buf: ReplayBuffer, indices: np.ndarray) -> BatchArrays:
        next_obs = buf.obs[(indices + 1) % buf.capacity]
        next_obs[indices == (buf.cursor - 1) % buf.capacity] = buf.pending
        return BatchArrays(buf.obs[indices], buf.act[indices], buf.rew[indices],
                           next_obs, buf.done[indices])

    def collect_joint(buffers: list[ReplayBuffer], indices: np.ndarray) -> list:
        """Apply one index set to every agent's buffer, keeping rows time-aligned.

        All buffers must hold the same number of records; agents insert in
        lockstep so index k addresses the same environment step everywhere.
        """
        if not buffers:
            raise ValueError("collect_joint needs at least one buffer")
        lengths = {buf.size for buf in buffers}
        if len(lengths) != 1:
            raise ValueError(f"buffers misaligned, lengths {sorted(lengths)}")
        return [gather(buf, indices) for buf in buffers]

    def _action_slot(agents: list[AgentBundle], agent_i: int) -> slice:
        obs_total = sum(ag.obs_dim for ag in agents)
        start = obs_total + sum(ag.act_dim for ag in agents[:agent_i])
        return slice(start, start + agents[agent_i].act_dim)

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
        adam_step(ag.critic_opt, ag.critic, grads)
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
            noise = rng.standard_normal(mean.shape, mean.dtype)
        u = mean + np.exp(s) * noise
        a_i = np.tanh(u)
        one_m_a2 = 1.0 - a_i * a_i
        logp = np.sum(-s - HALF_LOG_2PI - 0.5 * noise * noise, axis=1)
        logp = logp - np.sum(np.log(one_m_a2 + TANH_EPS), axis=1)

        actions = list(actions)
        actions[agent_i] = a_i
        x = np.concatenate([jb.obses_t for jb in joint_batches] + actions, axis=1)
        q, cache_c = mlp_forward(ag.critic, x)
        alpha = ENTROPY_ALPHA
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
                noise = rng.standard_normal(mean.shape, mean.dtype)
                action, logp = squashed_gaussian_sample(mean, log_std, noise)
                next_actions.append(action)
                if j == agent_i:
                    logp_i = logp
        cols = [jb.obses_tp1 for jb in joint_batches] + next_actions
        x = np.concatenate(cols, axis=1)
        q, _ = mlp_forward(agents[agent_i].target_critic, x)
        q = q[:, 0]
        if cfg.algorithm == ALGO_MASAC:
            q = q - ENTROPY_ALPHA * logp_i
        return q

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
        adam_step(ag.actor_opt, ag.actor, grads)
        return loss

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
                    y = target_y(batches[i].rewards, batches[i].dones, q_next, GAMMA)
                with phase_scope(report, Phase.Q_LOSS):
                    q_loss = critic_update(agents, batches, i, y)
                with phase_scope(report, Phase.P_LOSS):
                    p_loss = actor_update(agents, batches, i, cfg, rng)
                losses.append((q_loss, p_loss))
            for ag in agents:
                soft_update(ag.target_actor, ag.actor, TAU)
                soft_update(ag.target_critic, ag.critic, TAU)
        return losses

    return update_all_trainers


# ---------------------------------------------------------------------------
# The rollout step trainers.py and envs.py shipped before a step drew its
# exploration noise once: every agent draws inside select_action, step
# builds the displacement array twice (once for the rewards, once for the
# observations), and each record is written field by field, as
# ReplayBuffer.add wrote a Transition (the next observation into the joint
# store's pending row, where add keeps it). select_action, compute_rewards,
# observations and step are copied verbatim, one indent deeper; the actor
# forward is this module's vector-promoting mlp_forward. The loop is
# run_training's without its profiler scopes.
# ---------------------------------------------------------------------------

def per_agent_rollout() -> SimpleNamespace:
    """Return the per-agent rollout's ``select_action``, ``step`` and the
    other copies, and ``train(cfg, env_cfg)``, which trains as run_training
    did and returns the agents and each episode's per-agent rewards. Seeded
    runs through these and through the package must agree bit for bit."""
    from marlbench import envs
    from marlbench.envs import (
        _ACTION_GAIN,
        _CHASE_SHAPING,
        _COLLISION_PENALTY,
        _DAMPING,
        _DT,
        _MAX_SPEED,
        _TAG_REWARD,
        ACT_DIM,
        _flee,
        _movable_count,
        _off_diagonal,
    )
    from marlbench.nn import squashed_gaussian_action
    from marlbench.profiler import ProfileReport
    from marlbench.trainers import (
        ALGO_MADDPG,
        EXPLORATION_SIGMA,
        make_agents,
        update_all_trainers,
    )

    logger = envs.logger

    def select_action(bundle, obs, cfg, rng, explore):
        """Map one observation to one clamped 2D action. The stochastic actor
        explores without forming a log-prob; a non-finite output raises
        ``FloatingPointError``."""
        out, _ = mlp_forward(bundle.actor, obs)
        a_dim = bundle.act_dim
        if cfg.algorithm == ALGO_MADDPG:
            action = np.tanh(out)
            if explore:
                action += rng.normal(0.0, EXPLORATION_SIGMA, size=a_dim).astype(out.dtype)
            return action.clip(-1.0, 1.0, out=action)
        if explore:
            # tanh already lies in [-1, 1]
            return squashed_gaussian_action(out, rng.standard_normal(a_dim, out.dtype))
        return np.tanh(out[:a_dim])

    def observations(state, cfg):
        n = cfg.n_learners
        n_mov = _movable_count(cfg)
        rel = state.pos - state.pos[:n, None]
        others = rel[:, :n_mov][_off_diagonal(n, n_mov)]
        return np.concatenate([
            state.vel[:n],
            state.pos[:n],
            rel[:, n_mov:].reshape(n, 2 * cfg.n_landmarks),
            others.reshape(n, 2 * (n_mov - 1)),
        ], axis=1)

    def compute_rewards(state, cfg):
        """Per-learner rewards evaluated on the post-integration state.

        Two entities overlap when their distance is strictly below their radius sum.
        """
        n = cfg.n_learners
        n_mov = _movable_count(cfg)
        rel = state.pos - state.pos[:n, None]
        dist = np.sqrt(np.add.reduce(rel * rel, axis=2))
        overlap = dist < state.radius[:n, None] + state.radius
        if cfg.scenario == SCENARIO_COOP_NAV:
            total = 0.0
            # one landmark at a time, in order, as a float sum is order-dependent
            for d in dist[:, n_mov:].min(axis=0).tolist():
                total -= d
            pairs = overlap[:, :n]
            np.fill_diagonal(pairs, False)
            total -= _COLLISION_PENALTY * int(np.count_nonzero(pairs))
            return np.full(n, total)
        if cfg.n_prey == 0:
            return np.zeros(n)
        tags = np.count_nonzero(overlap[:, n:n_mov], axis=1)
        nearest = dist[:, n:n_mov].min(axis=1)
        return _TAG_REWARD * tags - _CHASE_SHAPING * nearest

    def step(state, actions, cfg):
        """Advance the world one tick under the learners' joint action.

        Returns the mutated state, fresh observations, per-learner rewards and
        the time-limit done flag. An action component outside [-1, 1], ±inf
        included, is clamped with a warning; a NaN component raises
        ``ValueError`` naming the agent, before the state changes.
        """
        n = cfg.n_learners
        if len(actions) != n:
            raise ValueError(f"got {len(actions)} actions for {n} learners")
        try:
            acts = np.asarray(actions, dtype=np.float64)
        except ValueError:  # ragged or not numbers: the loop below raises
            acts = None
        if acts is None or acts.shape != (n, ACT_DIM):
            for i, a in enumerate(actions):
                a = np.asarray(a, dtype=np.float64)
                if a.shape != (ACT_DIM,):
                    raise ValueError(f"action {i} has shape {a.shape}, expected ({ACT_DIM},)")
        # one guard for the in-range case; NaN fails it too
        if not np.abs(acts).max() <= 1.0:
            nan_rows = np.flatnonzero(np.isnan(acts).any(axis=1))
            if nan_rows.size:
                raise ValueError(f"action {nan_rows[0]} holds NaN: {acts[nan_rows[0]]}")
            for i in np.flatnonzero((np.abs(acts) > 1.0).any(axis=1)):
                logger.warning("action %d outside [-1, 1], clamping: %s", i, acts[i])
            acts = acts.clip(-1.0, 1.0)
        n_mov = _movable_count(cfg)
        accel = np.empty((n_mov, 2))
        accel[:n] = _ACTION_GAIN * acts
        # reset puts the learners in rows [0, n) and the prey in [n, n_mov)
        for j in range(n, n_mov):
            accel[j] = _flee(state.pos[:n], state.pos[j])

        mov = slice(0, n_mov)
        vel = (1.0 - _DAMPING) * state.vel[mov] + accel * _DT
        # np.linalg.norm(vel, axis=1), spelled out
        speeds = np.sqrt(np.add.reduce(vel * vel, axis=1))
        over = speeds > _MAX_SPEED
        if over.any():
            vel[over] *= (_MAX_SPEED / speeds[over])[:, None]
        state.vel[mov] = vel
        state.pos[mov] += vel * _DT
        state.vel[n_mov:] = 0.0
        state.step_count += 1

        rewards = compute_rewards(state, cfg)
        done = state.step_count >= cfg.max_episode_length
        return state, observations(state, cfg), rewards, done

    def add(buf, obs, action, reward, next_obs, done):
        # ReplayBuffer.add's writes, from the Transition's fields
        i = buf.cursor
        buf.obs[i] = obs
        buf.act[i] = action
        buf.rew[i] = float(reward)
        buf.pending[:] = next_obs
        buf.done[i] = 1.0 if done else 0.0
        buf.cursor = (i + 1) % buf.capacity
        if buf.size < buf.capacity:
            buf.size += 1

    def train(cfg, env_cfg):
        rng = np.random.default_rng(cfg.seed)
        env_rng = np.random.default_rng(env_cfg.seed)
        agents = make_agents(env_cfg, cfg, rng)
        n = len(agents)
        report = ProfileReport(meta={"neighbor_fallbacks": 0})
        episode_rewards = []
        inserts = 0
        for _ in range(cfg.episodes):
            state, obs = envs.reset(env_cfg, env_rng)
            ep_rewards = np.zeros(n)
            done = False
            while not done:
                actions = [
                    select_action(agents[i], obs[i], cfg, rng, explore=True)
                    for i in range(n)
                ]
                state, next_obs, rewards, done = step(state, actions, env_cfg)
                for i in range(n):
                    add(agents[i].buffer, obs[i], actions[i], float(rewards[i]),
                        next_obs[i], done)
                inserts += 1
                ep_rewards += rewards
                obs = next_obs
                if inserts % cfg.update_every == 0:
                    update_all_trainers(agents, cfg, report, rng)
            episode_rewards.append([float(r) for r in ep_rewards])
        return agents, episode_rewards

    return SimpleNamespace(select_action=select_action, observations=observations,
                           compute_rewards=compute_rewards, step=step, train=train)


# ---------------------------------------------------------------------------
# The joint replay trainers.py shipped before each observation was stored
# once: JointReplay keeps a second array, next_x, with every step's next
# observations in x's columns, each agent's ReplayBuffer.add writes them
# there, collect_joint gathers x_tp1 from it, and _run_union reads each
# target actor's input from it. ReplayBuffer, JointReplay, joint_buffers,
# collect_joint and _run_union are copied verbatim, one indent deeper,
# inside a function so that _run_union's mlp_forward binds to the package's
# kernel, not to this module's allocating copy.
# ---------------------------------------------------------------------------

def two_array_replay() -> SimpleNamespace:
    """Return the two-array layout's ``joint_buffers``, ``collect_joint``
    and ``_run_union`` (and its ``ReplayBuffer`` and ``JointReplay``).
    Patched into ``marlbench.trainers``, a seeded run trains through them
    as it did before; it must agree with the package bit for bit."""
    from marlbench.nn import mlp_forward
    from marlbench.replay import JointBatch, _check_dims
    from marlbench.trainers import AgentBundle, TargetActorUnion

    class ReplayBuffer:
        """Fixed-capacity ring buffer over five parallel arrays.

        Once full, each insert overwrites the oldest slot. Insertion order is
        therefore also (wrapped) memory order, which neighbor sampling relies on.
        Built on its own, the buffer owns five C-contiguous arrays; built by
        ``joint_buffers`` as agent ``agent``'s part of a ``JointReplay``
        (``store`` set), they are column views of the store's arrays.
        """

        store: JointReplay | None = None
        agent = 0

        def __init__(self, capacity: int, obs_dim: int, act_dim: int):
            _check_dims(capacity, obs_dim, act_dim)
            self._bind(np.zeros((capacity, obs_dim)), np.zeros((capacity, act_dim)),
                       np.zeros(capacity), np.zeros((capacity, obs_dim)), np.zeros(capacity))

        @classmethod
        def _columns(cls, store: JointReplay, i: int) -> ReplayBuffer:
            """Agent i's columns of ``store``."""
            buf = cls.__new__(cls)
            buf.store, buf.agent = store, i
            obs, act = store.obs_cols[i], store.act_cols[i]
            buf._bind(store.x[:, obs], store.x[:, act], store.rew[:, i],
                      store.next_x[:, obs], store.done[:, i])
            return buf

        def _bind(self, obs, act, rew, next_obs, done) -> None:
            self.capacity, self.obs_dim = obs.shape
            self.act_dim = act.shape[1]
            self.obs, self.act, self.rew, self.next_obs, self.done = obs, act, rew, next_obs, done
            self.size = 0
            self.cursor = 0

        def __len__(self) -> int:
            return self.size

        def add(self, obs: np.ndarray, action: np.ndarray, reward: float,
                next_obs: np.ndarray, done: bool) -> None:
            """Write one step's record into the next slot, field by field; the
            rollout calls it once per agent per step. A wrong observation or
            action shape raises ``ValueError`` before anything is written."""
            dtype = self.obs.dtype
            obs = np.asarray(obs, dtype=dtype)
            action = np.asarray(action, dtype=dtype)
            next_obs = np.asarray(next_obs, dtype=dtype)
            if obs.shape != (self.obs_dim,) or next_obs.shape != (self.obs_dim,):
                raise ValueError(
                    f"observation shape {obs.shape}/{next_obs.shape}, expected ({self.obs_dim},)"
                )
            if action.shape != (self.act_dim,):
                raise ValueError(f"action shape {action.shape}, expected ({self.act_dim},)")
            i = self.cursor
            self.obs[i] = obs
            self.act[i] = action
            self.rew[i] = float(reward)
            self.next_obs[i] = next_obs
            self.done[i] = 1.0 if done else 0.0
            self.cursor = (i + 1) % self.capacity
            if self.size < self.capacity:
                self.size += 1

    class JointReplay:
        """One replay store for N agents, each row in the critic's input layout.

        ``x`` holds ``[obs_0..obs_{N-1} | act_0..act_{N-1}]`` per step and
        ``next_x`` the next observations in the same columns. ``next_x``'s
        action columns stay zero in the store: a gathered copy of them is where
        target-Q writes the next actions. ``rew`` and ``done`` hold one column
        per agent. Only this class knows the column layout.

        The buffers refer to the store and the store not to them, so a run's
        replay is freed with its agents. A reference cycle would keep it until
        the cyclic garbage collector runs, and a later training cell in the same
        process would then run with glibc's malloc thresholds unraised and
        refault its update rounds' temporaries every round.
        """

        def __init__(self, capacity: int, obs_dims: list[int], act_dims: list[int]):
            if not obs_dims or len(obs_dims) != len(act_dims):
                raise ValueError(f"need one obs and act dim per agent, got {obs_dims}/{act_dims}")
            _check_dims(capacity, *obs_dims, *act_dims)
            n = len(obs_dims)
            bounds = np.cumsum([0, *obs_dims, *act_dims]).tolist()
            cols = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
            self.obs_cols, self.act_cols = cols[:n], cols[n:]
            self.x = np.zeros((capacity, bounds[-1]), DTYPE)
            self.next_x = np.zeros((capacity, bounds[-1]), DTYPE)
            self.rew = np.zeros((capacity, n), DTYPE)
            self.done = np.zeros((capacity, n), DTYPE)

    def joint_buffers(capacity: int, obs_dims: list[int], act_dims: list[int]) -> list[ReplayBuffer]:
        """One ``ReplayBuffer`` per agent over a new ``JointReplay``, in agent order."""
        store = JointReplay(capacity, obs_dims, act_dims)
        return [ReplayBuffer._columns(store, i) for i in range(len(obs_dims))]

    def collect_joint(
        buffers: list[ReplayBuffer],
        indices: np.ndarray,
        out: JointBatch | None = None,
    ) -> JointBatch:
        """Gather the joint rows at the given indices for every agent at once.

        ``buffers`` must be all of one ``joint_buffers`` list, in agent order,
        and hold the same number of records; agents insert in lockstep so index
        k addresses the same environment step everywhere. Each store array is
        gathered once, into ``out``'s arrays when given (and ``out`` returned),
        else into new ones.
        """
        if not buffers:
            raise ValueError("collect_joint needs at least one buffer")
        lengths = {buf.size for buf in buffers}
        if len(lengths) != 1:
            raise ValueError(f"buffers misaligned, lengths {sorted(lengths)}")
        store = buffers[0].store
        if store is None or len(buffers) != len(store.obs_cols) or any(
                buf.store is not store or buf.agent != i for i, buf in enumerate(buffers)):
            raise ValueError("collect_joint needs every buffer of one JointReplay, in agent order")
        (length,) = lengths
        if length == 0:
            raise ValueError("cannot gather from an empty buffer")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= length):
            raise IndexError(f"index outside filled range [0, {length})")
        sources = (store.x, store.next_x, store.rew, store.done)
        if out is None:
            out = JointBatch(*(np.empty((indices.size, a.shape[1]), a.dtype) for a in sources),
                             store.obs_cols, store.act_cols)
        # the indices are checked above, so "clip" changes none of them; unlike
        # the default "raise", it gathers straight into out without a buffer
        for src, dst in zip(sources, (out.x, out.x_tp1, out.rew, out.done)):
            np.take(src, indices, axis=0, out=dst, mode="clip")
        return out

    def _run_union(agents: list[AgentBundle], union: TargetActorUnion, b: int,
                   ws=None) -> None:
        """Run each target actor over ``union.rows`` in blocks of exactly b rows.

        A row's output bits do not depend on its position within a forward,
        but with OpenBLAS they can depend on the forward's row count, so every
        forward keeps the batch's b rows and the last block is padded.
        """
        for ag, out in zip(agents, union.outs):
            x = ag.buffer.next_obs[union.rows]
            for k in range(0, x.shape[0], b):
                out[k:k + b] = mlp_forward(ag.target_actor, x[k:k + b])[0]

    return SimpleNamespace(ReplayBuffer=ReplayBuffer, JointReplay=JointReplay,
                           joint_buffers=joint_buffers, collect_joint=collect_joint,
                           _run_union=_run_union)
