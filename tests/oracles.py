"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written in the most literal style
possible (scalar loops, direct formula evaluation) and must stay decoupled
from the vectorized kernels in the package, so that agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np

from marlbench.nn import MlpParams


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
