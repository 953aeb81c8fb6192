"""Dense-network kernel: two-hidden-layer MLPs with hand-rolled backprop.

Everything here is numpy in double precision. Parameters, their
gradients and the Adam moments share one dataclass of arrays, so they can
be copied and finite-difference-checked without framework machinery, and
saved as plain named arrays (``trainers.save_checkpoint`` writes one
``.npz``). The backward pass forms only what its caller reads: the
parameter gradients, the input gradient, or a column slice of it, so a
policy step that needs one agent's action slot of a wide critic input
skips the rest.

Each value is computed once and written into an array the kernel already
owns: biases and ReLU masks go onto fresh matmul outputs, and
``adam_step`` and ``soft_update`` update parameters, moments and targets
in place. Every kernel evaluates its formula in the order written, so
forming a value in place gives the same bits as forming it fresh;
``tests/oracles.py`` keeps allocating copies that seeded runs are checked
against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bounds applied to the log-std head of stochastic actors.
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Stabilizer inside the tanh change-of-variables term of squashed log-probs.
TANH_EPS = 1e-6

# Gaussian log-density constant, log(2*pi)/2.
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class MlpParams:
    """Weights and biases of a 3-layer MLP (two ReLU hidden layers, linear out)."""

    w1: np.ndarray  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, hidden)
    b2: np.ndarray  # (hidden,)
    w3: np.ndarray  # (out, hidden)
    b3: np.ndarray  # (out,)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w3.shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(*(getattr(self, f).copy() for f in _FIELDS))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f) for f in _FIELDS)


@dataclass
class ForwardCache:
    """Intermediate activations saved by the forward pass for backprop."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray


@dataclass
class AdamState:
    """Per-network Adam accumulators. ``t`` counts completed steps."""

    m: MlpParams
    v: MlpParams
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_mlp_params(
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden: int = 64,
) -> MlpParams:
    """Initialize weights and biases uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if in_dim < 1 or out_dim < 1 or hidden < 1:
        raise ValueError(f"invalid mlp dims in={in_dim} hidden={hidden} out={out_dim}")

    def layer(fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        return w, b

    w1, b1 = layer(in_dim, hidden)
    w2, b2 = layer(hidden, hidden)
    w3, b3 = layer(hidden, out_dim)
    return MlpParams(w1, b1, w2, b2, w3, b3)


def zeros_like_grads(params: MlpParams) -> MlpParams:
    return MlpParams(*(np.zeros_like(a) for a in params.arrays()))


def _checked(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    """``x`` as float64, checked to be one vector of length dim or rows of width dim."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected ({dim},) or (batch, {dim})")
    return x


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one input vector or a batch of rows.

    Both ranks take the one path: each layer is ``x @ w.T`` on the input as
    given. A vector's output and cached activations have the bits of the
    same input as a one-row batch, which ``tests/test_nn.py`` checks.

    Args:
        params: network weights.
        x: input of shape (in,) or (batch, in).

    Returns:
        Tuple of (output, cache). Output has shape (out,) for vector input
        and (batch, out) for batched input. The cache feeds ``mlp_backward``.
    """
    x = _checked(x, params.in_dim, "input")
    z1 = x @ params.w1.T
    z1 += params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2.T
    z2 += params.b2
    a2 = np.maximum(z2, 0.0)
    y = a2 @ params.w3.T
    y += params.b3
    return y, ForwardCache(x, z1, a1, z2, a2)


def mlp_backward(
    params: MlpParams,
    cache: ForwardCache,
    upstream: np.ndarray,
    *,
    param_grads: bool = True,
    input_cols: slice | None = slice(None),
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
    g = _checked(upstream, params.out_dim, "upstream").reshape(-1, params.out_dim)
    squeeze = cache.x.ndim == 1
    # a vector forward backpropagates as a one-row batch
    x, z1, a1, z2, a2 = (a[None] if squeeze else a for a in vars(cache).values())
    if g.shape[0] != x.shape[0]:
        raise ValueError(f"upstream batch {g.shape[0]} does not match cached batch {x.shape[0]}")
    dz2 = g @ params.w3
    dz2 *= z2 > 0.0
    dz1 = dz2 @ params.w2
    dz1 *= z1 > 0.0
    grads = dx = None
    if param_grads:
        grads = MlpParams(
            dz1.T @ x, dz1.sum(axis=0),
            dz2.T @ a1, dz2.sum(axis=0),
            g.T @ a2, g.sum(axis=0),
        )
    if input_cols is not None:
        # with OpenBLAS at batch > 1, this transposed form gives a column
        # subset the same bits as those columns of the full product, so
        # seeded runs do not move; dz1 @ w1[:, cols] differs in the last bits
        dx = (params.w1[:, input_cols].T @ dz1.T).T
        if squeeze:
            dx = dx[0]
    return grads, dx


def init_adam(params: MlpParams, lr: float) -> AdamState:
    if not np.isfinite(lr) or lr <= 0.0:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    return AdamState(m=zeros_like_grads(params), v=zeros_like_grads(params), t=0, lr=lr)


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams) -> None:
    """Apply one Adam update in place to ``params``, ``state.m`` and
    ``state.v``, and advance ``state.t``.

    Every gradient is checked before the first write, so a rejected step
    leaves the parameters and the state bit-unchanged.
    """
    for p, g in zip(params.arrays(), grads.arrays()):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient passed to adam_step")
    b1, b2 = state.beta1, state.beta2
    t = state.t + 1
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()):
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in place and in this
        # order: any other order can change the last bits of seeded runs
        tmp = (1.0 - b1) * g
        m *= b1
        m += tmp
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step = m / bc1
        step *= state.lr
        step /= tmp
        p -= step
    state.t = t


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> None:
    """Polyak-average online weights into the target in place:
    target = tau*online + (1-tau)*target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    pairs = list(zip(target.arrays(), online.arrays()))
    for t_arr, o_arr in pairs:
        if t_arr.shape != o_arr.shape:
            raise ValueError(
                f"target shape {t_arr.shape} does not match online shape {o_arr.shape}"
            )
    for t_arr, o_arr in pairs:
        part = tau * o_arr  # formed first, in case target is online
        t_arr *= 1.0 - tau
        t_arr += part


def _squash(mean: np.ndarray, log_std: np.ndarray, noise: np.ndarray) -> tuple:
    """The clamped log-std s, the pre-squash sample u = mean + exp(s) * noise
    and the action tanh(u)."""
    s = log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    u = mean + np.exp(s) * noise
    return s, u, np.tanh(u)


def _log_prob_terms(s: np.ndarray, noise: np.ndarray, action: np.ndarray) -> tuple:
    """Per dimension: the pre-squash Gaussian log-density, 1 - action² and the
    tanh correction log(1 - action² + TANH_EPS). Callers sum them in their own order."""
    one_m_a2 = 1.0 - action * action
    return -s - HALF_LOG_2PI - 0.5 * noise * noise, one_m_a2, np.log(one_m_a2 + TANH_EPS)


def squashed_gaussian_action(head: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``squashed_gaussian_sample(mean, log_std, noise)[0]``, bit for bit and
    rejecting the same inputs, without the log-prob. ``head`` is a stochastic
    actor's output, shape (2d,) or (batch, 2d): the mean, then the log-std."""
    if not (np.isfinite(head).all() and np.isfinite(noise).all()):
        raise FloatingPointError("non-finite input to squashed_gaussian_action")
    d = noise.shape[-1]
    return _squash(head[..., :d], head[..., d:], noise)[2]


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
        Tuple of (action, log_prob). Actions lie in [-1, 1]; tanh rounds
        to exactly ±1 once the pre-squash sample passes about ±19.
        log_prob is the density of the squashed action: per-dimension
        Gaussian log-density of the pre-squash sample minus the tanh
        change-of-variables correction, summed over action dimensions.
        Scalar for vector input, shape (batch,) for batched input.
    """
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mean.shape != log_std.shape or mean.shape != noise.shape:
        raise ValueError(
            f"mean/log_std/noise shapes differ: {mean.shape} {log_std.shape} {noise.shape}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(log_std).all() and np.isfinite(noise).all()):
        raise FloatingPointError("non-finite input to squashed_gaussian_sample")
    s, _, action = _squash(mean, log_std, noise)
    gauss, _, correction = _log_prob_terms(s, noise, action)
    return action, np.add.reduce(gauss - correction, axis=-1)
