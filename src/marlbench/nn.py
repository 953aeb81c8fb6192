"""Dense-network kernel: two-hidden-layer MLPs with hand-rolled backprop.

Everything here is pure numpy in double precision. Parameters, their
gradients and the Adam moments share one dataclass of arrays, so they can
be copied, serialized and finite-difference-checked without framework
machinery. The backward pass forms only what its caller reads: the
parameter gradients, the input gradient, or a column slice of it, so a
policy step that needs one agent's action slot of a wide critic input
skips the rest.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# Bounds applied to the log-std head of stochastic actors.
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Stabilizer inside the tanh change-of-variables term of squashed log-probs.
TANH_EPS = 1e-6

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")

_BLOB_MAGIC = b"MLPB"
_BLOB_VERSION = 1


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
    squeeze: bool


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


def param_count(params: MlpParams) -> int:
    return sum(a.size for a in params.arrays())


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"{what} has length {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != dim:
            raise ValueError(f"{what} has width {x.shape[1]}, expected {dim}")
        return x, False
    raise ValueError(f"{what} must be 1-D or 2-D, got ndim={x.ndim}")


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one input vector or a batch of rows.

    Args:
        params: network weights.
        x: input of shape (in,) or (batch, in).

    Returns:
        Tuple of (output, cache). Output has shape (out,) for vector input
        and (batch, out) for batched input. The cache feeds ``mlp_backward``.
    """
    xb, squeeze = _as_batch(x, params.in_dim, "input")
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
    g, _ = _as_batch(upstream, params.out_dim, "upstream")
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


def init_adam(params: MlpParams, lr: float) -> AdamState:
    if not np.isfinite(lr) or lr <= 0.0:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    return AdamState(m=zeros_like_grads(params), v=zeros_like_grads(params), t=0, lr=lr)


def adam_step(
    state: AdamState,
    params: MlpParams,
    grads: MlpParams,
) -> tuple[AdamState, MlpParams]:
    """Apply one Adam update. Pure: returns fresh state and parameters."""
    new_m, new_v, new_p = [], [], []
    t = state.t + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient passed to adam_step")
        m2 = state.beta1 * m + (1.0 - state.beta1) * g
        v2 = state.beta2 * v + (1.0 - state.beta2) * g * g
        step = state.lr * (m2 / bc1) / (np.sqrt(v2 / bc2) + state.eps)
        new_m.append(m2)
        new_v.append(v2)
        new_p.append(p - step)
    next_state = AdamState(
        m=MlpParams(*new_m),
        v=MlpParams(*new_v),
        t=t,
        lr=state.lr,
        beta1=state.beta1,
        beta2=state.beta2,
        eps=state.eps,
    )
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
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mean.shape != log_std.shape or mean.shape != noise.shape:
        raise ValueError(
            f"mean/log_std/noise shapes differ: {mean.shape} {log_std.shape} {noise.shape}"
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(log_std)) and np.all(np.isfinite(noise))):
        raise FloatingPointError("non-finite input to squashed_gaussian_sample")
    s = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    u = mean + np.exp(s) * noise
    action = np.tanh(u)
    gauss = -s - 0.5 * np.log(2.0 * np.pi) - 0.5 * noise * noise
    correction = np.log(1.0 - action * action + TANH_EPS)
    log_prob = np.sum(gauss - correction, axis=-1)
    return action, log_prob


def params_to_bytes(params: MlpParams) -> bytes:
    """Serialize to a little-endian blob: magic, version, dims, then raw float64 data."""
    header = _BLOB_MAGIC + struct.pack(
        "<HIII", _BLOB_VERSION, params.in_dim, params.hidden_dim, params.out_dim
    )
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays())
    return header + body


def params_from_bytes(blob: bytes) -> MlpParams:
    """Decode a blob produced by ``params_to_bytes``, validating header and length."""
    head_len = len(_BLOB_MAGIC) + struct.calcsize("<HIII")
    if len(blob) < head_len:
        raise ValueError(f"blob too short: {len(blob)} bytes")
    if blob[: len(_BLOB_MAGIC)] != _BLOB_MAGIC:
        raise ValueError("bad magic in parameter blob")
    version, in_dim, hidden, out_dim = struct.unpack(
        "<HIII", blob[len(_BLOB_MAGIC) : head_len]
    )
    if version != _BLOB_VERSION:
        raise ValueError(f"unsupported blob version {version}")
    shapes = [
        (hidden, in_dim),
        (hidden,),
        (hidden, hidden),
        (hidden,),
        (out_dim, hidden),
        (out_dim,),
    ]
    expected = head_len + 8 * sum(int(np.prod(s)) for s in shapes)
    if len(blob) != expected:
        raise ValueError(f"blob length {len(blob)} does not match header, expected {expected}")
    offset = head_len
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += 8 * count
    return MlpParams(*arrays)
