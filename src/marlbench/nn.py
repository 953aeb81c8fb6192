"""Dense-network kernel: two-hidden-layer MLPs with hand-rolled backprop.

Everything here is numpy, computed in the dtype of the parameters a
kernel is given: training runs in single precision (``replay.DTYPE``),
and the finite-difference checks build double-precision networks, which
run in double precision throughout. Parameters, their gradients and the
Adam moments share one dataclass of arrays, so they can be copied and
finite-difference-checked without framework machinery, and saved as plain
named arrays (``trainers.save_checkpoint`` writes one ``.npz``). The
backward pass forms only what its caller reads: the parameter gradients,
the input gradient, or a column slice of it, so a policy step that needs
one agent's action slot of a wide critic input skips the rest.

Each value is computed once and written into an array the kernel already
owns: matmuls write into a ``Workspace``'s arrays when given one, else
into fresh ones, biases and ReLU masks go onto those outputs, and
``adam_step`` and ``soft_update`` update parameters, moments and targets
in place. Every kernel evaluates its formula in the order written, so
forming a value in place gives the same bits as forming it fresh;
``tests/oracles.py`` keeps allocating copies that seeded runs are checked
against.

``one_blas_thread`` runs numpy's BLAS on one thread; training runs inside it.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bounds applied to the log-std head of stochastic actors.
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Stabilizer inside the tanh change-of-variables term of squashed log-probs.
TANH_EPS = 1e-6

# Adam's step size and moment settings: MADDPG's published lr and Adam's
# own defaults, the one setting the package trains at.
ADAM_LR = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Gaussian log-density constant, log(2*pi)/2; a Python float, so it keeps a
# float32 expression in float32 where a numpy float64 scalar would promote it.
HALF_LOG_2PI = float(0.5 * np.log(2.0 * np.pi))

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _float32_constant(value: float) -> np.ndarray:
    """``value``, exact in float32, as a read-only 0-d float32 array.

    The hot elementwise calls take their constants so: a Python float
    operand sends a float32 array down numpy's weak-scalar promotion, which
    made a ReLU or a clip on a rollout's vector 0.2-0.5 µs slower than in
    float64, while a 0-d array does not, and promotes exactly for a
    float64 operand.
    """
    const = np.array(value, np.float32)
    if const != value:
        raise ValueError(f"{value} is not exact in float32")
    const.flags.writeable = False
    return const


_ZERO = _float32_constant(0.0)
_LOG_STD_BOUNDS = (_float32_constant(LOG_STD_MIN), _float32_constant(LOG_STD_MAX))
_UNIT_BOUNDS = (_float32_constant(-1.0), _float32_constant(1.0))


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

    @property
    def dtype(self) -> np.dtype:
        return self.w1.dtype

    def copy(self) -> "MlpParams":
        return MlpParams(*(getattr(self, f).copy() for f in _FIELDS))

    def astype(self, dtype) -> "MlpParams":
        """A copy with every array cast to ``dtype``."""
        return MlpParams(*(getattr(self, f).astype(dtype) for f in _FIELDS))

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


class Workspace:
    """Arrays that ``mlp_forward`` writes its hidden activations into, and
    ``mlp_backward`` its hidden deltas, instead of allotting them, kept from
    call to call: one per (name, shape, dtype), made on first use. So a
    cache made with a workspace holds its values only until the next
    forward into the same workspace, and two caches alive at once need two
    workspaces. A backward's deltas have names of their own, so it may use
    its forward's workspace.

    Freed at once, a round's activations return to the top of glibc's heap,
    and until the allocator's trim threshold has risen (a process's first
    training cell) each round gave them back to the kernel and refaulted
    them: about 5,200 minor faults a predator-prey maddpg N=3 round, which
    took 15.7 ms against 8.8 ms in a second cell.
    """

    def __init__(self):
        self._arrays: dict[tuple, np.ndarray] = {}

    def take(self, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
        key = (name, shape, dtype)
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = np.empty(shape, dtype)
        return arr


@dataclass
class AdamState:
    """Per-network Adam moments; ``t`` counts completed steps (settings: ``ADAM_*``)."""

    m: MlpParams
    v: MlpParams
    t: int


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


def _checked(x: np.ndarray, dim: int, what: str, dtype: np.dtype) -> np.ndarray:
    """``x`` as ``dtype``, the dtype of the parameters it meets, checked to be
    one vector of length dim or rows of width dim. An input already in
    ``dtype`` is returned as it is, not copied."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected ({dim},) or (batch, {dim})")
    return x


def _hidden(ws: Workspace, names: tuple, rows: tuple, params: MlpParams) -> list:
    """``ws``'s arrays for each of ``names``, shaped rows + (hidden,), in the
    parameters' dtype."""
    shape = rows + (params.hidden_dim,)
    return [ws.take(name, shape, params.dtype) for name in names]


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one input vector or a batch of rows.

    Both ranks take the one path: each layer is ``x @ w.T`` on the input as
    given. A vector's output and cached activations have the bits of the
    same input as a one-row batch, which ``tests/test_nn.py`` checks.

    Args:
        params: network weights.
        x: input of shape (in,) or (batch, in).
        ws: when given, the hidden activations are written into ``ws``'s
            arrays (``Workspace``), with the same bits.

    Returns:
        Tuple of (output, cache). Output has shape (out,) for vector input
        and (batch, out) for batched input, and is a new array. The cache
        feeds ``mlp_backward``.
    """
    x = _checked(x, params.in_dim, "input", params.dtype)
    if ws is None:
        # operators, not out=None: the keyword costs about 70 ns a call,
        # and every rollout action takes this path
        z1 = x @ params.w1.T
        z1 += params.b1
        a1 = np.maximum(z1, _ZERO)
        z2 = a1 @ params.w2.T
        z2 += params.b2
        a2 = np.maximum(z2, _ZERO)
    else:
        z1, a1, z2, a2 = _hidden(ws, ("z1", "a1", "z2", "a2"), x.shape[:-1], params)
        np.matmul(x, params.w1.T, out=z1)
        z1 += params.b1
        np.maximum(z1, _ZERO, out=a1)
        np.matmul(a1, params.w2.T, out=z2)
        z2 += params.b2
        np.maximum(z2, _ZERO, out=a2)
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
    ws: Workspace | None = None,
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
        ws: when given, the hidden layers' deltas, which no caller sees,
            are written into ``ws``'s arrays; the gradients are new arrays.

    Returns:
        Tuple of (parameter gradients summed over the batch, gradient with
        respect to the input columns ``input_cols``, shaped like the
        forward input with only those columns kept).
    """
    g = _checked(upstream, params.out_dim, "upstream", params.dtype).reshape(-1, params.out_dim)
    squeeze = cache.x.ndim == 1
    # a vector forward backpropagates as a one-row batch
    x, z1, a1, z2, a2 = (a[None] if squeeze else a for a in vars(cache).values())
    if g.shape[0] != x.shape[0]:
        raise ValueError(f"upstream batch {g.shape[0]} does not match cached batch {x.shape[0]}")
    dz2 = dz1 = None
    if ws is not None:
        dz2, dz1 = _hidden(ws, ("dz2", "dz1"), g.shape[:1], params)
    dz2 = np.matmul(g, params.w3, out=dz2)
    dz2 *= z2 > 0.0
    dz1 = np.matmul(dz2, params.w2, out=dz1)
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


def init_adam(params: MlpParams) -> AdamState:
    """Zero moments shaped and typed like ``params``, before the first step."""
    return AdamState(m=zeros_like_grads(params), v=zeros_like_grads(params), t=0)


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams) -> None:
    """Apply one Adam update in place to ``params``, ``state.m`` and
    ``state.v``, and advance ``state.t``, in the parameters' dtype.

    Every gradient is checked to match its parameter's shape and dtype, and
    to be finite, before the first write, so a rejected step leaves the
    parameters and the state bit-unchanged.
    """
    for p, g in zip(params.arrays(), grads.arrays()):
        if g.shape != p.shape or g.dtype != p.dtype:
            raise ValueError(f"gradient shape {g.shape} ({g.dtype}) does not match "
                             f"parameter shape {p.shape} ({p.dtype})")
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient passed to adam_step")
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()):
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in place and in this
        # order: any other order can change the last bits of seeded runs
        tmp = (1.0 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += tmp
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = m / bc1
        step *= ADAM_LR
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
        if t_arr.shape != o_arr.shape or t_arr.dtype != o_arr.dtype:
            raise ValueError(
                f"target shape {t_arr.shape} ({t_arr.dtype}) does not match online "
                f"shape {o_arr.shape} ({o_arr.dtype})"
            )
    for t_arr, o_arr in pairs:
        part = tau * o_arr  # formed first, in case target is online
        t_arr *= 1.0 - tau
        t_arr += part


def _squash(mean: np.ndarray, log_std: np.ndarray, noise: np.ndarray) -> tuple:
    """The clamped log-std s, the pre-squash sample u = mean + exp(s) * noise
    and the action tanh(u)."""
    s = log_std.clip(*_LOG_STD_BOUNDS)
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
    actor's output, shape (2d,) or (batch, 2d): the mean, then the log-std.
    The action is computed in ``head``'s dtype."""
    noise = np.asarray(noise, dtype=head.dtype)
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
        Tuple of (action, log_prob), computed in ``mean``'s dtype (float64
        for integer input). Actions lie in [-1, 1]; tanh rounds to exactly
        ±1 once the pre-squash sample passes about ±10 in float32 and ±19
        in float64, where the tanh correction is log(TANH_EPS).
        log_prob is the density of the squashed action: per-dimension
        Gaussian log-density of the pre-squash sample minus the tanh
        change-of-variables correction, summed over action dimensions.
        Scalar for vector input, shape (batch,) for batched input.
    """
    mean = np.asarray(mean)
    dtype = np.result_type(mean, np.float32)
    mean = mean.astype(dtype, copy=False)
    log_std = np.asarray(log_std, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)
    if mean.shape != log_std.shape or mean.shape != noise.shape:
        raise ValueError(
            f"mean/log_std/noise shapes differ: {mean.shape} {log_std.shape} {noise.shape}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(log_std).all() and np.isfinite(noise).all()):
        raise FloatingPointError("non-finite input to squashed_gaussian_sample")
    s, _, action = _squash(mean, log_std, noise)
    gauss, _, correction = _log_prob_terms(s, noise, action)
    return action, np.add.reduce(gauss - correction, axis=-1)


# The thread-count functions of the OpenBLAS builds numpy's wheels bundle:
# scipy-openblas (numpy 2) and the older openblas64_.
_OPENBLAS_THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_")


@functools.cache
def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS that numpy
    bundles, or None when none is found."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        lib = ctypes.CDLL(str(path))
        for pattern in _OPENBLAS_THREAD_FUNCTIONS:
            setter = getattr(lib, pattern.format("set"), None)
            getter = getattr(lib, pattern.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def one_blas_thread():
    """Run numpy's BLAS on one thread inside the block and restore its thread
    count after. Yields the count in use, 1, or None when numpy's OpenBLAS
    is not found, and then changes nothing.

    On one thread a matmul's bits do not depend on the host's core count,
    and no worker thread has to be woken: on a 2-vCPU host the first
    threaded matmuls of some processes took about 8 ms a call, against
    25-45 µs, for about a second.
    """
    threads = _openblas_threads()
    if threads is None:
        yield None
        return
    set_threads, get_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(before)
