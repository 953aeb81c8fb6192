"""Experience replay: ring-buffer storage and batch index strategies.

The agents of one run share a ``JointReplay``: every step is stored as one
row in the centralized critic's input layout,
``[obs_0..obs_{N-1} | act_0..act_{N-1}]``, and each observation is stored
once: a row's next observation is the following row's observation. Each
agent's ``ReplayBuffer`` is a set of column views into that store, so rows
are still written once per agent per step, and a joint batch is a row
gather per store array whose rows are already critic inputs. The store
is of ``DTYPE``, the training precision, which the networks follow
(``trainers``). A ``ReplayBuffer`` built on its own keeps five contiguous
float64 arrays.

Two index strategies are provided: independent uniform draws, and windowed
neighbor sampling that expands a handful of anchor indices into contiguous
index runs, which keeps most of the gather sequential in memory. A window
clamped at a buffer edge is expanded like an interior one and then masked to
the filled range, so a draw is a few numpy calls whatever the anchors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The training precision: every array of a ``JointReplay``, and so the rows
# the networks train on. ``trainers`` builds every network in it too.
DTYPE = np.float32


class InsufficientDataError(ValueError):
    """Raised when neighbor sampling cannot assemble a full batch."""


@dataclass
class BatchArrays:
    """One sampled mini-batch: five aligned arrays of equal length."""

    obses_t: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    obses_tp1: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return self.obses_t.shape[0]


class JointBatch:
    """One mini-batch of joint rows, gathered from a ``JointReplay``.

    ``x`` is the critic input at the sampled steps; ``x_tp1`` holds the
    next observations in the same layout, its action columns free for the
    next actions (until target-Q writes them they hold the following
    steps' sampled actions); ``rew`` and ``done`` hold one column per agent.
    ``obs_cols[i]`` and ``act_cols[i]`` are agent i's column slices.
    Indexing or iterating yields each agent's ``BatchArrays``, made of views
    into these arrays, so they follow the arrays when ``collect_joint``
    gathers into them again.
    """

    def __init__(self, x, x_tp1, rew, done, obs_cols, act_cols):
        self.x, self.x_tp1, self.rew, self.done = x, x_tp1, rew, done
        self.obs_cols, self.act_cols = obs_cols, act_cols
        self.agents = [
            BatchArrays(x[:, obs], x[:, act], rew[:, i], x_tp1[:, obs], done[:, i])
            for i, (obs, act) in enumerate(zip(obs_cols, act_cols))
        ]

    def __len__(self) -> int:
        return len(self.agents)

    def __getitem__(self, i: int) -> BatchArrays:
        return self.agents[i]

    def __iter__(self):
        return iter(self.agents)


class ReplayBuffer:
    """Fixed-capacity ring buffer over five parallel arrays.

    Once full, each insert overwrites the oldest slot. Insertion order is
    therefore also (wrapped) memory order, which neighbor sampling relies on.
    Built on its own, the buffer owns five C-contiguous float64 arrays.
    Built by ``joint_buffers`` as agent ``agent``'s part of a
    ``JointReplay`` (``store`` set), ``obs``, ``act``, ``rew`` and ``done``
    are column views of the store's arrays, ``pending`` is its columns of
    the store's pending row, and ``next_obs`` is None: a step's next
    observation is the following row's ``obs``.
    """

    store: JointReplay | None = None
    agent = 0
    pending: np.ndarray | None = None

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
        buf._bind(store.x[:, obs], store.x[:, act], store.rew[:, i], None, store.done[:, i])
        buf.pending = store.pending[obs]
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
        rollout calls it once per agent per step, with rows already in the
        buffer's dtype, which are written without a copy. A wrong observation
        or action shape raises ``ValueError`` before anything is written.

        A joint buffer keeps ``next_obs`` in its pending columns until the
        next step's ``obs`` takes its place, so after a non-terminal step an
        ``obs`` that differs from it byte for byte raises ``ValueError``
        before anything is written. A terminal row's next observation
        becomes the next episode's first; any finite one will do, since
        ``target_y`` zeroes it while every ``done`` is the time limit.
        Bootstrapping on time limits, or non-consecutive adds, would break
        that.
        """
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
        pending = self.pending
        # tobytes equality costs a fraction of np.array_equal on one row,
        # and only an episode's first step reads the previous done
        if (pending is not None and self.size and obs.tobytes() != pending.tobytes()
                and not self.done[i - 1]):
            raise ValueError(
                f"agent {self.agent}: obs differs from the previous step's next observation, "
                "and a joint buffer stores each observation once"
            )
        self.obs[i] = obs
        self.act[i] = action
        self.rew[i] = float(reward)
        if pending is None:
            self.next_obs[i] = next_obs
        else:
            pending[...] = next_obs
        self.done[i] = 1.0 if done else 0.0
        self.cursor = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1


def _check_dims(capacity: int, *dims: int) -> None:
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if min(dims) < 1:
        raise ValueError(f"invalid dims {dims}")


class JointReplay:
    """One replay store for N agents, each row in the critic's input layout.

    ``x`` holds ``[obs_0..obs_{N-1} | act_0..act_{N-1}]`` per step; ``rew``
    and ``done`` hold one column per agent. Only this class knows the column
    layout. Every array is of ``DTYPE``.

    Each observation is stored once. The next observation of row k is the
    observation columns of row ``(k + 1) % capacity``, except at the newest
    row, whose successor is not written yet: its next observation waits in
    ``pending``, one row of the same layout. ``collect_joint`` and
    ``next_observations`` read them so. A terminal row's next observation
    thus becomes the next episode's first. Any finite one will do, since
    every ``done`` is the time limit and ``target_y`` multiplies a terminal
    row's next value by zero. Bootstrapping on time limits, or adds that are
    not consecutive steps (``ReplayBuffer.add`` refuses them), would break
    that.

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
        self.pending = np.zeros(bounds[-1], DTYPE)
        self.rew = np.zeros((capacity, n), DTYPE)
        self.done = np.zeros((capacity, n), DTYPE)


def joint_buffers(capacity: int, obs_dims: list[int], act_dims: list[int]) -> list[ReplayBuffer]:
    """One ``ReplayBuffer`` per agent over a new ``JointReplay``, in agent order."""
    store = JointReplay(capacity, obs_dims, act_dims)
    return [ReplayBuffer._columns(store, i) for i in range(len(obs_dims))]


def make_index_uniform(rng: np.random.Generator, k: int, length: int) -> np.ndarray:
    """Draw k indices uniformly with replacement from [0, length)."""
    if length < 1:
        raise ValueError("cannot sample from an empty buffer")
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    return rng.integers(0, length, size=k, dtype=np.int64)


_OFFSETS_CACHE: dict[int, np.ndarray] = {}


def _offsets(n: int) -> np.ndarray:
    offs = _OFFSETS_CACHE.get(n)
    if offs is None:
        offs = np.concatenate([np.arange(-n, 0, dtype=np.int64),
                               np.arange(1, n + 1, dtype=np.int64)])
        _OFFSETS_CACHE[n] = offs
    return offs


def neighbor_indices(anchors: np.ndarray, length: int, n: int, b: int) -> np.ndarray:
    """Expand anchors into the raw (pre-truncation) neighbor index sequence.

    Each anchor i contributes its window: the ascending indices within
    distance n of i, excluding i itself, clamped to [0, length), so anchors
    near either edge yield shorter windows. Anchors are consumed in order;
    consumption stops after the first anchor that brings the running count
    to b or beyond, so the result length lies in [b, b + 2n - 1). Anchors
    whose windows would be needed but are unavailable raise
    InsufficientDataError.

    Two paths give the same sequence, chosen from the anchors. When every
    anchor of the head that b needs sits at least n away from both edges,
    all windows are exactly 2n wide and the expansion is one broadcast add;
    this is the common case during training. Otherwise the clamped window
    sizes are summed to find the last anchor consumed, and those anchors'
    full windows are masked to [0, length). The masked path costs about
    twice the broadcast on an interior head, so the broadcast stays.
    """
    if n < 1:
        raise ValueError(f"neighbor radius must be >= 1, got {n}")
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if length < 1:
        raise ValueError("cannot sample from an empty buffer")
    anchors = np.asarray(anchors, dtype=np.int64)
    if anchors.size and (anchors.min() < 0 or anchors.max() >= length):
        raise IndexError(f"anchor outside buffer range [0, {length})")
    m = -(-b // (2 * n))
    if anchors.size >= m:
        head = anchors[:m]
        if head.min() >= n and head.max() < length - n:
            return (head[:, None] + _offsets(n)[None, :]).ravel()
    ends = (np.minimum(anchors, n) + np.minimum(length - 1 - anchors, n)).cumsum()
    k = int(ends.searchsorted(b))
    if k == anchors.size:
        count = int(ends[-1]) if anchors.size else 0
        raise InsufficientDataError(
            f"anchors yielded {count} indices, need {b} (length={length}, n={n})"
        )
    windows = anchors[:k + 1, None] + _offsets(n)
    return windows[(windows >= 0) & (windows < length)]


def gather(buffer: ReplayBuffer, indices: np.ndarray) -> BatchArrays:
    """Copy the records at the given indices out of a standalone buffer."""
    if buffer.store is not None:
        raise ValueError("a joint buffer keeps no next observations of its own; "
                         "gather its batches with collect_joint")
    if buffer.size == 0:
        raise ValueError("cannot gather from an empty buffer")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= buffer.size):
        raise IndexError(f"index outside filled range [0, {buffer.size})")
    return BatchArrays(
        obses_t=buffer.obs[indices],
        actions=buffer.act[indices],
        rewards=buffer.rew[indices],
        obses_tp1=buffer.next_obs[indices],
        dones=buffer.done[indices],
    )


def _successor_rows(buffer: ReplayBuffer, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The store row after each of a joint buffer's ``indices``,
    ``(k + 1) % capacity``, and a mask of the indices at the newest row,
    whose next observation is the store's pending row instead."""
    succ = indices + 1
    succ[succ == buffer.capacity] = 0
    return succ, indices == (buffer.cursor - 1) % buffer.capacity


def next_observations(buffer: ReplayBuffer, indices: np.ndarray) -> np.ndarray:
    """A joint buffer's next observations at its rows ``indices``, as one
    new C-contiguous array."""
    succ, newest = _successor_rows(buffer, indices)
    x = buffer.obs[succ]
    x[newest] = buffer.pending
    return x


def collect_joint(
    buffers: list[ReplayBuffer],
    indices: np.ndarray,
    out: JointBatch | None = None,
) -> JointBatch:
    """Gather the joint rows at the given indices for every agent at once.

    ``buffers`` must be all of one ``joint_buffers`` list, in agent order,
    and hold the same number of records; agents insert in lockstep so index
    k addresses the same environment step everywhere. ``x``, ``rew`` and
    ``done`` are gathered at the indices and ``x_tp1`` at their successor
    rows, patched from the pending row, into ``out``'s
    arrays when given (and ``out`` returned), else into new ones of the
    store's dtype.
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
    if out is None:
        out = JointBatch(*(np.empty((indices.size, a.shape[1]), a.dtype)
                           for a in (store.x, store.x, store.rew, store.done)),
                         store.obs_cols, store.act_cols)
    succ, newest = _successor_rows(buffers[0], indices)
    # the indices are checked above and their successors lie in the store,
    # so "clip" changes none of them; unlike the default "raise", it
    # gathers straight into out without a buffer
    for src, rows, dst in ((store.x, indices, out.x), (store.x, succ, out.x_tp1),
                           (store.rew, indices, out.rew), (store.done, indices, out.done)):
        np.take(src, rows, axis=0, out=dst, mode="clip")
    out.x_tp1[newest] = store.pending
    return out
