"""Experience replay: ring-buffer storage and batch index strategies.

Storage is structure-of-arrays so a batch gather touches five flat numpy
arrays. Two index strategies are provided: independent uniform draws, and
windowed neighbor sampling that expands a handful of anchor indices into
contiguous index runs, which keeps most of the gather sequential in memory.
A window clamped at a buffer edge is expanded like an interior one and then
masked to the filled range, so a draw is a few numpy calls whatever the
anchors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientDataError(ValueError):
    """Raised when neighbor sampling cannot assemble a full batch."""


@dataclass
class Transition:
    obs: np.ndarray
    action: np.ndarray
    reward: float
    next_obs: np.ndarray
    done: bool


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


class ReplayBuffer:
    """Fixed-capacity ring buffer over five parallel arrays.

    Once full, each insert overwrites the oldest slot. Insertion order is
    therefore also (wrapped) memory order, which neighbor sampling relies on.
    """

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if obs_dim < 1 or act_dim < 1:
            raise ValueError(f"invalid dims obs={obs_dim} act={act_dim}")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.obs = np.zeros((capacity, obs_dim))
        self.act = np.zeros((capacity, act_dim))
        self.rew = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, transition: Transition) -> None:
        obs = np.asarray(transition.obs, dtype=np.float64)
        act = np.asarray(transition.action, dtype=np.float64)
        next_obs = np.asarray(transition.next_obs, dtype=np.float64)
        if obs.shape != (self.obs_dim,) or next_obs.shape != (self.obs_dim,):
            raise ValueError(
                f"observation shape {obs.shape}/{next_obs.shape}, expected ({self.obs_dim},)"
            )
        if act.shape != (self.act_dim,):
            raise ValueError(f"action shape {act.shape}, expected ({self.act_dim},)")
        i = self.cursor
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = float(transition.reward)
        self.next_obs[i] = next_obs
        self.done[i] = 1.0 if transition.done else 0.0
        self.cursor = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1


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
    """Copy the records at the given indices out of the buffer."""
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


def collect_joint(buffers: list[ReplayBuffer], indices: np.ndarray) -> list[BatchArrays]:
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
