"""Tests for the ring buffer and the two batch-sampling strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlbench import envs
from marlbench.replay import (
    InsufficientDataError,
    ReplayBuffer,
    collect_joint,
    gather,
    joint_buffers,
    make_index_uniform,
    neighbor_indices,
)
from marlbench.trainers import ANCHOR_SLACK
from oracles import two_array_replay, windowed_indices_transcription


def tagged_buffer(n_records: int, capacity: int | None = None) -> ReplayBuffer:
    """Buffer whose record at index i carries tag i in every field."""
    buf = ReplayBuffer(capacity or n_records, obs_dim=2, act_dim=2)
    for i in range(n_records):
        buf.add(
            obs=np.array([i, i], dtype=np.float64),
            action=np.array([i, -i], dtype=np.float64),
            reward=float(i),
            next_obs=np.array([i + 0.5, i], dtype=np.float64),
            done=bool(i % 2),
        )
    return buf


def tag(agent: int, step: int) -> float:
    return 100.0 * agent + step


def tagged_store(n_agents: int, n_steps: int, capacity: int | None = None,
                 make=joint_buffers) -> list[ReplayBuffer]:
    """Buffers over one joint store (``make``'s), written through every
    agent's ``add`` in lockstep with consecutive steps; agent a's record of
    step k carries tag(a, k) in every field, and its next observation is
    step k + 1's."""
    buffers = make(capacity or n_steps, [2] * n_agents, [2] * n_agents)
    for k in range(n_steps):
        for a, buf in enumerate(buffers):
            t = tag(a, k)
            buf.add(
                obs=np.array([t, t]),
                action=np.array([t, -t]),
                reward=t,
                next_obs=np.array([t + 1, t + 1]),
                done=bool(k % 2),
            )
    return buffers


# ---------------------------------------------------------------------------
# ring semantics
# ---------------------------------------------------------------------------

def test_ring_overwrite_keeps_slot_order():
    buf = ReplayBuffer(3, obs_dim=1, act_dim=1)
    for tag in (1, 2, 3, 4):
        buf.add(np.array([float(tag)]), np.array([0.0]), 0.0, np.array([0.0]), False)
    assert buf.size == 3
    assert [int(buf.obs[i, 0]) for i in range(3)] == [4, 2, 3]
    assert buf.cursor == 1


def test_single_insert_len_one():
    buf = ReplayBuffer(8, obs_dim=1, act_dim=1)
    buf.add(np.array([1.0]), np.array([0.0]), 0.5, np.array([2.0]), True)
    assert len(buf) == 1


def test_capacity_ceiling():
    cap = 1000
    buf = ReplayBuffer(cap, obs_dim=1, act_dim=1)
    record = (np.array([0.0]), np.array([0.0]), 0.0, np.array([0.0]), False)
    for _ in range(cap + 1):
        buf.add(*record)
    assert buf.size == cap
    assert buf.cursor == 1


def test_add_rejects_shape_drift():
    buf = ReplayBuffer(4, obs_dim=2, act_dim=2)
    with pytest.raises(ValueError):
        buf.add(np.zeros(3), np.zeros(2), 0.0, np.zeros(2), False)
    with pytest.raises(ValueError):
        buf.add(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), False)
    with pytest.raises(ValueError):
        buf.add(np.zeros(2), np.zeros(2), 0.0, np.zeros(3), False)
    # a rejected record writes nothing
    assert (buf.size, buf.cursor) == (0, 0)


@settings(deadline=None, max_examples=60)
@given(capacity=st.integers(1, 12), n_inserts=st.integers(0, 40))
def test_ring_invariants_property(capacity, n_inserts):
    buf = ReplayBuffer(capacity, obs_dim=1, act_dim=1)
    for k in range(n_inserts):
        buf.add(np.array([float(k)]), np.array([0.0]), 0.0, np.array([0.0]), False)
    assert buf.size == min(n_inserts, capacity)
    assert buf.cursor == n_inserts % capacity
    if n_inserts >= capacity:
        # slot j holds the latest insert congruent to j mod capacity
        for j in range(capacity):
            tags = [k for k in range(n_inserts) if k % capacity == j]
            assert buf.obs[j, 0] == float(tags[-1])


# ---------------------------------------------------------------------------
# uniform index sampling
# ---------------------------------------------------------------------------

def test_uniform_single_slot():
    idx = make_index_uniform(np.random.default_rng(0), 5, 1)
    assert idx.tolist() == [0, 0, 0, 0, 0]


def test_uniform_range_containment():
    idx = make_index_uniform(np.random.default_rng(123), 1024, 100)
    assert idx.shape == (1024,)
    assert idx.min() >= 0 and idx.max() < 100


def test_uniform_empty_buffer_error():
    with pytest.raises(ValueError):
        make_index_uniform(np.random.default_rng(0), 4, 0)


def test_uniform_chi_square():
    from scipy.stats import chisquare

    draws = make_index_uniform(np.random.default_rng(7), 100_000, 16)
    observed = np.bincount(draws, minlength=16)
    _, p = chisquare(observed)
    assert p > 0.001


# ---------------------------------------------------------------------------
# neighbor windows
# ---------------------------------------------------------------------------

def test_window_interior():
    assert neighbor_indices(np.array([5]), 1000, 3, 6).tolist() == [2, 3, 4, 6, 7, 8]


def test_window_clamped_low():
    assert neighbor_indices(np.array([0]), 1000, 3, 3).tolist() == [1, 2, 3]


def test_window_clamped_high():
    assert neighbor_indices(np.array([999]), 1000, 3, 3).tolist() == [996, 997, 998]


def test_window_input_validation():
    with pytest.raises(IndexError):
        neighbor_indices(np.array([1000]), 1000, 3, 1)
    with pytest.raises(IndexError):
        neighbor_indices(np.array([-1]), 1000, 3, 1)
    with pytest.raises(ValueError):
        neighbor_indices(np.array([5]), 1000, 0, 1)


@settings(deadline=None, max_examples=120)
@given(
    d=st.integers(2, 500),
    n=st.integers(1, 8),
    data=st.data(),
)
def test_window_property(d, n, data):
    i = data.draw(st.integers(0, d - 1))
    w = neighbor_indices(np.array([i]), d, n, 1).tolist()
    assert i not in w
    assert all(0 <= j < d for j in w)
    assert w == sorted(w)
    assert w == [j for j in range(max(0, i - n), min(d, i + n + 1)) if j != i]


# ---------------------------------------------------------------------------
# neighbor batch assembly
# ---------------------------------------------------------------------------

def test_neighbor_batch_truncated_window():
    buf = tagged_buffer(100)
    batch = gather(buf, neighbor_indices(np.array([50]), buf.size, n=3, b=4)[:4])
    assert [int(v) for v in batch.obses_t[:, 0]] == [47, 48, 49, 51]
    assert len(batch) == 4


def test_neighbor_batch_boundary_anchor():
    buf = tagged_buffer(100)
    batch = gather(buf, neighbor_indices(np.array([0]), buf.size, n=3, b=3)[:3])
    assert [int(v) for v in batch.obses_t[:, 0]] == [1, 2, 3]


def test_neighbor_batch_early_break():
    buf = tagged_buffer(100)
    batch = gather(buf, neighbor_indices(np.array([10, 20]), buf.size, n=1, b=2)[:2])
    assert [int(v) for v in batch.obses_t[:, 0]] == [9, 11]


def test_neighbor_batch_fields_stay_aligned():
    buf = tagged_buffer(60)
    batch = gather(buf, neighbor_indices(np.array([30]), buf.size, n=2, b=4)[:4])
    tags = batch.obses_t[:, 0]
    assert np.array_equal(batch.actions[:, 0], tags)
    assert np.array_equal(batch.rewards, tags)
    assert np.array_equal(batch.obses_tp1[:, 0], tags + 0.5)


def test_neighbor_indices_insufficient_data():
    with pytest.raises(InsufficientDataError):
        neighbor_indices(np.array([1]), length=4, n=1, b=16)


def test_neighbor_indices_anchor_validation():
    with pytest.raises(IndexError):
        neighbor_indices(np.array([100]), length=100, n=3, b=4)
    with pytest.raises(ValueError):
        neighbor_indices(np.array([1]), length=100, n=0, b=4)


def test_neighbor_indices_match_transcription_examples():
    got = neighbor_indices(np.array([50]), 100, 3, 4)
    want = windowed_indices_transcription([50], 100, 3, 4)
    assert got.tolist() == want
    got = neighbor_indices(np.array([10, 20]), 100, 1, 2)
    assert got.tolist() == windowed_indices_transcription([10, 20], 100, 1, 2)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_neighbor_indices_equal_transcription_property(data):
    d = data.draw(st.integers(3, 200))
    n = data.draw(st.sampled_from([1, 2, 3, 5]))
    b = data.draw(st.integers(1, 64))
    n_anchors = data.draw(st.integers(1, 40))
    anchors = data.draw(
        st.lists(st.integers(0, d - 1), min_size=n_anchors, max_size=n_anchors)
    )
    try:
        want = windowed_indices_transcription(anchors, d, n, b)
        want_err = None
    except ValueError:
        want, want_err = None, ValueError
    if want_err is not None:
        with pytest.raises(InsufficientDataError):
            neighbor_indices(np.array(anchors), d, n, b)
    else:
        got = neighbor_indices(np.array(anchors), d, n, b)
        assert got.tolist() == want


def test_neighbor_indices_equal_transcription_at_training_shape():
    # the training draw: batch 1024, 3 neighbors and draw_batch_indices'
    # anchor count, at the fills desk-scale runs reach and at lengths just
    # above the 2n + 1 floor, where the anchors run short
    b, n = 1024, 3
    m = -(-b // (2 * n))
    k = m + ANCHOR_SLACK
    rng = np.random.default_rng(11)
    lengths = [int(v) for v in rng.integers(1100, 2001, size=200)] + list(range(2 * n + 2, 40))
    branches = {"interior": 0, "clamped": 0, "short": 0}
    for d in lengths:
        anchors = rng.integers(0, d, size=k)
        try:
            want = windowed_indices_transcription(anchors.tolist(), d, n, b)
        except ValueError:
            with pytest.raises(InsufficientDataError):
                neighbor_indices(anchors, d, n, b)
            branches["short"] += 1
            continue
        assert neighbor_indices(anchors, d, n, b).tolist() == want
        head = anchors[:m]
        interior = head.min() >= n and head.max() < d - n
        branches["interior" if interior else "clamped"] += 1
    assert all(branches.values()), branches


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_neighbor_locality_structure(data):
    # consecutive indices within one window differ by 1 except across the
    # anchor-skip gap, and the anchor itself never appears in its own window
    d = data.draw(st.integers(10, 300))
    n = data.draw(st.integers(1, 5))
    i = data.draw(st.integers(0, d - 1))
    w = neighbor_indices(np.array([i]), d, n, 1)
    diffs = np.diff(w)
    assert np.all((diffs == 1) | (diffs == 2))
    # exactly one skip gap when the window has indices on both sides of i
    both_sides = 0 < i < d - 1
    assert int(np.sum(diffs == 2)) == (1 if both_sides else 0)


# ---------------------------------------------------------------------------
# gather / collect_joint
# ---------------------------------------------------------------------------

def test_gather_bounds_checked():
    buf = tagged_buffer(10)
    with pytest.raises(IndexError):
        gather(buf, np.array([10]))
    with pytest.raises(IndexError):
        gather(buf, np.array([-1]))


def test_gather_copies_not_views():
    buf = tagged_buffer(10)
    batch = gather(buf, np.array([3]))
    batch.obses_t[0, 0] = 777.0
    assert buf.obs[3, 0] == 3.0


def test_collect_joint_alignment():
    buffers = tagged_store(3, 20)
    batches = collect_joint(buffers, np.array([0]))
    assert len(batches) == 3
    for a, b in enumerate(batches):
        assert len(b) == 1
        assert b.obses_t[0, 0] == tag(a, 0)


def test_collect_joint_full_batch_shape():
    buffers = tagged_store(3, 100)
    idx = make_index_uniform(np.random.default_rng(0), 1024, 100)
    batches = collect_joint(buffers, idx)
    assert [len(b) for b in batches] == [1024, 1024, 1024]
    assert batches.x.shape == batches.x_tp1.shape == (1024, 3 * (2 + 2))
    # same index set applied everywhere: rows agree across agents
    assert np.array_equal(batches[1].rewards - tag(1, 0), batches[0].rewards)
    assert np.array_equal(batches[2].rewards - tag(2, 0), batches[0].rewards)


def test_collect_joint_misaligned_error():
    buffers = tagged_store(2, 20)
    buffers[1].size -= 1
    with pytest.raises(ValueError, match="misaligned"):
        collect_joint(buffers, np.array([0]))


def test_collect_joint_index_and_store_errors():
    buffers = tagged_store(3, 20, capacity=32)
    with pytest.raises(IndexError):
        collect_joint(buffers, np.array([0, 20]))
    with pytest.raises(IndexError):
        collect_joint(buffers, np.array([-1]))
    with pytest.raises(ValueError):
        collect_joint(joint_buffers(4, [2, 2], [2, 2]), np.array([0]))
    # only a whole store in agent order has the critic's column layout
    for buffers in (buffers[:2], buffers[::-1], [tagged_buffer(20)] * 3):
        with pytest.raises(ValueError, match="JointReplay"):
            collect_joint(buffers, np.array([0]))


def test_joint_store_columns_hold_only_own_rows_after_wrap():
    capacity, steps = 7, 17
    buffers = tagged_store(3, steps, capacity)
    store = buffers[0].store
    latest = [max(k for k in range(steps) if k % capacity == j) for j in range(capacity)]
    next_obs = collect_joint(buffers, np.arange(capacity)).x_tp1
    for a, buf in enumerate(buffers):
        assert (buf.size, buf.cursor) == (capacity, steps % capacity)
        want = np.array([tag(a, k) for k in latest])
        assert np.array_equal(buf.obs, np.stack([want, want], axis=1))
        assert np.array_equal(buf.act, np.stack([want, -want], axis=1))
        assert np.array_equal(buf.rew, want)
        # each row's next observation is the following step's, the newest
        # row's (step 16, slot 2) served from the pending row
        assert np.array_equal(next_obs[:, 2 * a:2 * a + 2], np.stack([want + 1, want + 1], axis=1))
        assert np.array_equal(buf.pending, [tag(a, steps), tag(a, steps)])
        assert np.array_equal(buf.done, np.array([k % 2 for k in latest], dtype=float))
        # the views are the store's columns, not copies
        assert np.shares_memory(buf.obs, store.x) and np.shares_memory(buf.act, store.x)
        assert np.shares_memory(buf.pending, store.pending) and buf.next_obs is None
    # the layout is [obs_0..obs_2 | act_0..act_2], each observation stored once
    assert np.array_equal(store.x[:, :6], np.concatenate([b.obs for b in buffers], axis=1))
    assert np.array_equal(store.x[:, 6:], np.concatenate([b.act for b in buffers], axis=1))
    assert not hasattr(store, "next_x")


def test_joint_replay_n12_stores_each_observation_once():
    # coop-nav N=12 at the default capacity: x (624 columns), rew and done
    # (12 each) and one pending row, in the training precision; a second
    # observation array would add 238 MiB. np.zeros touches no pages, so
    # this costs no memory.
    from marlbench.replay import DTYPE, JointReplay
    from marlbench.trainers import TrainerConfig

    n = 12
    obs_dim = envs.observation_dim(envs.make_env_config("coop-nav", n, seed=0))
    capacity = TrainerConfig().buffer_capacity
    store = JointReplay(capacity, [obs_dim] * n, [envs.ACT_DIM] * n)
    width = n * (obs_dim + envs.ACT_DIM)
    assert width == 624
    arrays = [v for v in vars(store).values() if isinstance(v, np.ndarray)]
    itemsize = np.dtype(DTYPE).itemsize
    assert itemsize == 4
    assert sum(a.nbytes for a in arrays) == capacity * (width + 2 * n) * itemsize + width * itemsize


def _rollout_into(stores, steps: int, seed: int) -> None:
    """Add ``steps`` consecutive coop-nav N=3 steps of random actions to
    every list of buffers in ``stores``, the same steps to each."""
    env_cfg = envs.make_env_config("coop-nav", 3, seed=seed)
    env_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    state, obs = envs.reset(env_cfg, env_rng)
    for _ in range(steps):
        actions = rng.uniform(-1, 1, size=(3, envs.ACT_DIM))
        state, next_obs, rewards, done = envs.step(state, actions, env_cfg)
        for buffers in stores:
            for i, buf in enumerate(buffers):
                buf.add(obs[i], actions[i], rewards[i], next_obs[i], done)
        obs = next_obs
        if done:
            state, obs = envs.reset(env_cfg, env_rng)


@pytest.mark.parametrize("capacity, steps", [(60, 43), (40, 107), (25, 88)])
def test_collect_joint_next_observations_match_two_array_layout(capacity, steps):
    # every non-terminal row's gathered next observation is the one the
    # two-array layout stores, the newest row's (served from the pending
    # row) included, before and after the ring wraps; a terminal row's is
    # the next episode's first observation
    old = two_array_replay()
    obs_dim = envs.observation_dim(envs.make_env_config("coop-nav", 3, seed=0))
    dims = ([obs_dim] * 3, [envs.ACT_DIM] * 3)
    new_bufs, old_bufs = joint_buffers(capacity, *dims), old.joint_buffers(capacity, *dims)
    _rollout_into([new_bufs, old_bufs], steps, seed=capacity)
    size = min(steps, capacity)
    idx = np.random.default_rng(steps).permutation(np.repeat(np.arange(size), 2))
    got, want = collect_joint(new_bufs, idx), old.collect_joint(old_bufs, idx)
    for name in ("x", "rew", "done"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    obs = slice(0, 3 * obs_dim)
    live = got.done[:, 0] == 0.0
    newest = (steps - 1) % capacity
    assert steps % 25 and live[idx == newest].all()
    assert got.x_tp1[live, obs].tobytes() == want.x_tp1[live, obs].tobytes()
    terminal = ~live
    assert terminal.any() == (steps >= 25)
    following = new_bufs[0].store.x[(idx[terminal] + 1) % capacity, obs]
    assert np.array_equal(got.x_tp1[terminal, obs], following)
    # per agent, the same views
    for a, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g.obses_tp1[live], w.obses_tp1[live]), a


def test_add_refuses_a_non_consecutive_step():
    buffers = joint_buffers(4, [2, 2], [2, 2])
    buf = buffers[0]
    store = buf.store
    buf.add(np.array([1.0, 2.0]), np.zeros(2), 0.0, np.array([3.0, 4.0]), False)
    before = [a.copy() for a in (store.x, store.pending, store.rew, store.done)]
    for obs in ([3.0, 4.5], [-0.0, 4.0], [1.0, 2.0]):
        with pytest.raises(ValueError, match="next observation"):
            buf.add(np.array(obs), np.ones(2), 1.0, np.array([5.0, 6.0]), False)
    # a refused step writes nothing
    assert (buf.size, buf.cursor) == (1, 1)
    after = (store.x, store.pending, store.rew, store.done)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    # the pending next observation continues it; after a terminal step a new
    # episode may start anywhere, and a standalone buffer takes any steps
    buf.add(np.array([3.0, 4.0]), np.ones(2), 1.0, np.array([5.0, 6.0]), True)
    buf.add(np.array([9.0, 9.0]), np.ones(2), 1.0, np.array([5.0, 6.0]), False)
    assert buf.size == 3
    alone = ReplayBuffer(4, obs_dim=2, act_dim=2)
    alone.add(np.array([1.0, 2.0]), np.zeros(2), 0.0, np.array([3.0, 4.0]), False)
    alone.add(np.array([7.0, 7.0]), np.zeros(2), 0.0, np.array([3.0, 4.0]), False)
    assert alone.size == 2


def test_gather_refuses_joint_buffers():
    buffers = tagged_store(2, 5)
    with pytest.raises(ValueError, match="collect_joint"):
        gather(buffers[0], np.array([0]))


def test_joint_store_is_freed_with_its_buffers():
    # no reference cycle: the store goes with its last buffer, without
    # waiting for the cyclic garbage collector
    import gc
    import weakref

    buffers = joint_buffers(8, [2, 2], [2, 2])
    store = weakref.ref(buffers[0].store)
    gc.disable()
    try:
        del buffers
        assert store() is None
    finally:
        gc.enable()


def test_collect_joint_rows_equal_two_array_layout():
    # oracle: the same consecutive steps in the two-array layout's store,
    # gathered by its collect_joint
    old = two_array_replay()
    buffers = tagged_store(4, 45, capacity=16)
    old_buffers = tagged_store(4, 45, capacity=16, make=old.joint_buffers)
    idx = make_index_uniform(np.random.default_rng(3), 64, 16)
    batch = collect_joint(buffers, idx)
    want = old.collect_joint(old_buffers, idx)
    assert batch.x.tobytes() == want.x.tobytes()
    assert batch.x_tp1[:, :8].tobytes() == want.x_tp1[:, :8].tobytes()
    for got, w in zip(batch, want):
        for field in ("obses_t", "actions", "rewards", "obses_tp1", "dones"):
            assert np.array_equal(getattr(got, field), getattr(w, field)), field


def test_collect_joint_into_out_refills_the_same_arrays():
    # an update round gathers every agent's batch into its first batch's
    # arrays; the per-agent views must follow the new rows
    buffers = tagged_store(3, 30)
    first = collect_joint(buffers, np.array([1, 2, 3]))
    arrays = (first.x, first.x_tp1, first.rew, first.done)
    first.x_tp1[:, 6:] = 9.0  # next actions written by target-Q
    again = collect_joint(buffers, np.array([7, 0, 29]), out=first)
    assert again is first
    assert all(a is b for a, b in zip(arrays, (again.x, again.x_tp1, again.rew, again.done)))
    fresh = collect_joint(buffers, np.array([7, 0, 29]))
    for name in ("x", "x_tp1", "rew", "done"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
    assert [int(v) for v in again[2].obses_t[:, 0]] == [tag(2, 7), tag(2, 0), tag(2, 29)]


def test_batch_at_full_buffer_length_both_samplers():
    buf = tagged_buffer(32)
    uni = gather(buf, make_index_uniform(np.random.default_rng(1), 32, buf.size))
    assert len(uni) == 32
    anchors = make_index_uniform(np.random.default_rng(2), 16 + 8, buf.size)
    nb = gather(buf, neighbor_indices(anchors, buf.size, n=3, b=32)[:32])
    assert len(nb) == 32
