"""Tests for the 2D particle world and its two scenarios."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlbench import envs
from marlbench.envs import (
    EnvConfig,
    TRAJECTORY_HEADER,
    compute_rewards,
    make_env_config,
    observation_dim,
    observations,
    reset,
    step,
    trajectory_rows,
    validate_env_config,
)
from oracles import naive_compute_rewards, naive_observations, per_agent_rollout


def fresh(scenario: str, n: int, seed: int = 0, **over):
    cfg = make_env_config(scenario, n, seed=seed, **over)
    state, obs = reset(cfg, np.random.default_rng(seed))
    return cfg, state, obs


def place(state, idx, x, y, vx=0.0, vy=0.0):
    state.pos[idx] = (x, y)
    state.vel[idx] = (vx, vy)


# ---------------------------------------------------------------------------
# config / reset
# ---------------------------------------------------------------------------

def test_coop_nav_observation_dims():
    cfg, state, obs = fresh("coop-nav", 3)
    assert cfg.n_landmarks == 3 and cfg.n_prey == 0
    assert observation_dim(cfg) == 14
    assert len(obs) == 3
    assert all(o.shape == (14,) for o in obs)


def test_predator_prey_observation_dims():
    cfg, state, obs = fresh("predator-prey", 3)
    assert cfg.n_landmarks == 0 and cfg.n_prey == 1
    assert observation_dim(cfg) == 10
    assert len(obs) == 3
    assert all(o.shape == (10,) for o in obs)


def test_reset_seeded_determinism():
    cfg = make_env_config("coop-nav", 3, seed=5)
    s1, o1 = reset(cfg, np.random.default_rng(5))
    s2, o2 = reset(cfg, np.random.default_rng(5))
    assert np.array_equal(s1.pos, s2.pos)
    assert np.array_equal(s1.vel, s2.vel)
    for a, b in zip(o1, o2):
        assert np.array_equal(a, b)


def test_reset_positions_inside_square_velocities_zero():
    cfg, state, _ = fresh("coop-nav", 4, seed=9)
    assert np.all(np.abs(state.pos) <= envs._WORLD_HALFWIDTH)
    assert np.all(state.vel == 0.0)
    assert state.step_count == 0


def test_config_validation():
    with pytest.raises(ValueError):
        make_env_config("no-such-scenario", 3)
    cfg = make_env_config("coop-nav", 3)
    for field, bad in [("n_learners", 0), ("max_episode_length", 0)]:
        kw = {field: bad}
        broken = EnvConfig(**{**cfg.__dict__, **kw})
        with pytest.raises(ValueError):
            validate_env_config(broken)


def test_observation_layout_is_vel_pos_landmarks_others():
    cfg, state, _ = fresh("coop-nav", 2, n_landmarks=1)
    place(state, 0, 0.1, 0.2, vx=0.3, vy=0.4)   # learner 0
    place(state, 1, -0.5, 0.0)                   # learner 1
    state.pos[2] = (1.0, 1.0)                    # landmark
    o = observations(state, cfg)[0]
    assert o == pytest.approx([0.3, 0.4, 0.1, 0.2, 0.9, 0.8, -0.6, -0.2])


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_step_zero_action_from_rest_keeps_positions():
    cfg, state, _ = fresh("coop-nav", 3)
    before = state.pos.copy()
    _, _, _, done = step(state, [np.zeros(2)] * 3, cfg)
    assert np.array_equal(state.pos, before)
    assert not done
    assert state.step_count == 1


def test_step_euler_update_hand_value():
    cfg, state, _ = fresh("coop-nav", 1, n_landmarks=1)
    place(state, 0, 0.0, 0.0)
    p_before = state.pos[0].copy()
    step(state, [np.array([1.0, 0.0])], cfg)
    # unit action at force gain 5.0: vel = 5.0 * dt, displacement = vel * dt
    assert state.vel[0] == pytest.approx([0.5, 0.0])
    assert state.pos[0] - p_before == pytest.approx([0.05, 0.0])


def test_step_done_exactly_at_max_length():
    cfg, state, _ = fresh("coop-nav", 2)
    acts = [np.zeros(2)] * 2
    for k in range(1, 26):
        _, _, _, done = step(state, acts, cfg)
        assert done == (k == 25)


def test_step_rejects_wrong_action_count():
    cfg, state, _ = fresh("coop-nav", 3)
    with pytest.raises(ValueError):
        step(state, [np.zeros(2)] * 2, cfg)
    with pytest.raises(ValueError):
        step(state, [np.zeros(3)] * 3, cfg)
    with pytest.raises(ValueError, match=r"action 1 has shape \(3,\)"):
        step(state, [np.zeros(2), np.zeros(3), np.zeros(2)], cfg)


def test_step_clamps_out_of_range_actions(caplog):
    cfg, state, _ = fresh("coop-nav", 1, n_landmarks=1)
    place(state, 0, 0.0, 0.0)
    with caplog.at_level(logging.WARNING, logger="marlbench.envs"):
        step(state, [np.array([5.0, 0.0])], cfg)
    # clamped to 1.0: same velocity as a unit action
    assert state.vel[0] == pytest.approx([0.5, 0.0])
    assert any("clamp" in rec.message for rec in caplog.records)


def test_step_rejects_nan_action_naming_the_agent():
    cfg, state, _ = fresh("predator-prey", 3, seed=1)
    pos, vel = state.pos.copy(), state.vel.copy()
    with pytest.raises(ValueError, match=r"action 1 holds NaN"):
        step(state, [np.zeros(2), np.array([0.2, np.nan]), np.zeros(2)], cfg)
    # rejected before anything moved
    assert np.array_equal(state.pos, pos) and np.array_equal(state.vel, vel)
    assert state.step_count == 0


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_step_clamps_infinite_actions(caplog, value):
    cfg, state, _ = fresh("coop-nav", 2, n_landmarks=1)
    with caplog.at_level(logging.WARNING, logger="marlbench.envs"):
        _, obs, rewards, _ = step(state, [np.zeros(2), np.array([value, 0.0])], cfg)
    assert state.vel[1] == pytest.approx([0.5 * np.sign(value), 0.0])
    assert np.isfinite(obs).all() and np.isfinite(rewards).all()
    assert [rec.message.split(" outside")[0] for rec in caplog.records] == ["action 1"]


def test_landmarks_never_move():
    cfg, state, _ = fresh("coop-nav", 3, seed=3)
    lm_before = state.pos[3:].copy()
    rng = np.random.default_rng(0)
    for _ in range(25):
        step(state, [rng.uniform(-1, 1, 2) for _ in range(3)], cfg)
    assert np.array_equal(state.pos[3:], lm_before)
    assert np.all(state.vel[3:] == 0.0)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 25))
def test_speed_bound_property(seed, steps):
    cfg, state, _ = fresh("predator-prey", 3, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        step(state, [rng.uniform(-1, 1, 2) for _ in range(3)], cfg)
        speeds = np.linalg.norm(state.vel, axis=1)
        assert np.all(speeds <= envs._MAX_SPEED + 1e-12)
        assert np.all(np.isfinite(state.pos))


def test_trajectory_determinism():
    actions = [np.random.default_rng(1).uniform(-1, 1, (3, 2)) for _ in range(25)]

    def run():
        cfg, state, _ = fresh("predator-prey", 3, seed=11)
        out = []
        for a in actions:
            _, _, rew, done = step(state, list(a), cfg)
            out.append((state.pos.copy(), rew.copy(), done))
        return out

    t1, t2 = run(), run()
    for (p1, r1, d1), (p2, r2, d2) in zip(t1, t2):
        assert np.array_equal(p1, p2)
        assert np.array_equal(r1, r2)
        assert d1 == d2


# ---------------------------------------------------------------------------
# prey behavior
# ---------------------------------------------------------------------------

def test_prey_flees_single_predator_due_west():
    cfg, state, _ = fresh("predator-prey", 1)
    place(state, 0, -1.0, 0.0)   # predator west of prey
    place(state, 1, 0.0, 0.0)    # prey
    assert envs._flee(state.pos[:1], state.pos[1]) == pytest.approx([1.0, 0.0])


def test_prey_tie_breaks_to_lowest_index():
    cfg, state, _ = fresh("predator-prey", 2)
    place(state, 0, -0.5, 0.0)
    place(state, 1, 0.5, 0.0)
    place(state, 2, 0.0, 0.0)
    # equidistant: flees predator 0, so moves east
    assert envs._flee(state.pos[:2], state.pos[2]) == pytest.approx([1.0, 0.0])


def test_prey_zero_when_coincident():
    cfg, state, _ = fresh("predator-prey", 1)
    place(state, 0, 0.3, 0.3)
    place(state, 1, 0.3, 0.3)
    assert envs._flee(state.pos[:1], state.pos[1]) == pytest.approx([0.0, 0.0])


def test_prey_moves_during_step():
    cfg, state, _ = fresh("predator-prey", 1)
    place(state, 0, -1.0, 0.0)
    place(state, 1, 0.0, 0.0)
    step(state, [np.zeros(2)], cfg)
    assert state.pos[1, 0] > 0.0
    assert state.pos[1, 1] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_coop_nav_agent_on_landmark_zero_reward():
    cfg, state, _ = fresh("coop-nav", 1, n_landmarks=1)
    place(state, 0, 0.4, -0.2)
    state.pos[1] = (0.4, -0.2)
    assert compute_rewards(state, cfg) == pytest.approx([0.0])


def test_coop_nav_two_agents_one_landmark():
    cfg, state, _ = fresh("coop-nav", 2, n_landmarks=1)
    d = 0.7
    place(state, 0, d, 0.0)
    place(state, 1, -d, 0.0)
    state.pos[2] = (0.0, 0.0)
    r = compute_rewards(state, cfg)
    assert r == pytest.approx([-d, -d])


def test_coop_nav_collision_penalty_counted_per_agent():
    cfg, state, _ = fresh("coop-nav", 2, n_landmarks=1)
    place(state, 0, 0.0, 0.0)
    place(state, 1, 0.05, 0.0)   # centers closer than radius sum 0.1
    state.pos[2] = (0.0, 0.0)
    r = compute_rewards(state, cfg)
    # min dist term: agent 0 sits on the landmark; one overlapping pair
    # counted once per involved agent
    want = -0.0 - envs._COLLISION_PENALTY * 2
    assert r == pytest.approx([want, want])


def test_coop_nav_overlap_is_strict_inequality():
    cfg, state, _ = fresh("coop-nav", 2, n_landmarks=1)
    place(state, 0, 0.0, 0.0)     # on the landmark: min dist term is zero
    place(state, 1, 0.1, 0.0)     # exactly the radius sum: no overlap
    state.pos[2] = (0.0, 0.0)
    assert compute_rewards(state, cfg) == pytest.approx([0.0, 0.0])
    place(state, 1, 0.0999, 0.0)  # a hair inside: the pair penalty fires
    assert compute_rewards(state, cfg) == pytest.approx([-2.0, -2.0])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_coop_nav_reward_shared_property(seed):
    cfg, state, _ = fresh("coop-nav", 3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        _, _, rew, _ = step(state, [rng.uniform(-1, 1, 2) for _ in range(3)], cfg)
        assert np.all(rew == rew[0])


def test_predator_reward_tag_at_zero_distance():
    cfg, state, _ = fresh("predator-prey", 1)
    place(state, 0, 0.2, 0.2)
    place(state, 1, 0.2, 0.2)
    assert compute_rewards(state, cfg) == pytest.approx([10.0])


def test_predator_reward_shaping_only_when_apart():
    cfg, state, _ = fresh("predator-prey", 2)
    place(state, 0, 0.0, 0.0)
    place(state, 1, 1.0, 0.0)
    place(state, 2, 0.0, 0.0)    # prey on predator 0
    r = compute_rewards(state, cfg)
    assert r[0] == pytest.approx(10.0)
    assert r[1] == pytest.approx(-0.1 * 1.0)


# ---------------------------------------------------------------------------
# array form against the per-agent, per-pair loops
# ---------------------------------------------------------------------------

def _lay_out(state, layout):
    e = np.arange(state.n_entities)
    if layout == "coincident":
        # every entity on top of entity 0 or entity 1
        state.pos[:] = state.pos[e % 2]
    elif layout == "touching":
        # neighbours along x sit exactly one radius sum (0.1) apart; pairs
        # are axis-aligned, so the loop's 1-D norm and the array's
        # sum-of-squares read the same distance
        state.pos[:] = np.stack([0.1 * (e % 2), 0.3 * (e // 2)], axis=1)
    elif layout == "equidistant":
        # entity 0 at the origin, the rest on rings of four around it
        k = e[1:] - 1
        ring = 0.5 * (1 + k // 4)
        state.pos[0] = (0.0, 0.0)
        state.pos[1:] = ring[:, None] * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])[k % 4]


@settings(deadline=None, max_examples=150)
@given(
    scenario=st.sampled_from(["coop-nav", "predator-prey"]),
    n=st.integers(1, 12),
    n_prey=st.sampled_from([1, 2]),
    seed=st.integers(0, 10_000),
    layout=st.sampled_from(["random", "coincident", "touching", "equidistant"]),
    steps=st.integers(0, 5),
)
def test_observations_and_rewards_match_loop_oracle(scenario, n, n_prey, seed, layout, steps):
    over = {"n_prey": n_prey} if scenario == "predator-prey" else {}
    cfg, state, _ = fresh(scenario, n, seed=seed, **over)
    _lay_out(state, layout)
    obs, rew = observations(state, cfg), compute_rewards(state, cfg)
    rng = np.random.default_rng(seed)
    for k in range(steps + 1):
        assert obs.shape == (n, observation_dim(cfg))
        assert np.array_equal(obs, np.stack(naive_observations(state, cfg)))
        assert np.array_equal(rew, naive_compute_rewards(state, cfg))
        if k < steps:
            _, obs, rew, _ = step(state, list(rng.uniform(-1.2, 1.2, (n, 2))), cfg)


@pytest.mark.parametrize("scenario, n", [("coop-nav", 12), ("coop-nav", 3), ("predator-prey", 3)])
def test_step_matches_two_displacement_oracle(scenario, n):
    # step shares one displacement array between rewards and observations;
    # the oracle copy builds it twice. Random actions, some past the clamp
    ref = per_agent_rollout()
    rng = np.random.default_rng(n)
    for episode in range(8):
        cfg, state, _ = fresh(scenario, n, seed=episode)
        twin = envs.WorldState(state.pos.copy(), state.vel.copy(), state.radius.copy(),
                               state.kind.copy(), state.step_count)
        # a dense layout makes collisions and tags happen
        state.pos *= 0.2
        twin.pos *= 0.2
        done = False
        while not done:
            actions = rng.uniform(-1.2, 1.2, size=(n, 2))
            got = step(state, actions, cfg)
            want = ref.step(twin, list(actions), cfg)
            for a, b in zip(got[1:3], want[1:3]):
                assert a.tobytes() == b.tobytes()
            assert got[3] == want[3]
            assert state.pos.tobytes() == twin.pos.tobytes()
            assert state.vel.tobytes() == twin.vel.tobytes()
            done = got[3]
        assert observations(state, cfg).tobytes() == ref.observations(twin, cfg).tobytes()
        assert compute_rewards(state, cfg).tobytes() == ref.compute_rewards(twin, cfg).tobytes()


# ---------------------------------------------------------------------------
# trajectory dump
# ---------------------------------------------------------------------------

def test_trajectory_rows_shape():
    cfg, state, _ = fresh("predator-prey", 2, seed=4)
    _, _, rew, _ = step(state, [np.zeros(2)] * 2, cfg)
    rows = trajectory_rows(state, cfg, rew)
    assert len(rows) == state.n_entities
    assert len(TRAJECTORY_HEADER) == len(rows[0])
    by_col = dict(zip(TRAJECTORY_HEADER, zip(*rows)))
    assert by_col["step"] == (1,) * state.n_entities
    # rewards attach to learners only
    assert by_col["reward"][0] != "" and by_col["reward"][2] == ""
