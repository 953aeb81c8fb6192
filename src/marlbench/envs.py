"""2D particle worlds: cooperative navigation and predator-prey pursuit.

Learners apply continuous 2D forces scaled by an action gain of 5.0, the
default sensitivity of the multi-agent particle environments' cooperative
navigation (Lowe et al. 2017). Prey follow a scripted unit-force flee
policy; in predator-prey the learners' 5.0 gain against the prey's unit
force is this package's choice, not MPE's (its predators push at 3.0 and its
prey at 4.0). Landmarks never move. Integration is semi-implicit Euler with
velocity damping and a hard speed cap.

Observations and rewards derive from one displacement array,
``rel[i, j] = pos[j] - pos[i]`` for learner i and entity j (learners, then
prey, then landmarks). ``reset`` and ``step`` return the observations as one
``(n_learners, observation_dim)`` array.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)

SCENARIO_COOP_NAV = "coop-nav"
SCENARIO_PREDATOR_PREY = "predator-prey"
SCENARIOS = (SCENARIO_COOP_NAV, SCENARIO_PREDATOR_PREY)

KIND_LEARNER = 0
KIND_PREY = 1
KIND_LANDMARK = 2

KIND_NAMES = {KIND_LEARNER: "learner", KIND_PREY: "prey", KIND_LANDMARK: "landmark"}

ACT_DIM = 2
# learner actions are clamped to [-1, 1], then scaled by this force gain
_ACTION_GAIN = 5.0
# Euler step, velocity damping, speed cap, half-width of the start square,
# entity radius; coop-nav's penalty per overlapping learner pair (counted
# both ways), predator-prey's reward per tag and nearest-prey distance weight
_DT = 0.1
_DAMPING = 0.25
_MAX_SPEED = 1.0
_WORLD_HALFWIDTH = 1.0
_ENTITY_RADIUS = 0.05
_COLLISION_PENALTY = 1.0
_TAG_REWARD = 10.0
_CHASE_SHAPING = 0.1


@dataclass
class EnvConfig:
    """A world's shape, episode length and reset seed; its physics and
    reward weights are the module constants above."""

    scenario: str
    n_learners: int
    n_prey: int
    n_landmarks: int
    max_episode_length: int = 25
    seed: int = 0


def make_env_config(scenario: str, n_learners: int = 3, **overrides) -> EnvConfig:
    """Build a validated config with scenario-appropriate entity counts."""
    if scenario == SCENARIO_COOP_NAV:
        cfg = EnvConfig(scenario=scenario, n_learners=n_learners,
                        n_prey=0, n_landmarks=n_learners)
    elif scenario == SCENARIO_PREDATOR_PREY:
        cfg = EnvConfig(scenario=scenario, n_learners=n_learners,
                        n_prey=1, n_landmarks=0)
    else:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    if overrides:
        cfg = replace(cfg, **overrides)
    validate_env_config(cfg)
    return cfg


def validate_env_config(cfg: EnvConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    if cfg.n_learners < 1:
        raise ValueError(f"need at least one learner, got {cfg.n_learners}")
    if cfg.n_prey < 0 or cfg.n_landmarks < 0:
        raise ValueError("entity counts must be non-negative")
    if cfg.scenario == SCENARIO_COOP_NAV and cfg.n_prey != 0:
        raise ValueError("coop-nav has no prey")
    if cfg.max_episode_length < 1:
        raise ValueError(f"max_episode_length must be >= 1, got {cfg.max_episode_length}")


@dataclass
class WorldState:
    pos: np.ndarray      # (E, 2)
    vel: np.ndarray      # (E, 2)
    radius: np.ndarray   # (E,)
    kind: np.ndarray     # (E,) int
    step_count: int

    @property
    def n_entities(self) -> int:
        return self.pos.shape[0]


def observation_dim(cfg: EnvConfig) -> int:
    """Own velocity and position, relative landmarks, relative other movables."""
    return 4 + 2 * cfg.n_landmarks + 2 * (_movable_count(cfg) - 1)


def _movable_count(cfg: EnvConfig) -> int:
    return cfg.n_learners + cfg.n_prey


def reset(cfg: EnvConfig, rng: np.random.Generator) -> tuple[WorldState, np.ndarray]:
    """Place every entity uniformly in the square, at rest, and observe."""
    validate_env_config(cfg)
    n_entities = cfg.n_learners + cfg.n_prey + cfg.n_landmarks
    pos = rng.uniform(-_WORLD_HALFWIDTH, _WORLD_HALFWIDTH, size=(n_entities, 2))
    vel = np.zeros((n_entities, 2))
    radius = np.full(n_entities, _ENTITY_RADIUS)
    kind = np.concatenate([
        np.full(cfg.n_learners, KIND_LEARNER),
        np.full(cfg.n_prey, KIND_PREY),
        np.full(cfg.n_landmarks, KIND_LANDMARK),
    ]).astype(np.int64)
    state = WorldState(pos=pos, vel=vel, radius=radius, kind=kind, step_count=0)
    return state, observations(state, cfg)


@functools.cache
def _off_diagonal(n: int, n_mov: int) -> np.ndarray:
    """Mask of the (learner, movable) pairs that are not a learner and itself;
    read-only, as every call shares it."""
    mask = ~np.eye(n, n_mov, dtype=bool)
    mask.flags.writeable = False
    return mask


def observations(state: WorldState, cfg: EnvConfig) -> np.ndarray:
    return _observe(state, cfg, state.pos - state.pos[:cfg.n_learners, None])


def _observe(state: WorldState, cfg: EnvConfig, rel: np.ndarray) -> np.ndarray:
    n = cfg.n_learners
    n_mov = _movable_count(cfg)
    others = rel[:, :n_mov][_off_diagonal(n, n_mov)]
    return np.concatenate([
        state.vel[:n],
        state.pos[:n],
        rel[:, n_mov:].reshape(n, 2 * cfg.n_landmarks),
        others.reshape(n, 2 * (n_mov - 1)),
    ], axis=1)


def _flee(learner_pos: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Unit-magnitude force on a prey at ``own``, straight away from the
    nearest learner among the rows of ``learner_pos``; ties go to the lowest
    row. With no learners, or one exactly on the prey, the force is zero."""
    if learner_pos.shape[0] == 0:
        return np.zeros(2)
    # np.linalg.norm spelled out: over rows, then of one vector
    d = learner_pos - own
    dists = np.sqrt(np.add.reduce(d * d, axis=1))
    away = own - learner_pos[int(dists.argmin())]
    norm = np.sqrt(away.dot(away))
    if norm == 0.0:
        return np.zeros(2)
    return away / norm


def compute_rewards(state: WorldState, cfg: EnvConfig) -> np.ndarray:
    """Per-learner rewards evaluated on the post-integration state.

    Two entities overlap when their distance is strictly below their radius sum.
    """
    return _rewards(state, cfg, state.pos - state.pos[:cfg.n_learners, None])


def _rewards(state: WorldState, cfg: EnvConfig, rel: np.ndarray) -> np.ndarray:
    n = cfg.n_learners
    n_mov = _movable_count(cfg)
    dist = np.sqrt(np.add.reduce(rel * rel, axis=2))
    radius = state.radius
    if cfg.scenario == SCENARIO_COOP_NAV:
        total = 0.0
        # one landmark at a time, in order, as a float sum is order-dependent
        for d in dist[:, n_mov:].min(axis=0).tolist():
            total -= d
        # coop-nav has no prey, so the movables are the learners
        pairs = dist[:, :n] < radius[:n, None] + radius[:n]
        total -= _COLLISION_PENALTY * int(np.count_nonzero(pairs[_off_diagonal(n, n)]))
        return np.full(n, total)
    if cfg.n_prey == 0:
        return np.zeros(n)
    prey = slice(n, n_mov)
    tags = np.count_nonzero(dist[:, prey] < radius[:n, None] + radius[prey], axis=1)
    nearest = dist[:, prey].min(axis=1)
    return _TAG_REWARD * tags - _CHASE_SHAPING * nearest


def step(
    state: WorldState,
    actions: np.ndarray | list[np.ndarray],
    cfg: EnvConfig,
) -> tuple[WorldState, np.ndarray, np.ndarray, bool]:
    """Advance the world one tick under the learners' joint action.

    ``actions`` is an (n_learners, 2) array, or a list of one 2-vector per
    learner. Returns the mutated state, fresh observations, per-learner
    rewards and the time-limit done flag; the observations and rewards
    share one displacement array of the new positions. An action component
    outside [-1, 1], ±inf included, is clamped with a warning; a NaN
    component raises ``ValueError`` naming the agent, before the state
    changes.
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
    accel = _ACTION_GAIN * acts
    if n_mov > n:
        # reset puts the learners in rows [0, n) and the prey in [n, n_mov)
        flee = [_flee(state.pos[:n], state.pos[j]) for j in range(n, n_mov)]
        accel = np.concatenate([accel, flee])

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

    rel = state.pos - state.pos[:n, None]
    done = state.step_count >= cfg.max_episode_length
    return state, _observe(state, cfg, rel), _rewards(state, cfg, rel), done


TRAJECTORY_HEADER = ["step", "entity", "kind", "x", "y", "vx", "vy", "reward"]


def trajectory_rows(state: WorldState, cfg: EnvConfig, rewards: np.ndarray | None) -> list[list]:
    """One CSV row per entity for the current step; rewards only for learners."""
    rows = []
    for e in range(state.n_entities):
        kind = int(state.kind[e])
        if rewards is not None and kind == KIND_LEARNER:
            rew = repr(float(rewards[e]))
        else:
            rew = ""
        rows.append([
            state.step_count, e, KIND_NAMES[kind],
            repr(float(state.pos[e, 0])), repr(float(state.pos[e, 1])),
            repr(float(state.vel[e, 0])), repr(float(state.vel[e, 1])),
            rew,
        ])
    return rows
