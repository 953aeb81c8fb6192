"""Tests for the MADDPG/MASAC training pipeline."""

import numpy as np
import pytest

from marlbench import envs
from marlbench.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    ForwardCache,
    MlpParams,
    init_adam,
    init_mlp_params,
    mlp_forward,
    squashed_gaussian_sample,
)
from marlbench.profiler import Phase, ProfileReport
from marlbench.replay import JointBatch, collect_joint, joint_buffers
from marlbench.trainers import (
    ENTROPY_ALPHA,
    EXPLORATION_SIGMA,
    GAMMA,
    HIDDEN,
    TAU,
    AgentBundle,
    NonFiniteLossError,
    RoundWorkspace,
    TrainerConfig,
    actor_loss_and_grads,
    actor_update,
    critic_loss_and_grads,
    critic_update,
    draw_batch_indices,
    final_window_mean,
    make_agents,
    run_training,
    save_checkpoint,
    select_action,
    stats_to_csv,
    target_q_calculation,
    target_y,
    update_all_trainers,
    validate_trainer_config,
)
from oracles import (
    PARAM_FIELDS,
    assert_grad_close,
    clone_params,
    fd_param_gradient,
    naive_target_y_maddpg,
)


def tiny_cfg(**kw) -> TrainerConfig:
    base = dict(algorithm="maddpg", sampler="uniform", episodes=2, seed=0,
                batch_size=4, update_every=10, buffer_capacity=64)
    base.update(kw)
    return TrainerConfig(**base)


def zeroed(params: MlpParams) -> MlpParams:
    return MlpParams(*(np.zeros_like(a) for a in params.arrays()))


# the width of make_tiny_agents' networks; make_agents builds HIDDEN-wide ones
TINY_HIDDEN = 8


def make_tiny_agents(n: int, obs_dim: int, act_dim: int, cfg: TrainerConfig,
                     seed: int = 0) -> list[AgentBundle]:
    rng = np.random.default_rng(seed)
    out_dim = act_dim if cfg.algorithm == "maddpg" else 2 * act_dim
    critic_in = n * (obs_dim + act_dim)
    buffers = joint_buffers(cfg.buffer_capacity, [obs_dim] * n, [act_dim] * n)
    agents = []
    for buffer in buffers:
        actor = init_mlp_params(obs_dim, out_dim, rng, TINY_HIDDEN)
        critic = init_mlp_params(critic_in, 1, rng, TINY_HIDDEN)
        agents.append(AgentBundle(
            actor=actor, critic=critic,
            target_actor=actor.copy(), target_critic=critic.copy(),
            actor_opt=init_adam(actor), critic_opt=init_adam(critic),
            buffer=buffer,
            obs_dim=obs_dim, act_dim=act_dim,
        ))
    return agents


def make_batches(n: int, b: int, obs_dim: int, act_dim: int, seed: int = 1
                 ) -> JointBatch:
    # b consecutive steps written into a b-row joint store, gathered in order
    # and converted to float64, so float64 networks train on it in float64
    rng = np.random.default_rng(seed)
    buffers = joint_buffers(b, [obs_dim] * n, [act_dim] * n)
    obs = rng.normal(size=(b + 1, n, obs_dim))
    act = rng.uniform(-1, 1, size=(b, n, act_dim))
    rew = rng.normal(size=(b, n))
    done = rng.integers(0, 2, size=b)
    for k in range(b):
        for i, buf in enumerate(buffers):
            buf.add(obs[k, i], act[k, i], rew[k, i], obs[k + 1, i], bool(done[k]))
    batch = collect_joint(buffers, np.arange(b))
    return JointBatch(*(a.astype(np.float64) for a in (batch.x, batch.x_tp1, batch.rew, batch.done)),
                      batch.obs_cols, batch.act_cols)


def fill_buffers(agents: list[AgentBundle], k: int, seed: int = 2) -> None:
    # k consecutive steps; every 25th is terminal and the next one starts
    # from a fresh observation
    rng = np.random.default_rng(seed)
    obs = [rng.normal(size=ag.obs_dim) for ag in agents]
    for step in range(k):
        done = step % 25 == 24
        for i, ag in enumerate(agents):
            next_obs = rng.normal(size=ag.obs_dim)
            ag.buffer.add(
                obs=obs[i],
                action=rng.uniform(-1, 1, size=ag.act_dim),
                reward=float(rng.normal()),
                next_obs=next_obs,
                done=done,
            )
            obs[i] = rng.normal(size=ag.obs_dim) if done else next_obs


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_match_training_setup():
    # the README's numbers: MADDPG's published lr, gamma, tau, batch and width
    cfg = TrainerConfig(algorithm="maddpg", sampler="uniform", episodes=10, seed=0)
    assert (GAMMA, TAU, ADAM_LR) == (0.95, 0.01, 0.01)
    assert (cfg.batch_size, cfg.update_every) == (1024, 100)
    assert (ENTROPY_ALPHA, EXPLORATION_SIGMA) == (0.05, 0.1)
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert cfg.neighbors == 3
    assert HIDDEN == 64


def test_config_validation_bounds():
    for kw in (dict(batch_size=0), dict(algorithm="dqn"), dict(sampler="x"),
               dict(neighbors=0), dict(episodes=0), dict(update_every=0),
               dict(buffer_capacity=0)):
        with pytest.raises(ValueError):
            validate_trainer_config(tiny_cfg(**kw))


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------

def test_select_action_zero_actor_no_explore():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    agents[0].actor = zeroed(agents[0].actor)
    a = select_action(agents[0], np.array([1.0, -1.0, 0.5]), cfg, None)
    assert a == pytest.approx([0.0, 0.0])


def test_select_action_deterministic_without_noise():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    obs = np.array([0.2, 0.4, -0.1])
    a1 = select_action(agents[0], obs, cfg, None)
    a2 = select_action(agents[0], obs, cfg, None)
    assert np.array_equal(a1, a2)
    # the exploring action is the greedy one plus its noise row, clamped
    noise = np.array([0.05, -2.0])
    explored = select_action(agents[0], obs, cfg, noise)
    assert explored.tobytes() == np.clip(a1 + noise, -1.0, 1.0).tobytes()


def test_select_action_explore_stays_clamped():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    rng = np.random.default_rng(5)
    for _ in range(50):
        noise = rng.normal(0.0, EXPLORATION_SIGMA, size=2)
        a = select_action(agents[0], rng.normal(size=3), cfg, noise)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_select_action_masac_modes():
    cfg = tiny_cfg(algorithm="masac")
    agents = make_tiny_agents(1, 3, 2, cfg)
    obs = np.array([0.2, 0.4, -0.1])
    greedy = select_action(agents[0], obs, cfg, None)
    out, _ = mlp_forward(agents[0].actor, obs)
    assert np.array_equal(greedy, np.tanh(out[:2]))
    explored = select_action(agents[0], obs, cfg, np.random.default_rng(0).standard_normal(2))
    assert np.all(np.abs(explored) <= 1.0)
    # one standard-normal draw per action, squashed as the sampler squashes it
    want, _ = squashed_gaussian_sample(out[:2], out[2:],
                                       np.random.default_rng(0).standard_normal(2))
    assert explored.tobytes() == want.tobytes()


@pytest.mark.parametrize("field, index, value", [
    ("w1", (0, 0), np.nan),
    ("b3", (0,), np.inf),
    ("b3", (3,), -np.inf),
])
def test_select_action_masac_rejects_non_finite_actor_output(field, index, value):
    cfg = tiny_cfg(algorithm="masac")
    agents = make_tiny_agents(1, 3, 2, cfg)
    getattr(agents[0].actor, field)[index] = value
    with pytest.raises(FloatingPointError):
        select_action(agents[0], np.array([0.2, 0.4, -0.1]), cfg, np.zeros(2))


def test_actor_reads_only_local_observation():
    cfg = tiny_cfg()
    env_cfg = envs.make_env_config("coop-nav", 3, seed=0)
    agents = make_agents(env_cfg, cfg, np.random.default_rng(0))
    obs_dim = envs.observation_dim(env_cfg)
    for ag in agents:
        assert ag.actor.in_dim == obs_dim
        assert ag.critic.in_dim == 3 * (obs_dim + envs.ACT_DIM)
        for f in PARAM_FIELDS:
            assert np.array_equal(getattr(ag.target_actor, f), getattr(ag.actor, f))
            assert np.array_equal(getattr(ag.target_critic, f), getattr(ag.critic, f))


# ---------------------------------------------------------------------------
# bootstrap targets
# ---------------------------------------------------------------------------

def test_target_y_direct_substitution():
    y = target_y(np.array([1.0]), np.array([0.0]), np.array([2.0]), 0.95)
    assert y == pytest.approx([2.9])


def test_target_y_terminal_masking():
    y = target_y(np.array([1.0]), np.array([1.0]), np.array([123.0]), 0.95)
    assert y == pytest.approx([1.0])


def test_target_y_myopic_limit():
    r = np.array([0.5, -2.0, 3.0])
    y = target_y(r, np.zeros(3), np.array([9.0, 9.0, 9.0]), 0.0)
    assert np.array_equal(y, r)


def test_target_y_shape_mismatch():
    with pytest.raises(ValueError):
        target_y(np.zeros(3), np.zeros(2), np.zeros(3), 0.95)


def test_target_q_zero_critic_gives_zeros():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 3, 2, cfg)
    agents[0].target_critic = zeroed(agents[0].target_critic)
    batches = make_batches(2, 5, 3, 2)
    q = target_q_calculation(agents, batches, 0, cfg)
    assert np.array_equal(q, np.zeros(5))


def test_target_q_n1_reduces_to_single_agent():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    batches = make_batches(1, 4, 3, 2)
    q = target_q_calculation(agents, batches, 0, cfg)
    # hand-build next_obs ++ tanh(target_actor(next_obs)) per record
    raw, _ = mlp_forward(agents[0].target_actor, batches[0].obses_tp1)
    x = np.concatenate([batches[0].obses_tp1, np.tanh(raw)], axis=1)
    want, _ = mlp_forward(agents[0].target_critic, x)
    assert np.allclose(q, want[:, 0], rtol=1e-15, atol=0)


def test_target_q_matches_unbatched_oracle():
    cfg = tiny_cfg()
    n, b, obs_dim, act_dim = 3, 2, 3, 2
    agents = make_tiny_agents(n, obs_dim, act_dim, cfg, seed=7)
    batches = make_batches(n, b, obs_dim, act_dim, seed=8)
    q = target_q_calculation(agents, batches, 1, cfg)
    got = target_y(batches[1].rewards, batches[1].dones, q, GAMMA)
    rows = [[batches[j].obses_tp1[k] for j in range(n)] for k in range(b)]
    want = naive_target_y_maddpg(
        rows, batches[1].rewards, batches[1].dones,
        [ag.target_actor for ag in agents], agents[1].target_critic, GAMMA,
    )
    denom = np.maximum(np.abs(want), 1e-12)
    assert np.max(np.abs(got - want) / denom) < 1e-12


def test_target_q_masac_matches_hand_built_sample():
    # every next action is squashed from its own noise; only agent_i's
    # log-prob enters the value
    cfg = tiny_cfg(algorithm="masac")
    n, b, obs_dim, act_dim = 3, 5, 3, 2
    agents = make_tiny_agents(n, obs_dim, act_dim, cfg, seed=7)
    batch = make_batches(n, b, obs_dim, act_dim, seed=8)
    rng = np.random.default_rng(9)
    noises = [rng.standard_normal((b, act_dim)) for _ in range(n)]
    q = target_q_calculation(agents, batch, 1, cfg, noises)
    actions, logps = [], []
    for j, ag in enumerate(agents):
        out, _ = mlp_forward(ag.target_actor, batch[j].obses_tp1)
        a, lp = squashed_gaussian_sample(out[:, :act_dim], out[:, act_dim:], noises[j])
        actions.append(a)
        logps.append(lp)
    x = np.concatenate([bt.obses_tp1 for bt in batch] + actions, axis=1)
    want, _ = mlp_forward(agents[1].target_critic, x)
    assert np.array_equal(q, want[:, 0] - ENTROPY_ALPHA * logps[1])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_target_q_masac_rejects_non_finite_other_noise(value):
    cfg = tiny_cfg(algorithm="masac")
    n, b = 3, 4
    agents = make_tiny_agents(n, 3, 2, cfg)
    batch = make_batches(n, b, 3, 2)
    noises = [np.zeros((b, 2)) for _ in range(n)]
    noises[2][1, 0] = value
    with pytest.raises(FloatingPointError):
        target_q_calculation(agents, batch, 0, cfg, noises)


# ---------------------------------------------------------------------------
# critic loss
# ---------------------------------------------------------------------------

def test_critic_perfect_fit_zero_loss_zero_grads():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 3, 2, cfg)
    batches = make_batches(2, 6, 3, 2)
    x = np.concatenate([bt.obses_t for bt in batches] + [bt.actions for bt in batches],
                       axis=1)
    q, _ = mlp_forward(agents[0].critic, x)
    loss, grads = critic_loss_and_grads(agents, batches, 0, q[:, 0])
    assert loss == 0.0
    for f in PARAM_FIELDS:
        assert np.all(getattr(grads, f) == 0.0)


def test_critic_constant_zero_against_two():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 3, 2, cfg)
    agents[0].critic = zeroed(agents[0].critic)
    batches = make_batches(2, 6, 3, 2)
    loss, _ = critic_loss_and_grads(agents, batches, 0, np.full(6, 2.0))
    assert loss == pytest.approx(4.0)


def test_critic_gradient_matches_finite_differences():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 2, 2, cfg, seed=3)
    batches = make_batches(2, 4, 2, 2, seed=4)
    y = np.random.default_rng(5).normal(size=4)
    _, grads = critic_loss_and_grads(agents, batches, 0, y)

    original = agents[0].critic

    def loss_fn(p: MlpParams) -> float:
        agents[0].critic = p
        val, _ = critic_loss_and_grads(agents, batches, 0, y)
        return val

    try:
        fd = fd_param_gradient(loss_fn, clone_params(original))
    finally:
        agents[0].critic = original
    for f in PARAM_FIELDS:
        assert_grad_close(getattr(grads, f), fd[f])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_critic_update_rejects_non_finite_targets():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    batches = make_batches(1, 4, 3, 2)
    with pytest.raises(NonFiniteLossError):
        critic_update(agents, batches, 0, np.array([1.0, np.inf, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# actor loss
# ---------------------------------------------------------------------------

def test_actor_zero_critic_zero_loss_and_grads():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 3, 2, cfg)
    agents[0].critic = zeroed(agents[0].critic)
    batches = make_batches(2, 5, 3, 2)
    loss, grads = actor_loss_and_grads(agents, batches, 0, cfg)
    assert loss == 0.0
    for f in PARAM_FIELDS:
        assert np.all(getattr(grads, f) == 0.0)


def test_actor_gradient_matches_finite_differences_maddpg():
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 2, 2, cfg, seed=11)
    batches = make_batches(2, 4, 2, 2, seed=12)
    _, grads = actor_loss_and_grads(agents, batches, 0, cfg)

    original = agents[0].actor

    def loss_fn(p: MlpParams) -> float:
        agents[0].actor = p
        val, _ = actor_loss_and_grads(agents, batches, 0, cfg)
        return val

    try:
        fd = fd_param_gradient(loss_fn, clone_params(original))
    finally:
        agents[0].actor = original
    for f in PARAM_FIELDS:
        assert_grad_close(getattr(grads, f), fd[f], rtol=2e-6, atol=1e-9)


def test_actor_gradient_matches_finite_differences_masac():
    cfg = tiny_cfg(algorithm="masac")
    agents = make_tiny_agents(2, 2, 2, cfg, seed=21)
    batches = make_batches(2, 4, 2, 2, seed=22)
    noise = np.random.default_rng(23).standard_normal((4, 2))
    _, grads = actor_loss_and_grads(agents, batches, 0, cfg, noise=noise)

    original = agents[0].actor

    def loss_fn(p: MlpParams) -> float:
        agents[0].actor = p
        val, _ = actor_loss_and_grads(agents, batches, 0, cfg, noise=noise)
        return val

    try:
        fd = fd_param_gradient(loss_fn, clone_params(original))
    finally:
        agents[0].actor = original
    for f in PARAM_FIELDS:
        assert_grad_close(getattr(grads, f), fd[f], rtol=2e-6, atol=1e-9)


def test_actor_masac_alpha_zero_reduces_to_q_objective(monkeypatch):
    import marlbench.trainers as tr

    monkeypatch.setattr(tr, "ENTROPY_ALPHA", 0.0)
    cfg = tiny_cfg(algorithm="masac")
    agents = make_tiny_agents(2, 3, 2, cfg, seed=31)
    batches = make_batches(2, 5, 3, 2, seed=32)
    noise = np.random.default_rng(33).standard_normal((5, 2))
    loss, _ = actor_loss_and_grads(agents, batches, 0, cfg, noise=noise)
    # expected: -mean Q at the reparameterized squashed actions
    out, _ = mlp_forward(agents[0].actor, batches[0].obses_t)
    a_i, _ = squashed_gaussian_sample(out[:, :2], out[:, 2:], noise)
    actions = [bt.actions for bt in batches]
    actions[0] = a_i
    x = np.concatenate([bt.obses_t for bt in batches] + actions, axis=1)
    q, _ = mlp_forward(agents[0].critic, x)
    assert loss == pytest.approx(float(-np.mean(q[:, 0])), rel=1e-12)


@pytest.mark.parametrize("algorithm", ["maddpg", "masac"])
def test_actor_loss_leaves_batch_rows_unchanged(algorithm):
    # the P-loss writes its actor's actions into the gathered rows for the
    # critic pass and must put the sampled ones back
    cfg = tiny_cfg(algorithm=algorithm)
    agents = make_tiny_agents(3, 2, 2, cfg, seed=51)
    batch = make_batches(3, 6, 2, 2, seed=52)
    before = batch.x.copy()
    noise = np.random.default_rng(53).standard_normal((6, 2))
    actor_loss_and_grads(agents, batch, 1, cfg, noise=noise)
    assert batch.x.tobytes() == before.tobytes()


def test_actor_gradient_flows_only_through_own_action_slot():
    # zero the critic input weights on agent 1's own action columns: the
    # policy gradient must vanish even though the loss itself stays nonzero,
    # because no other path from the actor into the critic may exist
    cfg = tiny_cfg()
    n, obs_dim, act_dim = 3, 2, 2
    agents = make_tiny_agents(n, obs_dim, act_dim, cfg, seed=41)
    batches = make_batches(n, 4, obs_dim, act_dim, seed=42)
    obs_total = n * obs_dim
    own = slice(obs_total + 1 * act_dim, obs_total + 2 * act_dim)
    agents[1].critic.w1[:, own] = 0.0
    loss, grads = actor_loss_and_grads(agents, batches, 1, cfg)
    assert loss != 0.0
    for f in PARAM_FIELDS:
        assert np.all(getattr(grads, f) == 0.0)


# ---------------------------------------------------------------------------
# update round orchestration
# ---------------------------------------------------------------------------

def test_update_skipped_until_buffers_filled():
    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 4)
    report = ProfileReport(meta={})
    before = [clone_params(ag.critic) for ag in agents]
    assert update_all_trainers(agents, cfg, report, np.random.default_rng(0)) is None
    for ag, prev in zip(agents, before):
        for f in PARAM_FIELDS:
            assert np.array_equal(getattr(ag.critic, f), getattr(prev, f))


def test_update_tau_zero_leaves_targets_bit_identical(monkeypatch):
    import marlbench.trainers as tr

    monkeypatch.setattr(tr, "TAU", 0.0)
    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 16)
    report = ProfileReport(meta={})
    before_targets = [(clone_params(ag.target_actor), clone_params(ag.target_critic))
                      for ag in agents]
    before_online = [clone_params(ag.actor) for ag in agents]
    assert update_all_trainers(agents, cfg, report, np.random.default_rng(0)) is not None
    for ag, (ta, tc), actor0 in zip(agents, before_targets, before_online):
        for f in PARAM_FIELDS:
            assert np.array_equal(getattr(ag.target_actor, f), getattr(ta, f))
            assert np.array_equal(getattr(ag.target_critic, f), getattr(tc, f))
        # the online nets did move
        assert any(not np.array_equal(getattr(ag.actor, f), getattr(actor0, f))
                   for f in PARAM_FIELDS)


def test_update_scope_counts_per_agent(monkeypatch):
    # perfbench wraps these trainers attributes by name, and its cell check
    # reads MiniBatchSampling count == N x rounds. At 8 rows the 3 index
    # sets share at most one batch of distinct rows, so target actors run
    # once over them; at 20 rows they run over every agent's batch.
    import marlbench.trainers as tr

    seams = ("draw_batch_indices", "collect_joint", "target_q_calculation",
             "critic_update", "actor_update")
    calls = dict.fromkeys(seams, 0)
    for name in seams:
        def counted(*args, _name=name, _real=getattr(tr, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(tr, name, counted)
    cfg = tiny_cfg(batch_size=8)
    for fill in (8, 20):
        agents = make_tiny_agents(3, 3, 2, cfg)
        fill_buffers(agents, fill)
        calls.update(dict.fromkeys(seams, 0))
        report = ProfileReport(meta={})
        losses = update_all_trainers(agents, cfg, report, np.random.default_rng(0))
        assert len(losses) == 3
        assert calls == dict.fromkeys(seams, 3)
        assert report.phase_count(Phase.UPDATE_ALL_TRAINERS) == 1
        for p in (Phase.MINI_BATCH_SAMPLING, Phase.TARGET_Q_CALC, Phase.Q_LOSS, Phase.P_LOSS):
            assert report.phase_count(p) == 3


def test_update_ordering_critic_actor_then_targets(monkeypatch):
    import marlbench.trainers as tr

    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 16)
    seq = []

    real_cu, real_au, real_su = tr.critic_update, tr.actor_update, tr.soft_update
    monkeypatch.setattr(tr, "critic_update",
                        lambda a, b, i, y, ws: (seq.append(("critic", i)), real_cu(a, b, i, y, ws))[1])
    monkeypatch.setattr(tr, "actor_update",
                        lambda a, b, i, c, noise, ws: (seq.append(("actor", i)), real_au(a, b, i, c, noise, ws))[1])
    monkeypatch.setattr(tr, "soft_update",
                        lambda t, o, tau: (seq.append(("soft", None)), real_su(t, o, tau))[1])

    report = ProfileReport(meta={})
    update_all_trainers(agents, cfg, report, np.random.default_rng(0))
    # per agent: critic step then actor step; target refresh happens at the
    # very end, one soft update per network per agent
    assert seq == [
        ("critic", 0), ("actor", 0),
        ("critic", 1), ("actor", 1),
        ("soft", None), ("soft", None), ("soft", None), ("soft", None),
    ]


@pytest.mark.parametrize("algorithm", ["maddpg", "masac"])
def test_update_routes_backward_through_module_name(monkeypatch, algorithm):
    # span tracing wraps trainers.mlp_backward by name and reads the
    # network and its forward cache from the first two positional arguments
    import marlbench.trainers as tr

    cfg = tiny_cfg(algorithm=algorithm, batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 16)
    calls = []
    real = tr.mlp_backward
    monkeypatch.setattr(tr, "mlp_backward",
                        lambda *args, **kw: (calls.append(args), real(*args, **kw))[1])

    assert update_all_trainers(agents, cfg, ProfileReport(meta={}),
                               np.random.default_rng(0)) is not None
    # per agent: Q-loss through the critic, then P-loss through the critic
    # and the actor
    critic_in = 2 * (3 + 2)
    assert [args[0].in_dim for args in calls] == [critic_in, critic_in, 3] * 2
    for args in calls:
        assert isinstance(args[0], MlpParams)
        assert isinstance(args[1], ForwardCache)
        assert args[1].x.shape == (cfg.batch_size, args[0].in_dim)


@pytest.mark.parametrize("algorithm", ["maddpg", "masac"])
@pytest.mark.parametrize("fill, union", [(12, True), (64, False)])
def test_update_target_actor_forwards_follow_union_rule(monkeypatch, algorithm, fill, union):
    # N=4, b=8: the round's distinct rows U take one target-actor forward per
    # actor per ceil(|U| / b) blocks when that is at most N // 2, else one per
    # agent's batch; every forward keeps the batch's b rows
    import marlbench.trainers as tr

    n, b = 4, 8
    cfg = tiny_cfg(algorithm=algorithm, batch_size=b)
    agents = make_tiny_agents(n, 3, 2, cfg)
    fill_buffers(agents, fill)
    targets = {id(ag.target_actor): j for j, ag in enumerate(agents)}
    forwards, idx_sets = [], []
    real_forward, real_draw = tr.mlp_forward, tr.draw_batch_indices

    def forward(params, x, *args):
        if id(params) in targets:
            forwards.append((targets[id(params)], x.shape))
        return real_forward(params, x, *args)

    def draw(*args, **kw):
        idx_sets.append(real_draw(*args, **kw))
        return idx_sets[-1]

    monkeypatch.setattr(tr, "mlp_forward", forward)
    monkeypatch.setattr(tr, "draw_batch_indices", draw)
    rng = np.random.default_rng(0)
    for _ in range(2):
        forwards.clear()
        idx_sets.clear()
        assert update_all_trainers(agents, cfg, ProfileReport(meta={}), rng) is not None
        blocks = -(-np.unique(np.concatenate(idx_sets)).size // b)
        assert (blocks <= n // 2) == union
        per_actor = blocks if union else n
        assert sorted(j for j, _ in forwards) == sorted(list(range(n)) * per_actor)
        assert all(shape == (b, 3) for _, shape in forwards)


def _filled_agents(n: int, cfg: TrainerConfig, rows: int, seed: int) -> list[AgentBundle]:
    env_cfg = envs.make_env_config("coop-nav", n, seed=0)
    agents = make_agents(env_cfg, cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for ag in agents:
        buf = ag.buffer
        # the same draws as rng.random(out=arr); the columns are not
        # contiguous. Row k's next observation is row k + 1's, the newest
        # row's the pending row.
        for arr in (buf.obs, buf.act, buf.rew, buf.pending):
            arr[...] = rng.random(arr.shape)
        buf.act *= 2.0
        buf.act -= 1.0
        buf.done[:] = rng.random(rows) < 0.04
        buf.size, buf.cursor = rows, 0
    return agents


# N=4: at 1,100 rows the four index sets share at most 1,100 distinct rows,
# two batches, so target actors run over the union; at 20,000 rows they
# share about 3,700 and run over every batch; at b=8 and 12 rows the union
# path pads its second block
@pytest.mark.parametrize("algorithm, sampler, b, rows", [
    (algorithm, sampler, 1024, rows)
    for algorithm in ("maddpg", "masac")
    for sampler in ("uniform", "neighbor")
    for rows in (1_100, 20_000)
] + [("masac", "neighbor", 8, 12)])
def test_update_round_matches_per_batch_oracle(algorithm, sampler, b, rows):
    import copy

    import oracles

    cfg = tiny_cfg(algorithm=algorithm, sampler=sampler, batch_size=b,
                   buffer_capacity=rows)
    shipped = _filled_agents(4, cfg, rows, seed=b + rows)
    reference = copy.deepcopy(shipped)
    round_ref = oracles.per_batch_update_all_trainers()
    rng_s, rng_r = np.random.default_rng(7), np.random.default_rng(7)
    meta_s, meta_r = {}, {}
    for _ in range(3):
        got = update_all_trainers(shipped, cfg, ProfileReport(meta=meta_s), rng_s)
        want = round_ref(reference, cfg, ProfileReport(meta=meta_r), rng_r)
        assert got == want
    assert rng_s.bit_generator.state == rng_r.bit_generator.state
    assert meta_s == meta_r
    for ag_s, ag_r in zip(shipped, reference):
        for role in ("actor", "critic", "target_actor", "target_critic"):
            for f in PARAM_FIELDS:
                a, w = getattr(getattr(ag_s, role), f), getattr(getattr(ag_r, role), f)
                assert a.tobytes() == w.tobytes(), (role, f)


@pytest.mark.parametrize("algorithm", ["maddpg", "masac"])
def test_update_rounds_gather_into_the_workspace_batch(algorithm):
    # a run's workspace keeps the batch its first round allots, so later
    # rounds gather into the same arrays, with the bits of fresh ones
    import copy

    cfg = tiny_cfg(algorithm=algorithm, batch_size=8)
    kept = make_tiny_agents(3, 3, 2, cfg)
    fill_buffers(kept, 40)
    fresh = copy.deepcopy(kept)
    rng_k, rng_f = np.random.default_rng(3), np.random.default_rng(3)
    ws = RoundWorkspace()
    xs = []
    for _ in range(3):
        got = update_all_trainers(kept, cfg, ProfileReport(meta={}), rng_k, ws)
        want = update_all_trainers(fresh, cfg, ProfileReport(meta={}), rng_f)
        assert got == want
        xs.append(ws.batch.x)
    assert xs[0] is xs[1] is xs[2]
    for ag_k, ag_f in zip(kept, fresh):
        for role in ("actor", "critic", "target_actor", "target_critic"):
            for f in PARAM_FIELDS:
                k, w = getattr(getattr(ag_k, role), f), getattr(getattr(ag_f, role), f)
                assert k.tobytes() == w.tobytes(), (role, f)


def test_update_advances_adam_counters_together():
    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 16)
    report = ProfileReport(meta={})
    rng = np.random.default_rng(0)
    update_all_trainers(agents, cfg, report, rng)
    assert all(ag.critic_opt.t == 1 and ag.actor_opt.t == 1 for ag in agents)
    update_all_trainers(agents, cfg, report, rng)
    assert all(ag.critic_opt.t == 2 and ag.actor_opt.t == 2 for ag in agents)


def test_targets_change_only_via_soft_update():
    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(2, 3, 2, cfg)
    fill_buffers(agents, 16)
    batches = make_batches(2, 8, 3, 2)  # direct updates, bypassing the round's soft update
    t_actor = clone_params(agents[0].target_actor)
    t_critic = clone_params(agents[0].target_critic)
    y = np.zeros(8)
    critic_update(agents, batches, 0, y)
    actor_update(agents, batches, 0, cfg)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(agents[0].target_actor, f), getattr(t_actor, f))
        assert np.array_equal(getattr(agents[0].target_critic, f), getattr(t_critic, f))


def test_critic_parameter_total_grows_superlinearly():
    cfg = tiny_cfg()

    def total_critic_params(n: int) -> int:
        env_cfg = envs.make_env_config("coop-nav", n, seed=0)
        agents = make_agents(env_cfg, cfg, np.random.default_rng(0))
        return sum(a.size for ag in agents for a in ag.critic.arrays())

    p3, p6, p12 = total_critic_params(3), total_critic_params(6), total_critic_params(12)
    assert p6 > 2 * p3
    assert p12 > 2 * p6


# ---------------------------------------------------------------------------
# samplers inside the trainer
# ---------------------------------------------------------------------------

def test_draw_batch_indices_uniform_and_neighbor_shapes():
    rng = np.random.default_rng(0)
    for sampler in ("uniform", "neighbor"):
        cfg = tiny_cfg(sampler=sampler, batch_size=16)
        idx = draw_batch_indices(cfg, rng, 200)
        assert idx.shape == (16,)
        assert idx.min() >= 0 and idx.max() < 200


def test_draw_batch_indices_neighbor_falls_back_to_uniform():
    cfg = tiny_cfg(sampler="neighbor", batch_size=1024, neighbors=3)
    meta = {}
    idx = draw_batch_indices(cfg, np.random.default_rng(0), 5, meta)
    assert idx.shape == (1024,)
    assert idx.max() < 5
    assert meta["neighbor_fallbacks"] == 1


# ---------------------------------------------------------------------------
# end-to-end training runs
# ---------------------------------------------------------------------------

def test_run_training_one_episode_buffer_lengths():
    cfg = tiny_cfg(episodes=1, batch_size=4)
    env_cfg = envs.make_env_config("coop-nav", 3, seed=0)
    stats, report = run_training(cfg, env_cfg)
    assert len(stats) == 1
    assert report.meta["n_agents"] == 3
    # one insert per agent per step: replicate the rollout loop and count
    cfg2 = tiny_cfg(episodes=1, batch_size=4, update_every=1000)
    agents = make_agents(env_cfg, cfg2, np.random.default_rng(0))
    state, obs = envs.reset(env_cfg, np.random.default_rng(0))
    done = False
    rng = np.random.default_rng(0)
    while not done:
        noise = rng.normal(0.0, EXPLORATION_SIGMA, size=(3, 2))
        actions = [select_action(agents[i], obs[i], cfg2, noise[i]) for i in range(3)]
        state, next_obs, rew, done = envs.step(state, actions, env_cfg)
        for i in range(3):
            agents[i].buffer.add(obs[i], actions[i], rew[i], next_obs[i], done)
        obs = next_obs
    assert all(len(ag.buffer) == 25 for ag in agents)


def test_run_training_runs_blas_on_one_thread(monkeypatch):
    # a seeded run's bits must not depend on the host's core count, and
    # one BLAS thread has no worker threads to wake: every round runs on
    # one thread, and the thread count is restored when the run returns
    import marlbench.nn as nn
    import marlbench.trainers as tr

    threads = nn._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get_threads = threads[1]
    seen = []
    real = tr.update_all_trainers
    monkeypatch.setattr(tr, "update_all_trainers",
                        lambda *args: seen.append(get_threads()) or real(*args))
    before = get_threads()
    _, report = run_training(tiny_cfg(episodes=2), envs.make_env_config("coop-nav", 3, seed=0))
    assert report.meta["blas_threads"] == 1
    assert seen and set(seen) == {1}
    assert get_threads() == before


def test_run_training_steps_env_through_module_name(monkeypatch):
    # span tracing wraps envs.step and envs.reset by name, so the rollout
    # must look them up on the module at call time
    calls = {"reset": 0, "step": 0}
    for name in calls:
        real = getattr(envs, name)

        def counted(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(envs, name, counted)
    cfg = tiny_cfg(episodes=2)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=0)
    stats, _ = run_training(cfg, env_cfg)
    assert len(stats) == 2
    assert calls == {"reset": 2, "step": 2 * 25}


def test_run_training_two_update_rounds():
    cfg = tiny_cfg(episodes=8, batch_size=32, update_every=100,
                   buffer_capacity=1000)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=0)
    stats, report = run_training(cfg, env_cfg)
    assert len(stats) == 8
    assert report.meta["update_rounds"] == 2
    assert report.meta["skipped_updates"] == 0
    assert report.phase_count(Phase.UPDATE_ALL_TRAINERS) == 2


def test_run_training_skip_counter():
    # update triggers fire before the buffer reaches the batch size
    cfg = tiny_cfg(episodes=4, batch_size=1024, update_every=25,
                   buffer_capacity=2000)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=0)
    _, report = run_training(cfg, env_cfg)
    assert report.meta["update_rounds"] == 0
    assert report.meta["skipped_updates"] == 4


def _strip_wall(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_run_training_deterministic_stats():
    cfg = tiny_cfg(episodes=6, batch_size=16, update_every=50, buffer_capacity=500)
    env_cfg = envs.make_env_config("predator-prey", 2, seed=3)
    s1, _ = run_training(cfg, env_cfg)
    s2, _ = run_training(cfg, env_cfg)
    assert _strip_wall(stats_to_csv(s1)) == _strip_wall(stats_to_csv(s2))


@pytest.mark.parametrize("scenario, algorithm, sampler", [
    ("coop-nav", "maddpg", "uniform"),
    ("coop-nav", "maddpg", "neighbor"),
    ("predator-prey", "masac", "uniform"),
])
def test_run_training_matches_allocating_reference_kernels(
        monkeypatch, tmp_path, scenario, algorithm, sampler):
    # the in-place kernels must reproduce, bit for bit, a run through the
    # allocating copies in tests/oracles.py
    import marlbench.trainers as tr
    import oracles

    cfg = tiny_cfg(algorithm=algorithm, sampler=sampler, episodes=6, batch_size=32,
                   update_every=20, buffer_capacity=500, seed=4)
    env_cfg = envs.make_env_config(scenario, 3, seed=5)

    def train(tag):
        stats, report = run_training(cfg, env_cfg, checkpoint_dir=tmp_path / tag)
        with np.load(tmp_path / tag / "networks.npz") as data:
            nets = {k: data[k] for k in data.files}
        return _strip_wall(stats_to_csv(stats)), nets, report.meta["update_rounds"]

    shipped = train("shipped")
    for name in ("mlp_forward", "mlp_backward", "squashed_gaussian_sample"):
        monkeypatch.setattr(tr, name, getattr(oracles, name))

    def reference_action(head, noise):
        d = noise.shape[-1]
        return oracles.squashed_gaussian_sample(head[..., :d], head[..., d:], noise)[0]

    # so every action the run draws, rollout and target-Q alike, goes
    # through the allocating sampler
    monkeypatch.setattr(tr, "squashed_gaussian_action", reference_action)
    monkeypatch.setattr(tr, "adam_step", oracles.writeback_adam_step)
    monkeypatch.setattr(tr, "soft_update", oracles.writeback_soft_update)
    reference = train("reference")

    assert shipped[2] == reference[2] >= 5
    assert shipped[0] == reference[0]
    assert shipped[1].keys() == reference[1].keys()
    for key, arr in shipped[1].items():
        assert arr.tobytes() == reference[1][key].tobytes(), key


@pytest.mark.parametrize("scenario, n, algorithm", [
    (scenario, n, algorithm)
    for scenario, n in (("coop-nav", 3), ("coop-nav", 12), ("predator-prey", 3))
    for algorithm in ("maddpg", "masac")
])
def test_run_training_matches_per_agent_rollout_oracle(monkeypatch, scenario, n, algorithm):
    # one noise draw per step, one displacement array per env step and
    # field-wise adds must leave every stored row and episode reward as the
    # per-agent rollout in tests/oracles.py makes them, update rounds included
    import marlbench.trainers as tr
    import oracles

    cfg = tiny_cfg(algorithm=algorithm, episodes=5, batch_size=16, update_every=20,
                   buffer_capacity=90, seed=6)
    env_cfg = envs.make_env_config(scenario, n, seed=7)
    agents, rewards = oracles.per_agent_rollout().train(cfg, env_cfg)
    made = []
    real_make = tr.make_agents
    monkeypatch.setattr(tr, "make_agents", lambda *args: made.append(real_make(*args)) or made[0])
    stats, report = run_training(cfg, env_cfg)

    # 125 steps into 90 rows: the ring wraps
    assert report.meta["update_rounds"] == 6
    got, want = made[0][0].buffer.store, agents[0].buffer.store
    for name in ("x", "pending", "rew", "done"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    got_rewards = np.array([s.per_agent_rewards for s in stats])
    assert got_rewards.tobytes() == np.array(rewards).tobytes()


@pytest.mark.parametrize("scenario, algorithm, sampler, update_every", [
    ("coop-nav", "maddpg", "uniform", 30),
    ("coop-nav", "maddpg", "neighbor", 30),
    ("predator-prey", "masac", "uniform", 35),
    ("coop-nav", "masac", "neighbor", 35),
])
def test_run_training_matches_two_array_replay_oracle(
        monkeypatch, tmp_path, scenario, algorithm, sampler, update_every):
    # reading next observations from the following row, and the newest
    # row's from the pending row, must train bit for bit as the store with
    # a second next-observation array in tests/oracles.py did; terminal rows
    # included, whose next observation now is the next episode's first
    import marlbench.trainers as tr
    import oracles

    cfg = tiny_cfg(algorithm=algorithm, sampler=sampler, episodes=24, batch_size=32,
                   update_every=update_every, buffer_capacity=160, seed=8)
    env_cfg = envs.make_env_config(scenario, 4, seed=9)

    def train(tag):
        unions = []
        real_union = tr._run_union
        monkeypatch.setattr(tr, "_run_union",
                            lambda *args: unions.append(1) or real_union(*args))
        out = tmp_path / tag
        stats, report = run_training(cfg, env_cfg, checkpoint_dir=out,
                                     trajectory_path=out / "trajectory.csv")
        with np.load(out / "networks.npz") as data:
            nets = {k: data[k] for k in data.files}
        return (_strip_wall(stats_to_csv(stats)), nets,
                (out / "trajectory.csv").read_bytes(), report.meta["update_rounds"],
                len(unions))

    shipped = train("shipped")
    old = oracles.two_array_replay()
    for name in ("joint_buffers", "collect_joint", "_run_union"):
        monkeypatch.setattr(tr, name, getattr(old, name))
    reference = train("reference")

    # 600 steps into a 160-row ring: it wraps three times; the first rounds
    # take the target-actor union, the later ones every agent's batch
    rounds, unions = shipped[3], shipped[4]
    assert (rounds, unions) == reference[3:]
    assert rounds >= 15 and 0 < unions < rounds
    assert shipped[0] == reference[0]
    assert shipped[2] == reference[2]
    assert shipped[1].keys() == reference[1].keys()
    for key, arr in shipped[1].items():
        assert arr.tobytes() == reference[1][key].tobytes(), key


def test_run_training_masac_smoke():
    cfg = tiny_cfg(algorithm="masac", episodes=6, batch_size=16, update_every=50,
                   buffer_capacity=500)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=1)
    stats, report = run_training(cfg, env_cfg)
    assert len(stats) == 6
    assert report.meta["update_rounds"] >= 1
    assert all(np.isfinite(s.mean_episode_reward) for s in stats)


def test_run_training_neighbor_sampler_smoke():
    cfg = tiny_cfg(sampler="neighbor", episodes=6, batch_size=16, update_every=50,
                   buffer_capacity=500)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=1)
    stats, report = run_training(cfg, env_cfg)
    assert report.meta["update_rounds"] >= 1
    assert report.meta["sampler"] == "neighbor"


# ---------------------------------------------------------------------------
# metrics and artifacts
# ---------------------------------------------------------------------------

def test_final_window_mean():
    from marlbench.trainers import EpisodeStats

    stats = [EpisodeStats(i, [float(i)], float(i), 0.0) for i in range(100)]
    assert final_window_mean(stats, 0.1) == pytest.approx(np.mean(range(90, 100)))
    assert final_window_mean(stats, 0.5) == pytest.approx(np.mean(range(50, 100)))
    with pytest.raises(ValueError):
        final_window_mean([])


def test_stats_csv_layout():
    from marlbench.trainers import EpisodeStats

    stats = [EpisodeStats(0, [1.5, -0.5], 0.5, 3.25)]
    text = stats_to_csv(stats)
    lines = text.strip().splitlines()
    assert lines[0] == "episode,mean_episode_reward,reward_agent_0,reward_agent_1,wall_ms"
    assert lines[1] == "0,0.5,1.5,-0.5,3.25"


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg()
    agents = make_tiny_agents(2, 3, 2, cfg, seed=9)
    path = save_checkpoint(agents, tmp_path / "ck")
    assert path == tmp_path / "ck" / "networks.npz"
    roles = ("actor", "critic", "target_actor", "target_critic")
    # np.load refuses pickled objects by default, so this also checks that
    # every entry is a plain array
    with np.load(path) as data:
        assert sorted(data.files) == sorted(
            f"agent{i}.{role}.{f}" for i in range(2) for role in roles for f in PARAM_FIELDS
        )
        for i, ag in enumerate(agents):
            for role in roles:
                for f in PARAM_FIELDS:
                    assert np.array_equal(data[f"agent{i}.{role}.{f}"],
                                          getattr(getattr(ag, role), f))


def test_run_training_writes_artifacts(tmp_path):
    cfg = tiny_cfg(episodes=3, batch_size=8, update_every=20, buffer_capacity=200)
    env_cfg = envs.make_env_config("coop-nav", 2, seed=0)
    ck = tmp_path / "checkpoints"
    traj = tmp_path / "trajectory.csv"
    run_training(cfg, env_cfg, checkpoint_dir=ck, trajectory_path=traj)
    assert [p.name for p in ck.iterdir()] == ["networks.npz"]
    with np.load(ck / "networks.npz") as data:
        assert {key.split(".")[0] for key in data.files} == {"agent0", "agent1"}
    lines = traj.read_text().strip().splitlines()
    n_entities = 2 + 2  # learners + landmarks
    assert lines[0] == ",".join(envs.TRAJECTORY_HEADER)
    assert len(lines) == 1 + n_entities * 26  # initial rows + 25 steps
