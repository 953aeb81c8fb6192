"""Tests for the MADDPG/MASAC training pipeline."""

import numpy as np
import pytest

from marlbench import envs
from marlbench.nn import (
    ForwardCache,
    MlpParams,
    init_adam,
    init_mlp_params,
    mlp_forward,
    param_count,
    squashed_gaussian_sample,
)
from marlbench.profiler import Phase, ProfileReport
from marlbench.replay import BatchArrays, ReplayBuffer, Transition
from marlbench.trainers import (
    AgentBundle,
    NonFiniteLossError,
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
                batch_size=4, update_every=10, buffer_capacity=64, hidden=8)
    base.update(kw)
    return TrainerConfig(**base)


def zeroed(params: MlpParams) -> MlpParams:
    return MlpParams(*(np.zeros_like(a) for a in params.arrays()))


def make_tiny_agents(n: int, obs_dim: int, act_dim: int, cfg: TrainerConfig,
                     seed: int = 0) -> list[AgentBundle]:
    rng = np.random.default_rng(seed)
    out_dim = act_dim if cfg.algorithm == "maddpg" else 2 * act_dim
    critic_in = n * (obs_dim + act_dim)
    agents = []
    for _ in range(n):
        actor = init_mlp_params(obs_dim, out_dim, rng, cfg.hidden)
        critic = init_mlp_params(critic_in, 1, rng, cfg.hidden)
        agents.append(AgentBundle(
            actor=actor, critic=critic,
            target_actor=actor.copy(), target_critic=critic.copy(),
            actor_opt=init_adam(actor, cfg.lr), critic_opt=init_adam(critic, cfg.lr),
            buffer=ReplayBuffer(cfg.buffer_capacity, obs_dim, act_dim),
            obs_dim=obs_dim, act_dim=act_dim,
        ))
    return agents


def make_batches(n: int, b: int, obs_dim: int, act_dim: int, seed: int = 1
                 ) -> list[BatchArrays]:
    rng = np.random.default_rng(seed)
    return [
        BatchArrays(
            obses_t=rng.normal(size=(b, obs_dim)),
            actions=rng.uniform(-1, 1, size=(b, act_dim)),
            rewards=rng.normal(size=b),
            obses_tp1=rng.normal(size=(b, obs_dim)),
            dones=rng.integers(0, 2, size=b).astype(np.float64),
        )
        for _ in range(n)
    ]


def fill_buffers(agents: list[AgentBundle], k: int, seed: int = 2) -> None:
    rng = np.random.default_rng(seed)
    for step in range(k):
        for ag in agents:
            ag.buffer.add(Transition(
                obs=rng.normal(size=ag.obs_dim),
                action=rng.uniform(-1, 1, size=ag.act_dim),
                reward=float(rng.normal()),
                next_obs=rng.normal(size=ag.obs_dim),
                done=bool(step % 25 == 24),
            ))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_match_training_setup():
    cfg = TrainerConfig(algorithm="maddpg", sampler="uniform", episodes=10, seed=0)
    assert (cfg.gamma, cfg.tau, cfg.lr) == (0.95, 0.01, 0.01)
    assert (cfg.batch_size, cfg.update_every) == (1024, 100)
    assert (cfg.entropy_alpha, cfg.exploration_sigma) == (0.05, 0.1)
    assert cfg.neighbors == 3
    assert cfg.hidden == 64


def test_config_validation_bounds():
    for kw in (dict(gamma=1.0), dict(gamma=0.0), dict(tau=1.5), dict(tau=-0.1),
               dict(batch_size=0), dict(algorithm="dqn"), dict(sampler="x"),
               dict(neighbors=0), dict(episodes=0), dict(lr=0.0)):
        with pytest.raises(ValueError):
            validate_trainer_config(tiny_cfg(**kw))


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------

def test_select_action_zero_actor_no_explore():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    agents[0].actor = zeroed(agents[0].actor)
    a = select_action(agents[0], np.array([1.0, -1.0, 0.5]), cfg,
                      np.random.default_rng(0), explore=False)
    assert a == pytest.approx([0.0, 0.0])


def test_select_action_deterministic_without_noise():
    cfg = tiny_cfg()
    agents = make_tiny_agents(1, 3, 2, cfg)
    obs = np.array([0.2, 0.4, -0.1])
    a1 = select_action(agents[0], obs, cfg, np.random.default_rng(0), explore=False)
    a2 = select_action(agents[0], obs, cfg, np.random.default_rng(99), explore=False)
    assert np.array_equal(a1, a2)


def test_select_action_explore_stays_clamped():
    cfg = tiny_cfg(exploration_sigma=0.1)
    agents = make_tiny_agents(1, 3, 2, cfg)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = select_action(agents[0], rng.normal(size=3), cfg, rng, explore=True)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_select_action_masac_modes():
    cfg = tiny_cfg(algorithm="masac")
    agents = make_tiny_agents(1, 3, 2, cfg)
    obs = np.array([0.2, 0.4, -0.1])
    greedy = select_action(agents[0], obs, cfg, np.random.default_rng(0), explore=False)
    out, _ = mlp_forward(agents[0].actor, obs)
    assert greedy == pytest.approx(np.tanh(out[:2]))
    explored = select_action(agents[0], obs, cfg, np.random.default_rng(0), explore=True)
    assert np.all(np.abs(explored) <= 1.0)


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
    got = target_y(batches[1].rewards, batches[1].dones, q, cfg.gamma)
    rows = [[batches[j].obses_tp1[k] for j in range(n)] for k in range(b)]
    want = naive_target_y_maddpg(
        rows, batches[1].rewards, batches[1].dones,
        [ag.target_actor for ag in agents], agents[1].target_critic, cfg.gamma,
    )
    denom = np.maximum(np.abs(want), 1e-12)
    assert np.max(np.abs(got - want) / denom) < 1e-12


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


def test_actor_masac_alpha_zero_reduces_to_q_objective():
    cfg = tiny_cfg(algorithm="masac", entropy_alpha=0.0)
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


def test_update_tau_zero_leaves_targets_bit_identical():
    cfg = tiny_cfg(batch_size=8, tau=0.0)
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


def test_update_scope_counts_per_agent():
    cfg = tiny_cfg(batch_size=8)
    agents = make_tiny_agents(3, 3, 2, cfg)
    fill_buffers(agents, 20)
    report = ProfileReport(meta={})
    losses = update_all_trainers(agents, cfg, report, np.random.default_rng(0))
    assert len(losses) == 3
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
                        lambda a, b, i, y: (seq.append(("critic", i)), real_cu(a, b, i, y))[1])
    monkeypatch.setattr(tr, "actor_update",
                        lambda a, b, i, c, r=None: (seq.append(("actor", i)), real_au(a, b, i, c, r))[1])
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
    batches = [  # direct updates, bypassing the round's soft-update step
        bt for bt in make_batches(2, 8, 3, 2)
    ]
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
        return sum(param_count(ag.critic) for ag in agents)

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
        actions = [select_action(agents[i], obs[i], cfg2, rng, True) for i in range(3)]
        state, next_obs, rew, done = envs.step(state, actions, env_cfg)
        for i in range(3):
            agents[i].buffer.add(Transition(obs[i], actions[i], float(rew[i]),
                                            next_obs[i], done))
        obs = next_obs
    assert all(len(ag.buffer) == 25 for ag in agents)


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
