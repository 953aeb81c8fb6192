"""The training precision contract.

Training runs in ``trainers.DTYPE`` (float32): the store, every network and
Adam moment, the batches, the target-actor union and the noises. The nn
kernels compute in the dtype of the parameters they are given, so networks
built in float64, as the finite-difference suites build them, still run in
float64.
"""
import numpy as np
import pytest

import marlbench.trainers as tr
from marlbench import envs
from marlbench.nn import (
    ForwardCache,
    MlpParams,
    adam_step,
    init_adam,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    soft_update,
    squashed_gaussian_action,
    squashed_gaussian_sample,
)
from marlbench.replay import JointBatch, ReplayBuffer

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _arrays(obj, where: str):
    """Every ndarray reachable from obj through the containers a kernel
    takes or returns, each with a name saying where it was found."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield where, obj
    elif isinstance(obj, MlpParams):
        for f, a in vars(obj).items():
            yield from _arrays(a, f"{where}.{f}")
    elif isinstance(obj, ForwardCache):
        for f, a in vars(obj).items():
            yield from _arrays(a, f"{where}.cache.{f}")
    elif isinstance(obj, JointBatch):
        for f in ("x", "x_tp1", "rew", "done"):
            yield from _arrays(getattr(obj, f), f"{where}.{f}")
    elif isinstance(obj, tr.TargetActorUnion):
        for j, a in enumerate(obj.outs):
            yield from _arrays(a, f"{where}.outs[{j}]")
    elif isinstance(obj, (list, tuple)):
        for k, a in enumerate(obj):
            yield from _arrays(a, f"{where}[{k}]")
    elif hasattr(obj, "m") and hasattr(obj, "v"):  # AdamState
        yield from _arrays(obj.m, f"{where}.m")
        yield from _arrays(obj.v, f"{where}.v")


def _spy(monkeypatch, seen: dict, name: str, module=tr) -> None:
    """Wrap module.name so that every float array among its arguments and
    its result is recorded under the kernel's name."""
    real = getattr(module, name)

    def spied(*args, **kw):
        out = real(*args, **kw)
        found = seen.setdefault(name, [])
        for k, a in enumerate(args):
            found.extend(_arrays(a, f"{name}.arg{k}"))
        for k, a in kw.items():
            found.extend(_arrays(a, f"{name}.{k}"))
        found.extend(_arrays(out, f"{name}.out"))
        if name == "collect_joint":
            store = args[0][0].store
            for f in ("x", "pending", "rew", "done"):
                found.append((f"store.{f}", getattr(store, f)))
        return out

    monkeypatch.setattr(module, name, spied)


@pytest.mark.parametrize("scenario, algorithm", [
    ("coop-nav", "maddpg"),
    ("predator-prey", "masac"),
])
def test_training_leaves_no_float64_array(monkeypatch, scenario, algorithm):
    # the first round runs at 32 rows, so the target actors run over the
    # round's distinct rows; later rounds run them over every agent's batch
    seen: dict = {}
    kernels = ("mlp_forward", "mlp_backward", "adam_step", "soft_update",
               "squashed_gaussian_sample", "squashed_gaussian_action", "collect_joint",
               "_run_union", "target_y", "select_action")
    for name in kernels:
        _spy(monkeypatch, seen, name)
    _spy(monkeypatch, seen, "add", ReplayBuffer)
    made = []
    real_make = tr.make_agents
    monkeypatch.setattr(tr, "make_agents", lambda *args: made.append(real_make(*args)) or made[0])
    cfg = tr.TrainerConfig(algorithm=algorithm, episodes=6, batch_size=32, update_every=32,
                           buffer_capacity=200, seed=3)
    env_cfg = envs.make_env_config(scenario, 3, seed=4)
    _, report = tr.run_training(cfg, env_cfg)

    assert report.meta["update_rounds"] >= 3
    stochastic = algorithm == "masac"
    for name in kernels + ("add",):
        if stochastic or not name.startswith("squashed"):
            assert seen.get(name), f"{name} was never called with a float array"
    seen["bundles"] = [found for ag in made[0]
                       for role in ("actor", "critic", "target_actor", "target_critic",
                                    "actor_opt", "critic_opt")
                       for found in _arrays(getattr(ag, role), role)]
    wide = sorted({where for found in seen.values() for where, a in found if a.dtype != F32})
    assert not wide, wide


@pytest.mark.parametrize("dtype", [F32, F64])
def test_each_kernel_returns_its_parameters_dtype(dtype):
    rng = np.random.default_rng(0)
    params = init_mlp_params(6, 4, rng, hidden=8).astype(dtype)
    assert all(a.dtype == dtype for a in params.arrays())
    # an input of the other precision is converted to the parameters'
    x = rng.normal(size=(5, 6)).astype(F64 if dtype == F32 else F32)
    y, cache = mlp_forward(params, x)
    assert y.dtype == dtype
    assert all(a.dtype == dtype for a in vars(cache).values())
    grads, dx = mlp_backward(params, cache, rng.normal(size=(5, 4)))
    assert dx.dtype == dtype
    assert all(g.dtype == dtype for g in grads.arrays())

    state = init_adam(params)
    adam_step(state, params, grads)
    target = params.copy()
    soft_update(target, params, 0.5)
    for p in (params, state.m, state.v, target):
        assert all(a.dtype == dtype for a in p.arrays())
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(state, params, grads.astype(F64 if dtype == F32 else F32))
    with pytest.raises(ValueError, match="target shape"):
        soft_update(target, params.astype(F64 if dtype == F32 else F32), 0.5)

    head = y
    noise = rng.standard_normal((5, 2))
    action, logp = squashed_gaussian_sample(head[:, :2], head[:, 2:], noise)
    assert action.dtype == logp.dtype == dtype
    assert squashed_gaussian_action(head, noise).dtype == dtype
    assert tr.target_y(np.zeros(5), np.zeros(5), y[:, 0], 0.9).dtype == dtype


# Set from the dtype before measuring: float32 rounds at eps = 2**-23, about
# 1.2e-7, and the rounding errors of a k-term sum grow like sqrt(k) * eps
# (a random walk; Higham, "Accuracy and Stability of Numerical Algorithms",
# ch. 4). The longest sum here has 1,024 terms (a bias gradient over the
# batch), so every entry must lie within 4 * sqrt(1024) * eps, about 1.5e-5,
# of the largest entry of its float64 result. float16 arithmetic, or a layer
# computed from the wrong operands, misses it by orders of magnitude.
F32_REL_TOL = 4 * np.sqrt(1024) * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("in_dim, out_dim, batch", [(648, 1, 256), (50, 2, 1024), (50, 2, 1)])
def test_float32_forward_and_backward_agree_with_float64(in_dim, out_dim, batch):
    rng = np.random.default_rng(in_dim + batch)
    p64 = init_mlp_params(in_dim, out_dim, rng, hidden=64)
    p32 = p64.astype(np.float32)
    x = rng.uniform(-1.0, 1.0, size=(batch, in_dim))
    up = rng.normal(size=(batch, out_dim)) / batch
    y64, c64 = mlp_forward(p64, x)
    y32, c32 = mlp_forward(p32, x)
    g64, dx64 = mlp_backward(p64, c64, up)
    g32, dx32 = mlp_backward(p32, c32, up.astype(np.float32))
    pairs = [("y", y64, y32), ("dx", dx64, dx32)]
    pairs += [(f"grad.{f}", getattr(g64, f), getattr(g32, f)) for f in vars(g64)]
    pairs += [(f"cache.{f}", getattr(c64, f), getattr(c32, f)) for f in vars(c64)]
    for name, want, got in pairs:
        assert got.dtype == F32, name
        scale = float(np.max(np.abs(want)))
        err = float(np.max(np.abs(got.astype(np.float64) - want)))
        assert err <= F32_REL_TOL * scale, (name, err, scale)
