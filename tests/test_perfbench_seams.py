"""Guards for the seams perfbench/ reaches into the package through.

perfbench's span tracer wraps package functions by name and its cells fill
standalone replay buffers in place; a change that breaks either fails every
benchmark cell. The repository's test run collects only tests/, so these
tests import perfbench's modules from here. They do not edit them.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import marlbench
from marlbench import envs, replay, trainers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from workloads import TINY  # noqa: E402


@pytest.mark.parametrize("scenario, algorithm", [
    ("coop-nav", "maddpg"),
    ("predator-prey", "masac"),
])
def test_traced_tiny_run_summarizes(monkeypatch, scenario, algorithm):
    n = 3
    cfg = trainers.TrainerConfig(algorithm=algorithm, seed=0, **TINY)
    env_cfg = envs.make_env_config(scenario, n, seed=0)
    made = []
    real_make = trainers.make_agents
    monkeypatch.setattr(trainers, "make_agents",
                        lambda *args: made.append(real_make(*args)) or made[0])
    tracer = spans.Tracer()
    tracer.install(spans.wrap_targets(marlbench))
    try:
        _, report = trainers.run_training(cfg, env_cfg)
    finally:
        tracer.restore()
    assert tracer.restored()
    metrics, counts = spans.summarize(tracer.spans)
    assert all(np.isfinite(v) for v in metrics.values()), metrics

    rounds = report.meta["update_rounds"]
    steps = cfg.episodes * env_cfg.max_episode_length
    assert rounds >= 1
    assert counts["replay.add"] == n * steps
    # one actor forward on a 1-D observation per agent per step
    assert counts["trainers.select_action"] == n * steps
    assert counts["nn.mlp_forward.b1"] == n * steps
    assert counts["envs.step"] == steps
    assert counts["envs.reset"] == cfg.episodes
    assert counts["replay.collect_joint"] == n * rounds
    # each collect_joint yields n per-agent batches of obs, action, reward,
    # next obs and done, in the store's dtype
    obs_dim = envs.observation_dim(env_cfg)
    row_bytes = made[0][0].buffer.store.x.itemsize * (2 * obs_dim + envs.ACT_DIM + 2)
    want_mb = rounds * n * n * cfg.batch_size * row_bytes / spans.MB
    assert metrics["replay.collect_joint.mb_gathered"] == pytest.approx(want_mb)


def test_standalone_buffer_arrays_fill_in_place():
    # `marlbench bench-sampler` and perfbench's gather probe fill a
    # standalone buffer with rng.random(out=...), which needs C-contiguous
    # arrays
    buf = replay.ReplayBuffer(16, 5, 2)
    arrays = (buf.obs, buf.act, buf.rew, buf.next_obs, buf.done)
    assert all(arr.flags.c_contiguous for arr in arrays)
    rng = np.random.default_rng(0)
    for arr in arrays:
        rng.random(out=arr)
