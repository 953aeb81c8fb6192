"""One benchmark cell in a fresh process: import, warm-up cell, timed cell.

run.py starts this once per cell and reads the JSON object it prints as the
last line of standard output. Both cells go through ``marlbench.cli.run_cell``,
the entry point of ``marlbench train``. The warm-up cell runs just long
enough to finish its first update round; it is part of set-up because every
``marlbench train`` process pays its one-time costs (README.md).

With ``--traced`` the timed cell runs under span wrappers (spans.py), and the
profiler scope probe and the replay gather probe run after it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import spans
from workloads import TINY, WORKLOADS

# Replay gather probe: the shape of `marlbench bench-sampler`'s defaults.
PROBE_ROWS = 1_000_000
PROBE_OBS_DIM = 20
PROBE_ACT_DIM = 2
PROBE_BATCH = 1024
PROBE_NEIGHBORS = 3
PROBE_TRIALS = 50
PROBE_WARMUP = 5
# obs, act, reward, next obs and done, float64
PROBE_ROW_BYTES = 8 * (2 * PROBE_OBS_DIM + PROBE_ACT_DIM + 2)


def clock_ns() -> int:
    """System-wide monotonic clock, comparable between run.py and this process."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class CheckFailed(RuntimeError):
    """A cell's outputs disagree with what its configuration implies."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def make_configs(mb, workload: str, seed: int, tiny: bool):
    w = WORKLOADS[workload]
    sizes = TINY if tiny else {"episodes": w.episodes}
    cfg = mb.trainers.TrainerConfig(
        algorithm=w.algorithm, sampler=w.sampler, seed=seed, **sizes
    )
    env_cfg = mb.envs.make_env_config(w.scenario, w.n_agents, seed=seed)
    return cfg, env_cfg


def first_round_insert(cfg) -> int:
    """Steps until the first update round that is not skipped: the first
    multiple of update_every at which every buffer holds a full batch (and,
    for the windowed sampler, at least one whole window)."""
    need = cfg.batch_size
    if cfg.sampler == "neighbor":
        need = max(need, 2 * cfg.neighbors + 1)
    return -(-need // cfg.update_every) * cfg.update_every


def warmup_episodes(cfg, env_cfg) -> int:
    """Episodes until the first update round."""
    return -(-first_round_insert(cfg) // env_cfg.max_episode_length)


def rounds_per_episode(cfg, env_cfg) -> np.ndarray:
    """Update rounds, skipped ones not counted, that each episode holds.
    Every episode runs max_episode_length steps."""
    steps = np.arange(cfg.episodes + 1) * env_cfg.max_episode_length
    first = first_round_insert(cfg) // cfg.update_every
    # rounds held at the multiples of update_every from the first round on
    rounds_by = np.maximum(steps // cfg.update_every - first + 1, 0)
    return np.diff(rounds_by)


def train_cell(mb, cfg, env_cfg, cell_dir: Path) -> dict:
    """Train one cell through cli.run_cell and check every artifact it wrote."""
    spec = mb.cli.ExperimentSpec(
        scenario=env_cfg.scenario,
        algorithm=cfg.algorithm,
        sampler=cfg.sampler,
        agents=[env_cfg.n_learners],
        seed=cfg.seed,
        neighbors=cfg.neighbors,
        episodes=cfg.episodes,
        batch_size=cfg.batch_size,
        update_every=cfg.update_every,
        buffer_capacity=cfg.buffer_capacity,
    )
    t0 = clock_ns()
    mb.cli.run_cell(spec, env_cfg.n_learners, cfg.seed, cell_dir)
    wall_ns = clock_ns() - t0

    run = json.loads((cell_dir / "run.json").read_text())
    check(run["trainer_config"] == asdict(cfg), "run.json trainer_config differs from the workload's")
    check(run["env_config"] == asdict(env_cfg), "run.json env_config differs from the workload's")

    with open(cell_dir / "stats.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    check(header[-1] == "wall_ms", "stats.csv has no trailing wall_ms column")
    check(len(body) == cfg.episodes, f"stats.csv has {len(body)} episodes, expected {cfg.episodes}")
    rewards = [float(v) for row in body for v in row[1:-1]]
    check(all(math.isfinite(r) for r in rewards), "non-finite reward in stats.csv")
    digest = hashlib.sha256(
        "\n".join(",".join(row[:-1]) for row in rows).encode()
    ).hexdigest()

    profile = json.loads((cell_dir / "profile.json").read_text())
    phases = {p["name"]: p for p in profile["phases"]}
    meta = profile["meta"]
    steps = cfg.episodes * env_cfg.max_episode_length
    rounds = meta["update_rounds"]
    check(profile["violations"] == 0, f"{profile['violations']} profiler nesting violations")
    for name in ("ActionSelection", "EnvStep"):
        check(phases[name]["count"] == steps, f"{name} count {phases[name]['count']} != {steps} steps")
    check(phases["UpdateAllTrainers"]["count"] == rounds, "UpdateAllTrainers count != update_rounds")
    check(
        phases["MiniBatchSampling"]["count"] == env_cfg.n_learners * rounds,
        "MiniBatchSampling count != N x update_rounds",
    )
    check(rounds >= 1, "the cell never reached an update round")
    per_episode = rounds_per_episode(cfg, env_cfg)
    check(per_episode.sum() == rounds, "update rounds per episode do not add up to update_rounds")
    wall_ms = [float(row[-1]) for row in body]
    rollout_ms = [ms for ms, held in zip(wall_ms, per_episode) if held == 0]
    check(bool(rollout_ms), "every episode held an update round")

    total = profile["total_ns"]
    top = [p for p in profile["phases"] if p["parent"] is None]
    children = [p for p in profile["phases"] if p["parent"] == "UpdateAllTrainers"]
    phase_ms = {p["name"]: p["ns"] / 1e6 for p in profile["phases"]}
    phase_ms["unattributed"] = max(total - sum(p["ns"] for p in top), 0) / 1e6
    phase_ms["UpdateAllTrainers.unattributed"] = max(
        phases["UpdateAllTrainers"]["ns"] - sum(p["ns"] for p in children), 0
    ) / 1e6
    checkpoint_bytes = sum(f.stat().st_size for f in (cell_dir / "checkpoints").iterdir())
    return {
        "wall_s": wall_ns / 1e9,
        "steps": steps,
        "wall_ms": wall_ms,
        "rollout_ms_min": min(rollout_ms),
        "rollout_episodes": len(rollout_ms),
        "digest": digest,
        "update_rounds": rounds,
        "skipped_updates": meta["skipped_updates"],
        "neighbor_fallbacks": meta["neighbor_fallbacks"],
        "profile_total_ms": total / 1e6,
        "phase_ms": phase_ms,
        "scopes": sum(p["count"] for p in profile["phases"]),
        "checkpoint_mb": checkpoint_bytes / spans.MB,
    }


def probe_scope_pair_ns(mb) -> float:
    """Cost of one enter/exit pair of a reusable phase scope, in ns."""
    report = mb.profiler.ProfileReport()
    scope = mb.profiler.phase_scope(report, mb.profiler.Phase.ACTION_SELECTION)
    per_pair = []
    for _ in range(7):
        n = 20_000
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with scope:
                pass
        per_pair.append((time.perf_counter_ns() - t0) / n)
    return float(np.median(per_pair))


def probe_gather(mb, seed: int) -> dict:
    """Uniform against windowed batch gathers on a full 1M-row buffer."""
    replay = mb.replay
    rng = np.random.default_rng(seed)
    buf = replay.ReplayBuffer(PROBE_ROWS, PROBE_OBS_DIM, PROBE_ACT_DIM)
    # fill in place so the probe never holds a second copy of the buffer
    for arr in (buf.obs, buf.act, buf.rew, buf.next_obs):
        rng.random(out=arr)
    buf.size, buf.cursor = PROBE_ROWS, 0
    k = -(-PROBE_BATCH // (2 * PROBE_NEIGHBORS)) + mb.trainers.ANCHOR_SLACK

    def uniform():
        replay.gather(buf, replay.make_index_uniform(rng, PROBE_BATCH, PROBE_ROWS))

    def neighbor():
        anchors = replay.make_index_uniform(rng, k, PROBE_ROWS)
        idx = replay.neighbor_indices(anchors, PROBE_ROWS, PROBE_NEIGHBORS, PROBE_BATCH)
        replay.gather(buf, idx[:PROBE_BATCH])

    for _ in range(PROBE_WARMUP):
        uniform()
        neighbor()
    uniform_ns, neighbor_ns = [], []
    for _ in range(PROBE_TRIALS):
        for fn, out in ((uniform, uniform_ns), (neighbor, neighbor_ns)):
            t0 = time.perf_counter_ns()
            fn()
            out.append(time.perf_counter_ns() - t0)
    u, n = float(np.median(uniform_ns)), float(np.median(neighbor_ns))
    return {
        "replay.gather_probe.uniform_us": u / 1e3,
        "replay.gather_probe.neighbor_us": n / 1e3,
        "replay.gather_probe.ratio": n / u,
    }


def run(args) -> dict:
    import marlbench
    import marlbench.cli  # noqa: F401  (the package root does not import cli)

    src = Path(args.src).resolve()
    check(
        Path(marlbench.__file__).resolve().parent == src / "marlbench",
        f"imported marlbench from {marlbench.__file__}, not from {src}",
    )
    cfg, env_cfg = make_configs(marlbench, args.workload, args.seed, args.tiny)
    out = Path(args.out)

    warm_cfg = replace(cfg, episodes=warmup_episodes(cfg, env_cfg))
    warm = train_cell(marlbench, warm_cfg, env_cfg, out / "warmup")
    check(warm["update_rounds"] >= 1, "warm-up cell finished no update round")
    ru_setup = resource.getrusage(resource.RUSAGE_SELF)
    t_setup = clock_ns()

    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        tracer.install(spans.wrap_targets(marlbench))
    try:
        cell = train_cell(marlbench, cfg, env_cfg, out / "timed")
    finally:
        if tracer is not None:
            tracer.restore()
    ru_end = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ok": True,
        "setup_s": (t_setup - args.t0_ns) / 1e9,
        "maxrss_mb": ru_end.ru_maxrss / 1024,  # Linux reports KiB
        "minflt": ru_end.ru_minflt - ru_setup.ru_minflt,
        "setup_minflt": ru_setup.ru_minflt,
        **cell,
    }
    if tracer is not None:
        check(tracer.restored(), "a traced function was not restored")
        layer, counts = spans.summarize(tracer.spans)
        n = env_cfg.n_learners
        obs_dim = marlbench.envs.observation_dim(env_cfg)
        row_bytes = 8 * (2 * obs_dim + marlbench.envs.ACT_DIM + 2)
        rows = min(cell["steps"], cfg.buffer_capacity)
        draws = n * cell["update_rounds"] if cfg.sampler == "neighbor" else 0
        run_training_ns = next(s[2] - s[1] for s in tracer.spans if s[0] == "cli.run_training")
        layer.update({
            "replay.working_set_mb": n * rows * row_bytes / spans.MB,
            "replay.neighbor_fallback_ratio": cell["neighbor_fallbacks"] / draws if draws else 0.0,
            "cli.artifacts_ms": cell["wall_s"] * 1e3 - run_training_ns / 1e6,
            "cli.checkpoint_mb": cell["checkpoint_mb"],
            "profiler.scope_pair_ns": probe_scope_pair_ns(marlbench),
        })
        layer.update(probe_gather(marlbench, args.seed))
        result["layer"] = layer
        result["calls"] = counts
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory holding the marlbench package")
    parser.add_argument("--out", required=True, help="scratch directory for the cells' artifacts")
    parser.add_argument("--t0-ns", type=int, required=True, dest="t0_ns",
                        help="CLOCK_MONOTONIC time just before this process was started")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except Exception as exc:  # any failure of the cell is reported, not raised
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
