"""Release acceptance gate.

Seven end-to-end criteria, one test each. Every test prints a single
PASS/FAIL line with the measured values and the pinned tolerances so the
verdicts can be read straight off the captured output. Reference numbers
from full-scale GPU runs are displayed for context only and never asserted.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from marlbench import envs, replay, trainers
from marlbench.cli import REFERENCE_RESULTS
from marlbench.cli import main as cli_main
from marlbench.nn import LOG_STD_MAX, LOG_STD_MIN, mlp_forward, squashed_gaussian_sample
from marlbench.profiler import Phase
from marlbench.replay import InsufficientDataError
from marlbench.trainers import (
    TrainerConfig,
    actor_loss_and_grads,
    critic_loss_and_grads,
    final_window_mean,
    run_training,
    stats_to_csv,
)
from oracles import PARAM_FIELDS, clone_params, fd_param_gradient, windowed_indices_transcription
from test_trainers import make_batches, make_tiny_agents

REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: windowed sampling must collect batches measurably faster
# than uniform sampling on a full-size buffer
# ---------------------------------------------------------------------------

def test_criterion_1_sampler_speedup(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench.json"
    rc = cli_main([
        "bench-sampler", "--buffer-len", "1000000", "--batch", "1024",
        "--neighbors", "3", "--trials", "31", "--warmup", "5",
        "--seed", "0", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    data = json.loads(out.read_text())
    ratio = data["ratio"]
    ok = rc == 0 and ratio <= 0.85 and elapsed < 120.0
    line = _verdict(
        "criterion 1 sampler speedup", ok,
        f"median time ratio {ratio:.3f} <= 0.85, reduction "
        f"{data['percent_reduction']:.1f}% (reference 26.66-27.39%), "
        f"{elapsed:.1f}s < 120s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: the production windowed sampler must agree exactly with a
# literal line-by-line transcription of its defining procedure
# ---------------------------------------------------------------------------

def test_criterion_2_windowed_sampler_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    sequences = 0
    errors = 0
    for _ in range(1000):
        n = int(rng.choice([1, 2, 3, 5]))
        d = int(rng.integers(2, 201))
        b = int(rng.integers(1, 65))
        k = int(rng.integers(1, 25))
        anchors = rng.integers(0, d, size=k)
        try:
            got = list(replay.neighbor_indices(anchors, d, n, b))
        except InsufficientDataError:
            got = None
        try:
            want = windowed_indices_transcription(list(anchors), d, n, b)
        except ValueError:
            want = None
        if got is None and want is None:
            errors += 1
        elif got != want:
            mismatches += 1
        else:
            sequences += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    line = _verdict(
        "criterion 2 sampler oracle equivalence", ok,
        f"{mismatches} mismatches over 1000 cases "
        f"({sequences} sequences, {errors} matched short-data errors), "
        f"{elapsed:.1f}s < 10s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: analytic loss gradients vs central finite differences
# ---------------------------------------------------------------------------

def _relu_margin(params, x) -> float:
    z1 = x @ params.w1.T + params.b1
    z2 = np.maximum(z1, 0.0) @ params.w2.T + params.b2
    return min(float(np.min(np.abs(z1))), float(np.min(np.abs(z2))))


def _worst_excess(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Largest |analytic - fd| relative to the pinned bound 1e-6 * |fd| + 1e-9.

    Values <= 1.0 satisfy the bound. The absolute floor exists because
    central differences at eps=1e-5 in double precision cannot resolve
    gradient entries below roughly 1e-10; those are compared absolutely.
    """
    bound = 1e-6 * np.abs(fd) + 1e-9
    return float(np.max(np.abs(analytic - fd) / bound))


def _grad_instance(seed: int, algorithm: str):
    """Build one small two-agent problem, skipping draws too close to a
    ReLU kink or a log-std clamp boundary for finite differences to resolve."""
    cfg = TrainerConfig(algorithm=algorithm, sampler="uniform", episodes=1,
                        seed=0, batch_size=4)
    agents = make_tiny_agents(2, 2, 2, cfg, seed=seed)
    batches = make_batches(2, 4, 2, 2, seed=seed + 10_000)
    case_rng = np.random.default_rng(seed + 20_000)
    y = case_rng.normal(size=4)
    noise = case_rng.standard_normal((4, 2))

    margin = 1e-3
    x_critic = np.concatenate([bt.obses_t for bt in batches]
                              + [bt.actions for bt in batches], axis=1)
    if _relu_margin(agents[0].critic, x_critic) < margin:
        return None
    obs0 = batches[0].obses_t
    if _relu_margin(agents[0].actor, obs0) < margin:
        return None
    out, _ = mlp_forward(agents[0].actor, obs0)
    if algorithm == "maddpg":
        a0 = np.tanh(out)
    else:
        s_raw = out[:, 2:]
        if (np.min(np.abs(s_raw - LOG_STD_MIN)) < margin
                or np.min(np.abs(s_raw - LOG_STD_MAX)) < margin):
            return None
        a0, _ = squashed_gaussian_sample(out[:, :2], s_raw, noise)
    actions = [bt.actions for bt in batches]
    actions[0] = a0
    x_actor = np.concatenate([bt.obses_t for bt in batches] + actions, axis=1)
    if _relu_margin(agents[0].critic, x_actor) < margin:
        return None
    return cfg, agents, batches, y, noise


def test_criterion_3_gradient_finite_difference_suite():
    t0 = time.perf_counter()
    worst_critic = 0.0
    worst_actor = 0.0
    done, seed = 0, 0
    while done < 100:
        algorithm = "maddpg" if done % 2 == 0 else "masac"
        built = _grad_instance(seed, algorithm)
        seed += 1
        if built is None:
            continue
        cfg, agents, batches, y, noise = built

        _, cg = critic_loss_and_grads(agents, batches, 0, y)
        critic0 = agents[0].critic

        def critic_loss(p):
            agents[0].critic = p
            val, _ = critic_loss_and_grads(agents, batches, 0, y)
            return val

        try:
            fd = fd_param_gradient(critic_loss, clone_params(critic0))
        finally:
            agents[0].critic = critic0
        for f in PARAM_FIELDS:
            worst_critic = max(worst_critic, _worst_excess(getattr(cg, f), fd[f]))

        kw = {} if algorithm == "maddpg" else {"noise": noise}
        _, ag_ = actor_loss_and_grads(agents, batches, 0, cfg, **kw)
        actor0 = agents[0].actor

        def actor_loss(p):
            agents[0].actor = p
            val, _ = actor_loss_and_grads(agents, batches, 0, cfg, **kw)
            return val

        try:
            fd = fd_param_gradient(actor_loss, clone_params(actor0))
        finally:
            agents[0].actor = actor0
        for f in PARAM_FIELDS:
            worst_actor = max(worst_actor, _worst_excess(getattr(ag_, f), fd[f]))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_critic <= 1.0 and worst_actor <= 1.0 and elapsed < 30.0
    line = _verdict(
        "criterion 3 gradient suite", ok,
        f"100 instances vs bound 1e-6*|fd|+1e-9: worst critic excess "
        f"{worst_critic:.3f}, worst actor excess {worst_actor:.3f}, "
        f"both <= 1.0, {elapsed:.1f}s < 30s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 4: the update phase must dominate more as agent count grows
# ---------------------------------------------------------------------------

def test_criterion_4_update_phase_scaling_trend():
    t0 = time.perf_counter()
    share = {}
    per_update_sampling = {}
    for n in (3, 6):
        cfg = TrainerConfig(algorithm="maddpg", sampler="uniform",
                            episodes=500, seed=0)
        env_cfg = envs.make_env_config("predator-prey", n, seed=0)
        _, report = run_training(cfg, env_cfg)
        rounds = report.phase_count(Phase.UPDATE_ALL_TRAINERS)
        share[n] = report.phase_ns(Phase.UPDATE_ALL_TRAINERS) / report.total_ns
        per_update_sampling[n] = report.phase_ns(Phase.MINI_BATCH_SAMPLING) / rounds
    factor = per_update_sampling[6] / per_update_sampling[3]
    elapsed = time.perf_counter() - t0
    ok = share[6] > share[3] and factor > 1.5 and elapsed < 600.0
    line = _verdict(
        "criterion 4 update phase scaling", ok,
        f"update share {share[3]:.3f} -> {share[6]:.3f} (strictly up), "
        f"per-update sampling x{factor:.2f} > 1.5, {elapsed:.0f}s < 600s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: switching the sampler must not change final reward by more
# than 10%, and both samplers must show learning over the run
# ---------------------------------------------------------------------------

def _reward_cell(sampler: str, seed: int) -> tuple[float, float]:
    cfg = TrainerConfig(algorithm="maddpg", sampler=sampler,
                        episodes=2000, seed=seed)
    env_cfg = envs.make_env_config("coop-nav", 3, seed=seed)
    stats, _ = run_training(cfg, env_cfg)
    first100 = float(np.mean([s.mean_episode_reward for s in stats[:100]]))
    return first100, final_window_mean(stats)


def test_criterion_5_reward_parity_and_learning():
    t0 = time.perf_counter()
    first = {}
    final = {}
    for sampler in ("uniform", "neighbor"):
        firsts, finals = [], []
        for seed in (0, 1, 2):
            f100, fwin = _reward_cell(sampler, seed)
            print(f"  {sampler} seed {seed}: first100 {f100:.3f}, final {fwin:.3f}")
            firsts.append(f100)
            finals.append(fwin)
        first[sampler] = float(np.mean(firsts))
        final[sampler] = float(np.mean(finals))
    elapsed = time.perf_counter() - t0
    diff = abs(final["neighbor"] - final["uniform"])
    bound = 0.10 * abs(final["uniform"])
    parity = diff <= bound
    learned_u = final["uniform"] > first["uniform"]
    learned_n = final["neighbor"] > first["neighbor"]
    ref_b = REFERENCE_RESULTS["mean_reward_baseline"]["3"]
    ref_n = REFERENCE_RESULTS["mean_reward_neighbor"]["3"]
    ok = parity and learned_u and learned_n and elapsed < 1200.0
    line = _verdict(
        "criterion 5 reward parity", ok,
        f"|final diff| {diff:.3f} <= {bound:.3f}, "
        f"uniform {first['uniform']:.3f} -> {final['uniform']:.3f} "
        f"(learned={learned_u}), "
        f"neighbor {first['neighbor']:.3f} -> {final['neighbor']:.3f} "
        f"(learned={learned_n}), "
        f"full-scale reference {ref_b} vs {ref_n} shown for context only, "
        f"{elapsed:.0f}s < 1200s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: end-to-end non-regression across the agent-count sweep
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_non_regression(tmp_path):
    t0 = time.perf_counter()
    samplers = ("uniform", "neighbor")
    trees = {sampler: tmp_path / sampler for sampler in samplers}

    def train(sampler: str, n: int, seed: int, out: Path) -> int:
        return cli_main([
            "train", "--scenario", "coop-nav", "--agents", str(n),
            "--sampler", sampler, "--episodes", "300", "--repetitions", "1",
            "--seed", str(seed), "--out", str(out),
        ])

    # the first cell in a process runs slow, so one is trained and discarded
    assert train("uniform", 3, 0, tmp_path / "warmup") == 0
    # each (N, seed) pair runs back to back, alternating which sampler goes
    # first, so a slow spell of the host lands on both samplers alike
    for k, (n, seed) in enumerate((n, s) for n in (3, 6, 12) for s in (0, 1)):
        for sampler in samplers if k % 2 == 0 else samplers[::-1]:
            assert train(sampler, n, seed, trees[sampler]) == 0
    cmp_path = tmp_path / "comparison.json"
    rc = cli_main(["compare", str(trees["uniform"]), str(trees["neighbor"]),
                   "--assert", "--out", str(cmp_path)])
    result = json.loads(cmp_path.read_text())
    reductions = {
        n: row["total_reduction_pct"]
        for n, row in result["per_agent_count"].items()
    }
    ref = REFERENCE_RESULTS["total_time_reduction_pct"]
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and all(pct >= -2.0 for pct in reductions.values())
    line = _verdict(
        "criterion 6 end-to-end non-regression", ok,
        "total reductions "
        + ", ".join(f"N={n}: {pct:+.2f}%" for n, pct in reductions.items())
        + f" all >= -2%, full-scale reference {ref} shown for context only, "
        f"{elapsed:.0f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: property suites and end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites_and_determinism():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         "tests/test_nn.py", "tests/test_replay.py",
         "tests/test_envs.py", "tests/test_profiler.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    suites_ok = proc.returncode == 0

    def _stats_text(seed: int) -> str:
        cfg = TrainerConfig(algorithm="maddpg", sampler="uniform", episodes=40,
                            seed=seed, batch_size=64, update_every=50,
                            buffer_capacity=2000)
        env_cfg = envs.make_env_config("coop-nav", 2, seed=seed)
        stats, _ = run_training(cfg, env_cfg)
        lines = stats_to_csv(stats).strip().splitlines()
        return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)

    deterministic = _stats_text(7) == _stats_text(7)
    elapsed = time.perf_counter() - t0
    ok = suites_ok and deterministic and elapsed < 60.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    line = _verdict(
        "criterion 7 property suites", ok,
        f"unit suites {'ok' if suites_ok else 'FAILED'} ({tail}), "
        f"identical stats across repeated seeded runs={deterministic}, "
        f"{elapsed:.0f}s < 60s",
    )
    if not suites_ok:
        print(proc.stdout[-2000:])
    assert ok, line
