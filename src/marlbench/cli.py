"""Benchmark command line driver.

Subcommands:
  train          run a training sweep and write per-cell artifacts
  bench-sampler  micro-benchmark uniform vs neighbor batch collection
  compare        diff two sweep output trees (baseline vs optimized)
  report         pretty-print any artifact produced by the other commands

Every int field of a training spec can also be forced through the
environment for CI, over both the spec file and the flags:
MARLBENCH_EPISODES, MARLBENCH_BATCH_SIZE, MARLBENCH_UPDATE_EVERY,
MARLBENCH_BUFFER_CAPACITY, MARLBENCH_REPETITIONS, MARLBENCH_NEIGHBORS and
MARLBENCH_SEED. bench-sampler reads MARLBENCH_BUFFER_LEN, MARLBENCH_BATCH
and MARLBENCH_TRIALS the same way.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import envs, replay, trainers
from .profiler import Phase, report_from_json, report_to_json

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ASSERT = 3

SCHEMA_VERSION = 1
ENV_PREFIX = "MARLBENCH_"

# Reference measurements from a full-scale GPU run of the same training
# pipeline (predator-prey, 60k episodes, neighbors=3). Shown in comparison
# output for context; desk-scale runs are never asserted against them.
REFERENCE_RESULTS = {
    "sampling_phase_reduction_pct": {"3": 26.66, "6": 26.68, "12": 27.39},
    "total_time_reduction_pct": {"3": 5.6, "6": 7.8, "12": 10.2},
    "update_subphase_split_pct": {
        "MiniBatchSampling": 61.0,
        "TargetQCalc": 21.0,
        "QLoss": 10.0,
        "PLoss": 8.0,
    },
    "mean_reward_baseline": {"3": 21.04, "6": 103.96, "12": 870.39},
    "mean_reward_neighbor": {"3": 20.05, "6": 105.94, "12": 872.49},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool reserves
    # 2 for runtime failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class ExperimentSpec:
    """One training sweep: scenario and algorithm crossed with agent counts."""

    scenario: str = envs.SCENARIO_COOP_NAV
    algorithm: str = trainers.ALGO_MADDPG
    sampler: str = trainers.SAMPLER_UNIFORM
    agents: list[int] = field(default_factory=lambda: [3, 6, 12])
    repetitions: int = 1
    seed: int = 0
    neighbors: int = 3
    episodes: int = 2000
    batch_size: int = 1024
    update_every: int = 100
    buffer_capacity: int = 100_000
    dump_trajectory: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @staticmethod
    def from_file(path: str) -> "ExperimentSpec":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"spec file must hold a JSON object, got {type(data).__name__}")
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"spec file schema_version {version}, expected {SCHEMA_VERSION}")
        unknown = set(data) - {f.name for f in fields(ExperimentSpec)}
        if unknown:
            raise ValueError(f"spec file has unknown fields: {sorted(unknown)}")
        for f in fields(ExperimentSpec):
            if f.name in data and not _has_spec_type(data[f.name], f.type):
                raise ValueError(
                    f"spec file field {f.name!r} must be {f.type}, got {data[f.name]!r}"
                )
        return ExperimentSpec(**data)


def _has_spec_type(value, annotation: str) -> bool:
    # exact types: bool is an int subclass, and JSON true is no episode count
    if annotation == "list[int]":
        return type(value) is list and all(type(v) is int for v in value)
    return type(value) is {"str": str, "int": int, "bool": bool}[annotation]


def _env_override(name: str, value, cast):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return value
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"bad {ENV_PREFIX}{name.upper()}={raw!r}: {exc}") from exc


def _parse_agents(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad agent list {text!r}, expected e.g. 3,6,12")
    return values


def _spec_from_args(args) -> ExperimentSpec:
    """Start from the spec file or the defaults, apply each flag that was
    given, then let MARLBENCH_<FIELD> override any int field; check that
    the result names at least one cell."""
    spec = ExperimentSpec.from_file(args.spec) if args.spec else ExperimentSpec()
    for f in fields(ExperimentSpec):
        value = getattr(args, f.name)
        if value is not None:
            setattr(spec, f.name, _parse_agents(value) if f.name == "agents" else value)
        if type(f.default) is int:
            setattr(spec, f.name, _env_override(f.name, getattr(spec, f.name), int))
    if not spec.agents or any(n < 1 for n in spec.agents):
        raise ValueError(f"spec field 'agents' must list positive counts, got {spec.agents}")
    if spec.repetitions < 1:
        raise ValueError(f"spec field 'repetitions' must be >= 1, got {spec.repetitions}")
    return spec


def run_cell(spec: ExperimentSpec, n_agents: int, seed: int, cell_dir: Path) -> dict:
    """Train one (agent count, seed) cell and write its artifact set."""
    env_cfg = envs.make_env_config(spec.scenario, n_agents, seed=seed)
    shared = {f.name for f in fields(trainers.TrainerConfig)} & {f.name for f in fields(spec)}
    cfg = trainers.TrainerConfig(
        **{name: getattr(spec, name) for name in shared - {"seed"}}, seed=seed
    )
    cell_dir.mkdir(parents=True, exist_ok=True)
    trajectory = cell_dir / "trajectory.csv" if spec.dump_trajectory else None
    t0 = time.perf_counter()
    stats, report = trainers.run_training(
        cfg,
        env_cfg,
        checkpoint_dir=cell_dir / "checkpoints",
        trajectory_path=trajectory,
    )
    elapsed = time.perf_counter() - t0
    (cell_dir / "stats.csv").write_text(trainers.stats_to_csv(stats))
    (cell_dir / "profile.json").write_text(report_to_json(report))
    run_meta = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "cell": {"n_agents": n_agents, "seed": seed},
        "trainer_config": asdict(cfg),
        "env_config": asdict(env_cfg),
    }
    (cell_dir / "run.json").write_text(json.dumps(run_meta, indent=2))
    final = trainers.final_window_mean(stats)
    logger.info(
        "cell n=%d seed=%d done in %.1fs, final-window reward %.3f",
        n_agents, seed, elapsed, final,
    )
    return {"n_agents": n_agents, "seed": seed, "final_reward": final, "seconds": elapsed}


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "spec.json").write_text(json.dumps(spec.to_dict(), indent=2))
    for n_agents in spec.agents:
        for rep in range(spec.repetitions):
            seed = spec.seed + rep
            run_cell(spec, n_agents, seed, out / f"n{n_agents}_seed{seed}")
    print(f"wrote {len(spec.agents) * spec.repetitions} cell(s) under {out}")
    return EXIT_OK


def _time_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def cmd_bench_sampler(args) -> int:
    length = _env_override("buffer_len", args.buffer_len, int)
    batch = _env_override("batch", args.batch, int)
    trials = _env_override("trials", args.trials, int)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = args.neighbors
    uniform_cfg = trainers.TrainerConfig(batch_size=batch, neighbors=n)
    neighbor_cfg = replace(uniform_cfg, sampler=trainers.SAMPLER_NEIGHBOR)
    for cfg in (uniform_cfg, neighbor_cfg):
        trainers.validate_trainer_config(cfg)
    rng = np.random.default_rng(args.seed)
    logger.info("filling buffer: %d records, obs_dim=%d", length, args.obs_dim)
    buf = replay.ReplayBuffer(length, args.obs_dim, args.act_dim)
    # fill in place so the buffer is never held twice; done stays zero but
    # is written too, so no gather reads the kernel's shared zero page
    for arr in (buf.obs, buf.act, buf.rew, buf.next_obs):
        rng.random(out=arr)
    buf.done[:] = 0.0
    buf.size = length
    fallbacks: dict = {}  # counts windowed draws that fell back to uniform

    def uniform_trial():
        replay.gather(buf, trainers.draw_batch_indices(uniform_cfg, rng, length))

    def neighbor_trial():
        replay.gather(buf, trainers.draw_batch_indices(neighbor_cfg, rng, length, fallbacks))

    for _ in range(args.warmup):
        uniform_trial()
        neighbor_trial()
    uniform_ns, neighbor_ns = [], []
    for _ in range(trials):
        uniform_ns.append(_time_ns(uniform_trial))
        neighbor_ns.append(_time_ns(neighbor_trial))
    if fallbacks:
        raise ValueError(f"{length} records are too few for windowed batches of {batch}")
    med_u = float(np.median(uniform_ns))
    med_n = float(np.median(neighbor_ns))
    result = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sampler-bench",
        "config": {
            "buffer_len": length,
            "batch": batch,
            "neighbors": n,
            "trials": trials,
            "warmup": args.warmup,
            "obs_dim": args.obs_dim,
            "act_dim": args.act_dim,
            "seed": args.seed,
        },
        "uniform": {"median_ns": med_u, "trials_ns": uniform_ns},
        "neighbor": {"median_ns": med_n, "trials_ns": neighbor_ns},
        "ratio": med_n / med_u,
        "percent_reduction": 100.0 * (med_u - med_n) / med_u,
    }
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    print(
        f"uniform median {med_u / 1e3:.1f} us, neighbor median {med_n / 1e3:.1f} us, "
        f"reduction {result['percent_reduction']:.1f}%"
    )
    return EXIT_OK


_CELL_RE = re.compile(r"^n(\d+)_seed(\d+)$")


def _scan_cells(root: Path) -> dict[tuple[int, int], Path]:
    cells = {}
    for child in sorted(root.iterdir()):
        m = _CELL_RE.match(child.name)
        if m and (child / "profile.json").exists():
            cells[(int(m.group(1)), int(m.group(2)))] = child
    return cells


def _load_cell(path: Path) -> dict:
    profile = report_from_json((path / "profile.json").read_text())
    phases = {p["name"]: p for p in profile["phases"]}
    rewards = []
    with open(path / "stats.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rewards.append(float(row["mean_episode_reward"]))
    window = max(1, int(round(0.1 * len(rewards))))
    return {
        "total_ns": profile["total_ns"],
        "sampling_ns": phases[Phase.MINI_BATCH_SAMPLING.label]["ns"],
        "update_ns": phases[Phase.UPDATE_ALL_TRAINERS.label]["ns"],
        "final_reward": float(np.mean(rewards[-window:])),
    }


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def compare_trees(baseline: Path, optimized: Path) -> dict:
    """Pair cells by (agents, seed) and aggregate reductions per agent count."""
    base_cells = _scan_cells(baseline)
    opt_cells = _scan_cells(optimized)
    if set(base_cells) != set(opt_cells):
        missing_opt = sorted(set(base_cells) - set(opt_cells))
        missing_base = sorted(set(opt_cells) - set(base_cells))
        raise ValueError(
            f"cell pairing failed: missing from optimized {missing_opt}, "
            f"missing from baseline {missing_base}"
        )
    if not base_cells:
        raise ValueError("no cells found; expected n<agents>_seed<seed> directories")
    by_n: dict[int, dict] = {}
    for n in sorted({n for n, _ in base_cells}):
        seeds = sorted(s for (cn, s) in base_cells if cn == n)
        base = [_load_cell(base_cells[(n, s)]) for s in seeds]
        opt = [_load_cell(opt_cells[(n, s)]) for s in seeds]
        base_total = _mean_std([c["total_ns"] for c in base])
        opt_total = _mean_std([c["total_ns"] for c in opt])
        base_samp = _mean_std([c["sampling_ns"] for c in base])
        opt_samp = _mean_std([c["sampling_ns"] for c in opt])
        for label, samp in (("baseline", base_samp), ("optimized", opt_samp)):
            if samp["mean"] == 0.0:
                raise ValueError(
                    f"{label} cells for n={n} recorded no minibatch sampling time; "
                    "the sweep never reached an update round (too few episodes for "
                    "the configured batch size), so there is nothing to compare"
                )
        base_rew = _mean_std([c["final_reward"] for c in base])
        opt_rew = _mean_std([c["final_reward"] for c in opt])
        reward_delta = opt_rew["mean"] - base_rew["mean"]
        parity_violation = abs(reward_delta) > 0.10 * abs(base_rew["mean"])
        by_n[n] = {
            "seeds": seeds,
            "total_ns": {"baseline": base_total, "optimized": opt_total},
            "total_reduction_pct": 100.0 * (base_total["mean"] - opt_total["mean"])
            / base_total["mean"],
            "sampling_ns": {"baseline": base_samp, "optimized": opt_samp},
            "sampling_reduction_pct": 100.0 * (base_samp["mean"] - opt_samp["mean"])
            / base_samp["mean"],
            "final_reward": {"baseline": base_rew, "optimized": opt_rew},
            "reward_delta": reward_delta,
            "reward_parity_violation": parity_violation,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "comparison",
        "baseline": str(baseline),
        "optimized": str(optimized),
        "per_agent_count": {str(n): row for n, row in by_n.items()},
        "reference": REFERENCE_RESULTS,
    }


def _print_comparison(result: dict) -> None:
    ref_samp = result["reference"]["sampling_phase_reduction_pct"]
    ref_total = result["reference"]["total_time_reduction_pct"]
    header = (
        f"{'N':>4} {'sampling reduction':>20} {'ref':>8} "
        f"{'total reduction':>17} {'ref':>8} {'reward base':>12} {'reward opt':>12}"
    )
    print(header)
    for n, row in result["per_agent_count"].items():
        rs = ref_samp.get(n)
        rt = ref_total.get(n)
        print(
            f"{n:>4} {row['sampling_reduction_pct']:>19.2f}% "
            f"{(f'{rs:.2f}%' if rs is not None else '-'):>8} "
            f"{row['total_reduction_pct']:>16.2f}% "
            f"{(f'{rt:.1f}%' if rt is not None else '-'):>8} "
            f"{row['final_reward']['baseline']['mean']:>12.3f} "
            f"{row['final_reward']['optimized']['mean']:>12.3f}"
            + ("   REWARD PARITY VIOLATION" if row["reward_parity_violation"] else "")
        )
    print("reference columns show full-scale GPU measurements, for context only")


def cmd_compare(args) -> int:
    result = compare_trees(Path(args.baseline), Path(args.optimized))
    _print_comparison(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2))
        print(f"wrote {args.out}")
    if args.assert_:
        # non-regression gate: optimized must not be slower by more than 2%
        failures = [
            (n, row["total_reduction_pct"])
            for n, row in result["per_agent_count"].items()
            if row["total_reduction_pct"] < -2.0
        ]
        if failures:
            for n, pct in failures:
                print(f"ASSERT FAIL: N={n} optimized total time slower by {-pct:.2f}%")
            return EXIT_ASSERT
        print("ASSERT OK: neighbor total time within 2% of baseline at every N")
    return EXIT_OK


def _print_table(rows: list[list[str]]) -> None:
    if not rows:
        return
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def cmd_report(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"no such artifact: {path}")
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        cap = 40
        _print_table(rows[: cap + 1])
        if len(rows) > cap + 1:
            print(f"... {len(rows) - 1 - cap} more rows")
        return EXIT_OK
    text = path.read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(data).__name__}")
    if "phases" in data:
        data = report_from_json(text)
        total = data["total_ns"]
        print(f"total {total / 1e9:.3f}s   meta {data.get('meta', {})}")
        rows = [["phase", "parent", "ms", "count", "% of parent"]]
        for p in data["phases"]:
            rows.append([
                p["name"], p["parent"] or "-", f"{p['ns'] / 1e6:.2f}",
                p["count"], f"{p['pct_of_parent']:.2f}",
            ])
        _print_table(rows)
    elif data.get("kind") == "comparison":
        _print_comparison(data)
    elif data.get("kind") == "sampler-bench":
        cfg = data["config"]
        print(
            f"buffer {cfg['buffer_len']} batch {cfg['batch']} neighbors "
            f"{cfg['neighbors']} trials {cfg['trials']}"
        )
        print(f"uniform  median {data['uniform']['median_ns'] / 1e3:.1f} us")
        print(f"neighbor median {data['neighbor']['median_ns'] / 1e3:.1f} us")
        print(f"reduction {data['percent_reduction']:.2f}% (ratio {data['ratio']:.3f})")
    else:
        print(json.dumps(data, indent=2))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="marlbench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training sweep")
    p_train.add_argument("--spec", help="JSON experiment spec; flags override its fields")
    p_train.add_argument("--scenario", choices=envs.SCENARIOS)
    p_train.add_argument("--agents", help="comma-separated learner counts, e.g. 3,6,12")
    p_train.add_argument("--algo", choices=trainers.ALGORITHMS, dest="algorithm")
    p_train.add_argument("--sampler", choices=trainers.SAMPLERS)
    p_train.add_argument("--neighbors", type=int)
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--repetitions", type=int, help="seeds per cell (seed, seed+1, ...)")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--update-every", type=int, dest="update_every")
    p_train.add_argument("--buffer-capacity", type=int, dest="buffer_capacity")
    p_train.add_argument("--dump-trajectory", action="store_true", default=None,
                         help="roll one greedy episode after training to trajectory.csv")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench-sampler", help="micro-benchmark batch collection")
    p_bench.add_argument("--buffer-len", type=int, default=1_000_000, dest="buffer_len")
    p_bench.add_argument("--batch", type=int, default=1024)
    p_bench.add_argument("--neighbors", type=int, default=3)
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--warmup", type=int, default=5)
    p_bench.add_argument("--obs-dim", type=int, default=20, dest="obs_dim")
    p_bench.add_argument("--act-dim", type=int, default=2, dest="act_dim")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write JSON here instead of stdout")
    p_bench.set_defaults(func=cmd_bench_sampler)

    p_cmp = sub.add_parser("compare", help="compare two sweep trees")
    p_cmp.add_argument("baseline", help="output tree of the baseline sweep")
    p_cmp.add_argument("optimized", help="output tree of the optimized sweep")
    p_cmp.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit 3 if optimized total time regresses by more than 2%%")
    p_cmp.add_argument("--out", help="write comparison JSON here")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="pretty-print an artifact")
    p_rep.add_argument("path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        logger.error("%s", exc)
        return EXIT_RUNTIME
    except trainers.NonFiniteLossError as exc:
        logger.error("training diverged: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
