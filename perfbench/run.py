"""Training benchmark for marlbench.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each cell runs in a fresh process (cell.py), one after another: training is
a closed loop, so load comes from that one process. A run keeps starting
cells until the next one would overrun --seconds (at least two with
--trace 0), then prints a results header, every metric by name with its
unit and sample count, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
cells. --trace 1 runs untraced cells and then one traced cell, and reports
the per-layer metrics. `--workload all` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import cell
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

MIN_CELLS = 2
# every run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def clock_s() -> float:
    return cell.clock_ns() / 1e9


def refuse_foreign_settings(environ) -> list[str]:
    """Environment variables that would silently change what a run measures."""
    bad = []
    for key in sorted(environ):
        if key.startswith("MARLBENCH_"):
            bad.append(f"{key}: marlbench applies it as an override that resizes the workload")
        elif key.startswith("MALLOC_") or (key == "GLIBC_TUNABLES" and "malloc" in environ[key]):
            bad.append(f"{key}: the allocator settings are part of what is measured")
    return bad


def child_env() -> dict[str, str]:
    """The environment of every cell: marlbench from this checkout, BLAS
    threads capped at the CPUs this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        if env.get(var, "").isdigit() and int(env[var]) > ncpu:
            env[var] = str(ncpu)
    return env


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def header(env: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: env.get(var, "unset") for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cache_l2": _cache_size(2),
        "cache_l3": _cache_size(3),
        "gather_probe_buffer_bytes": cell.PROBE_ROWS * cell.PROBE_ROW_BYTES,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_cell(workload: str, seed: int, env, *, traced: bool, tiny: bool, timeout: float) -> dict:
    """Run one cell process to completion and return what it reported."""
    out = Path(tempfile.mkdtemp(prefix="cell-", dir=SCRATCH))
    t0_ns = cell.clock_ns()
    cmd = [sys.executable, str(Path(cell.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--src", str(SRC), "--out", str(out), "--t0-ns", str(t0_ns)]
    cmd += ["--traced"] * traced + ["--tiny"] * tiny
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"cell timed out after {timeout:.0f}s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"cell process exited with {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "error": "cell printed no result"}


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def end_to_end(cells: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics over successful untraced cells, with sample counts."""
    pool = np.concatenate([c["wall_ms"] for c in cells])
    n = len(cells)
    metrics = {
        "setup_s": _median([c["setup_s"] for c in cells]),
        "env_steps_per_s": _median([c["steps"] / c["wall_s"] for c in cells]),
        "rollout_episode_ms_min": min(c["rollout_ms_min"] for c in cells),
        "episode_ms_p90": float(np.percentile(pool, 90)),
        "peak_rss_mb": _median([c["maxrss_mb"] for c in cells]),
    }
    samples = {"setup_s": n, "env_steps_per_s": n,
               "rollout_episode_ms_min": sum(c["rollout_episodes"] for c in cells),
               "episode_ms_p90": pool.size, "peak_rss_mb": n}
    return metrics, samples


def per_layer(cells: list[dict], traced: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics: the traced cell's spans and probes, plus the
    untraced cells' profile.json and page-fault counts."""
    metrics = dict(traced["layer"])
    n = len(cells)
    samples = dict(traced["calls"])
    for label in cells[0]["phase_ms"]:
        key = f"profiler.phase.{label}.ms"
        metrics[key] = _median([c["phase_ms"][label] for c in cells])
        samples[key] = n
    scopes = cells[0]["scopes"]
    metrics["profiler.scopes"] = scopes
    total_ms = _median([c["profile_total_ms"] for c in cells])
    metrics["profiler.share_pct"] = 100.0 * scopes * metrics["profiler.scope_pair_ns"] / (total_ms * 1e6)
    metrics["proc.minflt"] = _median([c["minflt"] for c in cells])
    metrics["proc.setup_minflt"] = _median([c["setup_minflt"] for c in cells])
    untraced = _median([c["steps"] / c["wall_s"] for c in cells])
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced["steps"] / traced["wall_s"] / untraced)
    return metrics, samples


def _check_cells_agree(cells: list[dict]) -> None:
    """Mark as failed every cell whose trajectory or profiler scope count
    differs from the first successful cell's: all cells of a run share a seed."""
    ok = [c for c in cells if c.get("ok")]
    for c in ok[1:]:
        if (c["digest"], c["scopes"]) != (ok[0]["digest"], ok[0]["scopes"]):
            c["ok"] = False
            c["error"] = (f"stats.csv digest {c['digest'][:12]} with {c['scopes']} scopes differs "
                          f"from {ok[0]['digest'][:12]} with {ok[0]['scopes']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, env) -> dict:
    """One run of one workload: cells until the time is spent, then metrics."""
    begin = clock_s()
    cells: list[dict] = []
    # a traced run keeps time for its traced cell, about one untraced cell long
    reserve = 2 if trace else 1
    while True:
        elapsed = clock_s() - begin
        cells.append(run_cell(workload, seed, env, traced=False, tiny=tiny,
                              timeout=HARD_LIMIT_S - elapsed))
        elapsed = clock_s() - begin
        per_cell = elapsed / len(cells)
        enough = len(cells) >= (1 if trace else MIN_CELLS)
        if elapsed + reserve * per_cell > (seconds if enough else HARD_LIMIT_S):
            break
    if trace:
        cells.append(run_cell(workload, seed, env, traced=True, tiny=tiny,
                              timeout=HARD_LIMIT_S - (clock_s() - begin)))
    _check_cells_agree(cells)
    failed = [c for c in cells if not c.get("ok")]
    untraced = [c for c in cells if c.get("ok") and "layer" not in c]
    traced = [c for c in cells if c.get("ok") and "layer" in c]
    result = {"workload": workload, "seed": seed, "attempted": len(cells),
              "failed": len(failed), "errors": [c["error"] for c in failed],
              "digest": untraced[0]["digest"] if untraced else None}
    if untraced:
        result["end_to_end"] = end_to_end(untraced)
    if trace and untraced and traced:
        result["per_layer"] = per_layer(untraced, traced[0])
    return result


def _metric_block(values: dict[str, float], declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _print_metrics(title: str, values: dict, samples: dict, declared: list[dict]) -> None:
    print(f"# {title}")
    for m in declared:
        name = m["name"]
        # span-based metrics carry the call count of the span they summarize
        n = samples.get(name, samples.get(name.rsplit(".", 1)[0]))
        count = f"  (n={n})" if n is not None else ""
        print(f"#   {name:<44} {values[name]:>16.6g} {m['unit']}{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the numbers are not comparable with real runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    bad = refuse_foreign_settings(os.environ)
    if bad:
        print("refusing to run with:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    if not (SRC / "marlbench" / "__init__.py").is_file():
        print(f"no marlbench package under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# header " + json.dumps(header(env)))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    SCRATCH.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.tiny, env))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    metrics = {}
    for r in results:
        print(f"# workload {r['workload']} seed {r['seed']}: failed cells {r['failed']} "
              f"of {r['attempted']} attempted; stats digest {r['digest']}")
        for err in r["errors"]:
            print(f"#   failed cell: {err}")
        if "end_to_end" not in r or (args.trace and "per_layer" not in r):
            print("no successful cell to measure", file=sys.stderr)
            return 1
        e2e, e2e_n = r["end_to_end"]
        _print_metrics("end to end" + (" (untraced cells of a traced run)" if args.trace else ""),
                       e2e, e2e_n, declared["end_to_end"])
        block = e2e, declared["end_to_end"]
        if args.trace:
            layer, layer_n = r["per_layer"]
            _print_metrics("per layer", layer, layer_n, declared["per_layer"])
            block = layer, declared["per_layer"]
        block = _metric_block(*block)
        prefix = f"{r['workload']}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in block.items()})

    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
