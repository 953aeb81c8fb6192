"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

The repository's own test run collects only tests/, so these run only when
named. They take about 20 s on two cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(proc) -> dict[str, str]:
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# workload "):
            words = line.split()
            out[words[2]] = words[-1]
    return out


@pytest.fixture(scope="module")
def smoke():
    """One tiny untraced and one tiny traced run of every workload."""
    return {trace: _run("--workload", "all", "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            for trace in (0, 1)}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(smoke, trace, kind):
    result = _result(smoke[trace])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(WORKLOADS)
    expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in DECLARED[kind]}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_tracing_changes_no_trajectory(smoke):
    # the traced run checks its traced cell against its untraced cells;
    # across the two runs the digests of each workload must agree too
    untraced, traced = _digests(smoke[0]), _digests(smoke[1])
    assert set(untraced) == set(WORKLOADS)
    assert untraced == traced


def test_traced_cell_has_untraced_digest(tmp_path):
    def cell(*extra):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cell.py"), "--workload", "predprey-n3-masac",
             "--seed", "5", "--src", str(ROOT / "src"), "--out", str(tmp_path / str(len(extra))),
             "--t0-ns", "0", "--tiny", *extra],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=170,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain, traced = cell(), cell("--traced")
    # a traced cell that left a wrapper in place reports ok=False
    assert plain["ok"] and traced["ok"], (plain, traced)
    assert traced["digest"] == plain["digest"]


def test_every_wrapper_is_restored():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import marlbench
        import marlbench.cli  # noqa: F401
    finally:
        sys.path.remove(str(ROOT / "src"))
    targets = spans.wrap_targets(marlbench)
    before = [owner.__dict__[attr] for owner, attr, _ in targets]
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr, _), fn in zip(targets, before))
        assert not tracer.restored()
    finally:
        tracer.restore()
    assert tracer.restored()
    assert all(owner.__dict__[attr] is fn for (owner, attr, _), fn in zip(targets, before))


@pytest.mark.parametrize("var", ["MARLBENCH_EPISODES", "MALLOC_ARENA_MAX"])
def test_refuses_settings_that_change_the_workload(var):
    proc = _run("--workload", "predprey-n3-masac", "--seed", "0", "--seconds", "1",
                "--trace", "0", "--tiny", env=dict(os.environ, **{var: "5"}))
    assert proc.returncode != 0
    assert var in proc.stderr
    assert "correct" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "predprey-n3-masac", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
