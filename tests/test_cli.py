"""Tests for the benchmark command line driver."""

import json
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from marlbench import envs, trainers
from marlbench.cli import (
    EXIT_ASSERT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    ExperimentSpec,
    compare_trees,
    main,
)


def train_args(out, **kw):
    opts = dict(scenario="coop-nav", agents="2", episodes="3", seed="0",
                batch_size="8", update_every="20", buffer_capacity="200")
    opts.update({k: str(v) for k, v in kw.items()})
    argv = ["train"]
    for key, val in opts.items():
        argv += [f"--{key.replace('_', '-')}", val]
    return argv + ["--out", str(out)]


def _strip_wall(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_cell_artifacts(tmp_path):
    out = tmp_path / "sweep"
    assert main(train_args(out)) == EXIT_OK
    cell = out / "n2_seed0"
    assert (out / "spec.json").exists()
    for name in ("stats.csv", "profile.json", "run.json"):
        assert (cell / name).exists()
    assert (cell / "checkpoints" / "networks.npz").exists()
    lines = (cell / "stats.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + one row per episode
    run = json.loads((cell / "run.json").read_text())
    assert run["cell"] == {"n_agents": 2, "seed": 0}
    profile = json.loads((cell / "profile.json").read_text())
    assert {p["name"] for p in profile["phases"]} >= {"ActionSelection", "EnvStep"}


def test_run_json_records_the_environment(tmp_path, monkeypatch):
    # numpy, its BLAS and the BLAS thread count decide a seeded run's bits;
    # the configs stay exactly the dataclasses, which perfbench compares
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "sweep"
    assert main(train_args(out)) == EXIT_OK
    run = json.loads((out / "n2_seed0" / "run.json").read_text())
    env = run["environment"]
    assert set(env) == {"dtype", "numpy", "blas", "blas_threads", "blas_threads_used",
                        "cpu_count"}
    assert env["dtype"] == np.dtype(trainers.DTYPE).name == "float32"
    # the run pins numpy's bundled OpenBLAS to one thread
    assert env["blas_threads_used"] == 1
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS"}
    assert env["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] == "unset"
    assert env["cpu_count"] == os.cpu_count()
    cfg = trainers.TrainerConfig(episodes=3, batch_size=8, update_every=20,
                                 buffer_capacity=200, seed=0)
    assert run["trainer_config"] == asdict(cfg)
    assert run["env_config"] == asdict(envs.make_env_config("coop-nav", 2, seed=0))


def test_run_json_configs_hold_only_the_settable_fields(tmp_path):
    # the learning and physics settings are module constants, not run.json keys
    out = tmp_path / "sweep"
    assert main(train_args(out)) == EXIT_OK
    run = json.loads((out / "n2_seed0" / "run.json").read_text())
    assert set(run["trainer_config"]) == {
        "algorithm", "sampler", "neighbors", "episodes", "batch_size", "update_every",
        "buffer_capacity", "seed"}
    assert set(run["env_config"]) == {
        "scenario", "n_learners", "n_prey", "n_landmarks", "max_episode_length", "seed"}


def test_train_sweep_cell_grid(tmp_path):
    out = tmp_path / "sweep"
    assert main(train_args(out, agents="2,3", repetitions="2")) == EXIT_OK
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["n2_seed0", "n2_seed1", "n3_seed0", "n3_seed1"]


def test_train_deterministic_stats_modulo_wall_time(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(out_a)) == EXIT_OK
    assert main(train_args(out_b)) == EXIT_OK
    sa = (out_a / "n2_seed0" / "stats.csv").read_text()
    sb = (out_b / "n2_seed0" / "stats.csv").read_text()
    assert _strip_wall(sa) == _strip_wall(sb)


def test_train_dump_trajectory(tmp_path):
    out = tmp_path / "sweep"
    argv = train_args(out) + ["--dump-trajectory"]
    assert main(argv) == EXIT_OK
    traj = (out / "n2_seed0" / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0].startswith("step,")
    assert len(traj) > 1


def test_train_bad_agent_list_is_runtime_error(tmp_path):
    assert main(train_args(tmp_path / "x", agents="3,0")) == EXIT_RUNTIME
    assert main(train_args(tmp_path / "y", agents="abc")) == EXIT_RUNTIME
    # zero repetitions leaves every agent count without a cell
    assert main(train_args(tmp_path / "z", repetitions="0")) == EXIT_RUNTIME
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("field", ["episodes", "batch_size", "neighbors"])
def test_train_bad_trainer_config_writes_nothing(tmp_path, caplog, field):
    out = tmp_path / "sweep"
    assert main(train_args(out, agents="2,3", **{field: 0})) == EXIT_RUNTIME
    assert "must be >= 1" in caplog.text
    assert not out.exists()


# every int field of ExperimentSpec, with a value that differs from train_args
INT_FLAGS = {"episodes": 2, "batch_size": 4, "update_every": 10, "buffer_capacity": 150,
             "repetitions": 2, "neighbors": 2, "seed": 5}


@pytest.mark.parametrize("field", INT_FLAGS)
def test_int_flag_override(tmp_path, field):
    value = INT_FLAGS[field]
    out = tmp_path / "sweep"
    assert main(train_args(out, **{field: value})) == EXIT_OK
    spec = json.loads((out / "spec.json").read_text())
    assert spec[field] == value
    seed = spec["seed"]
    run = json.loads((out / f"n2_seed{seed}" / "run.json").read_text())
    assert run["spec"] == spec
    if field != "repetitions":
        assert run["trainer_config"][field] == value
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == [f"n2_seed{seed + r}" for r in range(spec["repetitions"])]
    lines = (out / f"n2_seed{seed}" / "stats.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + spec["episodes"]


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_spec_file_round_trip(tmp_path):
    spec = ExperimentSpec(agents=[2], episodes=7, sampler="neighbor")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = ExperimentSpec.from_file(str(path))
    assert loaded == spec


def test_spec_file_rejects_unknown_fields(tmp_path):
    data = ExperimentSpec().to_dict()
    data["turbo"] = True
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        ExperimentSpec.from_file(str(path))


def test_spec_file_rejects_wrong_schema(tmp_path):
    data = ExperimentSpec().to_dict()
    data["schema_version"] = 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        ExperimentSpec.from_file(str(path))
    # a top level that is not an object is no spec either
    path.write_text(json.dumps([data]))
    out = tmp_path / "sweep"
    assert main(["train", "--spec", str(path), "--out", str(out)]) == EXIT_RUNTIME
    assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("episodes", "5"),
    ("seed", True),
    ("agents", [3, "6"]),
    ("agents", 3),
    ("dump_trajectory", 1),
    ("sampler", None),
    ("agents", []),
    ("repetitions", 0),
], ids=["str_episodes", "bool_seed", "str_in_agents", "int_agents", "int_dump_trajectory",
        "null_sampler", "empty_agents", "zero_repetitions"])
def test_train_spec_file_wrong_type_is_runtime_error(tmp_path, caplog, name, value):
    data = ExperimentSpec(agents=[2], episodes=2, batch_size=8, update_every=20,
                          buffer_capacity=200).to_dict()
    data[name] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    out = tmp_path / "sweep"
    assert main(["train", "--spec", str(spec_path), "--out", str(out)]) == EXIT_RUNTIME
    assert f"field {name!r}" in caplog.text
    assert not out.exists()


def test_train_spec_file_with_flag_override(tmp_path):
    spec = ExperimentSpec(agents=[2], episodes=2, batch_size=8, update_every=20,
                          buffer_capacity=200, dump_trajectory=True)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "sweep"
    assert main(["train", "--spec", str(spec_path), "--episodes", "4",
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "n2_seed0" / "stats.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    # a flag the command line leaves out keeps the spec file's value
    written = json.loads((out / "spec.json").read_text())
    assert written["dump_trajectory"] is True
    assert (out / "n2_seed0" / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# bench-sampler
# ---------------------------------------------------------------------------

def test_bench_sampler_artifact_schema(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["bench-sampler", "--buffer-len", "5000", "--batch", "64",
            "--trials", "5", "--warmup", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["kind"] == "sampler-bench"
    assert data["config"]["buffer_len"] == 5000
    # the standalone five-array buffer, not the training store
    assert data["config"]["dtype"] == "float64"
    assert len(data["uniform"]["trials_ns"]) == 5
    assert len(data["neighbor"]["trials_ns"]) == 5
    assert data["ratio"] == pytest.approx(
        data["neighbor"]["median_ns"] / data["uniform"]["median_ns"])
    assert data["percent_reduction"] == pytest.approx(100.0 * (1.0 - data["ratio"]))


@pytest.mark.parametrize(
    "bad", [["--neighbors", "0"], ["--buffer-len", "3"], ["--trials", "0"]],
    ids=["zero_neighbors", "buffer_too_short_for_windows", "zero_trials"])
def test_bench_sampler_bad_input_is_runtime_error(tmp_path, bad):
    argv = ["bench-sampler", "--buffer-len", "1000", "--batch", "32", "--trials", "2",
            "--warmup", "1", "--out", str(tmp_path / "bench.json")] + bad
    assert main(argv) == EXIT_RUNTIME
    assert not (tmp_path / "bench.json").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _make_tree(tmp_path, name, sampler="uniform", **kw):
    out = tmp_path / name
    assert main(train_args(out, sampler=sampler, **kw)) == EXIT_OK
    return out


def test_compare_identical_trees_reports_zero_reduction(tmp_path):
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    result = compare_trees(base, opt)
    row = result["per_agent_count"]["2"]
    assert row["total_reduction_pct"] == pytest.approx(0.0, abs=1e-9)
    assert row["sampling_reduction_pct"] == pytest.approx(0.0, abs=1e-9)
    assert row["reward_delta"] == pytest.approx(0.0, abs=1e-12)
    assert not row["reward_parity_violation"]


def test_compare_assert_passes_on_identical_trees(tmp_path):
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    out = tmp_path / "cmp.json"
    argv = ["compare", str(base), str(opt), "--assert", "--out", str(out)]
    assert main(argv) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["kind"] == "comparison"
    assert "reference" in data


def test_compare_assert_fails_on_doctored_regression(tmp_path):
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    ppath = opt / "n2_seed0" / "profile.json"
    profile = json.loads(ppath.read_text())
    profile["total_ns"] = int(profile["total_ns"] * 1.10)
    ppath.write_text(json.dumps(profile))
    assert main(["compare", str(base), str(opt), "--assert"]) == EXIT_ASSERT
    # without --assert the same regression only gets reported
    assert main(["compare", str(base), str(opt)]) == EXIT_OK


def test_compare_unpaired_cells_is_runtime_error(tmp_path):
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    shutil.rmtree(opt / "n2_seed0")
    assert main(["compare", str(base), str(opt)]) == EXIT_RUNTIME


def test_compare_cell_without_run_json_is_unpaired(tmp_path, caplog):
    # run_cell writes run.json last, so a cell without it was cut off
    base = _make_tree(tmp_path, "base", agents="2,3")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    (opt / "n3_seed0" / "run.json").unlink()
    assert main(["compare", str(base), str(opt)]) == EXIT_RUNTIME
    assert "missing from optimized [(3, 0)]" in caplog.text


@pytest.mark.parametrize("label", ["MiniBatchSampling", "UpdateAllTrainers"])
def test_compare_profile_without_phase_row_is_runtime_error(tmp_path, caplog, label):
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    ppath = opt / "n2_seed0" / "profile.json"
    profile = json.loads(ppath.read_text())
    profile["phases"] = [p for p in profile["phases"] if p["name"] != label]
    ppath.write_text(json.dumps(profile))
    assert main(["compare", str(base), str(opt)]) == EXIT_RUNTIME
    assert f"has no {label} phase row" in caplog.text


def _edit_run(cell, edit) -> None:
    path = cell / "run.json"
    run = json.loads(path.read_text())
    edit(run)
    path.write_text(json.dumps(run))


def test_compare_accepts_pairs_that_differ_only_in_sampler_settings(tmp_path):
    base = _make_tree(tmp_path, "base")
    opt = _make_tree(tmp_path, "opt", sampler="neighbor", neighbors=2)
    assert main(["compare", str(base), str(opt)]) == EXIT_OK


@pytest.mark.parametrize("edit, what", [
    # a run.json written before the precision was recorded trained in float64
    (lambda run: run["environment"].pop("dtype"), "dtype: float32 against float64"),
    (lambda run: run["environment"].update(dtype="float64"), "dtype"),
    (lambda run: run["env_config"].update(max_episode_length=30), "env_config"),
    (lambda run: run["trainer_config"].update(batch_size=16), "trainer_config"),
    (lambda run: run["trainer_config"].update(update_every=50), "trainer_config"),
    # a run.json written while the learning rate was a config field
    (lambda run: run["trainer_config"].update(lr=0.01), "trainer_config"),
], ids=["dtype_missing", "dtype_float64", "env_config", "batch_size", "update_every", "lr"])
def test_compare_refuses_pairs_that_differ_beyond_the_sampler(tmp_path, caplog, edit, what):
    # a float64 tree set against a float32 one would report the precision's
    # saving as the sampler's
    base = _make_tree(tmp_path, "base")
    opt = tmp_path / "opt"
    shutil.copytree(base, opt)
    _edit_run(opt / "n2_seed0", edit)
    assert main(["compare", str(base), str(opt)]) == EXIT_RUNTIME
    assert f"cells {base / 'n2_seed0'} and {opt / 'n2_seed0'} differ in {what}" in caplog.text
    assert main(["compare", str(opt), str(opt)]) == EXIT_OK


def test_compare_empty_trees_is_runtime_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == EXIT_RUNTIME


def test_compare_trees_without_update_rounds_is_runtime_error(tmp_path, caplog):
    # batch size larger than the total step count means every update round is
    # skipped, so the sampling phase never accumulates any time
    base, opt = tmp_path / "base", tmp_path / "opt"
    assert main(train_args(base, batch_size="500")) == EXIT_OK
    assert main(train_args(opt, batch_size="500")) == EXIT_OK
    assert main(["compare", str(base), str(opt)]) == EXIT_RUNTIME
    assert "no minibatch sampling time" in caplog.text


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_renders_every_artifact_kind(tmp_path, capsys):
    out = _make_tree(tmp_path, "base")
    bench = tmp_path / "bench.json"
    main(["bench-sampler", "--buffer-len", "2000", "--batch", "32",
          "--trials", "3", "--warmup", "1", "--out", str(bench)])
    cmp_out = tmp_path / "cmp.json"
    opt = tmp_path / "opt"
    shutil.copytree(out, opt)
    main(["compare", str(out), str(opt), "--out", str(cmp_out)])
    capsys.readouterr()

    assert main(["report", str(out / "n2_seed0" / "stats.csv")]) == EXIT_OK
    assert "episode" in capsys.readouterr().out
    assert main(["report", str(out / "n2_seed0" / "profile.json")]) == EXIT_OK
    assert "UpdateAllTrainers" in capsys.readouterr().out
    assert main(["report", str(bench)]) == EXIT_OK
    assert "reduction" in capsys.readouterr().out
    assert main(["report", str(cmp_out)]) == EXIT_OK
    assert "reference" in capsys.readouterr().out
    assert main(["report", str(out / "spec.json")]) == EXIT_OK
    assert "schema_version" in capsys.readouterr().out


def test_report_missing_path_is_runtime_error(tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == EXIT_RUNTIME


@pytest.mark.parametrize("content,message", [
    ([1, 2], "must hold a JSON object, got list"),
    ({"meta": {}, "violations": 0, "phases": []}, "missing key 'total_ns'"),
    ({"meta": {}, "total_ns": 5, "phases": [{"name": "EnvStep"}]},
     "missing keys ['parent', 'ns', 'count', 'pct_of_parent']"),
    ({"meta": {}, "total_ns": 5, "phases": ["EnvStep"]}, "phase row must be an object"),
    ({"meta": {}, "total_ns": "5", "phases": []}, "'total_ns' must be a number"),
    ({"meta": {}, "total_ns": 5, "phases": [
        {"name": "EnvStep", "parent": None, "ns": "x", "count": 1, "pct_of_parent": 0.0}]},
     "has non-numeric ['ns']"),
], ids=["list_top_level", "profile_without_total_ns", "phase_row_missing_keys",
        "phase_row_not_object", "string_total_ns", "string_phase_ns"])
def test_report_malformed_artifact_is_runtime_error(tmp_path, caplog, content, message):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(content))
    assert main(["report", str(path)]) == EXIT_RUNTIME
    assert message in caplog.text


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag", "--out", "x"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "dqn", "--out", "x"])
    assert exc.value.code == EXIT_USAGE
