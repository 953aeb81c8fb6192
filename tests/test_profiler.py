"""Tests for the hierarchical phase profiler."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlbench.profiler import (
    UNATTRIBUTED,
    EmptyReportError,
    Phase,
    ProfileReport,
    ProfilerError,
    breakdown,
    phase_scope,
    report_from_json,
    report_to_dict,
    report_to_json,
)

CHILD_PHASES = (Phase.MINI_BATCH_SAMPLING, Phase.TARGET_Q_CALC, Phase.Q_LOSS, Phase.P_LOSS)
TOP_PHASES = tuple(p for p in Phase if p not in CHILD_PHASES)


def fabricate(ns_by_phase: dict, total: int | None = None) -> ProfileReport:
    """Build a report with hand-set accumulators (bypasses the clock)."""
    r = ProfileReport(meta={})
    for p, ns in ns_by_phase.items():
        r.ns[int(p)] = int(ns)
        r.counts[int(p)] = 1
    if total is not None:
        r._total_ns = total
    return r


# ---------------------------------------------------------------------------
# phase tree
# ---------------------------------------------------------------------------

def test_phase_tree_shape():
    assert len(Phase) == 9
    assert [p.label for p in Phase] == [
        "ActionSelection",
        "EnvStep",
        "ExperienceCollection",
        "UpdateAllTrainers",
        "MiniBatchSampling",
        "TargetQCalc",
        "QLoss",
        "PLoss",
        "Other",
    ]


# ---------------------------------------------------------------------------
# scope accounting
# ---------------------------------------------------------------------------

def test_scope_sleep_lands_in_expected_band():
    r = ProfileReport(meta={})
    with phase_scope(r, Phase.ACTION_SELECTION):
        time.sleep(0.010)
    assert 9_000_000 <= r.phase_ns(Phase.ACTION_SELECTION) <= 50_000_000
    assert r.phase_count(Phase.ACTION_SELECTION) == 1


def test_zero_scopes_zero_accumulation():
    r = ProfileReport(meta={})
    for p in Phase:
        assert r.phase_ns(p) == 0
        assert r.phase_count(p) == 0


def test_nested_child_accumulates_in_both():
    r = ProfileReport(meta={})
    with phase_scope(r, Phase.UPDATE_ALL_TRAINERS):
        with phase_scope(r, Phase.MINI_BATCH_SAMPLING):
            time.sleep(0.002)
    child = r.phase_ns(Phase.MINI_BATCH_SAMPLING)
    parent = r.phase_ns(Phase.UPDATE_ALL_TRAINERS)
    assert child > 0
    assert child <= parent


def test_monotone_accumulation():
    r = ProfileReport(meta={})
    seen = []
    for _ in range(5):
        with phase_scope(r, Phase.ENV_STEP):
            pass
        seen.append(r.phase_ns(Phase.ENV_STEP))
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert r.phase_count(Phase.ENV_STEP) == 5


def test_scope_reusable_guard_is_cached():
    r = ProfileReport(meta={})
    s1 = phase_scope(r, Phase.ENV_STEP)
    s2 = phase_scope(r, Phase.ENV_STEP)
    assert s1 is s2


# ---------------------------------------------------------------------------
# nesting legality
# ---------------------------------------------------------------------------

def test_child_without_parent_raises_when_strict():
    r = ProfileReport(meta={})
    with pytest.raises(ProfilerError):
        with phase_scope(r, Phase.Q_LOSS):
            pass


def test_reentrant_same_phase_raises_when_strict():
    r = ProfileReport(meta={})
    with pytest.raises(ProfilerError):
        with phase_scope(r, Phase.ENV_STEP):
            with phase_scope(r, Phase.ENV_STEP):
                pass


def test_top_level_inside_top_level_raises():
    r = ProfileReport(meta={})
    with pytest.raises(ProfilerError):
        with phase_scope(r, Phase.UPDATE_ALL_TRAINERS):
            with phase_scope(r, Phase.ENV_STEP):
                pass


def test_nesting_still_checked_after_violation():
    r = ProfileReport(meta={})
    with phase_scope(r, Phase.UPDATE_ALL_TRAINERS):
        with pytest.raises(ProfilerError):
            with phase_scope(r, Phase.ENV_STEP):
                pass
        # the refused open left the parent on top, so this child is legal
        with phase_scope(r, Phase.Q_LOSS):
            pass
        with pytest.raises(ProfilerError):
            with phase_scope(r, Phase.P_LOSS):
                with phase_scope(r, Phase.P_LOSS):
                    pass
    # the closes put the top level back
    with phase_scope(r, Phase.ACTION_SELECTION):
        pass
    assert r.phase_count(Phase.ENV_STEP) == 0
    assert r.phase_count(Phase.Q_LOSS) == 1
    assert r.phase_count(Phase.P_LOSS) == 1
    assert r.phase_count(Phase.UPDATE_ALL_TRAINERS) == 1


def test_stop_before_start_raises():
    r = ProfileReport(meta={})
    with pytest.raises(ProfilerError):
        r.stop()


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------

def test_breakdown_single_phase_covers_everything():
    r = fabricate({Phase.ENV_STEP: 1000}, total=1000)
    rows = {(row.name, row.parent): row for row in breakdown(r)}
    assert rows[("EnvStep", None)].percent == pytest.approx(100.0)
    assert rows[(UNATTRIBUTED, None)].percent == pytest.approx(0.0)


def test_breakdown_four_equal_children():
    r = fabricate(
        {
            Phase.UPDATE_ALL_TRAINERS: 4000,
            Phase.MINI_BATCH_SAMPLING: 1000,
            Phase.TARGET_Q_CALC: 1000,
            Phase.Q_LOSS: 1000,
            Phase.P_LOSS: 1000,
        },
        total=4000,
    )
    rows = {(row.name, row.parent): row for row in breakdown(r)}
    for p in CHILD_PHASES:
        assert rows[(p.label, "UpdateAllTrainers")].percent == pytest.approx(25.0)
    assert rows[(UNATTRIBUTED, "UpdateAllTrainers")].percent == pytest.approx(0.0)


def test_breakdown_residual_rows():
    r = fabricate(
        {Phase.ENV_STEP: 600, Phase.UPDATE_ALL_TRAINERS: 200, Phase.Q_LOSS: 150},
        total=1000,
    )
    rows = {(row.name, row.parent): row for row in breakdown(r)}
    assert rows[(UNATTRIBUTED, None)].percent == pytest.approx(20.0)
    assert rows[(UNATTRIBUTED, "UpdateAllTrainers")].percent == pytest.approx(25.0)


def test_breakdown_empty_report_raises():
    with pytest.raises(EmptyReportError):
        breakdown(ProfileReport(meta={}))


@settings(deadline=None, max_examples=60)
@given(
    top=st.lists(st.integers(0, 10**9), min_size=4, max_size=4),
    children=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
    slack=st.integers(0, 10**8),
)
def test_breakdown_closure_property(top, children, slack):
    ns = dict(zip((Phase.ACTION_SELECTION, Phase.ENV_STEP,
                   Phase.EXPERIENCE_COLLECTION, Phase.OTHER), top))
    ns[Phase.UPDATE_ALL_TRAINERS] = sum(children) + slack // 2
    for p, v in zip(CHILD_PHASES, children):
        ns[p] = v
    total = sum(ns[p] for p in TOP_PHASES) + slack
    if total <= 0:
        total = 1
    r = fabricate(ns, total=total)
    rows = breakdown(r)
    top_pct = sum(row.percent for row in rows if row.parent is None)
    assert top_pct == pytest.approx(100.0, abs=0.5)
    child_pct = sum(row.percent for row in rows if row.parent == "UpdateAllTrainers")
    if r.ns[Phase.UPDATE_ALL_TRAINERS] > 0:
        assert child_pct == pytest.approx(100.0, abs=0.5)


def test_breakdown_from_real_nested_run():
    r = ProfileReport(meta={})
    r.start()
    for _ in range(3):
        with phase_scope(r, Phase.UPDATE_ALL_TRAINERS):
            for child in CHILD_PHASES:
                with phase_scope(r, child):
                    time.sleep(0.0005)
    r.stop()
    rows = breakdown(r)
    top_pct = sum(row.percent for row in rows if row.parent is None)
    child_pct = sum(row.percent for row in rows if row.parent == "UpdateAllTrainers")
    assert top_pct == pytest.approx(100.0, abs=0.5)
    assert child_pct == pytest.approx(100.0, abs=0.5)
    child_sum = sum(r.phase_ns(p) for p in CHILD_PHASES)
    assert child_sum <= r.phase_ns(Phase.UPDATE_ALL_TRAINERS)
    assert r.phase_ns(Phase.UPDATE_ALL_TRAINERS) <= r.total_ns


# ---------------------------------------------------------------------------
# overhead
# ---------------------------------------------------------------------------

def test_scope_pair_overhead_under_one_microsecond():
    r = ProfileReport(meta={})
    n = 1_000_000
    scope = phase_scope(r, Phase.OTHER)
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with scope:
            pass
    per_pair = (time.perf_counter_ns() - t0) / n
    assert per_pair < 1000.0, f"scope open/close pair cost {per_pair:.0f}ns"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_json_round_trip():
    r = fabricate(
        {Phase.ENV_STEP: 600, Phase.UPDATE_ALL_TRAINERS: 300, Phase.P_LOSS: 120},
        total=1000,
    )
    r.meta["algorithm"] = "maddpg"
    data = report_from_json(report_to_json(r))
    assert data["meta"] == {"algorithm": "maddpg"}
    assert data["total_ns"] == 1000
    by_name = {row["name"]: row for row in data["phases"]}
    assert by_name["EnvStep"]["ns"] == 600
    assert by_name["PLoss"]["parent"] == "UpdateAllTrainers"
    assert by_name["PLoss"]["pct_of_parent"] == pytest.approx(40.0)
    assert by_name["UpdateAllTrainers"]["pct_of_parent"] == pytest.approx(30.0)
    # the contract the benchmark's cell check reads
    assert data["violations"] == 0
    assert [row["name"] for row in data["phases"]] == [p.label for p in Phase]
    for row in data["phases"]:
        assert set(row) == {"name", "parent", "ns", "count", "pct_of_parent"}
    children = [row["name"] for row in data["phases"] if row["parent"] == "UpdateAllTrainers"]
    assert children == ["MiniBatchSampling", "TargetQCalc", "QLoss", "PLoss"]


def test_report_from_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        report_from_json(json.dumps({"meta": {}, "phases": []}))


def test_total_ns_falls_back_to_top_level_sum():
    r = fabricate({Phase.ENV_STEP: 70, Phase.OTHER: 30})
    assert r.total_ns == 100
    d = report_to_dict(r)
    assert d["total_ns"] == 100
