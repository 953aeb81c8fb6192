"""Span tracing of marlbench from outside the package.

Public functions are replaced, for the length of one timed cell, by
wrappers that record a span per call: name, start, end, parent span and an
optional work count (flops or bytes). Each function is wrapped under the
name its caller looks up, because ``trainers`` imports ``mlp_forward``,
``collect_joint`` and the others by name. Spans stay in memory until the
cell ends; ``summarize`` turns them into per-layer metrics.
"""
from __future__ import annotations

import time

import numpy as np

_SKIPPED_ROUND = "trainers.update_round.skipped"
_NN_KERNELS = ("nn.mlp_forward.b1", "nn.mlp_forward.batch", "nn.mlp_backward")
MB = 2**20


def _mlp_flops(params, rows: int) -> int:
    """Multiply-add flops of one forward pass over `rows` inputs."""
    h = params.hidden_dim
    return 2 * rows * (params.in_dim * h + h * h + h * params.out_dim)


def _forward(args, result):
    params, x = args[0], args[1]
    if x.ndim == 1:
        return "nn.mlp_forward.b1", _mlp_flops(params, 1)
    return "nn.mlp_forward.batch", _mlp_flops(params, x.shape[0])


def _backward(args, result):
    # mlp_backward forms both weight and input gradients: twice the forward
    params, cache = args[0], args[1]
    return "nn.mlp_backward", 2 * _mlp_flops(params, cache.x.shape[0])


def _round(args, result):
    return ("trainers.update_round" if result is not None else _SKIPPED_ROUND), 0


def _gathered(args, result):
    nbytes = sum(
        b.obses_t.nbytes + b.actions.nbytes + b.rewards.nbytes
        + b.obses_tp1.nbytes + b.dones.nbytes
        for b in result
    )
    return "replay.collect_joint", nbytes


def wrap_targets(mb):
    """(owner, attribute, span name or classifier) for every traced call site.

    `mb` is the imported ``marlbench`` package.
    """
    tr, envs, replay = mb.trainers, mb.envs, mb.replay
    return [
        (tr, "update_all_trainers", _round),
        (tr, "select_action", "trainers.select_action"),
        (tr, "draw_batch_indices", "trainers.draw_batch_indices"),
        (tr, "target_q_calculation", "trainers.target_q"),
        (tr, "critic_update", "trainers.critic_update"),
        (tr, "actor_update", "trainers.actor_update"),
        (tr, "mlp_forward", _forward),
        (tr, "mlp_backward", _backward),
        (tr, "adam_step", "nn.adam_step"),
        (tr, "soft_update", "nn.soft_update"),
        (tr, "squashed_gaussian_sample", "nn.squashed_gaussian_sample"),
        (tr, "collect_joint", _gathered),
        (replay.ReplayBuffer, "add", "replay.add"),
        (envs, "step", "envs.step"),
        (envs, "reset", "envs.reset"),
        # cli.run_cell looks run_training up on the trainers module
        (tr, "run_training", "cli.run_training"),
    ]


class Tracer:
    """In-memory span recorder. Each span is [name, start_ns, end_ns, parent, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        classify = label if callable(label) else None

        def traced(*args, **kwargs):
            span = [label, 0, 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if classify is not None:
                span[0], span[4] = classify(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        for owner, attr, label in targets:
            original = owner.__dict__[attr]
            self.originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original object again."""
        return all(owner.__dict__[attr] is fn for owner, attr, fn in self.originals)


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced cell, and the call count of each span name."""
    durations: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    round_of = [-1] * len(spans)  # enclosing update-round span; parents precede children
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        durations.setdefault(name, []).append(t1 - t0)
        if parent >= 0:
            child_ns[parent] += t1 - t0
            round_of[i] = round_of[parent]
        if name == "trainers.update_round":
            round_of[i] = i

    def p(name: str, q: float, unit_ns: float) -> float:
        return float(np.percentile(durations[name], q)) / unit_ns

    rounds = [i for i, s in enumerate(spans) if s[0] == "trainers.update_round"]
    round_self = [spans[i][2] - spans[i][1] - child_ns[i] for i in rounds]
    skipped = len(durations.get(_SKIPPED_ROUND, []))
    kernel = [s for i, s in enumerate(spans) if s[0] in _NN_KERNELS and round_of[i] >= 0]
    round_flops = sum(s[4] for s in kernel)
    gathered = sum(s[4] for s in spans if s[0] == "replay.collect_joint")

    metrics = {
        "trainers.update_round.ms_p50": p("trainers.update_round", 50, 1e6),
        "trainers.update_round.ms_p90": p("trainers.update_round", 90, 1e6),
        "trainers.update_round.self_ms_p50": float(np.percentile(round_self, 50)) / 1e6,
        "trainers.target_q.ms_p50": p("trainers.target_q", 50, 1e6),
        "trainers.critic_update.ms_p50": p("trainers.critic_update", 50, 1e6),
        "trainers.actor_update.ms_p50": p("trainers.actor_update", 50, 1e6),
        "trainers.select_action.us_p50": p("trainers.select_action", 50, 1e3),
        "trainers.skipped_round_ratio": skipped / (skipped + len(rounds)),
        "nn.mlp_forward.b1.us_p50": p("nn.mlp_forward.b1", 50, 1e3),
        "nn.mlp_forward.batch.us_p50": p("nn.mlp_forward.batch", 50, 1e3),
        "nn.mlp_backward.us_p50": p("nn.mlp_backward", 50, 1e3),
        "nn.adam_step.us_p50": p("nn.adam_step", 50, 1e3),
        "nn.soft_update.us_p50": p("nn.soft_update", 50, 1e3),
        "nn.soft_update.busy_ms": sum(durations["nn.soft_update"]) / 1e6,
        "nn.flops_per_round": round_flops / len(rounds),
        # flop per ns is GFLOP/s
        "nn.gflops_achieved": round_flops / sum(s[2] - s[1] for s in kernel),
        "replay.add.us_p50": p("replay.add", 50, 1e3),
        "replay.collect_joint.us_p50": p("replay.collect_joint", 50, 1e3),
        "replay.collect_joint.us_p90": p("replay.collect_joint", 90, 1e3),
        "replay.collect_joint.mb_gathered": gathered / MB,
        "envs.step.us_p50": p("envs.step", 50, 1e3),
        "envs.step.us_p90": p("envs.step", 90, 1e3),
        "envs.step.busy_s": sum(durations["envs.step"]) / 1e9,
        "envs.reset.us_p50": p("envs.reset", 50, 1e3),
    }
    return metrics, {name: len(d) for name, d in durations.items()}
