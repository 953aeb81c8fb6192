"""Benchmark workloads: one training cell shape each, sized for the time budget.

Every workload keeps the ``TrainerConfig`` defaults (batch 1024,
``update_every`` 100, capacity 100k) and varies only scenario, algorithm,
sampler and agent count. Why each was chosen is in README.md.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    scenario: str
    n_agents: int
    algorithm: str
    sampler: str
    # Timed-cell length. A fresh cell fills its buffers for 44 episodes
    # (1,100 steps) before the first update round, then runs a round every
    # fourth episode, so the length sets the share of update-bearing
    # episodes that episode_ms_p90 lands in.
    episodes: int


WORKLOADS = {
    "coopnav-n12-uniform": Workload("coop-nav", 12, "maddpg", "uniform", episodes=80),
    "coopnav-n12-neighbor": Workload("coop-nav", 12, "maddpg", "neighbor", episodes=80),
    "predprey-n3-masac": Workload("predator-prey", 3, "masac", "uniform", episodes=400),
}

# Self-test sizes: a handful of episodes with small batches so that update
# rounds still happen. Numbers measured at these sizes are not comparable
# with real runs.
TINY = {"episodes": 8, "batch_size": 64, "update_every": 25}
