"""Multi-agent actor-critic training engine with phase profiling and
locality-aware replay sampling."""

from .envs import EnvConfig, WorldState, make_env_config, observation_dim
from .nn import AdamState, MlpParams
from .profiler import Phase, ProfileReport, breakdown, phase_scope
from .replay import BatchArrays, ReplayBuffer, Transition
from .trainers import (
    AgentBundle,
    EpisodeStats,
    TrainerConfig,
    run_training,
    update_all_trainers,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AgentBundle",
    "BatchArrays",
    "EnvConfig",
    "EpisodeStats",
    "MlpParams",
    "Phase",
    "ProfileReport",
    "ReplayBuffer",
    "TrainerConfig",
    "Transition",
    "WorldState",
    "breakdown",
    "make_env_config",
    "observation_dim",
    "phase_scope",
    "run_training",
    "update_all_trainers",
    "__version__",
]
