"""Multi-agent actor-critic training engine with phase profiling and
locality-aware replay sampling."""

from .envs import make_env_config
from .nn import MlpParams
from .profiler import Phase, breakdown
from .replay import ReplayBuffer
from .trainers import TrainerConfig, run_training

__version__ = "0.1.0"

__all__ = [
    "MlpParams",
    "Phase",
    "ReplayBuffer",
    "TrainerConfig",
    "breakdown",
    "make_env_config",
    "run_training",
    "__version__",
]
