"""Desk-scale simulator for model-heterogeneous federated learning.

Ten federated strategies across three heterogeneity levels (width, depth,
topology) train a configurable block-structured model family under
device-constraint scenarios, with an analytic resource cost model pricing
a simulated wall clock and four evaluation metrics.
"""

__version__ = "0.1.0"

from .nn import BlockNetModel, BlockNetSpec, LossSpec, SGDConfig
from .datasets import Dataset, PartitionConfig
from .resources import (
    DeviceProfile,
    InfeasibleScenarioError,
    ModelPool,
    ProfileDistribution,
    ScenarioConfig,
    Variant,
    VariantStats,
)
from .metrics import RoundRecord
from .config import ConfigError, ExperimentConfig, load_config

__all__ = [
    "BlockNetModel",
    "BlockNetSpec",
    "ConfigError",
    "Dataset",
    "DeviceProfile",
    "ExperimentConfig",
    "InfeasibleScenarioError",
    "LossSpec",
    "ModelPool",
    "PartitionConfig",
    "ProfileDistribution",
    "RoundRecord",
    "SGDConfig",
    "ScenarioConfig",
    "Variant",
    "VariantStats",
    "load_config",
    "__version__",
]
