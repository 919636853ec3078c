"""Fully-dynamic bounded-out-degree edge orientation with worst-case updates.

Public surface: configure with :class:`OrientationConfig` (usually via a
preset), drive an :class:`OrientationStack` with inserts and deletes, and
read orientations, density estimates, densest subgraphs, and the reduction
applications off it.  Exact desk-scale oracles live in
:mod:`dynorient.oracles`; the CLI in :mod:`dynorient.cli`.
"""

from .applications import (
    ForestDecomposition,
    GreedyColoring,
    MatVecProduct,
    MaximalMatching,
)
from .config import (
    PRESET_EPS_DENSITY,
    PRESET_FAST_ADDITIVE,
    PRESET_FAST_MULTIPLICATIVE,
    PRESET_SIMPLE_ADDITIVE,
    PRESET_SIMPLE_MULTIPLICATIVE,
    PRESETS,
    OrientationConfig,
)
from .density import DensityReport, DensityTracker
from .errors import (
    ConfigError,
    CorruptionError,
    DuplicateEdgeError,
    GraphUpdateError,
    MissingEdgeError,
    OracleLimitError,
    WorkloadError,
)
from .events import EventHasher, EventRecorder, OrientationEvent
from .rounding import OrientationListener, RoundedOrientation
from .stack import OrientationStack
from .state import OrientationEngine

__all__ = [
    "OrientationConfig",
    "OrientationStack",
    "OrientationEngine",
    "RoundedOrientation",
    "OrientationListener",
    "DensityTracker",
    "DensityReport",
    "MaximalMatching",
    "GreedyColoring",
    "ForestDecomposition",
    "MatVecProduct",
    "OrientationEvent",
    "EventRecorder",
    "EventHasher",
    "ConfigError",
    "CorruptionError",
    "DuplicateEdgeError",
    "GraphUpdateError",
    "MissingEdgeError",
    "OracleLimitError",
    "WorkloadError",
    "PRESETS",
    "PRESET_SIMPLE_ADDITIVE",
    "PRESET_SIMPLE_MULTIPLICATIVE",
    "PRESET_FAST_ADDITIVE",
    "PRESET_FAST_MULTIPLICATIVE",
    "PRESET_EPS_DENSITY",
]

__version__ = "0.1.0"
