"""Composite pulse synthesis and verification for one-qubit rotations.

Builds the SCROFULOUS, SCORBUTUS, and SKinsC sequences from a target
rotation, simulates them under pulse-length and off-resonance errors, and
certifies their robustness orders, operation times, and fidelity landscapes.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    AxisSpec,
    FidelityGrid,
    OreResidualReport,
    SlopeReport,
    TimeComparisonRow,
    fidelity_grid,
    first_order_coefficient,
    fit_loglog_slope,
    infidelity_ray,
    slope_report,
    symmetric_ore_residual,
    time_compare,
)
from .bloch import (
    BlochVector,
    NORTH_POLE,
    Trajectory,
    TrajectoryPoint,
    apply_to_state,
    trajectory,
)
from .sequences import (
    FAMILIES,
    PulseSequence,
    arcsinc,
    compose_with_errors,
    elementary,
    scorbutus,
    scrofulous,
    sequence_from_dict,
    sequence_to_dict,
    sinc,
    skinsc,
    switchback_replace,
    synthesize,
    theta_r_from_condition,
    total_time,
)
from .su2 import (
    ErrorPair,
    NO_ERROR,
    Pulse,
    Unitary2,
    compose,
    gate_fidelity,
    matrix_to_dict,
    normalize_phase,
    rotation,
    rotation_with_error,
)

__version__ = "0.1.0"

# the names imported above, without the submodules that the imports also bind
__all__ = sorted(n for n, v in globals().items() if not (n[0] == "_" or isinstance(v, _ModuleType)))
