"""Utility-driven task dispatch across heterogeneous server pools.

The package simulates finite systems of infinite-capacity pools under several
dispatch policies, computes the static utility ceiling any policy must respect,
and integrates the matching large-system dynamics.
"""

from .model import (
    CappedLinear,
    Coordinate,
    FluidSystem,
    Linear,
    LogQuality,
    OccupancyState,
    QVector,
    SystemConfig,
    Tabulated,
    Utility,
    UtilityFamily,
    occupancy_to_q,
    overall_utility,
    utility_from_dict,
)
from .assign import (
    OptimalAssignment,
    optimal_assignment,
    upper_bound,
    validate_feasible,
)
from .policies import (
    FixedClassDispatch,
    Jlmu,
    Policy,
    RandomDispatch,
    Slta,
    parse_policy,
    token_counts,
)
from .sim import (
    BoundViolation,
    Metrics,
    RunConfig,
    batch_means,
    coupled_simulate,
    init_state,
    simulate,
)
from .fluid import (
    FluidPath,
    IntegratorConfig,
    ReflectionReport,
    SampledPath,
    equilibrium_profile,
    fluid_rhs,
    fluid_sigma,
    integrate_fluid,
    skorokhod_reflect,
    verify_reflection_system,
)

__version__ = "0.1.0"
