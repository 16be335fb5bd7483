"""Multi-strain SIS dynamics on island (multipartite) networks.

Exact event-driven simulation of the node-level contagion, the coupled ODEs
it converges to on large islands, and mechanical checks of the qualitative
behavior (thresholds, equilibria, order preservation, derivative-order
structure, competitive exclusion).
"""

from .analysis import (
    Classification,
    DominanceViolation,
    LocalSign,
    TaylorTable,
    UnmetHypothesisError,
    check_dominance,
    classify_multi,
    classify_single,
    equilibrium_fraction,
    lyapunov_error,
    sign_probe,
    taylor_coefficients,
)
from .meanfield import (
    IntegrationError,
    MeanFieldParams,
    OdeTrajectory,
    StepControl,
    integrate,
    reduced_scalar_solution,
    rhs,
)
from .micro import (
    MacroCounts,
    MicroTrajectory,
    StrainParams,
    event_rates,
    node_level_simulate,
    replication_rng,
    simulate,
)
from .topology import (
    SuperNetwork,
    TopologyError,
    bipartite_supernetwork,
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    hop_distances,
    is_regular,
    star_supernetwork,
    superdegree,
)

__version__ = "0.1.0"
