"""Most-probable revenue distributions of long-run competitive economies.

Exact counting of the equilibrium outcomes behind every revenue-occupancy
vector, enumeration and uniform sampling of those outcomes, constrained
entropy maximisation for the Boltzmann/Bose-Einstein occupancies with
condensation detection, the macro-parameter bridge, and fitting of the two
candidate laws to revenue or income samples.
"""

from .core import (
    EconomicOrder,
    EconomyConfig,
    Regime,
    RevenueGrid,
    ValidationReport,
    validate_order,
)
from .counting import (
    log_multiplicity,
    multiplicity,
    stirling_log_multiplicity,
)
from .enumeration import (
    CatalogEntry,
    MicroOutcome,
    OrderCatalog,
    catalog,
    empirical_frequencies,
    enumerate_orders,
    enumerate_outcomes,
    feasible_outcome_count,
    sample_outcomes,
)
from .errors import (
    CapExceededError,
    ConfigError,
    EconOrderError,
    InfeasibleError,
    SingularityError,
)
from .fitting import (
    FitResult,
    GoodnessReport,
    SampleSet,
    fit_boltzmann,
    fit_bose_einstein,
    goodness_of_fit,
    ks_critical_value,
    load_samples,
    synthetic_bose_einstein,
    synthetic_exponential,
)
from .macro import (
    IdentityReport,
    MacroParams,
    entropy_identity_residual,
    log_W,
    macro_from_multipliers,
    multipliers_from_macro,
    technology,
)
from .maxent import (
    CondensationReport,
    MultiplierSolution,
    detect_condensation,
    occupancy,
    solve_multipliers,
    solve_multipliers_bisection,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CatalogEntry",
    "CondensationReport",
    "ConfigError",
    "EconOrderError",
    "EconomicOrder",
    "EconomyConfig",
    "FitResult",
    "GoodnessReport",
    "IdentityReport",
    "InfeasibleError",
    "MacroParams",
    "MicroOutcome",
    "MultiplierSolution",
    "OrderCatalog",
    "Regime",
    "RevenueGrid",
    "SampleSet",
    "SingularityError",
    "ValidationReport",
    "catalog",
    "detect_condensation",
    "empirical_frequencies",
    "entropy_identity_residual",
    "enumerate_orders",
    "enumerate_outcomes",
    "feasible_outcome_count",
    "fit_boltzmann",
    "fit_bose_einstein",
    "goodness_of_fit",
    "ks_critical_value",
    "load_samples",
    "log_W",
    "log_multiplicity",
    "macro_from_multipliers",
    "multiplicity",
    "multipliers_from_macro",
    "occupancy",
    "sample_outcomes",
    "solve_multipliers",
    "solve_multipliers_bisection",
    "stirling_log_multiplicity",
    "synthetic_bose_einstein",
    "synthetic_exponential",
    "technology",
    "validate_order",
]
