"""shadowlab: numerical shadowing for time-varying dynamical systems."""

__version__ = "0.1.0"

from .averaging import (
    InvariantSubsystem,
    average_shadow_point,
    block_decompose,
    lift_to_A,
    visit_condition,
)
from .density import (
    IndexSet,
    cesaro_to_density_zero,
    density_zero_to_cesaro,
    patch_sets,
    upper_density,
)
from .families import (
    BUILTIN_FAMILIES,
    MapFamily,
    family_from_descriptor,
    product_family,
)
from .limits import (
    equicontinuity_modulus,
    limit_shadow_point,
    splice,
)
from .products import (
    ShadowingVariant,
    VariantBudget,
    h_shadow_check,
    product_equivalence_check,
    s_limit_check,
)
from .pseudo_orbits import (
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
)
from .solver import (
    DeltaSchedule,
    ShadowReport,
    delta_budget,
    periodic_shadow,
    pullback_shadow,
)

__all__ = [
    "BUILTIN_FAMILIES",
    "DeltaSchedule",
    "IndexSet",
    "InvariantSubsystem",
    "MapFamily",
    "PseudoOrbit",
    "ShadowReport",
    "ShadowingVariant",
    "VariantBudget",
    "average_shadow_point",
    "block_decompose",
    "cesaro_to_density_zero",
    "delta_budget",
    "density_zero_to_cesaro",
    "displace_orbit",
    "equicontinuity_modulus",
    "family_from_descriptor",
    "h_shadow_check",
    "inject_defects",
    "lift_to_A",
    "limit_shadow_point",
    "patch_sets",
    "periodic_shadow",
    "perturb_orbit",
    "product_equivalence_check",
    "product_family",
    "pullback_shadow",
    "s_limit_check",
    "splice",
    "upper_density",
    "visit_condition",
]
