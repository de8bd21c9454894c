"""Tools for a two-stage discrete-time mosquito population map.

The map advances a larval count x and an adult count y by one generation:
adults add beta*y offspring to the larval pool, larvae mature at rate
alpha/(1+x), larvae die at rate d0 + d1*x, adults die at rate mu.

Modules:
    params        admissible parameters and region classification
    fixed_points  closed-form equilibrium enumeration
    stability     linearization, eigenvalue typing and the quadratic solver
    dynamics      trajectory iteration with limit detection
    simplex       the matched-rates case restricted to [0, 1]
    oracles       independent numerical cross-checks
    cli           command line front end (``python -m mospop``)
"""

from .dynamics import (
    ConditionViolation,
    OrbitResult,
    OrbitVerdict,
    State,
    local_limit,
    orbit,
    step,
)
from .fixed_points import (
    ClosedFormOverflow,
    FixedPointKind,
    FixedPointReport,
    FixedPointSet,
    FormulaTag,
    discriminant,
    find_fixed_points,
    gamma,
)
from .oracles import (
    fd_derivative,
    fd_jacobian,
    grid_period_scan,
    sample_invariance_pairs,
    sample_region,
)
from .params import (
    DomainError,
    Params,
    RegionLabel,
    SimplexClass,
    basic_offspring_number,
    birth_threshold,
    classify,
    in_invariance_region,
    preserves_quadrant,
    primary_region,
    shape_class,
    validate,
)
from .simplex import (
    OutsideInvariantRegion,
    Period2Kind,
    Period2Set,
    ShapeKind,
    SimplexAnalysis,
    SimplexParams,
    UOrbitKind,
    UOrbitNotConverged,
    UPointType,
    analyze,
    fixed_point_u,
    period2_set,
    simplex_invariant,
    u_derivative,
    u_map,
    u_orbit_limit,
    u_stability,
    x_minimum,
)
from .stability import (
    DeclaredType,
    DegenerateAllZero,
    FixedPointType,
    NotAFixedPoint,
    OutsideDeclaredRegion,
    StabilityReport,
    classify_fixed_point,
    declared_type_table,
    eigenvalues,
    jacobian,
    quad_roots,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormOverflow",
    "ConditionViolation",
    "DeclaredType",
    "DegenerateAllZero",
    "DomainError",
    "FixedPointKind",
    "FixedPointReport",
    "FixedPointSet",
    "FixedPointType",
    "FormulaTag",
    "NotAFixedPoint",
    "OrbitResult",
    "OrbitVerdict",
    "OutsideDeclaredRegion",
    "OutsideInvariantRegion",
    "Params",
    "Period2Kind",
    "Period2Set",
    "RegionLabel",
    "ShapeKind",
    "SimplexAnalysis",
    "SimplexClass",
    "SimplexParams",
    "StabilityReport",
    "State",
    "UOrbitKind",
    "UOrbitNotConverged",
    "UPointType",
    "analyze",
    "basic_offspring_number",
    "birth_threshold",
    "classify",
    "classify_fixed_point",
    "declared_type_table",
    "discriminant",
    "eigenvalues",
    "fd_derivative",
    "fd_jacobian",
    "find_fixed_points",
    "fixed_point_u",
    "gamma",
    "grid_period_scan",
    "in_invariance_region",
    "jacobian",
    "local_limit",
    "orbit",
    "period2_set",
    "preserves_quadrant",
    "primary_region",
    "quad_roots",
    "sample_invariance_pairs",
    "sample_region",
    "shape_class",
    "simplex_invariant",
    "step",
    "u_derivative",
    "u_map",
    "u_orbit_limit",
    "u_stability",
    "validate",
    "x_minimum",
    "__version__",
]
