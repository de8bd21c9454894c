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

Importing the package loads none of them.  Each public name below is
resolved on first use from the submodule that defines it (PEP 562), so a
program loads only the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule that the package re-exports
_EXPORTS = {
    "dynamics": ("ConditionViolation", "OrbitResult", "OrbitVerdict", "State",
                 "local_limit", "orbit", "step"),
    "fixed_points": ("ClosedFormOverflow", "FixedPointKind", "FixedPointReport",
                     "FixedPointSet", "FormulaTag", "discriminant",
                     "find_fixed_points", "gamma"),
    "oracles": ("fd_derivative", "fd_jacobian", "grid_period_scan",
                "sample_invariance_pairs", "sample_region"),
    "params": ("DomainError", "Params", "RegionLabel", "SimplexClass",
               "basic_offspring_number", "birth_threshold", "classify",
               "in_invariance_region", "preserves_quadrant", "primary_region",
               "shape_class", "validate"),
    "simplex": ("OutsideInvariantRegion", "Period2Kind", "Period2Set", "ShapeKind",
                "SimplexAnalysis", "SimplexParams", "UOrbitKind",
                "UOrbitNotConverged", "UPointType", "analyze", "fixed_point_u",
                "period2_set", "simplex_invariant", "u_derivative", "u_map",
                "u_orbit_limit", "u_stability", "x_minimum"),
    "stability": ("DeclaredType", "DegenerateAllZero", "FixedPointType",
                  "NotAFixedPoint", "OutsideDeclaredRegion", "StabilityReport",
                  "classify_fixed_point", "declared_type_table", "eigenvalues",
                  "jacobian", "quad_roots"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    # A submodule name is not in the table: the AttributeError lets
    # `from mospop import params` fall back to importing mospop.params.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
