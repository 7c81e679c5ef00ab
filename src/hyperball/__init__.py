"""hyperball: exact rational hyperconvexity toolkit.

Decides and witnesses ball-intersection properties on two exact backends
(the max norm on Q^n and finite metric spaces), runs the constructive
refinement iterations with verified convergence bookkeeping, and ships the
optimal-order Helly family together with the intersection-property
threshold machinery.

Importing the package loads no submodule.  Each name of ``__all__`` loads
its defining module on first access (PEP 562), so ``hyperball.lab`` and
``from hyperball import lab`` still give the submodules, and a process
pays only for the modules it uses.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "barycenter": (
        "Isometry", "barycenter", "barycenter_contraction_check", "default_ip_eps",
        "equivariance_check", "ip_lift", "ip_threshold",
    ),
    "convexity": ("distance_convexity_check", "sigma_convexity_check"),
    "errors": ("DimMismatch", "HyperballError", "InvalidArgument", "SizeCapExceeded"),
    "lab": (
        "BoxUnion", "FiniteBallFamily", "HellyInstance", "LinfBallFamily", "check_admissible",
        "external_witness", "four_to_n_consistency", "graph_n_helly_bruteforce",
        "helly_counterexample", "helly_order_check", "hyperconvex_witness", "refute_search",
        "verify_refutation", "weakly_external_witness",
    ),
    "linf": (
        "Ball", "Box", "FeasibilityResult", "ball_family_intersection", "box_retraction",
        "linf_dist", "sigma",
    ),
    "lp": (
        "EmptySet", "HPolyhedron", "box_to_polyhedron", "dist_to_polyhedron", "halfspace",
        "lp_feasible", "lp_minimize",
    ),
    "metric": (
        "FiniteMetricSpace", "GraphInstance", "graph_metric", "gromov_product", "is_modular",
        "median_set", "metric_interval", "validate_metric",
    ),
    "rational": ("format_rational", "parse_rational"),
    "refine": (
        "ContractionReport", "EpsOracle", "IPParams", "RefinementTrace", "almost_to_exact",
        "chain_walk", "exact_subset_oracle", "ip_constants", "saturating_subset_oracle",
        "triple_intersection", "verify_trace",
    ),
    "reports": ("PropertyReport",),
    "sets": ("FiniteSubset", "pair_witness", "subset_dist"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Loading a submodule binds it on the package under its own name; an
    exported name that a submodule shares (``barycenter``) stays the
    exported object, as it was when the package imported it eagerly."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
