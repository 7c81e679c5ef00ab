"""hyperball: exact rational hyperconvexity toolkit.

Decides and witnesses ball-intersection properties on two exact backends
(the max norm on Q^n and finite metric spaces), runs the constructive
refinement iterations with verified convergence bookkeeping, and ships the
optimal-order Helly family together with the intersection-property
threshold machinery.
"""

__version__ = "0.1.0"

from .barycenter import (
    BarycenterConfig,
    Isometry,
    barycenter,
    barycenter_contraction_check,
    default_ip_eps,
    equivariance_check,
    ip_lift,
    ip_threshold,
)
from .convexity import distance_convexity_check, sigma_convexity_check
from .errors import DimMismatch, HyperballError, InvalidArgument, SizeCapExceeded
from .lab import (
    BoxUnion,
    FiniteBallFamily,
    HellyInstance,
    LinfBallFamily,
    check_admissible,
    external_witness,
    four_to_n_consistency,
    graph_n_helly_bruteforce,
    helly_counterexample,
    helly_order_check,
    hyperconvex_witness,
    refute_search,
    verify_refutation,
    weakly_external_witness,
)
from .linf import (
    Ball,
    Box,
    FeasibilityResult,
    ball_family_intersection,
    box_retraction,
    linf_dist,
    sigma,
)
from .lp import (
    EmptySet,
    HPolyhedron,
    box_to_polyhedron,
    dist_to_polyhedron,
    halfspace,
    lp_feasible,
    lp_minimize,
)
from .metric import (
    FiniteMetricSpace,
    GraphInstance,
    graph_metric,
    gromov_product,
    is_modular,
    median_set,
    metric_interval,
    validate_metric,
)
from .rational import format_rational, parse_rational
from .refine import (
    ContractionReport,
    EpsOracle,
    IPParams,
    RefinementTrace,
    almost_to_exact,
    chain_walk,
    exact_subset_oracle,
    ip_constants,
    saturating_subset_oracle,
    triple_intersection,
    verify_trace,
)
from .reports import PropertyReport
from .sets import FiniteSubset, pair_witness, subset_dist
