"""Mather minimal log discrepancies by exact lattice optimization.

The package computes the nonnegative invariant lambda (and from it the
Mather minimal log discrepancy, mld-hat = lambda + dim X) at closed points
of two kinds of varieties:

* affine toric varieties, given by the ray generators of their cone, where
  lambda is the minimum over interior lattice points of a spanning pairing
  sum over the Hilbert basis of the dual semigroup;
* hypersurfaces with a fixed monomial support and very general
  coefficients, where an exhaustive layered scan over vanishing-order
  tuples yields a lower bound together with an equality certificate when one
  exists.

A finite-field jet oracle provides independent desk-scale verification of
the dimension formulas behind both computations.

All arithmetic is exact (arbitrary-precision integers and rationals); all
values are immutable and all operations are pure functions, so everything
here is safe to call concurrently.
"""

from .cones import Cone, FaceSpec, dual_cone, face_cone, has_isolated_fixed_point
from .cones import is_simplicial, is_smooth, membership, split_torus_factor
from .hilbert import HilbertBasis, hilbert_basis, is_irreducible
from .hypersurface import (
    AlphaTuple,
    HypersurfaceMldReport,
    Support,
    binomial_lambda,
    equality_certificate,
    hypersurface_report,
    is_feasible,
    minimize_objective,
    objective,
    validate_support,
    weight_data,
)
from .lattice import (
    LatticeError,
    LimitError,
    RationalPolytope,
    UnboundedPolytopeError,
    enumerate_lattice_points,
    pairing,
    rank_of,
    saturate,
)
from .oracle import (
    OracleConfig,
    StaircaseResult,
    TruncatedExpansion,
    expand,
    make_torus_sampler,
    staircase_verify,
    torus_point_sample,
)
from .toric import (
    OrbitDimension,
    SpanningWitness,
    ToricMldReport,
    mld_at_point,
    minimize_spanning_cost,
    orbit_dimension,
    spanning_cost_bruteforce,
    spanning_cost_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTuple",
    "Cone",
    "FaceSpec",
    "HilbertBasis",
    "HypersurfaceMldReport",
    "LatticeError",
    "LimitError",
    "OracleConfig",
    "OrbitDimension",
    "RationalPolytope",
    "SpanningWitness",
    "StaircaseResult",
    "Support",
    "ToricMldReport",
    "TruncatedExpansion",
    "UnboundedPolytopeError",
    "binomial_lambda",
    "dual_cone",
    "enumerate_lattice_points",
    "equality_certificate",
    "expand",
    "face_cone",
    "has_isolated_fixed_point",
    "hilbert_basis",
    "hypersurface_report",
    "is_feasible",
    "is_irreducible",
    "is_simplicial",
    "is_smooth",
    "make_torus_sampler",
    "membership",
    "minimize_objective",
    "minimize_spanning_cost",
    "mld_at_point",
    "objective",
    "orbit_dimension",
    "pairing",
    "rank_of",
    "saturate",
    "spanning_cost_bruteforce",
    "spanning_cost_greedy",
    "split_torus_factor",
    "staircase_verify",
    "torus_point_sample",
    "validate_support",
    "weight_data",
]
