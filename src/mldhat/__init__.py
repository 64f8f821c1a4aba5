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

All arithmetic is exact (arbitrary-precision integers only); all
values are immutable and all operations are pure functions, so everything
here is safe to call concurrently.
"""

from .cones import Cone, FaceSpec, dual_cone
from .cones import RationalPolytope, UnboundedPolytopeError, enumerate_lattice_points
from .hilbert import HilbertBasis, hilbert_basis
from .hypersurface import (
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
    pairing,
    rank_of,
    saturate,
)
from .oracle import (
    StaircaseResult,
    TruncatedExpansion,
    expand,
    staircase_verify,
    torus_point_sample,
)
from .toric import (
    SpanningWitness,
    ToricMldReport,
    mld_at_point,
    minimize_spanning_cost,
    spanning_cost_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "FaceSpec",
    "HilbertBasis",
    "HypersurfaceMldReport",
    "LatticeError",
    "LimitError",
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
    "hilbert_basis",
    "hypersurface_report",
    "is_feasible",
    "minimize_objective",
    "minimize_spanning_cost",
    "mld_at_point",
    "objective",
    "pairing",
    "rank_of",
    "saturate",
    "spanning_cost_greedy",
    "staircase_verify",
    "torus_point_sample",
    "validate_support",
    "weight_data",
]
