"""The invariant lambda and Mather mld at closed points of affine toric
varieties.

For a full-dimensional pointed cone with torus-fixed point x, the invariant
is

    lambda(x) = min over interior lattice points a of cost(a) - n,

where cost(a) is the minimum of sum_i <a, u_i> over all linearly
independent n-element subsets {u_1, ..., u_n} of the dual semigroup; the
minimum is always computed over Hilbert-basis elements, since any optimal
u_i is irreducible.  The Mather minimal log discrepancy is lambda + dim X.

Candidate set.  The search evaluates the minimal interior lattice points
of the closed parallelepipeds {sum_{v in T} c_v v : 0 <= c_v <= 1} over
the cells T of the pulling triangulation of the cone
(`cones.pulling_triangulation`, no new rays), as
`hilbert.interior_candidates` finds them; they hold every minimizer, and
the witness is the least minimizer under `SpanningWitness.sort_key` over
all interior points.
(1) Strict monotonicity: if a = b + w with b interior and w != 0 a lattice
point of the cone, then cost(a) > cost(b).  For an optimal set {u_i} of a,
cost(a) = sum <u_i, b> + sum <u_i, w> >= cost(b) + sum <u_i, w>; every
<u_i, w> >= 0, and the u_i span, so some <u_i, w> > 0.  So every
minimizer is minimal among the interior points under "a - b lies in the
cone", and a point minimal there is minimal in any candidate set holding
it.  (2) Every minimal interior point lies in a closed parallelepiped
(proved in `hilbert.interior_candidates`).  By (1) and (2), the least
witness over the minimal candidates, kept by the sieve of
`hilbert.FacetValues.minimal_elements` on the dual-ray values, is the
least over all interior points; the greedy runs on the minimal candidates
only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, ConeError, FaceSpec, dual_cone, face_chart
from .cones import enumerate_lattice_points  # not called here; perfbench/tracing.py wraps this name
from .hilbert import HilbertBasis, hilbert_basis, interior_candidates
from .lattice import LatticeError, as_vector, pairing
from .lattice import rank_of  # not called here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class SpanningWitness:
    """An interior point with a spanning set attaining its pairing cost."""

    point: tuple[int, ...]
    value: int
    chosen_set: tuple[tuple[int, ...], ...]

    def sort_key(self):
        return (self.value, self.point, self.chosen_set)


@dataclass(frozen=True)
class ToricMldReport:
    lambda_value: int
    mather_mld: int
    witness: SpanningWitness
    fast_path: str  # "none" from the search, "smooth" at the zero face; kept for report readers
    torus_factor_rank: int
    face_reduced_from: tuple[int, ...] | None


def spanning_cost_greedy(a, hb: HilbertBasis) -> SpanningWitness:
    """Greedy minimum of sum <a, u_i> over spanning subsets of the basis.

    Repeatedly picks the basis element of smallest pairing (ties broken by
    lexicographic order) outside the span of the elements already chosen.
    The spanning sets are the bases of a matroid, and the greedy basis is
    Gale optimal (Gale, 1968): its k-th smallest pairing is at most the
    k-th smallest pairing of every basis, for each k.  Summing over k makes
    the greedy value the true minimum.  Taking k = n makes its largest
    pairing at most that of every basis, in particular of every optimal
    set, so the greedy set attains the jet-orbit threshold: the least, over
    optimal sets, of their largest pairing with a.  From level m on that
    threshold, the orbit of the order map of a in the m-jets has dimension
    exactly (m + 1) n - cost(a); below it only the bracket
    [(m + 1) n - cost(a), (m + 1) n - m] is known.

    The basis holds the primitive vector of every extreme ray of the dual
    cone, as each is irreducible, so a is interior, pairing positively with
    every one of them, exactly when its least pairing in the ranking is
    positive: every basis element is a nonnegative combination of them.

    The span test keeps the chosen elements in fraction-free echelon form:
    each stored row is zero at the pivot columns of the rows stored before
    it, so reducing u against the rows in turn zeroes every pivot column,
    and u lies in the span exactly when nothing is left.
    """
    n = len(hb.elements[0]) if hb.elements else 0
    a = as_vector(a, n)
    ranked = sorted((pairing(u, a), u) for u in hb.elements)
    if not ranked or ranked[0][0] <= 0:
        raise LatticeError("spanning cost needs an interior lattice point")
    chosen: list[tuple[int, ...]] = []
    value = 0
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for paired, u in ranked:
        v = list(u)
        for col, row in echelon:
            if v[col]:
                p, q = row[col], v[col]
                v = [p * x - q * y for x, y in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            chosen.append(u)
            value += paired
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    return SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(chosen)))


def minimize_spanning_cost(cone: Cone, max_points: int | None = None) -> ToricMldReport:
    """lambda and mld-hat at the torus-fixed point of a full-dimensional cone.

    `max_points` caps the cells and points of the Hilbert basis and of the
    candidates.
    """
    n = cone.ambient_rank
    if not cone.is_full_dimensional:
        raise ConeError("split off the torus factor before minimizing")
    hb = hilbert_basis(dual_cone(cone), max_points=max_points)
    witnesses = [spanning_cost_greedy(a, hb) for a in interior_candidates(cone, max_points)]
    best = min(witnesses, key=SpanningWitness.sort_key)
    return ToricMldReport(
        lambda_value=best.value - n,
        mather_mld=best.value,
        witness=best,
        fast_path="none",
        torus_factor_rank=0,
        face_reduced_from=None,
    )


def mld_at_point(
    cone: Cone,
    face: FaceSpec | None = None,
    max_points: int | None = None,
) -> ToricMldReport:
    """lambda and mld-hat at the distinguished point of a face of the cone.

    `face_chart` gives the face's chart and the rank n - dim F of the torus
    factor beside it (`face=None` is the whole cone).  lambda is computed on
    the chart; mld-hat = lambda + n keeps the ambient dimension of the
    original variety.  The zero face has no chart: its distinguished point
    lies in the dense torus, a smooth point, with lambda 0.
    """
    n = cone.ambient_rank
    indices, chart, torus_rank = face_chart(cone, face)
    if chart is None:
        lambda_value, fast_path = 0, "smooth"
        witness = SpanningWitness(point=(), value=0, chosen_set=())
    else:
        search = minimize_spanning_cost(chart, max_points=max_points)
        lambda_value, witness, fast_path = search.lambda_value, search.witness, search.fast_path
    return ToricMldReport(
        lambda_value=lambda_value,
        mather_mld=lambda_value + n,
        witness=witness,
        fast_path=fast_path,
        torus_factor_rank=torus_rank,
        face_reduced_from=None if face is None else indices,
    )
