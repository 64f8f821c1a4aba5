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
of the closed parallelepipeds {sum_{v in T} c_v v : 0 <= c_v <= 1} over the
cells T of the pulling triangulation of the cone
(`cones.pulling_triangulation`, no new rays); they hold every minimizer,
and the witness is the least minimizer under `SpanningWitness.sort_key`
over all interior points.
(1) Strict monotonicity: if a = b + w with b interior and w != 0 a lattice
point of the cone, then cost(a) > cost(b).  For an optimal set {u_i} of a,
cost(a) = sum <u_i, b> + sum <u_i, w> >= cost(b) + sum <u_i, w>; every
<u_i, w> >= 0, and the u_i span, so some <u_i, w> > 0.  So every
minimizer is minimal among the interior points under "a - b lies in the
cone", and a point minimal there is minimal in any candidate set holding
it.  (2) Every minimal interior point lies in a closed parallelepiped.  An
interior point a lies in the relative interior of a face of a cell T,
spanned by the rays S with positive coefficient c_v; that face is
interior, since each dual ray pairs positively with a, hence with some v
in S.  Subtracting w = sum_S (ceil(c_v) - 1) v leaves coefficients in
(0, 1] on S and 0 off S: the same support, so a - w is interior, and it
lies in the closed parallelepiped of T; for a minimal a, w = 0.  Closed
matters: on the cone over the unit square, rays (0,0,1), (1,0,1), (0,1,1),
(1,1,1), the only minimal interior point (1,1,2) lies on the diagonal wall
between the two cells, and the points with every coefficient in (0, 1]
give lambda = 1 instead of 0.  A closed parallelepiped point is
p + sum_J v for a half-open point p and rays J on which p has coefficient
0, so there are at most 2^n sum_T |det T|.  The coefficient numerators of
p come from the same walk that folds p, so a zero coefficient is read off
the walk.  By (1) and (2), the least witness over the minimal candidates,
kept by the sieve of `hilbert.FacetValues.minimal_elements` on the dual-ray
values, is the least over all interior points; the greedy runs on the
minimal candidates only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, ConeError, FaceSpec, dual_cone, face_chart
from .cones import enumerate_lattice_points  # not called here; perfbench/tracing.py wraps this name
from .hilbert import HilbertBasis, cell_walk, hilbert_basis, numerator_fields
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

    The span test keeps the chosen elements in fraction-free echelon form:
    each stored row is zero at the pivot columns of the rows stored before
    it, so reducing u against the rows in turn zeroes every pivot column,
    and u lies in the span exactly when nothing is left.
    """
    n = hb.rank
    a = as_vector(a, n)
    if not hb.is_interior_point(a):
        raise LatticeError("spanning cost needs an interior lattice point")
    ranked = sorted(hb.elements, key=lambda u: (pairing(u, a), u))
    chosen: list[tuple[int, ...]] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for u in ranked:
        v = list(u)
        for col, row in echelon:
            if v[col]:
                p, q = row[col], v[col]
                v = [p * x - q * y for x, y in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            chosen.append(u)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    value = sum(pairing(u, a) for u in chosen)
    return SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(chosen)))


def _candidate_points(cone: Cone, max_points: int | None):
    """The minimal interior points of the closed cell parallelepipeds (see above).

    Each closed point is packed from its half-open point by adding the
    packed rays with coefficient 0, tested for interior on its packed facet
    values, and remembers the first (T, numerators) that gave it, a ray
    with numerator |det T|; each minimal point is folded from there and must
    reproduce its facet values.
    """
    coords, cells = cell_walk(cone, max_points, "toric candidates", scale=2**cone.ambient_rank)
    guard, ones = coords.guard, coords.ones
    origin = {}  # packed interior point -> (T, packed numerators, |det T|)
    for T, absdet, rays, points in cells:
        fields = list(zip(rays, numerator_fields(absdet, len(T))))
        for u, q in points.items():
            closed = [(u, q)]
            for r, (mask, full) in fields:
                if not q & mask:
                    closed += [(a + r, c + full) for a, c in closed]
            for a, c in closed:
                # every facet value at least 1: no field loses its guard bit
                if a not in origin and ((a | guard) - ones) & guard == guard:
                    origin[a] = (T, c, absdet)
    return [coords.point(*origin[a], a) for a in coords.minimal_elements(origin)]


def minimize_spanning_cost(cone: Cone, max_points: int | None = None) -> ToricMldReport:
    """lambda and mld-hat at the torus-fixed point of a full-dimensional cone.

    `max_points` caps the cells and points of the Hilbert basis and of the
    candidates.
    """
    n = cone.ambient_rank
    if not cone.is_full_dimensional:
        raise ConeError("split off the torus factor before minimizing")
    hb = hilbert_basis(dual_cone(cone), max_points=max_points)
    witnesses = [spanning_cost_greedy(a, hb) for a in _candidate_points(cone, max_points)]
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
