"""The invariant lambda and Mather mld at closed points of affine toric
varieties.

For a full-dimensional pointed cone with torus-fixed point x, the invariant
is

    lambda(x) = min over interior lattice points a of cost(a) - n,

where cost(a) is the minimum of sum_i <a, u_i> over all linearly
independent n-element subsets {u_1, ..., u_n} of the dual semigroup; the
minimum is always computed over Hilbert-basis elements, since any optimal
u_i is irreducible.  The Mather minimal log discrepancy is lambda + dim X.

Candidate set.  The search evaluates the interior lattice points of the
closed parallelepipeds {sum_{v in T} c_v v : 0 <= c_v <= 1} over the
independent n-subsets T of the extreme rays; they hold a minimizer.
(1) If a and a - w are interior, with w a lattice point of the cone, then
cost(a - w) <= cost(a): every dual-semigroup element pairs nonnegatively
with w.  (2) Triangulate the cone without new rays.  An interior point a
lies in the relative interior of a face of a cell T, spanned by the rays S
with positive coefficient c_v; that face is interior, since each dual ray
pairs positively with a, hence with some v in S.  Subtracting
w = sum_S (ceil(c_v) - 1) v leaves coefficients in (0, 1] on S and 0 off
S: the same support, so a - w is interior, and it lies in the closed
parallelepiped of T.  Closed matters: on the cone over the unit square,
rays (0,0,1), (1,0,1), (0,1,1), (1,1,1), the only minimal interior point
(1,1,2) lies on the diagonal wall between the two cells, and the points
with every coefficient in (0, 1] give lambda = 1 instead of 0.  A closed
parallelepiped point is p + sum_J v for a half-open point p and rays J on
which p has coefficient 0, so there are at most 2^n sum_T |det T|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cones import Cone, ConeError, FaceSpec, dual_cone, face_cone
from .cones import has_isolated_fixed_point, is_simplicial, is_smooth, resolve_face
from .cones import split_torus_factor
from .hilbert import HilbertBasis, check_point_budget, hilbert_basis, parallelepiped_points
from .lattice import (
    LatticeError,
    LimitError,
    adjugate,
    as_vector,
    determinant,
    enumerate_lattice_points,  # not called here; perfbench/tracing.py wraps this name
    pairing,
    rank_of,
)


@dataclass(frozen=True)
class SpanningWitness:
    """An interior point with a spanning set attaining its pairing cost."""

    point: tuple[int, ...]
    value: int
    chosen_set: tuple[tuple[int, ...], ...]

    def sort_key(self):
        return (self.value, self.point, self.chosen_set)


@dataclass(frozen=True)
class OrbitDimension:
    """Dimension of a jet orbit, exact or bracketed below the threshold."""

    exact: bool
    lower: int
    upper: int
    cost: int
    threshold: int

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("orbit dimension is only known as an interval")
        return self.lower


@dataclass(frozen=True)
class ToricMldReport:
    lambda_value: int
    mather_mld: int
    witness: SpanningWitness
    fast_path: str
    torus_factor_rank: int
    face_reduced_from: tuple[int, ...] | None


def spanning_cost_greedy(a, hb: HilbertBasis) -> SpanningWitness:
    """Greedy minimum of sum <a, u_i> over spanning subsets of the basis.

    Repeatedly picks the basis element of smallest pairing (ties broken by
    lexicographic order) outside the span of the elements already chosen.
    The greedy value equals the true minimum: an exchange argument swaps
    any optimal set, element by element, into the greedy one without
    increasing the total.
    """
    n = hb.rank
    a = as_vector(a, n)
    if not hb.is_interior_point(a):
        raise LatticeError("spanning cost needs an interior lattice point")
    ranked = sorted(hb.elements, key=lambda u: (pairing(u, a), u))
    chosen: list[tuple[int, ...]] = []
    for u in ranked:
        if rank_of(chosen + [u]) > len(chosen):
            chosen.append(u)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    value = sum(pairing(u, a) for u in chosen)
    return SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(chosen)))


@lru_cache(maxsize=128)
def _independent_subsets(elements, n):
    """All rank-n subsets of a family of vectors, cached per family."""
    return tuple(
        combo
        for combo in itertools.combinations(elements, n)
        if rank_of(combo) == n
    )


def spanning_cost_bruteforce(a, hb: HilbertBasis, max_subsets=1_000_000) -> SpanningWitness:
    """Exhaustive minimum over all spanning subsets; the greedy oracle."""
    n = hb.rank
    a = as_vector(a, n)
    if not hb.is_interior_point(a):
        raise LatticeError("spanning cost needs an interior lattice point")
    s = len(hb.elements)
    count = 1
    for i in range(n):
        count = count * (s - i) // (i + 1)
    if count > max_subsets:
        raise LimitError(
            f"{count} subsets exceed the guard ({max_subsets}); use the greedy form"
        )
    best = None
    for combo in _independent_subsets(hb.elements, n):
        value = sum(pairing(u, a) for u in combo)
        cand = SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(combo)))
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    if best is None:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    return best


def optimal_spanning_sets(a, hb: HilbertBasis, max_subsets=1_000_000):
    """All spanning subsets attaining the minimum cost at a."""
    best = spanning_cost_bruteforce(a, hb, max_subsets)
    out = []
    for combo in _independent_subsets(hb.elements, hb.rank):
        if sum(pairing(u, a) for u in combo) == best.value:
            out.append(tuple(sorted(combo)))
    return best.value, out


def _candidate_points(cone: Cone, max_points: int | None):
    """Interior lattice points of the closed ray parallelepipeds (see above)."""
    n = cone.ambient_rank
    subsets = _independent_subsets(cone.generators, n)
    check_point_budget(subsets, max_points, "toric candidates", scale=2**n)
    _, dual_rays = cone.dual_pair
    points: set[tuple[int, ...]] = set()
    for rays in subsets:
        # row i of the adjugate pairs with p to det * (coefficient of ray i)
        adj = adjugate([[v[j] for v in rays] for j in range(n)])
        for p in parallelepiped_points(rays):
            zero = [v for v, row in zip(rays, adj) if pairing(row, p) == 0]
            for k in range(len(zero) + 1):
                for extra in itertools.combinations(zero, k):
                    a = tuple(sum(col) for col in zip(p, *extra))
                    if all(pairing(u, a) > 0 for u in dual_rays):
                        points.add(a)
    return points


def _fast_path_witness(cone: Cone):
    """Explicit certificate that lambda = 0 for the structured fast paths.

    Adapted coordinates send a smooth facet to the first n-1 unit vectors
    and shear the last ray into the box 0 <= a_i < t; the rows of the
    combined unimodular map are then dual-semigroup elements pairing to 1
    with the preimage of the all-ones point.  Everything is verified in the
    original coordinates before being returned.
    """
    n = cone.ambient_rank
    rays = list(cone.generators)
    if n == 1:
        return SpanningWitness(point=rays[0], value=1, chosen_set=(rays[0],))
    facet = rays[: n - 1]
    matrix = [list(r) for r in facet]
    # complete the facet basis to a basis of the ambient lattice
    try:
        cof = _primitive_cofactor(matrix, n)
        w = _solve_bezout(cof)
    except LatticeError:
        return None
    base = [list(v) for v in facet] + [list(w)]
    det = determinant(base)
    if det == 0:
        return None
    if det < 0:
        base[-1] = [-x for x in base[-1]]
    if abs(determinant(base)) != 1:
        return None

    def coordinate_rows(b):
        # functional rows of the map sending the basis rows of b to unit vectors
        inv = _integer_inverse([list(col) for col in zip(*b)])
        return [list(r) for r in inv]

    change = coordinate_rows(base)
    last = [sum(change[i][j] * rays[-1][j] for j in range(n)) for i in range(n)]
    t = last[-1]
    if t < 0:
        # flip the complement direction instead
        base[-1] = [-x for x in base[-1]]
        change = coordinate_rows(base)
        last = [sum(change[i][j] * rays[-1][j] for j in range(n)) for i in range(n)]
        t = last[-1]
    if t <= 0:
        return None
    # shear the new coordinates so the last ray has 0 <= a_i < t
    for i in range(n - 1):
        q = last[i] // t
        if q:
            change[i] = [x - q * y for x, y in zip(change[i], change[-1])]
    witness_set = tuple(sorted(tuple(row) for row in change))
    point = _integer_inverse([list(r) for r in change])
    a = tuple(sum(point[i][j] for j in range(n)) for i in range(n))
    # verify before trusting the construction
    if not cone.contains(a, strict=True):
        return None
    for u in witness_set:
        if any(pairing(u, v) < 0 for v in cone.generators):
            return None
    if sum(pairing(u, a) for u in witness_set) != n:
        return None
    if rank_of(witness_set) != n:
        return None
    return SpanningWitness(point=a, value=n, chosen_set=witness_set)


def _primitive_cofactor(matrix, n):
    """Vector of maximal minors of an (n-1) x n matrix, as a linear form."""
    cof = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in matrix]
        cof.append((-1) ** j * determinant(minor))
    return tuple(cof)


def _solve_bezout(c):
    """Integer vector w with c . w = 1 for a primitive integer vector c."""
    n = len(c)
    g = 0
    gw: list[int] = [0] * n
    for i, x in enumerate(c):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            gw = [0] * n
            gw[i] = 1 if x > 0 else -1
            continue
        # extended gcd of g and x
        a, b = g, abs(x)
        sa, sb = list(gw), [0] * n
        sb[i] = 1 if x > 0 else -1
        while b:
            q = a // b
            a, b = b, a - q * b
            sa, sb = sb, [p - q * r for p, r in zip(sa, sb)]
        g, gw = a, sa
    if g != 1:
        raise LatticeError("cofactor vector is not primitive; facet is not smooth")
    return tuple(gw)


def _integer_inverse(matrix):
    """Exact inverse of a unimodular integer matrix."""
    n = len(matrix)
    det = determinant(matrix)
    if abs(det) != 1:
        raise LatticeError("matrix is not unimodular")
    adj = adjugate(matrix)
    return [[det * adj[i][j] for j in range(n)] for i in range(n)]


def minimize_spanning_cost(
    cone: Cone,
    use_fast_paths: bool = True,
    max_points: int | None = None,
) -> ToricMldReport:
    """lambda and mld-hat at the torus-fixed point of a full-dimensional cone.

    `max_points` caps the Hilbert parallelepiped points and the candidates.
    """
    n = cone.ambient_rank
    if not cone.is_full_dimensional:
        raise ConeError("split off the torus factor before minimizing")

    if use_fast_paths:
        fast = None
        if is_smooth(cone):
            fast = "smooth"
        elif n == 2:
            fast = "surface"
        elif is_simplicial(cone) and has_isolated_fixed_point(cone):
            fast = "simplicial_isolated"
        if fast is not None:
            witness = _fast_path_witness(cone)
            if witness is not None:
                return ToricMldReport(
                    lambda_value=0,
                    mather_mld=n,
                    witness=witness,
                    fast_path=fast,
                    torus_factor_rank=0,
                    face_reduced_from=None,
                )

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


def orbit_dimension(a, m: int, hb: HilbertBasis, max_subsets=1_000_000) -> OrbitDimension:
    """Dimension of the jet orbit through the order map of a at level m.

    Exact when m reaches the largest pairing in some optimal spanning set;
    otherwise only the bracket [ (m+1)n - cost, (m+1)n - m ] is known.
    Any optimal set qualifies for the threshold: ordering an optimal set by
    pairing value, a cheaper element outside each partial span could be
    exchanged in and would lower the total, so every optimal set already
    satisfies the greedy minimality property that the exactness argument
    needs step by step.
    """
    if m < 1:
        raise ValueError("jet level m must be at least 1")
    n = hb.rank
    value, optima = optimal_spanning_sets(a, hb, max_subsets)
    threshold = min(max(pairing(u, a) for u in combo) for combo in optima)
    exact = m >= threshold
    lower = (m + 1) * n - value
    upper = lower if exact else (m + 1) * n - m
    return OrbitDimension(
        exact=exact, lower=lower, upper=upper, cost=value, threshold=threshold
    )


def mld_at_point(
    cone: Cone,
    face: FaceSpec | None = None,
    use_fast_paths: bool = True,
    max_points: int | None = None,
) -> ToricMldReport:
    """lambda and mld-hat at the distinguished point of a face of the cone.

    The face is reduced to a full-dimensional cone in the lattice it spans
    and any torus factor is split off; lambda is unchanged by both
    reductions while mld-hat keeps the ambient dimension of the original
    variety.
    """
    n_original = cone.ambient_rank
    face_indices: tuple[int, ...] | None = None
    working = cone
    if face is not None:
        face_indices = resolve_face(cone, face)
        if len(face_indices) == 0:
            # the zero face: its distinguished point lies in the dense torus,
            # a smooth point
            witness = SpanningWitness(point=(), value=0, chosen_set=())
            return ToricMldReport(
                lambda_value=0,
                mather_mld=n_original,
                witness=witness,
                fast_path="smooth",
                torus_factor_rank=n_original,
                face_reduced_from=face_indices,
            )
        working = face_cone(cone, FaceSpec(generator_subset=face_indices))
    reduced, torus_rank = split_torus_factor(working)
    report = minimize_spanning_cost(
        reduced,
        use_fast_paths=use_fast_paths,
        max_points=max_points,
    )
    return ToricMldReport(
        lambda_value=report.lambda_value,
        mather_mld=report.lambda_value + n_original,
        witness=report.witness,
        fast_path=report.fast_path,
        torus_factor_rank=torus_rank,
        face_reduced_from=face_indices,
    )
