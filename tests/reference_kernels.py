"""Reference routes for the parallelepiped kernel, kept for the tests.

`reference_numerators` decomposes a ray subset T the way the library did
before one Hermite form of [T | I] replaced it: a rank test by row Hermite
form, a Bareiss determinant and a cofactor adjugate with one determinant
per entry.  `independent_subsets` is the rank-tested subset list that the
brute-force oracles of the tests iterate over.

`reference_expand_single_monomial` is the arc expansion of one monomial as
it was before it was read off multinomial compositions: it multiplies
truncated symbolic series (`_series_pow`, `_series_mul`, `_poly_mul`).
`reference_staircase_verify` is the staircase oracle as it was before the
per-call term plans, on that expansion: each trial rebuilds every G_k as
a symbolic dict and collapses it onto its pivot with one `pow` per
variable per monomial (`_substitute`, which the torus-point sampler also
used before it collapsed its form directly).  It sums the series of the
support monomials with `_combine`, the merge that `expand` made before it
wrote each window monomial once, from the one support monomial it comes
from.
`reference_powmod_minus_one` is the right-to-left square-and-multiply the
root finder used before its linear-base kernel.  `reference_nonzero_roots`
is the root finder before quadratics were solved in closed form: every
degree from 2 up goes through Cantor-Zassenhaus (`_split_roots`, which
degree 3 and up still takes).

`reference_walks` is the all-subsets walk both lattice-point searches made
before they walked the cells of one pulling triangulation: every
independent n-subset of the rays, decomposed by `_numerators` and walked
by `_walk`, with its numerators unpacked by `numerator_lists`.
`reference_point` is how both searches read a kept point before the walk
carried its coordinates: it folds the point from its numerators
(`unpack_numerators`) by one exact division per coordinate (`_fold`) and
checks it against its packed facet values.
`reference_hilbert_basis` sieves the rays and the half-open parallelepiped
points of those subsets pairwise, in grading order, as coordinate vectors.
`reference_candidate_points` is the toric candidate set as it was before
the minimal-element sieve, the interior points of the closed
parallelepipeds of every independent subset, and
`reference_minimize_spanning_cost` runs `basis_greedy` on every one of them.

`reference_facet_values` is the packing of facet values as the cell walk
made it before one linear map (`FacetValues.image`) wrote it: one
`pairing` per facet form, then the values and their sum, the degree,
packed field by field.

`basis_greedy` is the greedy spanning cost over a `HilbertBasis`, as the
library computed it before the greedy was fed pairing levels: the basis
ranked by pairing with the point, in one call of `spanning_cost_greedy`.
`reference_spanning_cost_greedy` is the same greedy with one full
Hermite-form rank test per scanned basis element, as it was before the
greedy kept an echelon form of the elements it has chosen.
`reference_enumerate_lattice_points` is the lattice-point enumerator as it
was before Fourier-Motzkin bounds replaced it: the vertices from the
double description of the cone over the polytope, then a scan of their
bounding box.
`reference_fm_enumerate` is the general Fourier-Motzkin enumerator that
`cones` held before the toric level slices got a walker of their own: it
takes any `RationalPolytope`, whose `projections` are the Fourier-Motzkin
eliminations, tells an empty polytope from an unbounded one over the
rationals, raising `UnboundedPolytopeError` for the latter, and keeps a
zero-normal row that fails as the mark of an empty polytope.  The toric
walker (`toric.enumerate_lattice_points`) took its projections from the
same elimination, in a copy of its own, before it read them off the
hulls of the slice's vertices.  The slices of the level search are
nonempty and bounded, so the library's walker needs none of these
branches; the tests check it against this enumerator and the box scan.
`reference_level_box` is the bounding box of a level slice as
`toric._LevelGreedy.feed` counted it before it read the box off the dual
rays: each coordinate bounded by the projection of the slice onto it
alone, the slice's `RationalPolytope.axes`.
`reference_level_search` is the toric level search as it was before one
best-first heap replaced it: a loop over the levels that sorts the
candidates still open by (bound, point) at each level, drops one whose
(bound, point) sorts after (value, point) of the best exact candidate so
far, and replaces that best when a new witness sorts before it under
`witness_key`.
`is_interior_point` is the interior test that was a method of
`HilbertBasis`: every ray of the dual cone pairs positively with the
point.

`jet_orbit_dimension` checks the toric cost by the paper's own route,
sharing nothing with the search beyond `Cone`: the dimension of the
orbit of the arcs t^a u(t) in the m-jets, the rank over F_p
(p = 2^31 - 1, `rank_mod_p`) of the Jacobian at a random point, over
the dual elements of pairing at most m with a that
`dual_elements_up_to` takes from `reference_fm_enumerate`.  The unit
series are handled through their logarithms (`_unit_log`, `_exp`).

`reference_evaluate` is the tuple kernel as it was before its one record
held the pivot index and Obj: it lists every pair (monomial, variable)
attaining the pivot gap.  `reference_minimize_objective` is the layered
tuple scan as it was before it evaluated only the orders of the pivot
where two monomial weights tie: it evaluates every order 1..top, with
`reference_evaluate` and Obj written out, and gives each minimizer its
record from the library kernel `_evaluate`.

`is_binomial` is the shape test that `binomial_lambda` made through a
function of its own: two monomials with disjoint variables.

`reference_hypersurface_report` is the hypersurface report as it was
before every report decided its certificate exactly: a first pass tries
the monomial criterion at each minimizer, and only under `certify` a
second pass tries the torus-zero criterion
(`reference_equality_certificate`).

`reference_resolve_face` and `reference_face_chart` are the face routes
as they were before both read the facet table: a ray subset is a face
when it is the zero set of the sum of the dual rays vanishing on it, and
the chart lattice is `saturate`, the double integer kernel of the face's
rays.  `face_cone` and `split_torus_factor` are the two face reductions as
they were before one `face_chart` reduced a face and its torus factor in
one step: `face_cone` re-expresses a face in the lattice its rays span (the
whole cone through `split_torus_factor`), and `split_torus_factor` does
the same for a whole cone that does not span, with torus rank n - dim.

`reference_facet_masks` is the facet table as it was before the cone
kept the one its double-description sweep tracks: one pairing per dual
ray and generator, rebuilt by every face route that read it.  `contains`
is the closed and interior membership test that was `Cone.contains`.

`is_simplicial`, `is_smooth`, `facets` and `has_isolated_fixed_point`
are the cone predicates that no command calls; the tests use them to pick
cones (simplicial with an isolated fixed point, for instance) and to walk
the facets of a cone.

`reference_encode` is the JSON-safe copy of a report that `dump_report`
made before it wrote the text in one walk: it turns big integers into
strings and refuses strings that read as one, and `json.dumps(indent=2)`
then wrote the copy.

`vec_sub`, `vec_scale`, `vec_neg` and `is_zero` are the tuple helpers that
`lattice` held before the double-description sweep wrote its arithmetic
in place; the reference routes of the tests still use them.
`witness_key` orders spanning witnesses by (value, point, chosen set), so
that the oracles of the tests pick the least witness; the search orders
its candidates by (cost, point), and as points are distinct the two
agree on the witness.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from math import comb, gcd
from operator import mul

from mldhat.cli import BIG, _is_big_integer_text
from mldhat.cones import (
    Cone,
    ConeError,
    FaceError,
    FaceSpec,
    dual_cone,
    dual_description,
    face_chart,
)
from mldhat.hypersurface import (
    ASSUMPTIONS,
    Certificate,
    HypersurfaceMldReport,
    ObjectiveMinimum,
    SupportError,
    _as_alpha,
    _divides_pivot_derivative,
    _evaluate,
    _small_tuples,
    certificate_data,
    is_feasible,
    minimize_objective,
    weight_data,
)
from mldhat.lattice import (
    LatticeError,
    LimitError,
    as_vector,
    express_in_basis,
    integer_kernel,
    pairing,
    rank_of,
    row_hermite,
)
from mldhat.oracle import (
    StaircaseResult,
    _divmod,
    _monic,
    _nonzero_roots,
    _poly_product,
    _require_odd_prime,
    _require_trials,
    _solve_variable,
    _split_roots,
    _trim,
    _window_orders,
)
from mldhat.hilbert import FacetValues, _fold, _numerators, _walk, interior_candidates, parallelepiped_points
from mldhat.toric import SpanningWitness, ToricMldReport, _LevelGreedy, spanning_cost_greedy


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def vec_neg(v):
    return tuple(-x for x in v)


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def witness_key(w):
    return (w.value, w.point, w.chosen_set)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise LatticeError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def adjugate(rows):
    """Adjugate matrix: adj(A) @ A = det(A) * I, one cofactor at a time."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 1:
        return [(1,)]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            row.append((-1) ** (i + j) * determinant(minor))
        adj.append(tuple(row))
    return adj


def reference_numerators(rays):
    """|det T| and the list of coefficient numerators of the points of T.

    An odometer over the box on the diagonal of the Hermite form of T keeps
    q = sign * adj(T) @ t for the box point t, and yields q mod |det T|.
    """
    n = len(rays)
    matrix = [[r[j] for r in rays] for j in range(n)]  # columns = rays
    tri = row_hermite([tuple(r) for r in rays])
    if len(tri) != n:
        raise LatticeError("parallelepiped needs linearly independent rays")
    det = determinant(matrix)
    adj = adjugate(matrix)
    sign = 1 if det > 0 else -1
    absdet = abs(det)
    diag = [tri[i][i] for i in range(n)]
    cols = [[sign * adj[i][j] for i in range(n)] for j in range(n)]
    numerators = []
    for t in itertools.product(*(range(d) for d in diag)):
        q = [sum(t[j] * cols[j][i] for j in range(n)) for i in range(n)]
        numerators.append([x % absdet for x in q])
    return absdet, numerators


@functools.cache
def independent_subsets(vectors, n):
    """All rank-n subsets of a tuple of vectors, in combination order.

    Cached: the brute-force oracles ask again for every point of one basis.
    """
    return tuple(combo for combo in itertools.combinations(vectors, n) if rank_of(combo) == n)


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = dict(ma)
            for var, e in mb:
                merged[var] = merged.get(var, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _series_mul(a, b, upto):
    out = {}
    for da, pa in a.items():
        for db, pb in b.items():
            d = da + db
            if d > upto:
                continue
            prod = _poly_mul(pa, pb)
            if not prod:
                continue
            acc = out.setdefault(d, {})
            for m, c in prod.items():
                nc = acc.get(m, 0) + c
                if nc:
                    acc[m] = nc
                else:
                    acc.pop(m, None)
    return {d: p for d, p in out.items() if p}


def _series_pow(base, e, upto):
    result = {0: {(): 1}}
    for _ in range(e):
        if not result:
            break  # every power of a series without constant term past t^upto
        result = _series_mul(result, base, upto)
    return result


def reference_expand_single_monomial(exponents, alpha, m, upto):
    """t-series of prod_j (sum_{u=alpha_j}^m x_j^(u) t^u)^{e_j}, cut at t^upto."""
    series = {0: {(): 1}}
    for j, e in enumerate(exponents):
        if e == 0:
            continue
        var_series = {
            u: {(((j, u), 1),): 1} for u in range(alpha[j], m + 1)
        }
        series = _series_mul(series, _series_pow(var_series, e, upto), upto)
    return series


def _substitute(poly, assignment, pivot, prime):
    """Collapse a window polynomial to a univariate dict {degree: coeff}."""
    uni = {}
    for mono, coeff in poly.items():
        val = coeff % prime
        deg = 0
        for var, e in mono:
            if var == pivot:
                deg += e
            else:
                val = (val * pow(assignment[var], e, prime)) % prime
        if val:
            uni[deg] = (uni.get(deg, 0) + val) % prime
    return {d: c for d, c in uni.items() if c % prime}


def reference_powmod_minus_one(base, e, f, p):
    """base^e - 1 mod a monic f, by square-and-multiply; base reduced mod f."""
    result = [1]
    while e:
        if e & 1:
            result = _divmod(_poly_product(result, base, p), f, p)[1]
        base = _divmod(_poly_product(base, base, p), f, p)[1]
        e >>= 1
    result = result or [0]
    result[0] = (result[0] - 1) % p
    return _trim(result)


def reference_nonzero_roots(f, prime, rng):
    """Nonzero roots over F_p, every degree >= 2 by Cantor-Zassenhaus; sorted, then shuffled.

    `f` is the dense coefficient list, lowest degree first, as the library's
    root finder takes it.
    """
    f = _trim(list(f))
    degree = len(f) - 1
    if degree < 1:
        return []
    if degree == 1:
        root = (-f[0] * pow(f[1], prime - 2, prime)) % prime
        return [root] if root else []
    f = _monic(f, prime)
    roots = _split_roots(f, prime)
    roots.sort()
    rng.shuffle(roots)
    return roots


def unpack_numerators(x, absdet, n, base) -> list[int]:
    """The numerators frac_0..frac_{n-1} of a walked point, read off the walk's integer x.

    frac_i sits in bits [base + i * w, base + (i + 1) * w),
    w = |det T|.bit_length() + 1, biased by 2^(w - 1) - |det T|, above the
    coordinate fields, which end at bit `base`.
    """
    width = absdet.bit_length() + 1
    field, bias = (1 << width) - 1, (1 << (width - 1)) - absdet
    return [((x >> s) & field) - bias for s in range(base, base + n * width, width)]


def reference_point(coords, rays, x, absdet, u) -> tuple[int, ...]:
    """The point sum_i frac_i * rays_i / |det T|, folded by exact division; raise unless its image is u.

    This is how the searches read a kept point before the walk carried
    its coordinates: from the numerators of x, as `unpack_numerators` reads
    them, one exact division per coordinate.
    """
    point = _fold(rays, unpack_numerators(x, absdet, len(rays), coords.base), absdet)
    if coords.image(point) != u:
        raise AssertionError(f"point {point} does not reproduce its facet values")
    return point


def unit_walk(rays):
    """(|det T|, the unit forms' `FacetValues`, {u: x} from `_walk`) for independent rays; None for a dependent T.

    The walk runs under the unit forms, whose facet values are the
    coordinates, as `parallelepiped_points` runs it.
    """
    cell = _numerators(rays)
    if cell is None:
        return None
    n = len(rays)
    coords = FacetValues([tuple(int(i == j) for j in range(n)) for i in range(n)], sum(max(map(abs, r)) for r in rays), rays)
    packs = [(coords.image(r), sum(map(mul, r, coords.units))) for r in rays]
    return cell[0], coords, _walk(rays, *cell, packs, coords)


def numerator_lists(rays):
    """|det T| and the numerators of the points of `_walk`, in its order, as lists; None for a dependent T."""
    walk = unit_walk(rays)
    if walk is None:
        return None
    absdet, coords, points = walk
    return absdet, [unpack_numerators(x, absdet, len(rays), coords.base) for x in points.values()]


def reference_walks(vectors, n):
    """(T, |det T|, numerator lists) for every independent n-subset T of `vectors`."""
    return [(T, *w) for T in itertools.combinations(vectors, n) if (w := numerator_lists(T))]


def reference_hilbert_basis(dual):
    """The Hilbert basis by the pairwise sieve over all-subsets candidates.

    The rays and the half-open parallelepiped points of every independent
    ray subset, kept as coordinate vectors and scanned in grading order; u
    is reducible when u - v lies in the cone, every value <r, u> at least
    <r, v> over the primal rays r, for an irreducible v found before it.
    """
    n = dual.ambient_rank
    candidates = set(dual.generators)
    for T, _, _ in reference_walks(dual.generators, n):
        candidates.update(parallelepiped_points(T))
    candidates.discard(tuple([0] * n))
    primal_rays = dual_cone(dual).generators
    grading = tuple(sum(col) for col in zip(*primal_rays))
    values = {u: [pairing(r, u) for r in primal_rays] for u in candidates}
    elements = []
    for u in sorted(candidates, key=lambda u: (pairing(u, grading), u)):
        if not any(all(x >= y for x, y in zip(values[u], values[v])) for v in elements):
            elements.append(u)
    return tuple(sorted(elements))


def reference_candidate_points(cone):
    """Interior lattice points of the closed parallelepipeds of every independent subset."""
    n = cone.ambient_rank
    _, dual_rays = cone.dual_pair
    points = set()
    for rays, absdet, numerators in reference_walks(cone.generators, n):
        half_open = set()
        for frac in numerators:
            p = _fold(rays, frac, absdet)
            half_open.add(p)
            zero = [v for v, f in zip(rays, frac) if f == 0]
            for k in range(len(zero) + 1):
                for extra in itertools.combinations(zero, k):
                    a = tuple(sum(col) for col in zip(p, *extra))
                    if all(pairing(u, a) > 0 for u in dual_rays):
                        points.add(a)
        if len(half_open) != absdet:
            raise AssertionError(f"found {len(half_open)} parallelepiped points, expected |det| = {absdet}")
    return points


def reference_facet_values(forms, width, point) -> int:
    """The facet values of `point` and their sum, field k in bits [k * width, (k + 1) * width)."""
    values = [pairing(g, point) for g in forms]
    packed = 0
    for k, v in enumerate(values + [sum(values)]):
        packed |= v << (k * width)
    return packed


def reference_minimize_spanning_cost(cone, hb):
    """The toric search with the greedy over `hb` on every all-subsets candidate."""
    n = cone.ambient_rank
    witnesses = [basis_greedy(a, hb) for a in reference_candidate_points(cone)]
    best = min(witnesses, key=witness_key)
    return ToricMldReport(
        lambda_value=best.value - n,
        mather_mld=best.value,
        witness=best,
        fast_path="none",
        torus_factor_rank=0,
        face_reduced_from=None,
    )


def reference_level_search(cone, max_points=None):
    """The toric search by a loop over the levels, each one feeding the open candidates in (bound, point) order."""
    n = cone.ambient_rank
    if not cone.is_full_dimensional:
        raise ConeError("split off the torus factor before minimizing")
    searches = [_LevelGreedy(cone, a) for a in sorted(interior_candidates(cone, max_points))]
    best, level = None, 0
    while searches:
        level += 1
        kept = []
        for bound, point, greedy in sorted((g.value + (n - len(g.chosen)) * level, g.point, g) for g in searches):
            if best is not None and (bound, point) > (best.value, best.point):
                continue
            greedy.feed(level, max_points)
            if len(greedy.chosen) < n:
                kept.append(greedy)
            elif best is None or witness_key(greedy.witness()) < witness_key(best):
                best = greedy.witness()
        searches = kept
    return ToricMldReport(
        lambda_value=best.value - n,
        mather_mld=best.value,
        witness=best,
        fast_path="none",
        torus_factor_rank=0,
        face_reduced_from=None,
    )


def basis_greedy(a, hb):
    """The greedy spanning cost of a over the basis `hb`, ranked by pairing in one call."""
    n = len(hb.elements[0]) if hb.elements else 0
    a = as_vector(a, n)
    ranked = sorted((pairing(u, a), u) for u in hb.elements)
    picked = spanning_cost_greedy(ranked, [])
    if len(picked) < n:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    value = sum(pairing(u, a) for u in picked)
    return SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(picked)))


def reference_enumerate_lattice_points(p):
    """All lattice points of a bounded polytope, in lexicographic order, by a box scan.

    P = {x : <normal, x> >= offset} is the slice t = 1 of the cone
    K = {(x, t) : t >= 0, <normal, x> - offset t >= 0} in Z^(n+1), and
    `dual_description` writes K = lin + cone(rays).  The lines have t = 0,
    since t >= 0 is one of the inequalities.  As t is nonnegative on K, the
    face K cap {t = 0}, the recession cone of P, is generated by the lines
    and the rays with t = 0; and P is empty exactly when no ray has t > 0.
    Otherwise:

    * Coordinate j is unbounded above on P exactly when the recession cone
      holds an x with x_j > 0: when some line has x_j != 0 or some ray with
      t = 0 has x_j > 0.  It is unbounded below exactly when some ray with
      t = 0 has x_j < 0 (a line would already have counted as "above").
      Coordinates are checked in order, above before below.
    * Past these checks there are no lines and no rays with t = 0 (each is
      nonzero in some coordinate), so P is the convex hull of its vertices
      r / t over the rays with t > 0.  Every lattice point lies in the box
      min ceil(r_j / t) <= x_j <= max floor(r_j / t), in exact floor
      division, and the box is scanned and filtered by the inequalities.
    """
    n = p.ambient_rank
    cone_ineqs = [tuple(normal) + (-offset,) for normal, offset in p.inequalities]
    lines, rays, _ = dual_description(cone_ineqs + [(0,) * n + (1,)], n + 1)
    vertices = [r for r in rays if r[n] > 0]
    if not vertices:
        return []
    recession = [r for r in rays if r[n] == 0]
    for j in range(n):
        if any(l[j] for l in lines) or any(r[j] > 0 for r in recession):
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded above")
        if any(r[j] < 0 for r in recession):
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
    ranges = [
        range(min(-(-r[j] // r[n]) for r in vertices), max(r[j] // r[n] for r in vertices) + 1)
        for j in range(n)
    ]
    return [
        pt for pt in itertools.product(*ranges) if all(pairing(normal, pt) >= b for normal, b in p.inequalities)
    ]


MAX_PROJECTION_ROWS = 100_000  # inequalities one Fourier-Motzkin projection may hold


class UnboundedPolytopeError(LatticeError):
    """The polytope handed to an enumeration is unbounded."""


def _canonical(rows):
    """Rows (c, b, g) of <c, x> >= b / g, c primitive, g >= 1 prime to b: the tightest of each c.

    A row of largest offset implies the others of its normal direction.  A
    row with a zero normal, 0 >= b / g, is dropped when it holds and kept
    as (0, 1, 1), the mark of an empty polytope, when it does not.
    """
    kept = {}
    for normal, num, den in rows:
        h = gcd(*normal)
        if h:
            r = gcd(num, den * h)
            c, num, den = tuple(x // h for x in normal), num // r, den * h // r
            if c not in kept or num * kept[c][2] > kept[c][1] * den:
                kept[c] = (c, num, den)
        elif num > 0:
            kept[normal] = (normal, 1, 1)
    return list(kept.values())


@dataclass(frozen=True)
class RationalPolytope:
    """Intersection of half-spaces <normal, x> >= offset with integer data.

    `projections[k]` is the Fourier-Motzkin projection onto x_0..x_(k-1),
    as `_canonical` rows; `projections[n]` is the polytope.  Eliminating x_k
    passes the rows with c_k = 0 and adds, for each row with c_k = p > 0
    and each with c_k = -q < 0, their sum q * first + p * second, cross
    multiplied in integers.  The offsets stay exact: dilating by m >= 1
    scales every offset by m and no normal, so one elimination, made at
    first use, serves every dilation.  A projection of more than
    MAX_PROJECTION_ROWS rows raises LimitError before its rows are made.
    `axes[k]` is the projection onto x_k alone, the rows that bound x_k by
    itself: `projections[1]` of the polytope with x_k put first.
    """

    ambient_rank: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if any(len(normal) != self.ambient_rank for normal, _ in self.inequalities):
            raise LatticeError("inequality normal has wrong rank")

    @functools.cached_property
    def projections(self):
        rows = _canonical((tuple(normal), offset, 1) for normal, offset in self.inequalities)
        projections = [rows]
        for k in reversed(range(self.ambient_rank)):
            lower = [row for row in rows if row[0][k] > 0]
            upper = [row for row in rows if row[0][k] < 0]
            count = len(rows) - len(lower) - len(upper) + len(lower) * len(upper)
            if count > MAX_PROJECTION_ROWS:
                raise LimitError(
                    f"lattice points: eliminating coordinate {k} gives {count} inequalities, "
                    f"over the limit ({MAX_PROJECTION_ROWS})"
                )
            rows = _canonical(
                [(c[:k], b, g) for c, b, g in rows if not c[k]]
                + [
                    (tuple(-d[k] * x + c[k] * y for x, y in zip(c, d[:k])), -d[k] * b * h + c[k] * e * g, g * h)
                    for c, b, g in lower
                    for d, e, h in upper
                ]
            )
            projections.append(rows)
        return projections[::-1]

    @functools.cached_property
    def axes(self):
        n = self.ambient_rank
        return [
            RationalPolytope(n, tuple(((c[k], *c[:k], *c[k + 1:]), b) for c, b in self.inequalities)).projections[1]
            for k in range(n)
        ]


def reference_fm_enumerate(
    p: RationalPolytope, dilation: int = 1, max_points: int | None = None, stage: str = "lattice points"
) -> list[tuple[int, ...]]:
    """All lattice points of the bounded polytope dilation * P, in lexicographic order.

    A depth-first search reads the range of x_k, given x_0..x_(k-1), off
    `p.projections[k + 1]`.  At dilation m a row <c, x> >= m b / g holds at
    a lattice point exactly when <c, x> >= B = ceil(m b / g), as c is
    integral; with s = sum_(i<k) c_i x_i, it gives x_k >= ceil((B - s) / c_k)
    when c_k > 0 and x_k <= floor((B - s) / c_k) when c_k < 0.
    Exactness: Fourier-Motzkin elimination gives each projection of P
    exactly over the rationals, so the prefixes of every lattice point of P
    meet every bound and the search misses none; and a row of P whose last
    nonzero entry is c_k passes into projection k + 1, or a tighter row of
    its direction does, so every leaf meets every row of P.  A range that no lattice point extends is
    empty, and the search backs up.

    P is empty over the rationals exactly when its projection onto no
    coordinates holds a row 0 >= 1; the result is then [].  Otherwise the
    coordinates are checked in order, above before below: when x_0..x_(k-1)
    are bounded on P, x_k is bounded above exactly when a row of
    projection k + 1 has c_k < 0, as otherwise the projection, and so P,
    holds points with x_k as large as wanted; below likewise with c_k > 0.
    The first unbounded coordinate and side raise UnboundedPolytopeError.

    With `max_points` set, the lattice points of the bounding box, each
    range read off `p.axes`, are counted before the search, and a
    LimitError names `stage` when they are more than `max_points`.
    """
    n = p.ambient_rank
    if p.projections[0]:
        return []
    bounds = []  # per coordinate: the rows bounding it below, then above, as (prefix, c_k, B)
    for k, rows in enumerate(p.projections[1:]):
        below = [(c[:k], c[k], -(-dilation * b // g)) for c, b, g in rows if c[k] > 0]
        above = [(c[:k], c[k], -(-dilation * b // g)) for c, b, g in rows if c[k] < 0]
        if not above:
            raise UnboundedPolytopeError(f"coordinate {k} is unbounded above")
        if not below:
            raise UnboundedPolytopeError(f"coordinate {k} is unbounded below")
        bounds.append((below, above))
    if max_points is not None:
        estimate = 1
        for axis in p.axes:
            lo = max(-(-dilation * b // g) for (c,), b, g in axis if c > 0)
            hi = min(-dilation * b // g for (c,), b, g in axis if c < 0)
            estimate *= max(hi - lo + 1, 0)
        if estimate > max_points:
            raise LimitError(f"{stage}: about {estimate} points exceed the limit ({max_points})")
    if not n:
        return [()]
    points, prefix = [], []

    def search(k):
        below, above = bounds[k]
        lo = max(-((sum(map(mul, c, prefix)) - b) // ck) for c, ck, b in below)
        hi = min((sum(map(mul, c, prefix)) - b) // -ck for c, ck, b in above)
        if k == n - 1:
            points.extend((*prefix, x) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            prefix.append(x)
            search(k + 1)
            prefix.pop()

    search(0)
    return points


def reference_level_box(cone, a, levels):
    """The lattice points of the bounding box of each level's slice of the primitive candidate a.

    The slice is the one of the toric module docstring, from the row
    Hermite form of [a | I], as a `RationalPolytope`; its `axes`, the
    projections onto each y_k alone, bound the coordinates one by one.
    """
    n = cone.ambient_rank
    h = row_hermite([(x, *(int(i == j) for j in range(n))) for i, x in enumerate(a)])
    first, *others = [row[1:] for row in h]
    rows = tuple((tuple(pairing(r, v) for v in others), -pairing(r, first)) for r in cone.generators)
    axes = RationalPolytope(n - 1, rows).axes
    boxes = []
    for m in levels:
        estimate = 1
        for axis in axes:
            lo = max(-(-m * b // g) for (sign,), b, g in axis if sign > 0)
            hi = min(-m * b // g for (sign,), b, g in axis if sign < 0)
            estimate *= max(hi - lo + 1, 0)
        boxes.append(estimate)
    return boxes


def is_interior_point(dual, a):
    """Is a in the topological interior of the primal cone of the cone `dual`?"""
    return all(pairing(u, a) > 0 for u in dual.generators)


def reference_spanning_cost_greedy(a, hb, dual):
    """The greedy spanning cost with a fresh rank test of chosen + [u] for
    every u, over the basis `hb` of the cone `dual`."""
    n = dual.ambient_rank
    a = as_vector(a, n)
    if not is_interior_point(dual, a):
        raise LatticeError("spanning cost needs an interior lattice point")
    ranked = sorted(hb.elements, key=lambda u: (pairing(u, a), u))
    chosen = []
    for u in ranked:
        if rank_of(chosen + [u]) > len(chosen):
            chosen.append(u)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    value = sum(pairing(u, a) for u in chosen)
    return SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(chosen)))


JET_PRIME = 2**31 - 1  # the field of the jet-orbit rank


def dual_elements_up_to(cone, a, m):
    """The nonzero dual elements h of a full-dimensional cone with <a, h> <= m, for an interior point a.

    They are the lattice points of m times the polytope
    {h : <g, h> >= 0 for every generator g, <a, h> <= 1}, bounded as a is
    interior, enumerated by `reference_fm_enumerate`.
    """
    rows = tuple((g, 0) for g in cone.generators) + ((tuple(-x for x in a), -1),)
    return [h for h in reference_fm_enumerate(RationalPolytope(cone.ambient_rank, rows), m) if any(h)]


def _unit_log(u, p):
    """log u over F_p, to the length of u, for a series u with u_0 = 1 and fewer terms than p."""
    inverse = [1]
    for k in range(1, len(u)):
        inverse.append(-sum(u[j] * inverse[k - j] for j in range(1, k + 1)) % p)
    # (log u)' = u' / u
    return [0] + [
        sum((j + 1) * u[j + 1] * inverse[k - 1 - j] for j in range(k)) * pow(k, -1, p) % p for k in range(1, len(u))
    ]


def _exp(s, p):
    """exp s over F_p, to the length of s, for a series s with s_0 = 0 and fewer terms than p: e' = s' e."""
    e = [1]
    for k in range(1, len(s)):
        e.append(sum(j * s[j] * e[k - j] for j in range(1, k + 1)) * pow(k, -1, p) % p)
    return e


def rank_mod_p(rows, width, p):
    """The rank over F_p of integer rows of `width` entries, by elimination; stops at full rank.

    Each stored row is zero at the pivot columns of the rows stored before
    it, so reducing a row against the stored rows in turn zeroes every
    pivot column.
    """
    echelon = []
    for row in rows:
        for col, pivot in echelon:
            if row[col]:
                f = row[col]
                row = [(x - f * y) % p for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            f = pow(row[col], -1, p)
            echelon.append((col, [x * f % p for x in row]))
            if len(echelon) == width:
                break
    return len(echelon)


def jet_orbit_dimension(elements, a, m, rng, p=JET_PRIME):
    """The dimension of the orbit of the arcs t^a u(t) in the m-jets, as a rank over F_p at a random point.

    `elements` are the nonzero dual elements h with <a, h> <= m
    (`dual_elements_up_to`); the others vanish on every m-jet of the
    arcs.  The arc with unit series u_i = sum_k c_ik t^k (i < n, k <= m)
    sends the character h to t^<a, h> prod_i u_i^h_i, and the orbit is the
    image of the c_ik under the map to the t^0..t^m coefficients of these.
    Its dimension is the generic rank of the Jacobian.  The entry for
    (h, t^s) and c_ik is h_i times the coefficient of t^(s - <a, h> - k) in
    prod_j u_j^h_j / u_i = exp(sum_j h_j log u_j - log u_i).  The torus
    scales each u_i by a constant and acts on the jets by an invertible
    linear map, so the rank is constant on its orbits and each u_i may
    start with 1.  The rank over F_p at a random point is at most the
    generic rank, and equal to it off a hypersurface (Schwartz-Zippel), so
    a value below the generic rank is rare, and rarer twice in a row.
    """
    n = len(a)
    logs = [_unit_log([1] + [rng.randrange(p) for _ in range(m)], p) for _ in range(n)]
    rows = []
    for h in elements:
        top = m - sum(map(mul, a, h))  # the row of t^s has shift s - <a, h> in 0..top
        total = [sum(x * log[k] for x, log in zip(h, logs)) for k in range(top + 1)]
        # prod_j u_j^h_j / u_i for each i with h_i != 0
        series = [
            (i, x, _exp([(t - log[k]) % p for k, t in enumerate(total)], p))
            for i, (x, log) in enumerate(zip(h, logs))
            if x
        ]
        for shift in range(top + 1):
            row = [0] * ((m + 1) * n)
            for i, x, e in series:
                for k in range(shift + 1):
                    row[i * (m + 1) + k] = x * e[shift - k] % p
            rows.append(row)
    return rank_mod_p(rows, (m + 1) * n, p)


def _combine(coeffs, per_monomial, s, prime):
    """G_s = sum_i coeffs[i] * (t^s coefficient of monomial i's series).

    Reduced mod prime unless prime is None; zero coefficients are dropped.
    """
    acc = {}
    for c, series in zip(coeffs, per_monomial):
        for mono, k in series.get(s, {}).items():
            v = acc.get(mono, 0) + c * k
            if prime is not None:
                v %= prime
            if v:
                acc[mono] = v
            else:
                acc.pop(mono, None)
    return acc


def reference_staircase_verify(support, alpha, m, prime=10007, trials=50, seed=0):
    """The staircase oracle with a symbolic rebuild of every G_k per trial."""
    alpha = _window_orders(support, alpha, m)
    _require_odd_prime(prime)
    _require_trials(trials)
    nv = support.num_vars
    window = [(j, u) for j in range(nv) for u in range(alpha[j], m + 1)]
    if not is_feasible(support, alpha):
        return StaircaseResult(
            free_parameter_count=None,
            equations_solved=None,
            trials=0,
            successes=0,
            estimated_dim=None,
            window_size=len(window),
            empty=True,
        )
    data = weight_data(support, alpha)
    cert = certificate_data(support, data)
    n0, mu = data.min_weight, data.pivot_gap
    j0, n0p = cert.record.pivot_index, cert.pivot_order
    jp = _solve_variable(cert.initial_form)
    upto = m + mu
    per_monomial = [
        reference_expand_single_monomial(e, alpha, m, upto) for e in support.exponents
    ]
    pivots = {}
    for k in range(n0 + 1, n0p + 1):
        pivots[k] = (jp, alpha[jp] + (k - n0))
    for k in range(n0p + 1, upto + 1):
        pivots[k] = (j0, k - mu)
    base_pivot = (jp, alpha[jp])
    if any(u > m for _, u in pivots.values()):
        raise AssertionError("pivot escaped the window")
    equations = list(range(n0, upto + 1))
    n_equations = len(equations)
    rng = random.Random(seed)
    successes = 0
    reasons = []
    for _ in range(trials):
        coeffs = [rng.randrange(1, prime) for _ in support.exponents]
        gks = {k: _combine(coeffs, per_monomial, k, prime) for k in equations}
        assignment = {}
        pivot_vars = set(pivots.values()) | {base_pivot}
        for var in window:
            if var in pivot_vars:
                continue
            j, u = var
            if u == alpha[j]:
                assignment[var] = rng.randrange(1, prime)
            else:
                assignment[var] = rng.randrange(prime)
        uni = _substitute(gks[n0], assignment, base_pivot, prime)
        roots = _nonzero_roots([uni.get(d, 0) for d in range(max(uni, default=0) + 1)], prime, rng)
        if not roots:
            reasons.append("no_nonzero_root")
            continue
        assignment[base_pivot] = roots[0]
        pivot_value = cert.pivot_coefficient.evaluate(
            coeffs, [assignment[(j, alpha[j])] for j in range(nv)], prime
        )
        if pivot_value % prime == 0:
            reasons.append("pivot_derivative_vanishes")
            continue
        ok = True
        for k in equations[1:]:
            pv = pivots[k]
            try:
                uni = _substitute(gks[k], assignment, pv, prime)
            except KeyError:
                reasons.append("equation_touches_undetermined_variable")
                ok = False
                break
            if max(uni, default=0) > 1:
                reasons.append("equation_not_linear_in_pivot")
                ok = False
                break
            c1 = uni.get(1, 0)
            if c1 % prime == 0:
                reasons.append("linear_pivot_coefficient_vanishes")
                ok = False
                break
            assignment[pv] = (-uni.get(0, 0) * pow(c1, prime - 2, prime)) % prime
        if not ok:
            continue
        for k in equations:
            uni = _substitute(gks[k], assignment, (-1, -1), prime)
            if uni.get(0, 0) % prime:
                raise AssertionError(
                    f"staircase produced a non-solution at equation {k}"
                )
        successes += 1
    return StaircaseResult(
        free_parameter_count=len(window) - n_equations,
        equations_solved=n_equations,
        trials=trials,
        successes=successes,
        estimated_dim=len(window) - n_equations,
        window_size=len(window),
        empty=False,
        failure_reasons=tuple(sorted(set(reasons))),
    )


def reference_equality_certificate(support, alpha, certify=False):
    """The certificate with the torus-zero criterion only under `certify`."""
    orders = _as_alpha(alpha, support.num_vars)
    data = certificate_data(support, weight_data(support, orders))
    detail = {
        "pivot_index": data.record.pivot_index,
        "initial_form": data.initial_form.describe(),
        "initial_form_monomials": len(data.initial_form.terms),
        "pivot_coefficient": data.pivot_coefficient.describe(),
        "pivot_coefficient_monomials": len(data.pivot_coefficient.terms),
    }
    kind = None
    if len(data.initial_form.terms) >= 2:
        if len(data.pivot_coefficient.terms) == 1:
            kind = "monomial_criterion"
        elif certify and not _divides_pivot_derivative(data):
            kind = "torus_zero_criterion"
    status = "UNDECIDED" if kind is None else "CERTIFIED"
    return Certificate(status=status, kind=kind, alpha=orders, detail=detail)


def reference_evaluate(exponents, orders):
    """(weights, n0, mu, pairs attaining mu) of a tuple, or None when it is infeasible."""
    weights = tuple(sum(a * i for a, i in zip(orders, e)) for e in exponents)
    n0 = min(weights)
    if weights.count(n0) < 2:
        return None
    mu = None
    pairs = []
    for i, e in enumerate(exponents):
        for j, x in enumerate(e):
            if x <= 0:
                continue
            val = weights[i] - orders[j]
            if mu is None or val < mu:
                mu = val
                pairs = [(i, j)]
            elif val == mu:
                pairs.append((i, j))
    return weights, n0, mu, tuple(pairs)


def reference_minimize_objective(support, max_points=None):
    """The layered scan with every order 1..top of the pivot evaluated."""
    exponents = support.exponents
    nv = support.num_vars
    if any(all(all(x <= y for x, y in zip(e, f)) for f in exponents) for e in exponents):
        raise SupportError(
            "infeasible", "one monomial divides every other one, so no tuple is feasible"
        )
    # monomials whose weight bounds the pivot coordinate, per pivot
    planes = [[e for e in exponents if e[j] == 0] for j in range(nv)]
    if not all(planes):
        raise SupportError(
            "divisible",
            "every monomial is divisible by one variable; the scan needs a "
            "monomial in each coordinate plane",
        )
    d_max = max(max(e) for e in exponents)
    largest = 0
    layer = 0
    while True:
        if max_points is not None:
            size = nv * comb(layer + nv - 1, nv - 1) * (layer + 1 + d_max * (layer + nv - 1))
            if size > max_points:
                raise LimitError(
                    f"layer {layer} of the tuple scan holds up to {size} tuples, "
                    f"over the limit ({max_points})"
                )
        found = set()
        for pivot in range(nv):
            for rest in _small_tuples(nv - 1, layer):
                orders = list(rest)
                orders.insert(pivot, 0)
                top = layer + min(
                    sum(a * i for a, i in zip(orders, e)) for e in planes[pivot]
                )
                largest = max(largest, top)
                base = sum(rest) - nv + 1
                for a in range(1, top + 1):
                    orders[pivot] = a
                    data = reference_evaluate(exponents, orders)
                    if data is not None and base + a - data[1] + data[2] <= layer:
                        found.add(tuple(orders))
        if found:
            minimizers = tuple(sorted(found))
            records = tuple(_evaluate(exponents, orders) for orders in minimizers)
            return ObjectiveMinimum(value=layer, box_bound=largest, minimizers=minimizers, records=records)
        layer += 1


def is_binomial(support):
    if len(support.exponents) != 2:
        return False
    a, b = support.exponents
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_hypersurface_report(support, certify=False, max_points=None):
    """The report from two passes over the minimizers, the second under `certify`."""
    n = support.dimension_of_hypersurface
    result = minimize_objective(support, max_points=max_points)
    chosen = first = None
    for orders in result.minimizers:
        cert = reference_equality_certificate(support, orders)
        first = first or cert
        if cert.status == "CERTIFIED":
            chosen = cert
            break
    if chosen is None and certify:
        for orders in result.minimizers:
            cert = reference_equality_certificate(support, orders, certify=True)
            if cert.status == "CERTIFIED":
                chosen = cert
                break
    if chosen is None:
        chosen = first  # the undecided certificate of result.minimizers[0]
    status = "EXACT" if chosen.status == "CERTIFIED" else "LOWER_BOUND"
    return HypersurfaceMldReport(
        lambda_lower_bound=result.value,
        mather_mld_lower_bound=result.value + n,
        status=status,
        witness_alpha=chosen.alpha,
        certificate=chosen,
        search_box_bound=result.box_bound,
        assumptions=ASSUMPTIONS,
        dropped_variables=support.dropped_variables,
    )


def saturate(vectors):
    """Lattice basis of Span_Q(vectors) intersected with Z^n, in row Hermite form.

    The double integer kernel of the input: the kernel of a matrix is always
    a saturated lattice, and the orthogonal complement taken twice returns
    the saturation of the row span.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    n = len(vecs[0])
    return integer_kernel(integer_kernel(vecs, n), n)


def reference_resolve_face(c, f):
    """Validated ray indices of a face; a subset by the sum of the dual rays vanishing on it."""
    _, dual_rays = c.dual_pair
    if f.supporting_functional is not None:
        u = as_vector(f.supporting_functional, c.ambient_rank)
        if any(pairing(u, v) < 0 for v in c.generators):
            raise FaceError("supporting functional is negative on a generator, not in the dual cone")
        return tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0)
    if not all(type(i) is int for i in f.generator_subset):
        raise FaceError(f"ray indices must be integers, got {list(f.generator_subset)!r}")
    subset = tuple(sorted(f.generator_subset))
    if len(set(subset)) != len(subset):
        raise FaceError(f"ray indices repeat in {list(f.generator_subset)!r}")
    for i in subset:
        if not 0 <= i < len(c.generators):
            raise FaceError(f"ray index {i} out of range")
    if len(subset) == len(c.generators):
        return subset
    # the minimal face containing the subset is the zero set of the sum of
    # all dual rays vanishing on it; the subset is a face iff they coincide
    vanishing = [r for r in dual_rays if all(pairing(r, c.generators[i]) == 0 for i in subset)]
    if not vanishing:
        raise FaceError(f"no supporting functional vanishes on rays {subset}; not a face")
    u = tuple(sum(col) for col in zip(*vanishing))
    zero_set = tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0)
    if zero_set != subset:
        extra = [i for i in zero_set if i not in subset]
        raise FaceError(
            f"rays {subset} do not form a face: the minimal face also contains ray {extra[0]}"
        )
    return subset


def reference_face_chart(c, face=None):
    """(ray indices, chart, torus rank) with the chart lattice from `saturate`."""
    indices = tuple(range(len(c.generators))) if face is None else reference_resolve_face(c, face)
    if not indices:
        return indices, None, c.ambient_rank
    if c.is_full_dimensional and len(indices) == len(c.generators):
        return indices, c, 0
    chart = _in_span_lattice([c.generators[i] for i in indices])
    return indices, chart, c.ambient_rank - chart.ambient_rank


def _in_span_lattice(gens):
    """The cone of `gens` in the coordinates of the saturation of its span."""
    basis = saturate(gens)
    return Cone.from_generators(len(basis), [express_in_basis(basis, g) for g in gens])


def split_torus_factor(c):
    """(full-dimensional cone in Z^k, torus rank n - k) for a cone spanning rank k."""
    if c.is_full_dimensional:
        return c, 0
    return _in_span_lattice(c.generators), c.ambient_rank - rank_of(c.generators)


def face_cone(c, f):
    """The face as a full-dimensional pointed cone in the lattice it spans."""
    subset = reference_resolve_face(c, f)
    if not subset:
        raise FaceError("the zero face has no cone; handle dimension 0 at the call site")
    if len(subset) == len(c.generators):
        return split_torus_factor(c)[0]
    return _in_span_lattice([c.generators[i] for i in subset])


def reference_facet_masks(gens, dual_rays):
    """The facet table by pairings: bit i of mask k is set when dual ray k vanishes on gens[i]."""
    return [sum(1 << i for i, g in enumerate(gens) if pairing(r, g) == 0) for r in dual_rays]


def contains(c, point, strict=False):
    """Closed (or topological-interior) membership in c via its dual description."""
    a = as_vector(point, c.ambient_rank)
    lines, rays = c.dual_pair
    if strict:
        if not c.is_full_dimensional:
            raise ConeError("interior membership needs a full-dimensional cone")
        return all(pairing(r, a) > 0 for r in rays)
    return all(pairing(l, a) == 0 for l in lines) and all(pairing(r, a) >= 0 for r in rays)


def _require_full_pointed(c):
    if not c.is_full_dimensional:
        raise ConeError("this predicate needs a full-dimensional cone")


def is_simplicial(c):
    _require_full_pointed(c)
    return len(c.generators) == c.ambient_rank


def is_smooth(c):
    """Do the extreme rays form a lattice basis?

    They do exactly when the cone is simplicial and the row Hermite form of
    its rays is the identity: a basis of the lattice they span, itself a
    basis of Z^n.
    """
    _require_full_pointed(c)
    n = c.ambient_rank
    return is_simplicial(c) and row_hermite(c.generators) == [
        tuple(int(i == j) for j in range(n)) for i in range(n)
    ]


def facets(c):
    """Ray-index sets of the facets (codimension-one faces)."""
    _require_full_pointed(c)
    _, dual_rays = c.dual_pair
    return sorted(
        {tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0) for u in dual_rays}
    )


def has_isolated_fixed_point(c):
    """Is every proper face smooth?  (Equivalently: every facet is smooth;
    faces of smooth cones are smooth, so facet smoothness propagates down.)
    The facet of a rank-1 cone is the zero face, which has no chart.
    """
    _require_full_pointed(c)
    for subset in facets(c):
        _, chart, _ = face_chart(c, FaceSpec(generator_subset=subset))
        if chart is not None and not is_smooth(chart):
            return False
    return True


def reference_encode(value):
    """JSON-safe copy with arbitrary-precision integers kept lossless.

    Integers of magnitude 2^63 or more become decimal strings, so a string
    that reads as one is refused: the encoding stays one-to-one.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= BIG else value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        if _is_big_integer_text(value):
            raise ValueError(f"the string {value!r} would read back as an integer")
        return value
    if isinstance(value, dict):
        return {str(k): reference_encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encode(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")
