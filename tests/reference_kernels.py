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
used before it collapsed its form directly).
`reference_powmod_minus_one` is the right-to-left square-and-multiply the
root finder used before its linear-base kernel.  `reference_nonzero_roots`
is the root finder before quadratics were solved in closed form: every
degree from 2 up goes through Cantor-Zassenhaus (`_split_roots`, which
degree 3 and up still takes).

`reference_spanning_cost_greedy` is the greedy spanning cost with one full
Hermite-form rank test per scanned basis element, as it was before the
greedy kept an echelon form of the elements it has chosen.

`reference_hypersurface_report` is the hypersurface report as it was
before every report decided its certificate exactly: a first pass tries
the monomial criterion at each minimizer, and only under `certify` a
second pass tries the torus-zero criterion
(`reference_equality_certificate`).

`face_cone` and `split_torus_factor` are the two face reductions as they
were before one `face_chart` reduced a face and its torus factor in one
step: `face_cone` re-expresses a face in the lattice its rays span (the
whole cone through `split_torus_factor`), and `split_torus_factor` does
the same for a whole cone that does not span, with torus rank n - dim.

`is_simplicial`, `is_smooth`, `facets` and `has_isolated_fixed_point`
are the cone predicates that no command calls; the tests use them to pick
cones (simplicial with an isolated fixed point, for instance) and to walk
the facets of a cone.

`reference_encode` is the JSON-safe copy of a report that `dump_report`
made before it wrote the text in one walk: it turns big integers into
strings and refuses strings that read as one, and `json.dumps(indent=2)`
then wrote the copy.
"""

import functools
import itertools
import random

from mldhat.cli import BIG, _is_big_integer_text
from mldhat.cones import Cone, ConeError, FaceError, FaceSpec, face_chart, resolve_face
from mldhat.hypersurface import (
    ASSUMPTIONS,
    Certificate,
    HypersurfaceMldReport,
    _as_alpha,
    _divides_pivot_derivative,
    certificate_data,
    is_feasible,
    minimize_objective,
    weight_data,
)
from mldhat.lattice import (
    LatticeError,
    as_vector,
    express_in_basis,
    pairing,
    rank_of,
    row_hermite,
    saturate,
)
from mldhat.oracle import (
    StaircaseResult,
    _combine,
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
from mldhat.toric import SpanningWitness


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


def reference_nonzero_roots(uni, prime, rng):
    """Nonzero roots over F_p, every degree >= 2 by Cantor-Zassenhaus; sorted, then shuffled."""
    degree = max(uni, default=0)
    if degree == 0:
        return []
    if degree == 1:
        c1 = uni.get(1, 0)
        c0 = uni.get(0, 0)
        root = (-c0 * pow(c1, prime - 2, prime)) % prime
        return [root] if root else []
    f = _monic([uni.get(d, 0) % prime for d in range(degree + 1)], prime)
    roots = _split_roots(f, prime)
    roots.sort()
    rng.shuffle(roots)
    return roots


def reference_spanning_cost_greedy(a, hb):
    """The greedy spanning cost with a fresh rank test of chosen + [u] for every u."""
    n = hb.rank
    a = as_vector(a, n)
    if not hb.is_interior_point(a):
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
    cert = certificate_data(support, alpha)
    n0, mu = data.min_weight, data.pivot_gap
    j0, n0p = cert.pivot_index, cert.pivot_order
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
        roots = _nonzero_roots(uni, prime, rng)
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
    data = certificate_data(support, orders)
    detail = {
        "pivot_index": data.pivot_index,
        "initial_form": data.initial_form.describe(),
        "initial_form_monomials": data.initial_form.monomial_count,
        "pivot_coefficient": data.pivot_coefficient.describe(),
        "pivot_coefficient_monomials": data.pivot_coefficient.monomial_count,
    }
    kind = None
    if data.initial_form.monomial_count >= 2:
        if data.pivot_coefficient.monomial_count == 1:
            kind = "monomial_criterion"
        elif certify and not _divides_pivot_derivative(data):
            kind = "torus_zero_criterion"
    status = "UNDECIDED" if kind is None else "CERTIFIED"
    return Certificate(status=status, kind=kind, alpha=orders, detail=detail)


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
        chosen = first  # the undecided certificate of result.witness
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
    subset = resolve_face(c, f)
    if not subset:
        raise FaceError("the zero face has no cone; handle dimension 0 at the call site")
    if len(subset) == len(c.generators):
        return split_torus_factor(c)[0]
    return _in_span_lattice([c.generators[i] for i in subset])


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
