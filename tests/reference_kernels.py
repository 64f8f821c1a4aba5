"""Reference routes for the parallelepiped kernel, kept for the tests.

`reference_numerators` decomposes a ray subset T the way the library did
before one Hermite form of [T | I] replaced it: a rank test by row Hermite
form, a Bareiss determinant and a cofactor adjugate with one determinant
per entry.  `independent_subsets` is the rank-tested subset list that the
brute-force oracles of the tests iterate over.

`reference_staircase_verify` is the staircase oracle as it was before the
per-call term plans: each trial rebuilds every G_k as a symbolic dict and
collapses it onto its pivot with one `pow` per variable per monomial.
`reference_powmod_minus_one` is the right-to-left square-and-multiply the
root finder used before its linear-base kernel.  `reference_nonzero_roots`
is the root finder before quadratics were solved in closed form: every
degree from 2 up goes through Cantor-Zassenhaus (`_split_roots`, which
degree 3 and up still takes).

`reference_spanning_cost_greedy` is the greedy spanning cost with one full
Hermite-form rank test per scanned basis element, as it was before the
greedy kept an echelon form of the elements it has chosen.
"""

import functools
import itertools
import random

from mldhat.hypersurface import certificate_data, is_feasible, weight_data
from mldhat.lattice import LatticeError, as_vector, pairing, rank_of, row_hermite
from mldhat.oracle import (
    StaircaseResult,
    _combine,
    _divmod,
    _expand_single_monomial,
    _monic,
    _nonzero_roots,
    _poly_product,
    _require_odd_prime,
    _require_trials,
    _solve_variable,
    _split_roots,
    _substitute,
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
        _expand_single_monomial(e, alpha, m, upto) for e in support.exponents
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
