"""Finite-field verification of the arc-expansion dimension formulas.

Substituting truncated power series x_j -> sum_{u >= alpha_j} x_j^(u) t^u
into the defining equation produces, for each t-power s, a polynomial
equation G_s in the window variables x_j^(u), alpha_j <= u <= m.  The
equations from the minimal weight n0 up to m + mu (mu the pivot gap) are
exactly the ones whose variables stay inside the window, and on the locus
where the pivot derivative does not vanish they form a staircase: each
equation after the first is linear in one new highest-superscript
variable.  The oracle samples the free variables over a prime field,
solves the staircase, and verifies the resulting point against every
equation, so a successful trial certifies that the expected number of
equations cuts the window dimension down independently.

Each support monomial x^I expands by multinomial compositions
(`_expand_single_monomial`): every variable j picks a multiset of I_j
superscripts, and the picks give one window monomial M with its
multiplicity k(M), so no series is multiplied out.  The monomials of each
G_s do not depend on the drawn coefficients, only on the support, alpha,
m and p (see `staircase_verify`), so the staircase compiles every
equation once per call into a term plan over a flat list of values, and
a trial only evaluates the plans.

The one nonlinear step, the nonzero roots of a univariate form over F_p,
is exact and deterministic (`_nonzero_roots`).  A quadratic is solved in
closed form: Euler's criterion on its discriminant, then a Tonelli-Shanks
square root (`_quadratic_roots`).  Degree 3 and up takes gcd with
x^(p-1) - 1, then equal-degree splitting (`_split_roots`), in
O(d^2 log p) field operations per gcd step; every power it takes is of a
linear base x + a, so a multiply is a shift (`_powmod_minus_one`).  Any
odd prime works, 31-bit ones included; there is no scan over the residues.

Randomly drawn nonzero coefficients stand in for "very general" complex
ones.  Finite-field evidence comes only from the `oracle` commands: the
equality certificate of `hyper` is decided exactly in the hypersurface
module, and `torus_point_sample` is its independent check.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, factorial, prod

from .hypersurface import GenericForm, Support, certificate_data, is_feasible, weight_data
from .lattice import LimitError


class OracleError(ValueError):
    """Invalid oracle input (truncation too small, bad prime...)."""


# psi_12, the least strong pseudoprime to all twelve bases 2, ..., 37: below
# it Miller-Rabin on those bases decides primality exactly
_PRIME_BOUND = 318665857834031151167461


def _require_odd_prime(p):
    if p < 3 or p % 2 == 0:
        raise OracleError("the sampler needs an odd prime")
    if p >= _PRIME_BOUND:
        raise OracleError(f"the prime must be below {_PRIME_BOUND}, where primality is decided exactly")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if base % p == 0:
            continue
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise OracleError(f"{p} is not prime")


def _require_trials(trials):
    if trials < 1:
        raise OracleError("the sampler needs at least one trial")


# polynomials in window variables: {((j, u), exponent) sorted tuple: coefficient}
Monomial = tuple[tuple[tuple[int, int], int], ...]


def _monomial_weight(mono: Monomial) -> int:
    return sum(u * e for ((_, u), e) in mono)


def _expand_single_monomial(exponents, alpha, m, upto):
    """t-series of prod_j (sum_{u=alpha_j}^m x_j^(u) t^u)^{I_j}, cut at t^upto.

    Returned as {s: {M: k(M)}}.  Each variable j picks a multiset of I_j
    superscripts from alpha_j..m, u taken e_{j,u} times; the picks give the
    window monomial M = prod (x_j^(u))^e_{j,u} of weight s = alpha . I plus
    the excess, the sum of (u - alpha_j) e_{j,u}, and k(M) = prod_j I_j! /
    prod_u e_{j,u}! is the number of ways to order them.  Distinct picks give
    distinct M, and a pick whose excess is above upto - alpha . I is past
    the cut.
    """
    weight = sum(a * e for a, e in zip(alpha, exponents))
    slack = upto - weight
    if slack < 0:
        return {}
    picks = [((), 0, 1)]  # (factors of M, excess, k(M)) over the variables so far
    for j, e in enumerate(exponents):
        options = []
        for combo in combinations_with_replacement(range(alpha[j], min(m, alpha[j] + slack) + 1), e):
            excess = sum(combo) - alpha[j] * e
            if excess <= slack:
                counts = Counter(combo)
                k = factorial(e) // prod(map(factorial, counts.values()))
                options.append((tuple(((j, u), c) for u, c in counts.items()), excess, k))
        picks = [
            (f + g, x + y, k * l) for f, x, k in picks for g, y, l in options if x + y <= slack
        ]
    series: dict[int, dict[Monomial, int]] = {}
    for factors, excess, k in picks:
        series.setdefault(weight + excess, {})[factors] = k
    return series


@dataclass(frozen=True)
class TruncatedExpansion:
    """Coefficients G_s of the arc expansion of a polynomial with support."""

    alpha: tuple[int, ...]
    order: int  # window cap m on the superscripts
    prime: int | None  # None means exact integer coefficients
    terms: dict  # s -> {monomial: coefficient}


def _window_orders(support: Support, alpha, m):
    """alpha as a tuple, checked against the support and the window cap m."""
    alpha = tuple(alpha)
    if not all(type(a) is int for a in alpha):
        raise OracleError(f"alpha entries must be integers, got {list(alpha)!r}")
    if type(m) is not int:
        raise OracleError(f"truncation order m must be an integer, got {m!r}")
    if len(alpha) != support.num_vars or any(a < 1 for a in alpha):
        raise OracleError("alpha must list a positive order for every variable")
    if m < max(alpha):
        raise OracleError("truncation order m must be at least every entry of alpha")
    return alpha


def _window_monomial_bound(support: Support, alpha, m) -> int:
    """At most this many window monomials in the expansion of the support.

    A window monomial of x^I picks, for every variable j, a multiset of I_j
    superscripts from alpha_j..m: C(m - alpha_j + I_j, I_j) choices.  The
    weight cut of the expansion only removes monomials.
    """
    return sum(
        prod(comb(m - a + e, e) for a, e in zip(alpha, expo)) for expo in support.exponents
    )


def _combine(coeffs, per_monomial, s, prime):
    """G_s = sum_i coeffs[i] * (t^s coefficient of monomial i's series).

    Reduced mod prime unless prime is None; zero coefficients are dropped.
    """
    acc: dict[Monomial, int] = {}
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


def expand(support: Support, coeffs, alpha, m, prime=None, max_points=None) -> TruncatedExpansion:
    """Arc expansion of sum_i coeffs[i] x^{I^i} with orders alpha, cut at m.

    Coefficients are matched to `support.exponents`, which is canonically
    sorted.  Every monomial of every G_s has weight exactly s; the
    expansion asserts this invariant as it goes.  With `max_points`,
    LimitError is raised before any expansion when the window monomials
    (`_window_monomial_bound`) exceed it.
    """
    alpha = _window_orders(support, alpha, m)
    if prime is not None:
        _require_odd_prime(prime)
    if len(coeffs) != len(support.exponents):
        raise OracleError("one coefficient per support monomial is required")
    if any(c == 0 if prime is None else c % prime == 0 for c in coeffs):
        raise OracleError("coefficients must be nonzero in the field")
    if max_points is not None and (terms := _window_monomial_bound(support, alpha, m)) > max_points:
        raise LimitError(
            f"oracle expand: up to {terms} window monomials exceed the limit ({max_points})"
        )
    per_monomial = [_expand_single_monomial(e, alpha, m, m) for e in support.exponents]
    total = {
        s: poly for s in range(m + 1) if (poly := _combine(coeffs, per_monomial, s, prime))
    }
    for s, poly in total.items():
        for mono in poly:
            if _monomial_weight(mono) != s:
                raise AssertionError(
                    f"weight invariant broken: {mono} in the t^{s} coefficient"
                )
    return TruncatedExpansion(alpha=alpha, order=m, prime=prime, terms=total)


# ---------------------------------------------------------------------------
# Staircase verification


@dataclass(frozen=True)
class StaircaseResult:
    """The fields in the order of the `oracle staircase` report."""

    empty: bool
    window_size: int | None
    equations_solved: int | None
    free_parameter_count: int | None
    estimated_dim: int | None
    trials: int
    successes: int
    failure_reasons: tuple[str, ...] = ()


# dense polynomials over F_p: coefficient lists, lowest degree first, no
# trailing zeros (the zero polynomial is [])


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _divmod(a, b, p):
    """Quotient and remainder of a by a monic b."""
    a = a[:]
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        q[i - db] = c
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return q, _trim(a[:db])


def _gcd(a, b, p):
    """Monic gcd of a monic a and any b."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return a


def _powmod_minus_one(a, e, f, p):
    """(x + a)^e - 1 mod a monic f of degree >= 1.

    Left-to-right square-and-multiply: a multiply by the linear base is a
    shift plus a * result, with the one term of degree deg f reduced away.
    """
    result = [1]
    for bit in bin(e)[2:]:
        result = _divmod(_poly_product(result, result, p), f, p)[1]
        if bit == "1":
            result = [(lo + a * hi) % p for lo, hi in zip([0] + result, result + [0])]
            if len(result) == len(f):
                top = result[-1]
                result = [(c - top * fc) % p for c, fc in zip(result, f)]
            _trim(result)
    result = result or [0]
    result[0] = (result[0] - 1) % p
    return _trim(result)


def _sqrt_mod(a, p):
    """A square root of a mod an odd prime p, a a square (Tonelli-Shanks).

    With p - 1 = 2^s q, q odd, x = a^((q+1)/2) and b = a^q keep x^2 = a b.
    While b != 1, its order is 2^i with i < r, where y of order 2^r
    generates the 2-Sylow subgroup holding b; multiplying x by
    t = y^(2^(r-i-1)) and b by t^2 lowers the order of b (Cohen, A Course
    in Computational Algebraic Number Theory, Algorithm 1.5.1).  y is z^q
    for the least non-residue z = 2, 3, ..., so the root is deterministic;
    for p = 3 mod 4 (s = 1) b is 1 at once and no z is needed.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x, b = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if b == 1 or not a:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    y, r = pow(z, q, p), s
    while b != 1:
        i, t = 0, b
        while t != 1:
            t = t * t % p
            i += 1
        t = pow(y, 1 << (r - i - 1), p)
        y, r = t * t % p, i
        x, b = x * t % p, b * y % p
    return x


def _quadratic_roots(f, p):
    """The distinct nonzero roots of a monic x^2 + bx + c over F_p, in closed form.

    The roots are (-b +- sqrt(D)) / 2 for the discriminant D = b^2 - 4c,
    and there are none when D is a non-square (Euler's criterion:
    D^((p-1)/2) = -1).  D = 0 gives the double root once.
    """
    c, b, _ = f
    disc = (b * b - 4 * c) % p
    if pow(disc, (p - 1) // 2, p) == p - 1:
        return []
    root = _sqrt_mod(disc, p)
    half = (p + 1) // 2
    return [r for r in {(root - b) * half % p, (-root - b) * half % p} if r]


def _split_roots(f, p):
    """The distinct nonzero roots of a monic f over F_p (Cantor-Zassenhaus).

    * g = gcd(f, x^(p-1) - 1), with x^(p-1) reduced mod f by
      square-and-multiply, is the product of x - r over exactly the distinct
      nonzero roots r of f, since x^(p-1) - 1 = prod_{r != 0} (x - r).
    * A factor h of g of degree >= 2 splits into gcd(h, (x+a)^((p-1)/2) - 1)
      and its cofactor for the first a = 0, 1, 2, ... that separates two of
      its roots: the gcd takes the roots r with r + a a nonzero square.  For
      distinct roots r1 != r2, a -> (r1 + a)/(r2 + a) takes every value but
      1 on F_p minus {-r2}, so some a < p gives the two roots opposite
      quadratic character (or sends r1 to 0), and the split is proper.
    """
    g = _gcd(f, _powmod_minus_one(0, p - 1, f, p), p)
    roots = []
    factors = [g] if len(g) > 1 else []
    while factors:
        h = factors.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
            continue
        for a in range(p):
            d = _gcd(h, _powmod_minus_one(a, (p - 1) // 2, h, p), p)
            if 1 < len(d) < len(h):
                factors += [d, _divmod(h, d, p)[0]]
                break
        else:
            raise AssertionError(f"no shift splits {h} over F_{p}")
    return roots


def _nonzero_roots(uni, prime, rng):
    """Nonzero roots of a univariate polynomial over F_p, random order.

    Exact and deterministic for every odd prime: a linear equation is
    solved directly, a quadratic in closed form (`_quadratic_roots`), and
    degree 3 and up by Cantor-Zassenhaus with a stepped shift
    (`_split_roots`, O(d^2 log p) per gcd step).  Every root of degree 2
    and up is checked by substitution, and a non-root raises AssertionError.

    The roots are sorted before the shuffle, and no step draws from `rng`,
    so the caller's random stream is the one a residue scan would leave.
    """
    degree = max(uni, default=0)
    if degree == 0:
        return []
    if degree == 1:
        c1 = uni.get(1, 0)
        c0 = uni.get(0, 0)
        root = (-c0 * pow(c1, prime - 2, prime)) % prime
        return [root] if root else []
    f = _monic([uni.get(d, 0) % prime for d in range(degree + 1)], prime)
    roots = _quadratic_roots(f, prime) if degree == 2 else _split_roots(f, prime)
    for r in roots:
        value = 0
        for c in reversed(f):
            value = (value * r + c) % prime
        if value:
            raise AssertionError(f"{r} is not a root of {f} over F_{prime}")
    roots.sort()
    rng.shuffle(roots)
    return roots


def _solve_variable(form: GenericForm) -> int:
    """The variable to solve a form for, at random values of the others.

    Only a variable whose exponent differs between the terms qualifies: one
    with the same exponent in every term factors out of the form, which
    leaves 0 as its only root.  Among those, lowest top degree first, then
    lowest index.
    """
    exponents = [expo for _, _, expo in form.terms]
    varying = [j for j in range(form.num_vars) if len({e[j] for e in exponents}) > 1]
    return min(varying, key=lambda j: (max(e[j] for e in exponents), j))


def _compile_equation(per_monomial, s, pivot, slot, prime):
    """G_s as a term plan on its pivot, its check terms, and the other variables it reads.

    A term is (k(M) mod p, factor slots): slot len(window) + i holds the
    coefficient c_i of the support monomial M comes from, and every other
    factor is the window slot of a non-pivot variable of M, listed once per
    unit of exponent.  M is left out where k(M) = 0 in F_p, as in G_s.  The
    plan groups the terms by pivot degree, degrees 0 and 1 always present;
    a check term lists the pivot slot as well, to evaluate G_s at a point.
    """
    coefficient_slot = len(slot)
    plan, check, reads = [[], []], [], set()
    for i, series in enumerate(per_monomial):
        for mono, mult in series.get(s, {}).items():
            c = mult % prime
            if not c:
                continue
            factors, degree = [coefficient_slot + i], 0
            for var, e in mono:
                if var == pivot:
                    degree += e
                else:
                    reads.add(var)
                    factors += [slot[var]] * e
            plan += [[] for _ in range(degree + 1 - len(plan))]
            plan[degree].append((c, tuple(factors)))
            check.append((c, tuple(factors + [slot[pivot]] * degree)))
    return plan, check, reads


def _pivot_schedule(support: Support, alpha, m):
    """The certificate data and the pivot of each arc equation G_k, in order.

    The equations run from k = n0 to m + mu; the base pivot of G_n0 is the
    lowest superscript of the solve variable of the initial form, and each
    later G_k is solved for a new highest superscript: first of that
    variable, up to the pivot order n0', then of the pivot index j0.
    """
    data = weight_data(support, alpha)
    cert = certificate_data(support, alpha)
    n0, mu = data.min_weight, data.pivot_gap
    j0, n0p = cert.pivot_index, cert.pivot_order
    jp = _solve_variable(cert.initial_form)
    pivots = {k: (jp, alpha[jp] + (k - n0)) for k in range(n0, n0p + 1)}
    pivots.update((k, (j0, k - mu)) for k in range(n0p + 1, m + mu + 1))
    if any(u > m for _, u in pivots.values()):
        raise AssertionError("pivot escaped the window")
    return cert, pivots


def _collapse(plan, value, prime):
    """The coefficients of an equation's pivot powers in F_p, other slots read by `value`."""
    return [sum([prod(map(value, f), start=c) for c, f in terms]) % prime for terms in plan]


def staircase_verify(
    support: Support, alpha, m, prime=10007, trials=50, seed=0, max_points=None
) -> StaircaseResult:
    """Sample the staircase solution of the window equations over F_p.

    Each successful trial exhibits a point of the prescribed-order stratum
    and confirms that the equations from the minimal weight up to m + mu
    each eliminate one variable, so the stratum dimension matches
    window - equations; infeasible order tuples give the empty stratum.

    The equations are compiled once per call.  A window monomial M of G_k
    comes from exactly one support monomial x^{I^i}: the exponents of M in
    the variables x_j^(u), summed over u, are I^i_j, and the support
    monomials are distinct.  So its coefficient is c_i k(M) with k(M) the
    product of multinomial coefficients, and since c_i != 0 in F_p the
    monomials of G_k are those with k(M) != 0 mod p, whatever the trial
    draws.  Each equation becomes one term plan (`_compile_equation`); a
    trial keeps its coefficients and window values in one flat list and
    collapses the plans onto their pivots (`_collapse`).

    Failure reasons, in the order a trial meets them:

    * no_nonzero_root: the initial form G_n0 has no nonzero root in its
      pivot at the drawn values;
    * pivot_derivative_vanishes: the pivot coefficient vanishes at that
      root;
    * linear_pivot_coefficient_vanishes: a later G_k has a zero
      coefficient on its pivot.

    No G_k with k > n0 reads a pivot of a later equation or a square of its
    own pivot, by weight (`_pivot_schedule` gives the pivots).  A window
    monomial M of x^{I^i} has weight k = w_i + sum of (u - alpha_j) over
    its factors x_j^(u), with w_i = alpha . I^i.  A pivot (jp, alpha_jp +
    k' - n0) of the first chain adds k' - n0 >= 1 to w_i >= n0; a pivot
    (j0, k' - mu) of the second adds k' - mu - alpha_j0 >= k' - n0' >= 1,
    and w_i >= mu + alpha_j0 when I^i_j0 > 0.  So M holding the pivot of
    G_k' has weight at least k', and holding the pivot of G_k twice, at
    least k + 1.  Both are checked as the plans are compiled, and a
    violation raises AssertionError.

    Every successful trial then evaluates each equation, pivots included,
    at the point found, and a nonzero value raises AssertionError.  The
    random stream is drawn in a fixed order: the coefficients, the window
    values in window order, then the root finder's shuffle.

    With `max_points`, LimitError is raised before any expansion when the
    window monomials (`_window_monomial_bound`) times the trials exceed it.
    """
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
    if max_points is not None:
        terms = _window_monomial_bound(support, alpha, m)
        if terms * trials > max_points:
            raise LimitError(
                f"oracle staircase: up to {terms * trials} term evaluations "
                f"({terms} window monomials, {trials} trials) exceed the limit ({max_points})"
            )
    cert, pivots = _pivot_schedule(support, alpha, m)
    n0, *equations = pivots
    base_pivot = pivots[n0]
    n_equations = len(pivots)
    per_monomial = [_expand_single_monomial(e, alpha, m, max(pivots)) for e in support.exponents]
    slot = {var: s for s, var in enumerate(window)}
    free_vars = [var for var in window if var not in pivots.values()]
    # the draws of a trial, in window order: nonzero at the lowest superscript
    free = [(slot[(j, u)], int(u == alpha[j])) for j, u in free_vars]
    assigned = set(free_vars) | {base_pivot}
    lowest = [(j, alpha[j]) for j in range(nv)]
    base, base_check, reads = _compile_equation(per_monomial, n0, base_pivot, slot, prime)
    if not reads.union(lowest) <= assigned:
        raise AssertionError("the base step reads a pivot of a later equation")
    steps, checks = [], [(n0, base_check)]
    for k in equations:
        plan, check, reads = _compile_equation(per_monomial, k, pivots[k], slot, prime)
        if not reads <= assigned:
            raise AssertionError(f"G_{k} reads a pivot of a later equation")
        if len(plan) > 2:
            raise AssertionError(f"G_{k} is not linear in its pivot")
        assigned.add(pivots[k])
        steps.append((slot[pivots[k]], plan))
        checks.append((k, check))
    lowest_slots = [slot[var] for var in lowest]
    values = [0] * (len(window) + len(support.exponents))
    value = values.__getitem__
    rng = random.Random(seed)
    successes = 0
    reasons = []
    for _ in range(trials):
        coeffs = [rng.randrange(1, prime) for _ in support.exponents]
        values[len(window):] = coeffs
        for s, low in free:
            values[s] = rng.randrange(low, prime)
        # base step: the initial form must vanish at a nonzero pivot value
        uni = {d: c for d, c in enumerate(_collapse(base, value, prime)) if c}
        roots = _nonzero_roots(uni, prime, rng)
        if not roots:
            reasons.append("no_nonzero_root")
            continue
        values[slot[base_pivot]] = roots[0]
        pivot_value = cert.pivot_coefficient.evaluate(coeffs, [values[s] for s in lowest_slots], prime)
        if pivot_value % prime == 0:
            reasons.append("pivot_derivative_vanishes")
            continue
        for ps, plan in steps:
            c0, c1 = _collapse(plan, value, prime)
            if not c1:
                reasons.append("linear_pivot_coefficient_vanishes")
                break
            values[ps] = -c0 * pow(c1, -1, prime) % prime
        else:
            for k, terms in checks:
                if _collapse([terms], value, prime)[0]:
                    raise AssertionError(f"staircase produced a non-solution at equation {k}")
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


# ---------------------------------------------------------------------------
# Torus point sampling: a finite-field check of equality certificates


def torus_point_sample(
    initial_form: GenericForm,
    pivot_form: GenericForm,
    prime=10007,
    trials=50,
    seed=0,
    max_points=None,
):
    """A torus point killing the initial form but not the pivot derivative.

    Draws nonzero coefficients and nonzero values for all but one variable,
    solves the initial form for the remaining one, and keeps a root where
    the pivot derivative is nonzero.  Returns an evidence dict or None.
    Each root is checked on the initial form itself, and a root of the
    collapsed form that misses it raises AssertionError.
    A witness exists only where the exact torus-zero criterion of
    hypersurface.equality_certificate holds; None proves nothing.

    With `max_points`, LimitError is raised before any draw when trials
    times d^2 times the bit length of the prime exceeds it, d the top
    degree of the solve variable: the root finding of one trial takes
    O(d^2 log p) field operations (`_nonzero_roots`).
    """
    _require_odd_prime(prime)
    _require_trials(trials)
    if len({expo for _, _, expo in initial_form.terms}) < 2:
        return None  # one monomial times a generic coefficient has no torus zero
    nv = initial_form.num_vars
    solve_var = _solve_variable(initial_form)
    if max_points is not None:
        d = max(expo[solve_var] for _, _, expo in initial_form.terms)
        steps = trials * d * d * prime.bit_length()
        if steps > max_points:
            raise LimitError(
                f"oracle torus-point: up to {steps} root-finding steps "
                f"({trials} trials, degree {d}, {prime.bit_length()}-bit prime) "
                f"exceed the limit ({max_points})"
            )
    coeff_indices = sorted(
        {i for _, i, _ in initial_form.terms} | {i for _, i, _ in pivot_form.terms}
    )
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = {i: rng.randrange(1, prime) for i in coeff_indices}
        point = [rng.randrange(1, prime) for _ in range(nv)]
        # the form collapsed onto the solve variable: {degree: coefficient}
        uni: dict[int, int] = {}
        for mult, ci, expo in initial_form.terms:
            others = prod(pow(x, e, prime) for j, (x, e) in enumerate(zip(point, expo)) if j != solve_var)
            degree = expo[solve_var]
            uni[degree] = (uni.get(degree, 0) + mult * coeffs[ci] * others) % prime
        roots = _nonzero_roots({d: c for d, c in uni.items() if c}, prime, rng)
        for root in roots:
            point[solve_var] = root
            if initial_form.evaluate(coeffs, point, prime):
                raise AssertionError(f"root {root} of the collapsed form misses the initial form")
            if pivot_form.evaluate(coeffs, point, prime):
                return {
                    "prime": prime,
                    "trials_used": trial + 1,
                    "point": tuple(point),
                    "coefficients": tuple(coeffs[i] for i in coeff_indices),
                }
    return None
