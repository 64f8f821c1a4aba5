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

Randomly drawn nonzero coefficients stand in for "very general" complex
ones; the evidence is probabilistic and is labeled as such wherever it is
used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .hypersurface import GenericForm, Support, certificate_data, is_feasible, weight_data


class OracleError(ValueError):
    """Invalid oracle input (truncation too small, bad prime...)."""


def _require_odd_prime(p):
    if p < 3 or p % 2 == 0:
        raise OracleError("the sampler needs an odd prime")
    # deterministic Miller-Rabin, sufficient far beyond desk-scale primes
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


@dataclass(frozen=True)
class OracleConfig:
    """Sampling parameters for the finite-field checks."""

    prime: int = 10007
    trials: int = 50
    seed: int = 0


# polynomials in window variables: {((j, u), exponent) sorted tuple: coefficient}
Monomial = tuple[tuple[tuple[int, int], int], ...]


def _poly_mul(a, b):
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = dict(ma)
            for var, e in mb:
                merged[var] = merged.get(var, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _monomial_weight(mono: Monomial) -> int:
    return sum(u * e for ((_, u), e) in mono)


def _series_mul(a, b, upto):
    out: dict[int, dict] = {}
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
        result = _series_mul(result, base, upto)
    return result


def _expand_single_monomial(exponents, alpha, m, upto):
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


@dataclass(frozen=True)
class TruncatedExpansion:
    """Coefficients G_s of the arc expansion of a polynomial with support."""

    alpha: tuple[int, ...]
    order: int  # window cap m on the superscripts
    upto: int  # largest t-power expanded
    prime: int | None  # None means exact integer coefficients
    terms: dict  # s -> {monomial: coefficient}

    def coefficient(self, s):
        return self.terms.get(s, {})


def expand(support: Support, coeffs, alpha, m, prime=None, upto=None) -> TruncatedExpansion:
    """Arc expansion of sum_i coeffs[i] x^{I^i} with orders alpha, cut at m.

    Coefficients are matched to `support.exponents`, which is canonically
    sorted.  Every monomial of every G_s has weight exactly s; the
    expansion asserts this invariant as it goes.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != support.num_vars or any(a < 1 for a in alpha):
        raise OracleError("alpha must list a positive order for every variable")
    if m < max(alpha):
        raise OracleError("truncation order m must be at least every entry of alpha")
    if len(coeffs) != len(support.exponents):
        raise OracleError("one coefficient per support monomial is required")
    if any(c == 0 if prime is None else c % prime == 0 for c in coeffs):
        raise OracleError("coefficients must be nonzero in the field")
    upto = m if upto is None else upto
    total: dict[int, dict] = {}
    for c, exponents in zip(coeffs, support.exponents):
        series = _expand_single_monomial(exponents, alpha, m, upto)
        for s, poly in series.items():
            acc = total.setdefault(s, {})
            for mono, k in poly.items():
                v = acc.get(mono, 0) + c * k
                if prime is not None:
                    v %= prime
                if v:
                    acc[mono] = v
                else:
                    acc.pop(mono, None)
    total = {s: p for s, p in total.items() if p}
    for s, poly in total.items():
        for mono in poly:
            if _monomial_weight(mono) != s:
                raise AssertionError(
                    f"weight invariant broken: {mono} in the t^{s} coefficient"
                )
    return TruncatedExpansion(
        alpha=alpha, order=m, upto=upto, prime=prime, terms=total
    )


# ---------------------------------------------------------------------------
# Staircase verification


@dataclass(frozen=True)
class StaircaseResult:
    free_parameter_count: int | None
    equations_solved: int | None
    trials: int
    successes: int
    estimated_dim: int | None
    window_size: int | None
    empty: bool = False
    failure_reasons: tuple[str, ...] = ()


def _substitute(poly, assignment, pivot, prime):
    """Collapse a window polynomial to a univariate dict {degree: coeff}."""
    uni: dict[int, int] = {}
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


def _nonzero_roots(uni, prime, rng):
    """Nonzero roots of a univariate polynomial over F_p, random order.

    Linear equations are solved directly; higher degrees fall back to a
    residue scan, which is the honest desk-scale method.
    """
    degree = max(uni, default=0)
    if degree == 0:
        return []
    if degree == 1:
        c1 = uni.get(1, 0)
        c0 = uni.get(0, 0)
        root = (-c0 * pow(c1, prime - 2, prime)) % prime
        return [root] if root else []
    roots = []
    dense = [uni.get(d, 0) for d in range(degree, -1, -1)]
    for x in range(1, prime):
        val = 0
        for c in dense:
            val = (val * x + c) % prime
        if val == 0:
            roots.append(x)
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


def _staircase_plan(support: Support, alpha):
    """Pivot schedule for the equations from n0 through m + mu."""
    data = weight_data(support, alpha)
    cert = certificate_data(support, alpha)
    n0 = data.min_weight
    mu = data.pivot_gap
    j0 = cert.pivot_index
    n0p = cert.pivot_order
    jp = _solve_variable(cert.initial_form)  # base pivot
    return data, cert, n0, mu, j0, n0p, jp


def staircase_verify(
    support: Support, alpha, m, prime=10007, trials=50, seed=0
) -> StaircaseResult:
    """Sample the staircase solution of the window equations over F_p.

    Each successful trial exhibits a point of the prescribed-order stratum
    and confirms that the equations from the minimal weight up to m + mu
    each eliminate one variable, so the stratum dimension matches
    window - equations; infeasible order tuples give the empty stratum.
    """
    alpha = tuple(int(a) for a in alpha)
    if m < max(alpha):
        raise OracleError("truncation order m must be at least every entry of alpha")
    _require_odd_prime(prime)
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
    data, cert, n0, mu, j0, n0p, jp = _staircase_plan(support, alpha)
    upto = m + mu
    per_monomial = [
        _expand_single_monomial(e, alpha, m, upto) for e in support.exponents
    ]
    pivots: dict[int, tuple[int, int]] = {}
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
        gks = {}
        for k in equations:
            acc: dict[Monomial, int] = {}
            for c, series in zip(coeffs, per_monomial):
                for mono, v in series.get(k, {}).items():
                    combined = (acc.get(mono, 0) + c * v) % prime
                    if combined:
                        acc[mono] = combined
                    else:
                        acc.pop(mono, None)
            gks[k] = acc
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
        # base step: the initial form must vanish at a nonzero pivot value
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


# ---------------------------------------------------------------------------
# Torus point sampling for equality certificates


def torus_point_sample(
    initial_form: GenericForm,
    pivot_form: GenericForm,
    prime=10007,
    trials=50,
    seed=0,
):
    """A torus point killing the initial form but not the pivot derivative.

    Draws nonzero coefficients and nonzero values for all but one variable,
    solves the initial form for the remaining one, and keeps a root where
    the pivot derivative is nonzero.  Returns an evidence dict or None;
    this is probabilistic evidence only.
    """
    if len({expo for _, _, expo in initial_form.terms}) < 2:
        return None  # one monomial times a generic coefficient has no torus zero
    _require_odd_prime(prime)
    nv = initial_form.num_vars
    solve_var = _solve_variable(initial_form)
    coeff_indices = sorted(
        {i for _, i, _ in initial_form.terms} | {i for _, i, _ in pivot_form.terms}
    )
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = {i: rng.randrange(1, prime) for i in coeff_indices}
        point = [rng.randrange(1, prime) for _ in range(nv)]
        uni: dict[int, int] = {}
        for mult, ci, expo in initial_form.terms:
            val = (mult * coeffs[ci]) % prime
            deg = 0
            for j, e in enumerate(expo):
                if j == solve_var:
                    deg += e
                else:
                    val = (val * pow(point[j], e, prime)) % prime
            if val:
                uni[deg] = (uni.get(deg, 0) + val) % prime
        uni = {d: c for d, c in uni.items() if c % prime}
        roots = _nonzero_roots(uni, prime, rng)
        for root in roots:
            point[solve_var] = root
            check = 0
            for mult, ci, expo in initial_form.terms:
                term = (mult * coeffs[ci]) % prime
                for j, e in enumerate(expo):
                    term = (term * pow(point[j], e, prime)) % prime
                check = (check + term) % prime
            if check:
                continue
            pivot_value = 0
            for mult, ci, expo in pivot_form.terms:
                term = (mult * coeffs[ci]) % prime
                for j, e in enumerate(expo):
                    term = (term * pow(point[j], e, prime)) % prime
                pivot_value = (pivot_value + term) % prime
            if pivot_value:
                return {
                    "prime": prime,
                    "trials_used": trial + 1,
                    "point": tuple(point),
                    "coefficients": tuple(coeffs[i] for i in coeff_indices),
                }
    return None


def make_torus_sampler(config: OracleConfig):
    """Callback suitable for equality_certificate / hypersurface_report."""

    def sampler(initial_form, pivot_form):
        return torus_point_sample(
            initial_form,
            pivot_form,
            prime=config.prime,
            trials=config.trials,
            seed=config.seed,
        )

    return sampler
