"""Lower bounds and equality certificates for the invariant lambda of a
hypersurface with fixed monomial support and very general coefficients.

For a support A = {I^1, ..., I^N} in n+1 variables, a tuple alpha of
prescribed vanishing orders (all >= 1) is feasible when the minimum of
alpha . I^i is attained at least twice.  Writing n0 for that minimum and

    mu = min over (i, j) with I^i_j > 0 of (alpha . I^i - alpha_j),

the objective

    Obj(alpha) = sum_j (alpha_j - 1) + 1 - n0 + mu

is minimized over feasible alpha; bound := min Obj is a lower bound for
lambda(0), and mld-hat(0; X) >= bound + n.

Nonnegativity.  Pick a pair (i*, j*) attaining mu.  Then
mu >= n0 - alpha_{j*}, so Obj >= sum_{j != j*} (alpha_j - 1) >= 0.
Each mu term is itself nonnegative since alpha . I^i >= alpha_j I^i_j
>= alpha_j whenever I^i_j > 0.

Layered scan.  Suppose Obj(alpha) <= B and (i*, j*) attains mu.  By the
display above, sum_{j != j*} (alpha_j - 1) <= B.  Since mu >= 0,
alpha_{j*} - 1 <= sum_j (alpha_j - 1) <= B - 1 + n0, and n0 <= alpha . I^i
for every I^i with I^i_{j*} = 0; such an I^i exists because the support
touches the coordinate plane of j* (integrality), and its weight does not
involve alpha_{j*}.  So alpha lies in layer B: for some pivot j*, the
other coordinates have sum_{j != j*} (alpha_j - 1) <= B and
alpha_{j*} <= B + min {alpha . I^i : I^i_{j*} = 0}.  Layers are finite
and nested, so scanning B = 0, 1, 2, ... and stopping at the first layer
holding a tuple with Obj <= B is exhaustive: that layer holds every tuple
with Obj <= B, the previous one held none with Obj <= B - 1, so the
minimum is B and the layer's tuples of value B are all the minimizers.
Within a layer, fix the pivot j* and the other coordinates: monomial i
then weighs c_i + s_i a at alpha_{j*} = a, with s_i = I^i_{j*}, a line
in a.  A feasible a attains the minimum weight at two monomials i != k,
so c_i + s_i a = c_k + s_k a.  The tie set of the pair is one integral
crossing (c_k - c_i) / (s_i - s_k) when s_i != s_k, and all of 1..top,
top the bound on alpha_{j*} above, when the two lines coincide.  Clipped
to the interval where line i lies on or below every line, it is a set of
feasible orders, and every feasible order of 1..top lies in the clipped
tie set of a pair attaining its minimum.  On that interval n0 is line i
and mu is a minimum of lines in a (each term alpha . I^i - alpha_j is
one), so Obj is concave there: the orders with Obj > B form an interval,
and those with Obj <= B a prefix and a suffix of the clipped one.
The scan walks in from both ends while Obj <= B, the second walk
stopping where the first one ended, so a pair costs at most 2
evaluations beyond the orders it finds.  A layer that finds nothing thus
makes at most (n + 1) C(B + n, n) N (N - 1) evaluations for N monomials,
whatever the size of the exponents.

Existence.  The scan stops because a feasible tuple exists unless some
monomial divides every other one.  If none does, the Newton polyhedron
conv(A) + R_{>=0}^{n+1} has two vertices and so a bounded edge; the inner
normals of a bounded face include a positive integral vector, and it
attains its minimum at both ends of the edge.  If I^k divides every other
exponent, alpha . I^k is the unique minimum for every alpha >= 1.

Equality holds when the lowest-order coefficient form f of the arc
expansion has a torus zero off the vanishing locus of the pivot
derivative g.  For very general coefficients this is decided exactly
(see equality_certificate): it holds precisely when f has two or more
monomials and f does not divide g.  Each report decides it once per
class of minimizers with the same f, g and pivot index
(`hypersurface_report`); the kind names the deciding test: the monomial
criterion (g is a single monomial, which f cannot divide) or the full
torus-zero one.
Each step reads only the output of the one before it: the record of a
tuple (`WeightData`, from `weight_data` or the scan's kernel), then its
forms f and g (`certificate_data`), then the certificate
(`equality_certificate`).  So no step checks or evaluates alpha again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .lattice import LimitError, rank_of


class SupportError(ValueError):
    """A raw exponent list that is not an integral support."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


ASSUMPTIONS = ("integral support", "very general coefficients")


@dataclass(frozen=True)
class Support:
    """A validated integral support: exponent vectors of the monomials."""

    num_vars: int
    exponents: tuple[tuple[int, ...], ...]
    original_num_vars: int
    dropped_variables: tuple[int, ...] = ()

    @property
    def dimension_of_hypersurface(self) -> int:
        return self.original_num_vars - 1


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _integer_rows(exponents, num_vars=None) -> list[tuple[int, ...]]:
    """The exponent vectors as tuples: a nonempty list of nonnegative integer
    rows of one width (`num_vars` when given); anything else is refused."""
    if num_vars is not None and not _is_integer(num_vars):
        raise SupportError("not_integer", f"vars must be an integer, got {num_vars!r}")
    try:
        rows = [tuple(e) for e in exponents]
    except TypeError:
        raise SupportError("not_integer", "the support must be a list of exponent vectors")
    if not all(_is_integer(x) for r in rows for x in r):
        raise SupportError("not_integer", "exponents must be integers")
    if any(not r for r in rows):
        raise SupportError("empty", "an exponent vector has no entries")
    if not rows:
        raise SupportError("empty", "the support has no monomials")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SupportError("ragged", "exponent vectors have mixed lengths")
    if num_vars is not None and width != num_vars:
        raise SupportError(
            "ragged", f"expected exponent vectors of length {num_vars}, got {width}"
        )
    if any(min(r) < 0 for r in rows):
        raise SupportError("negative", "exponents must be nonnegative")
    return rows


def _as_alpha(alpha, num_vars) -> tuple[int, ...]:
    orders = tuple(alpha)
    if not all(_is_integer(x) for x in orders):
        raise ValueError("vanishing orders must be integers")
    if len(orders) != num_vars:
        raise ValueError(f"expected {num_vars} vanishing orders, got {len(orders)}")
    if any(x < 1 for x in orders):
        raise ValueError("vanishing orders must all be at least 1")
    return orders


def validate_support(exponents, num_vars=None) -> Support:
    """Check the integrality conditions and normalize the exponent list.

    Variables that appear in no monomial are dropped (the hypersurface is a
    product with an affine space, which leaves the invariant unchanged);
    the report records the dropped indices so the dimension bookkeeping
    stays with the original variety.
    """
    rows = _integer_rows(exponents, num_vars)
    width = len(rows[0])
    if len(set(rows)) != len(rows):
        raise SupportError("duplicate", "the support lists a monomial twice")
    if any(all(x == 0 for x in r) for r in rows):
        raise SupportError(
            "origin_in_support", "the defining equation may not have a constant term"
        )
    columns = list(zip(*rows))  # of nonnegative exponents
    for j, column in enumerate(columns):
        if all(column):
            raise SupportError(
                "divisible",
                f"every monomial is divisible by variable {j}; the support "
                "must contain a point in each coordinate plane",
            )
    dropped = tuple(j for j, column in enumerate(columns) if not any(column))
    reduced = list(zip(*(column for column in columns if any(column))))
    # rank >= 1: a lone monomial failed the divisibility check, and distinct rows differ
    diffs = [tuple(a - b for a, b in zip(r, reduced[0])) for r in reduced[1:]]
    if rank_of(diffs) == 1:
        if len(reduced) != 2:
            raise SupportError(
                "one_dimensional",
                "a one-dimensional support must consist of exactly two lattice "
                "points (its segment may contain no third one)",
            )
        if gcd(*(a - b for a, b in zip(reduced[1], reduced[0]))) != 1:
            raise SupportError(
                "one_dimensional",
                "the segment between the two exponents contains interior lattice "
                "points",
            )
    return Support(
        num_vars=width - len(dropped),
        exponents=tuple(sorted(reduced)),
        original_num_vars=width,
        dropped_variables=dropped,
    )


@dataclass(frozen=True)
class WeightData:
    """The record of one feasible order tuple alpha: its monomial weights,
    their minimum n0, the pivot gap mu, the pivot index and Obj(alpha)."""

    orders: tuple[int, ...]  # alpha
    min_weight: int  # n0, the minimal alpha-weight over the monomials
    pivot_gap: int  # mu, min over (monomial, variable in it) of weight - order
    weights: tuple[int, ...]  # alpha-weight of each monomial
    pivot_index: int  # least j over the pairs (i, j) with I^i_j > 0 attaining mu
    objective: int  # Obj(alpha) = sum_j (alpha_j - 1) + 1 - n0 + mu


def _evaluate(exponents, orders) -> WeightData | None:
    """The record of a tuple in one pass, or None when it is infeasible.

    The single evaluation kernel: every query on a tuple and the scan in
    minimize_objective go through it, and Obj is computed here only.
    `orders` may be a list; the record keeps a tuple copy.
    """
    orders = tuple(orders)
    weights = tuple(sum(a * i for a, i in zip(orders, e)) for e in exponents)
    min_weight = min(weights)
    if weights.count(min_weight) < 2:
        return None
    # variables in increasing order and a strict <, so j0 is the least one attaining mu
    pivot_gap = j0 = None
    for j, a in enumerate(orders):
        for w, e in zip(weights, exponents):
            if e[j] and (pivot_gap is None or w - a < pivot_gap):
                pivot_gap, j0 = w - a, j
    obj = sum(orders) - len(orders) + 1 - min_weight + pivot_gap
    return WeightData(orders, min_weight, pivot_gap, weights, j0, obj)


def is_feasible(support: Support, alpha) -> bool:
    """Is the minimal weight attained by at least two monomials?"""
    return _evaluate(support.exponents, _as_alpha(alpha, support.num_vars)) is not None


def weight_data(support: Support, alpha) -> WeightData:
    """The record of alpha; ValueError when alpha is not a feasible tuple."""
    data = _evaluate(support.exponents, _as_alpha(alpha, support.num_vars))
    if data is None:
        raise ValueError("the tuple is not feasible for this support")
    return data


def objective(support: Support, alpha) -> int:
    """Obj(alpha), the `objective` field of its record; always >= 0."""
    return weight_data(support, alpha).objective


@dataclass(frozen=True)
class ObjectiveMinimum:
    value: int
    # the largest pivot bound `top` of the layers scanned: every evaluated
    # tuple lies in [1, box_bound]^n, though none need reach it
    box_bound: int
    minimizers: tuple[tuple[int, ...], ...]  # sorted
    records: tuple[WeightData, ...]  # the scan's record of each minimizer, in `minimizers` order


def _small_tuples(count, budget):
    """Tuples of `count` orders >= 1 with sum of (order - 1) at most budget."""
    if count == 0:
        yield ()
        return
    for first in range(1, budget + 2):
        for rest in _small_tuples(count - 1, budget - first + 1):
            yield (first,) + rest


def minimize_objective(support: Support, max_points=None) -> ObjectiveMinimum:
    """Global minimum of the objective over feasible tuples, with all minimizers.

    Scans the layers B = 0, 1, 2, ... described in the module docstring
    and stops at the first one holding a tuple with Obj <= B.  For each
    pivot and each tuple of the other orders, each pair of monomials gives
    the interval of pivot orders where the pair ties and its first line is
    the minimum; Obj is concave there, so walking in from both ends while
    Obj <= B finds every order of the interval with Obj <= B.  The two
    conditions the stopping argument needs are checked first: no monomial
    divides every other one, and each coordinate plane holds a monomial.
    `max_points` bounds each layer's evaluations before it is scanned,
    estimated as 2 per pair of monomials per tuple of the other orders.
    """
    exponents = support.exponents
    nv = support.num_vars
    if any(all(all(x <= y for x, y in zip(e, f)) for f in exponents) for e in exponents):
        raise SupportError(
            "infeasible", "one monomial divides every other one, so no tuple is feasible"
        )
    # each coordinate plane holds a monomial, whose weight bounds the pivot
    if not all(any(e[j] == 0 for e in exponents) for j in range(nv)):
        raise SupportError(
            "divisible",
            "every monomial is divisible by one variable; the scan needs a "
            "monomial in each coordinate plane",
        )
    largest = layer = 0
    while True:
        if max_points is not None:
            size = nv * comb(layer + nv - 1, nv - 1) * len(exponents) * (len(exponents) - 1)
            if size > max_points:
                raise LimitError(f"layer {layer} of the tuple scan takes up to {size} "
                                 f"evaluations, over the limit ({max_points})")
        found = {}  # orders -> record
        for pivot in range(nv):
            for rest in _small_tuples(nv - 1, layer):
                orders = list(rest)
                orders.insert(pivot, 0)
                # (I^i_pivot, weight of I^i off the pivot): monomial i weighs
                # c_i + s_i * a at orders[pivot] = a (module docstring)
                lines = [(e[pivot], sum(a * i for a, i in zip(orders, e))) for e in exponents]
                top = layer + min(c for s, c in lines if not s)
                largest = max(largest, top)
                ties = set()
                for (s, c), (t, d) in combinations(lines, 2):
                    # the pair ties at one crossing q, or everywhere if the lines coincide
                    q, r = divmod(d - c, s - t) if s != t else (None, c - d)
                    lo, hi = (1, 0) if r else (1, top) if q is None else (max(q, 1), min(q, top))
                    # clip to the orders where line (s, c) lies on or below every line
                    for u, e in lines if lo <= hi else ():
                        if s > u:
                            hi = min(hi, (e - c) // (s - u))
                        elif s < u:
                            lo = max(lo, -((e - c) // (u - s)))
                        elif c > e:
                            hi = 0
                    ties.add((lo, hi))
                for lo, hi in ties:
                    # every order of [lo, hi] is feasible and Obj is concave
                    # there: walk in from both ends while Obj <= layer
                    for a, step in ((lo, 1), (hi, -1)):
                        while lo <= a <= hi:
                            orders[pivot] = a
                            data = _evaluate(exponents, orders)
                            if data.objective > layer:
                                break
                            found[data.orders] = data
                            a += step
                        lo = a + 1  # the walk down stops where the walk up ended
        if found:
            minimizers, records = zip(*sorted(found.items()))
            return ObjectiveMinimum(value=layer, box_bound=largest, minimizers=minimizers, records=records)
        layer += 1


# ---------------------------------------------------------------------------
# Equality certificates


@dataclass(frozen=True)
class GenericForm:
    """A sum of monomials with symbolic generic coefficients.

    Each term is (integer multiplier, coefficient index, exponent vector);
    the coefficient indices refer to the monomials of the support, so the
    same symbol can appear in several forms consistently.
    """

    num_vars: int
    terms: tuple[tuple[int, int, tuple[int, ...]], ...]

    def evaluate(self, coefficients, point, prime):
        """The form's value mod prime; each power is taken mod prime."""
        total = 0
        for mult, ci, expo in self.terms:
            term = mult * coefficients[ci]
            for x, e in zip(point, expo):
                term = term * pow(x, e, prime) % prime
            total += term
        return total % prime

    def describe(self) -> str:
        """Readable rendering with symbolic coefficients a<i>."""
        parts = []
        for mult, ci, expo in self.terms:
            factors = [] if mult == 1 else [str(mult)]
            factors.append(f"a{ci}")
            for j, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CertificateData:
    """The lowest-order form and pivot data of the arc expansion at alpha,
    with the record of alpha they are read from."""

    record: WeightData  # the record of alpha: orders, weights, n0, mu, pivot index, Obj
    initial_form: GenericForm  # coefficient of the minimal t-power
    pivot_order: int  # minimal weight among monomials using the pivot
    pivot_coefficient: GenericForm  # derivative form multiplying each new pivot


def certificate_data(support: Support, data: WeightData) -> CertificateData:
    """The certificate data of a feasible tuple, read off its record `data`,
    which it keeps as `record`: the initial form is the sum of the monomials
    of weight n0, and the pivot j0 is the record's pivot index.  The record
    comes from `weight_data`, which checks alpha, or from the kernel
    `_evaluate` on a tuple the scan made; nothing here evaluates alpha
    again."""
    minimal = [i for i, p in enumerate(data.weights) if p == data.min_weight]
    initial = GenericForm(
        num_vars=support.num_vars,
        terms=tuple((1, i, support.exponents[i]) for i in minimal),
    )
    j0 = data.pivot_index
    with_pivot = [i for i, e in enumerate(support.exponents) if e[j0] > 0]
    pivot_order = min(data.weights[i] for i in with_pivot)
    sigma = tuple(i for i in with_pivot if data.weights[i] == pivot_order)
    derivative_terms = []
    for i in sigma:
        e = support.exponents[i]
        lowered = tuple(x - 1 if j == j0 else x for j, x in enumerate(e))
        derivative_terms.append((e[j0], i, lowered))
    pivot_form = GenericForm(num_vars=support.num_vars, terms=tuple(derivative_terms))
    return CertificateData(
        record=data,
        initial_form=initial,
        pivot_order=pivot_order,
        pivot_coefficient=pivot_form,
    )


@dataclass(frozen=True)
class Certificate:
    status: str  # CERTIFIED or UNDECIDED
    kind: str | None  # monomial_criterion | torus_zero_criterion | None
    alpha: tuple[int, ...]
    detail: dict


# preference among the certificates of the minimizers; None is undecided
_KIND_ORDER = ("monomial_criterion", "torus_zero_criterion", None)


def _divides_pivot_derivative(data: CertificateData) -> bool:
    """Does the initial form f divide the pivot derivative g on the torus?

    Both are linear in the coefficient symbols, so g = h * f forces h to be
    free of them: f and g then carry the same symbols, and each term
    k_i a_i x^(I^i - e_j0) of g is h times a_i x^(I^i), so every k_i (the
    pivot exponent of I^i) is one common k and g = k * f / x_j0.
    """
    symbols = {i for _, i, _ in data.initial_form.terms}
    exponents, pivot_symbols, _ = zip(*data.pivot_coefficient.terms)  # some monomial uses the pivot
    return set(pivot_symbols) == symbols and len(set(exponents)) == 1


def equality_certificate(data: CertificateData) -> Certificate:
    """Decide whether the lower bound is attained at the tuple alpha of
    `data`, the certificate data from `certificate_data`.

    The bound is attained once, for very general coefficients c, the
    initial form f has a torus zero off the zero set of the pivot
    derivative g.  The certificate's kind names the test that decides it:

    * monomial criterion: f has at least two monomials and g is a single
      monomial, which has no torus zero;
    * torus-zero criterion: f has at least two monomials and does not
      divide g in the Laurent polynomial ring, which
      `_divides_pivot_derivative` reads off the terms.

    The monomial criterion implies the torus-zero one: f | g would make
    g = k * f / x_j0 (see `_divides_pivot_derivative`), with as many
    monomials as f.  So the kinds only record which test decided.

    The torus-zero criterion is exact.  A form with one monomial has no
    torus zero.  Otherwise let Z = {(c, x) in (C*)^N x (C*)^(n+1) : f = 0}.
    f is linear in c with unit monomial coefficients x^(I^i), so solving
    f = 0 for one coefficient makes Z isomorphic to an open subset of a
    torus: Z is irreducible, and f, being irreducible in the Laurent ring,
    generates its ideal.  Z maps onto the coefficient torus: some variable
    has two different exponents in f, and for every c, at general values of
    the other variables, f is a Laurent polynomial in it with at least two
    terms, which has a nonzero root.  If g does not vanish on all of Z,
    {g != 0} is dense open in Z, its image contains a dense open set of
    coefficients, and for general (so for very general) c the form f has a
    torus zero off {g = 0}.  If g vanishes on Z, then g lies in (f), and
    every torus zero of f is one of g, for every c.  The second case is
    exactly the one `_divides_pivot_derivative` detects.  The same argument
    shows that a finite-field witness (oracle.torus_point_sample) can exist
    only when the criterion holds.
    """
    detail = {
        "pivot_index": data.record.pivot_index,
        "initial_form": data.initial_form.describe(),
        "initial_form_monomials": len(data.initial_form.terms),
        "pivot_coefficient": data.pivot_coefficient.describe(),
        "pivot_coefficient_monomials": len(data.pivot_coefficient.terms),
    }
    # f has two monomials: the record is of a feasible alpha, which attains n0 twice
    kind = None
    if len(data.pivot_coefficient.terms) == 1:
        kind = "monomial_criterion"
    elif not _divides_pivot_derivative(data):
        kind = "torus_zero_criterion"
    status = "UNDECIDED" if kind is None else "CERTIFIED"
    return Certificate(status=status, kind=kind, alpha=data.record.orders, detail=detail)


# ---------------------------------------------------------------------------
# Binomials with disjoint variables


def binomial_lambda(support: Support):
    """Minimum of the objective for a binomial support with disjoint variables.

    Checks the shape and runs the general scan, minimize_objective.
    """
    exponents = support.exponents
    if len(exponents) != 2 or any(x and y for x, y in zip(*exponents)):
        raise ValueError("binomial_lambda needs a binomial with disjoint variables")
    return minimize_objective(support)


# ---------------------------------------------------------------------------
# Top-level report


@dataclass(frozen=True)
class HypersurfaceMldReport:
    lambda_lower_bound: int
    mather_mld_lower_bound: int
    status: str  # EXACT or LOWER_BOUND
    witness_alpha: tuple[int, ...]
    certificate: Certificate
    search_box_bound: int
    assumptions: tuple[str, ...]
    dropped_variables: tuple[int, ...]


def hypersurface_report(support: Support, max_points=None) -> HypersurfaceMldReport:
    """Lower bound for lambda(0) with an equality certificate when one exists.

    The layered scan finds every minimizer with its record, and the
    certificate data of each is read off that record.  equality_certificate
    reads only the pivot index, the initial form and the pivot coefficient
    besides alpha, so the minimizers that share all three form a class with
    one certificate up to alpha, and each class is certified once, at its
    first, least alpha.  The report keeps the first, in lexicographic order,
    of the best kind: monomial criterion, then torus-zero criterion, then
    undecided.
    """
    n = support.dimension_of_hypersurface
    result = minimize_objective(support, max_points=max_points)
    classes = {}  # (pivot index, initial form, pivot coefficient) -> data of the least alpha
    for record in result.records:
        data = certificate_data(support, record)
        classes.setdefault((record.pivot_index, data.initial_form, data.pivot_coefficient), data)
    certificates = [equality_certificate(data) for data in classes.values()]
    chosen = min(certificates, key=lambda cert: _KIND_ORDER.index(cert.kind))
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
