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

Existence.  The scan stops because a feasible tuple exists unless some
monomial divides every other one.  If none does, the Newton polyhedron
conv(A) + R_{>=0}^{n+1} has two vertices and so a bounded edge; the inner
normals of a bounded face include a positive integral vector, and it
attains its minimum at both ends of the edge.  If I^k divides every other
exponent, alpha . I^k is the unique minimum for every alpha >= 1.

Equality holds when the lowest-order coefficient form of the arc
expansion has a torus zero off the vanishing locus of the pivot
derivative; the certificate below detects the two decidable cases:
the pivot derivative is a single monomial (monomials have no torus
zeros, while a very general form with two or more distinct monomials
always has one), or a finite-field sampler exhibits an explicit witness
(probabilistic evidence, clearly labeled).
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def max_entry(self) -> int:
        return max(max(e) for e in self.exponents)

    @staticmethod
    def raw(exponents):
        """A support without the integrality checks, for expansion work.

        The bound and certificate pipelines need validate_support; the arc
        expansion itself is defined for any exponent list.
        """
        rows = sorted(set(_integer_rows(exponents)))
        if not rows:
            raise SupportError("empty", "the support has no monomials")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SupportError("ragged", "exponent vectors have mixed lengths")
        if any(min(r) < 0 for r in rows):
            raise SupportError("negative", "exponents must be nonnegative")
        return Support(
            num_vars=width,
            exponents=tuple(rows),
            original_num_vars=width,
        )


@dataclass(frozen=True)
class AlphaTuple:
    """Prescribed vanishing orders, one positive integer per variable."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any(x < 1 for x in self.orders):
            raise ValueError("vanishing orders must all be at least 1")


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _integer_rows(exponents) -> list[tuple[int, ...]]:
    """The exponent vectors as tuples; anything but plain integers is refused."""
    try:
        rows = [tuple(e) for e in exponents]
    except TypeError:
        raise SupportError("not_integer", "the support must be a list of exponent vectors")
    if not all(_is_integer(x) for r in rows for x in r):
        raise SupportError("not_integer", "exponents must be integers")
    if any(not r for r in rows):
        raise SupportError("empty", "an exponent vector has no entries")
    return rows


def _as_alpha(alpha, num_vars) -> tuple[int, ...]:
    orders = alpha.orders if isinstance(alpha, AlphaTuple) else tuple(alpha)
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
    rows = _integer_rows(exponents)
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
    if len(set(rows)) != len(rows):
        raise SupportError("duplicate", "the support lists a monomial twice")
    if any(all(x == 0 for x in r) for r in rows):
        raise SupportError(
            "origin_in_support", "the defining equation may not have a constant term"
        )
    dropped = tuple(j for j in range(width) if all(r[j] == 0 for r in rows))
    if dropped:
        keep = [j for j in range(width) if j not in dropped]
        reduced = [tuple(r[j] for j in keep) for r in rows]
    else:
        reduced = rows
    eff_width = width - len(dropped)
    if eff_width == 0:
        raise SupportError("origin_in_support", "the support uses no variable at all")
    for j in range(eff_width):
        if all(r[j] > 0 for r in reduced):
            original = j if not dropped else [k for k in range(width) if k not in dropped][j]
            raise SupportError(
                "divisible",
                f"every monomial is divisible by variable {original}; the support "
                "must contain a point in each coordinate plane",
            )
    diffs = [tuple(a - b for a, b in zip(r, reduced[0])) for r in reduced[1:]]
    dim = rank_of(diffs) if diffs else 0
    if dim == 0:
        raise SupportError(
            "dimension", "a single monomial does not define an integral hypersurface"
        )
    if dim == 1:
        if len(reduced) != 2:
            raise SupportError(
                "one_dimensional",
                "a one-dimensional support must consist of exactly two lattice "
                "points (its segment may contain no third one)",
            )
        d = tuple(a - b for a, b in zip(reduced[1], reduced[0]))
        g = 0
        for x in d:
            g = gcd(g, abs(x))
        if g != 1:
            raise SupportError(
                "one_dimensional",
                "the segment between the two exponents contains interior lattice "
                "points",
            )
    return Support(
        num_vars=eff_width,
        exponents=tuple(sorted(reduced)),
        original_num_vars=width,
        dropped_variables=dropped,
    )


@dataclass(frozen=True)
class WeightData:
    """Monomial weights, their minimum, the pivot gap and the pairs attaining it."""

    min_weight: int  # minimal alpha-weight over the monomials
    pivot_gap: int  # min over (monomial, variable in it) of weight - order
    attaining_pairs: tuple[tuple[int, int], ...]  # (monomial index, variable)
    weights: tuple[int, ...]  # alpha-weight of each monomial


def _evaluate(exponents, orders) -> WeightData | None:
    """The weight data of a tuple in one pass, or None when it is infeasible.

    The single evaluation kernel: every query on a tuple and the scan in
    minimize_objective go through it.
    """
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
    return WeightData(
        min_weight=n0, pivot_gap=mu, attaining_pairs=tuple(pairs), weights=weights
    )


def is_feasible(support: Support, alpha) -> bool:
    """Is the minimal weight attained by at least two monomials?"""
    return _evaluate(support.exponents, _as_alpha(alpha, support.num_vars)) is not None


def weight_data(support: Support, alpha) -> WeightData:
    data = _evaluate(support.exponents, _as_alpha(alpha, support.num_vars))
    if data is None:
        raise ValueError("the tuple is not feasible for this support")
    return data


def objective(support: Support, alpha) -> int:
    """sum_j (alpha_j - 1) + 1 - min_weight + pivot_gap, always >= 0."""
    orders = _as_alpha(alpha, support.num_vars)
    data = weight_data(support, orders)
    return sum(orders) - support.num_vars + 1 - data.min_weight + data.pivot_gap


@dataclass(frozen=True)
class ObjectiveMinimum:
    value: int
    witness: tuple[int, ...]
    box_bound: int  # largest coordinate of any scanned tuple
    minimizers: tuple[tuple[int, ...], ...]  # sorted
    heuristic: bool = False


def _small_tuples(count, budget):
    """Tuples of `count` orders >= 1 with sum of (order - 1) at most budget."""
    if count == 0:
        yield ()
        return
    for first in range(1, budget + 2):
        for rest in _small_tuples(count - 1, budget - first + 1):
            yield (first,) + rest


def minimize_objective(support: Support, box_override=None, max_points=None) -> ObjectiveMinimum:
    """Global minimum of the objective over feasible tuples, with all minimizers.

    Scans the layers B = 0, 1, 2, ... described in the module docstring
    and stops at the first one holding a tuple with Obj <= B.  The two
    conditions the stopping argument needs are checked first: no monomial
    divides every other one, and each coordinate plane holds a monomial.
    `box_override` caps every coordinate inside the same scan; the result
    is then only a heuristic and is marked as such.  `max_points` bounds
    the estimated size of each layer before it is scanned.
    """
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
    d_max = support.max_entry
    largest = 0
    layer = 0
    while True:
        if box_override is not None and layer > nv * (box_override - 1):
            raise ValueError(
                f"no feasible tuple with every order at most {box_override}; "
                "raise --box-bound or drop the override"
            )
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
                if box_override is not None and max(rest) > box_override:
                    continue
                orders = list(rest)
                orders.insert(pivot, 0)
                top = layer + min(
                    sum(a * i for a, i in zip(orders, e)) for e in planes[pivot]
                )
                if box_override is not None:
                    top = min(top, box_override)
                largest = max(largest, top)
                base = sum(rest) - nv + 1
                for a in range(1, top + 1):
                    orders[pivot] = a
                    data = _evaluate(exponents, orders)
                    if data is not None and base + a - data.min_weight + data.pivot_gap <= layer:
                        found.add(tuple(orders))
        if found:
            minimizers = tuple(sorted(found))
            return ObjectiveMinimum(
                value=layer,
                witness=minimizers[0],
                box_bound=largest,
                minimizers=minimizers,
                heuristic=box_override is not None,
            )
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

    @property
    def monomial_count(self) -> int:
        return len(self.terms)

    def evaluate(self, coefficients, point, prime=None):
        total = 0
        for mult, ci, expo in self.terms:
            term = mult * coefficients[ci]
            for x, e in zip(point, expo):
                term *= x**e
            total += term
        return total % prime if prime is not None else total

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
    """The lowest-order form and pivot data of the arc expansion at alpha."""

    initial_form: GenericForm  # coefficient of the minimal t-power
    pivot_index: int  # variable carrying the new highest superscript
    pivot_order: int  # minimal weight among monomials using the pivot
    pivot_monomials: tuple[int, ...]  # support indices attaining it
    pivot_coefficient: GenericForm  # derivative form multiplying each new pivot


def certificate_data(support: Support, alpha) -> CertificateData:
    orders = _as_alpha(alpha, support.num_vars)
    data = weight_data(support, orders)
    minimal = [i for i, p in enumerate(data.weights) if p == data.min_weight]
    initial = GenericForm(
        num_vars=support.num_vars,
        terms=tuple((1, i, support.exponents[i]) for i in minimal),
    )
    j0 = min(j for _, j in data.attaining_pairs)
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
        initial_form=initial,
        pivot_index=j0,
        pivot_order=pivot_order,
        pivot_monomials=sigma,
        pivot_coefficient=pivot_form,
    )


@dataclass(frozen=True)
class Certificate:
    status: str  # CERTIFIED or UNDECIDED
    kind: str | None  # monomial_criterion | finite_field_witness | None
    alpha: tuple[int, ...]
    detail: dict


def equality_certificate(support: Support, alpha, sampler=None) -> Certificate:
    """Decide the sufficient conditions for the lower bound to be attained.

    The deterministic criterion: the initial form keeps at least two
    monomials while the pivot derivative is a single monomial.  When it
    fails and a `sampler` callback is supplied (see the oracle module), a
    finite-field witness upgrades the verdict with probabilistic evidence.
    """
    orders = _as_alpha(alpha, support.num_vars)
    data = certificate_data(support, orders)
    base = {
        "pivot_index": data.pivot_index,
        "initial_form": data.initial_form.describe(),
        "initial_form_monomials": data.initial_form.monomial_count,
        "pivot_coefficient": data.pivot_coefficient.describe(),
        "pivot_coefficient_monomials": data.pivot_coefficient.monomial_count,
    }
    if (
        data.initial_form.monomial_count >= 2
        and data.pivot_coefficient.monomial_count == 1
    ):
        return Certificate(
            status="CERTIFIED", kind="monomial_criterion", alpha=orders, detail=base
        )
    if sampler is not None and data.initial_form.monomial_count >= 2:
        evidence = sampler(data.initial_form, data.pivot_coefficient)
        if evidence is not None:
            detail = dict(base)
            detail.update(evidence)
            return Certificate(
                status="CERTIFIED", kind="finite_field_witness", alpha=orders, detail=detail
            )
    return Certificate(status="UNDECIDED", kind=None, alpha=orders, detail=base)


# ---------------------------------------------------------------------------
# Binomials with disjoint variables


def is_binomial(support: Support) -> bool:
    if len(support.exponents) != 2:
        return False
    a, b = support.exponents
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def binomial_lambda(support: Support):
    """Exact lambda for a binomial support with disjoint variables.

    On the balance locus alpha . I^1 = alpha . I^2 the objective collapses
    to sum(alpha) - max(alpha) - n; the general scan minimizes it.
    """
    if not is_binomial(support):
        raise ValueError("the closed form needs a binomial with disjoint variables")
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
    heuristic_box: bool = False


def hypersurface_report(support: Support, sampler=None, box_override=None, max_points=None) -> HypersurfaceMldReport:
    """Lower bound for lambda(0) with an equality certificate when found.

    The layered scan finds every minimizer, and the certificate is
    attempted at each of them, in lexicographic order, until one is
    certified.
    """
    n = support.dimension_of_hypersurface
    result = minimize_objective(
        support, box_override=box_override, max_points=max_points
    )
    chosen = None
    for orders in result.minimizers:
        cert = equality_certificate(support, orders)
        if cert.status == "CERTIFIED":
            chosen = cert
            break
    if chosen is None and sampler is not None:
        for orders in result.minimizers:
            cert = equality_certificate(support, orders, sampler=sampler)
            if cert.status == "CERTIFIED":
                chosen = cert
                break
    if chosen is None:
        chosen = equality_certificate(support, result.witness, sampler=None)
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
        heuristic_box=result.heuristic,
    )
