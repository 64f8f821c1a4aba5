import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldhat.hypersurface import (
    GenericForm,
    Support,
    SupportError,
    _integer_rows,
    _small_tuples,
    binomial_lambda,
    certificate_data,
    equality_certificate,
    hypersurface_report,
    is_feasible,
    minimize_objective,
    objective,
    validate_support,
    weight_data,
)
from mldhat.lattice import LimitError
from mldhat.oracle import torus_point_sample
from mldhat import hypersurface
from reference_kernels import (
    is_binomial,
    reference_evaluate,
    reference_hypersurface_report,
    reference_minimize_objective,
)
from test_cross_route import LAMBDA_POSITIVE_BINOMIALS, random_normal_binomials

WHITNEY = validate_support([(2, 0, 0), (0, 2, 1)])
CURVE = validate_support([(2, 0), (0, 2), (1, 1), (0, 3)])
# f = a2*x0*x2 + a3*x0*x1 = x0 * g at alpha = (1, 1, 1)
DIVIDES = validate_support([(1, 1, 0), (1, 0, 1), (0, 3, 0), (0, 0, 3)])


def raw_support(exponents):
    """A support with only the row checks of validate_support.

    The rows are sorted and deduplicated; the integrality checks are left
    out, for the arc expansion and the scan's own guards, which are defined
    on any exponent list.
    """
    rows = sorted(set(_integer_rows(exponents)))
    width = len(rows[0])
    return Support(num_vars=width, exponents=tuple(rows), original_num_vars=width)


def ade_support(kind, k=None, nvars=3):
    """Exponent lists of the classical surface singularities, nvars >= 3."""
    quad = [
        tuple(2 if j == i else 0 for j in range(nvars)) for i in range(2, nvars)
    ]
    if kind == "A":
        lead = [tuple([k + 1] + [0] * (nvars - 1)), tuple([0, 2] + [0] * (nvars - 2))]
        return lead + quad
    if kind == "D":
        return [
            tuple([k - 1] + [0] * (nvars - 1)),
            tuple([1, 2] + [0] * (nvars - 2)),
        ] + quad
    if kind == "E6":
        return [tuple([4] + [0] * (nvars - 1)), tuple([0, 3] + [0] * (nvars - 2))] + quad
    if kind == "E7":
        return [tuple([3, 1] + [0] * (nvars - 2)), tuple([0, 3] + [0] * (nvars - 2))] + quad
    if kind == "E8":
        return [tuple([5] + [0] * (nvars - 1)), tuple([0, 3] + [0] * (nvars - 2))] + quad
    raise ValueError(kind)


def brute_minimum(support, radius):
    """Independent oracle: scan every tuple in a wide box.

    Returns the minimum, the first minimizer and all minimizers, in
    lexicographic order.
    """
    values = {}
    for orders in itertools.product(range(1, radius + 1), repeat=support.num_vars):
        if is_feasible(support, orders):
            values[orders] = objective(support, orders)
    if not values:
        return None
    best = min(values.values())
    minimizers = tuple(o for o, v in values.items() if v == best)
    return best, minimizers[0], minimizers


def random_integral_support(rng, nvars, entries, max_monomials=4):
    while True:
        count = rng.randint(2, max_monomials)
        rows = set()
        while len(rows) < count:
            rows.add(tuple(rng.randint(0, entries) for _ in range(nvars)))
        try:
            return validate_support(sorted(rows))
        except SupportError:
            continue


def random_disjoint_binomial(rng, nvars, entries):
    """x^a - y^b with the variables split between the two monomials."""
    while True:
        split = rng.randint(1, nvars - 1)
        a = [rng.randint(1, entries) if j < split else 0 for j in range(nvars)]
        b = [0 if j < split else rng.randint(1, entries) for j in range(nvars)]
        try:
            return validate_support([tuple(a), tuple(b)])
        except SupportError:
            continue


class TestValidation:
    def test_whitney(self):
        s = WHITNEY
        assert s.num_vars == 3
        assert s.dropped_variables == ()
        assert s.dimension_of_hypersurface == 2

    def test_curve(self):
        assert CURVE.num_vars == 2
        assert len(CURVE.exponents) == 4

    def test_rejects_non_integers(self):
        for bad in ([(2.9, 0), (0, 1)], [(True, 0), (0, 1)], [(2, 0), "01"], [3, 4]):
            with pytest.raises(SupportError):
                validate_support(bad)
            with pytest.raises(SupportError):
                raw_support(bad)
        with pytest.raises(ValueError):
            is_feasible(WHITNEY, (2.0, 1, 2))

    def test_raw_shares_the_row_checks(self):
        for bad, clause in (
            ([], "empty"),
            ([(), ()], "empty"),
            ([(2, 0), (0,)], "ragged"),
            ([(2, -1), (0, 1)], "negative"),
        ):
            errors = []
            for make in (validate_support, raw_support):
                with pytest.raises(SupportError) as err:
                    make(bad)
                errors.append((err.value.clause, str(err.value)))
            assert errors[0] == errors[1]
            assert errors[0][0] == clause
        # the expected width is checked before the signs
        with pytest.raises(SupportError) as err:
            validate_support([(2, -1), (0, 1)], num_vars=3)
        assert err.value.clause == "ragged"

    @pytest.mark.parametrize("num_vars", [2.0, True, "2", [2]])
    def test_rejects_non_integer_num_vars(self, num_vars):
        with pytest.raises(SupportError, match="vars must be an integer") as err:
            validate_support([(2, 0), (0, 3)], num_vars=num_vars)
        assert err.value.clause == "not_integer"

    def test_rejects_divisible(self):
        with pytest.raises(SupportError) as err:
            validate_support([(2, 0), (4, 0)])
        assert err.value.clause == "divisible"

    def test_divisible_names_the_variable_as_given(self):
        # variable 0 appears in no monomial and is dropped; the message still
        # names variable 1 of the rows as given
        with pytest.raises(SupportError, match="divisible by variable 1;") as err:
            validate_support([(0, 2, 0), (0, 1, 1)])
        assert err.value.clause == "divisible"

    def test_rejects_origin(self):
        with pytest.raises(SupportError) as err:
            validate_support([(0, 0, 0), (1, 1, 0)])
        assert err.value.clause == "origin_in_support"

    def test_rejects_a_support_with_no_variable(self):
        with pytest.raises(SupportError, match="constant term") as err:
            validate_support([(0, 0)])
        assert err.value.clause == "origin_in_support"

    def test_rejects_single_monomial(self):
        # a lone monomial is divisible by each of its variables
        with pytest.raises(SupportError) as err:
            validate_support([(1, 1)])
        assert err.value.clause == "divisible"

    def test_rejects_fat_segment(self):
        # difference (2, -2) has gcd 2: an interior lattice point on the segment
        with pytest.raises(SupportError) as err:
            validate_support([(2, 0), (0, 2)])
        assert err.value.clause == "one_dimensional"

    def test_rejects_three_collinear(self):
        with pytest.raises(SupportError) as err:
            validate_support([(2, 0), (1, 1), (0, 2)])
        assert err.value.clause == "one_dimensional"

    def test_drops_unused_variable(self):
        s = validate_support([(2, 0, 0, 0), (0, 0, 2, 1)])
        assert s.dropped_variables == (1,)
        assert s.num_vars == 3
        assert s.original_num_vars == 4
        assert s.dimension_of_hypersurface == 3

    def test_whitney_is_one_dimensional_primitive(self):
        # dim(A) = 1 with gcd(2, 2, 1) = 1 passes the segment test
        assert WHITNEY.exponents == ((0, 2, 1), (2, 0, 0))


class TestFeasibility:
    def test_whitney_ones_not_feasible(self):
        assert not is_feasible(WHITNEY, (1, 1, 1))

    def test_whitney_balanced(self):
        assert is_feasible(WHITNEY, (2, 1, 2))

    def test_a1_threefold_ones(self):
        s = validate_support([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
        assert is_feasible(s, (1, 1, 1, 1))

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(60):
            s = random_integral_support(rng, rng.randint(2, 3), 3)
            orders = tuple(rng.randint(1, 4) for _ in range(s.num_vars))
            for k in (2, 3):
                scaled = tuple(k * x for x in orders)
                assert is_feasible(s, orders) == is_feasible(s, scaled)

    def test_alpha_tuple_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            is_feasible(WHITNEY, (1, 0, 2))

    @given(
        st.lists(st.integers(1, 6), min_size=3, max_size=3),
        st.integers(2, 4),
    )
    def test_scaling_invariance_hypothesis(self, orders, k):
        for s in (WHITNEY, validate_support([(5, 0, 0), (0, 3, 0), (0, 0, 2)])):
            scaled = tuple(k * x for x in orders)
            assert is_feasible(s, tuple(orders)) == is_feasible(s, scaled)


class TestWeightData:
    def test_whitney(self):
        data = weight_data(WHITNEY, (2, 1, 2))
        assert data.min_weight == 4
        assert data.pivot_gap == 2
        # mu is attained by the x^2 monomial with x and the y^2 z monomial
        # with z; the pivot is the lesser variable, x
        assert data.pivot_index == 0
        assert data.orders == (2, 1, 2)

    def test_wrong_number_of_orders(self):
        with pytest.raises(ValueError, match="expected 3 vanishing orders, got 2"):
            weight_data(WHITNEY, (1, 1))

    def test_a1_threefold(self):
        s = validate_support([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
        data = weight_data(s, (1, 1, 1, 1))
        assert data.min_weight == 2
        assert data.pivot_gap == 1

    def test_d_k(self):
        for k in (4, 5, 7):
            s = validate_support(ade_support("D", k=k))
            data = weight_data(s, (2, 1, 2))
            assert data.min_weight == 4
            assert data.pivot_gap == 2

    def test_record_against_reference_kernel(self):
        # the one-pass record against the kernel that listed every pair
        # attaining mu; the orders are lists, as the scan passes them
        rng = random.Random(29)
        cases = []
        for _ in range(200):
            s = random_integral_support(rng, rng.randint(2, 3), 3, max_monomials=5)
            box = itertools.product((1, 2, 3), repeat=s.num_vars)
            cases += [(s, list(orders)) for orders in box]
        outcomes = {True: 0, False: 0}
        ties = 0  # feasible cases where mu is attained at two variables
        for s, orders in cases:
            data = hypersurface._evaluate(s.exponents, orders)
            reference = reference_evaluate(s.exponents, orders)
            outcomes[data is None] += 1
            assert (data is None) == (reference is None)
            if data is None:
                continue
            weights, n0, mu, pairs = reference
            assert data.orders == tuple(orders)
            assert (data.weights, data.min_weight, data.pivot_gap) == (weights, n0, mu)
            assert data.pivot_index == min(j for _, j in pairs)
            assert data.objective == sum(orders) - s.num_vars + 1 - n0 + mu
            ties += len({j for _, j in pairs}) > 1
        assert len(cases) >= 1000 and min(outcomes.values()) >= 200 and ties >= 100, (
            len(cases), outcomes, ties)


class TestObjective:
    def test_whitney(self):
        assert objective(WHITNEY, (2, 1, 2)) == 1
        best = brute_minimum(WHITNEY, 6)
        assert best[0] == 1

    def test_a1_threefold(self):
        s = validate_support([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
        assert objective(s, (1, 1, 1, 1)) == 0

    def test_e7_hand_arithmetic(self):
        s = validate_support(ade_support("E7"))
        assert objective(s, (2, 2, 3)) == 2

    def test_infeasible_errors(self):
        with pytest.raises(ValueError):
            objective(WHITNEY, (1, 1, 1))

    def test_nonnegative_on_random_feasible(self):
        rng = random.Random(5)
        checked = 0
        while checked < 1000:
            s = random_integral_support(rng, rng.randint(2, 3), 3)
            orders = tuple(rng.randint(1, 5) for _ in range(s.num_vars))
            if not is_feasible(s, orders):
                continue
            data = weight_data(s, orders)
            assert data.pivot_gap >= 0
            assert objective(s, orders) >= 0
            checked += 1


class TestMinimize:
    def test_whitney(self):
        result = minimize_objective(WHITNEY)
        assert result.value == 1
        assert result.minimizers[0] == (2, 1, 2)

    def test_a_k_family(self):
        for k in (1, 2, 5):
            s = validate_support(ade_support("A", k=k))
            result = minimize_objective(s)
            assert result.value == 0
            assert result.minimizers[0] == (1, 1, 1)

    def test_e8(self):
        s = validate_support(ade_support("E8"))
        result = minimize_objective(s)
        assert result.value == 2
        assert (2, 2, 3) in result.minimizers

    def test_certified_box_equals_wider_bruteforce(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            nvars = rng.randint(2, 3)
            if rng.random() < 0.3:
                s = random_disjoint_binomial(rng, nvars, 4)
            else:
                s = random_integral_support(rng, nvars, 4, max_monomials=3)
            result = minimize_objective(s)
            if result.box_bound > 12:
                continue  # keep the doubled oracle box tractable
            wide = brute_minimum(s, 2 * result.box_bound)
            assert result.value == wide[0]
            assert result.minimizers[0] == wide[1]
            assert result.minimizers == wide[2]
            checked += 1

    def test_no_feasible_tuple_raises(self):
        # (1, 0) divides (2, 1): its weight is the unique minimum for every alpha
        with pytest.raises(SupportError) as err:
            minimize_objective(raw_support([(1, 0), (2, 1)]))
        assert err.value.clause == "infeasible"

    def test_scan_refuses_a_hand_built_support_without_a_coordinate_plane_monomial(self):
        # validate_support refuses this support first; the scan guards a Support built by hand
        s = Support(num_vars=2, exponents=((1, 2), (2, 1)), original_num_vars=2)
        with pytest.raises(SupportError, match="the scan needs a monomial in each coordinate plane") as err:
            minimize_objective(s)
        assert err.value.clause == "divisible"


class TestCertificates:
    def test_whitney_monomial_criterion(self):
        data = certificate_data(WHITNEY, weight_data(WHITNEY, (2, 1, 2)))
        cert = equality_certificate(data)
        assert cert.status == "CERTIFIED"
        assert cert.kind == "monomial_criterion"
        assert len(data.initial_form.terms) == 2
        assert len(data.pivot_coefficient.terms) == 1
        assert data.record.pivot_index == 0

    def test_a_k_higher_dimension(self):
        s = validate_support(ade_support("A", k=3, nvars=4))
        cert = equality_certificate(certificate_data(s, weight_data(s, (1, 1, 1, 1))))
        assert cert.status == "CERTIFIED"
        assert cert.kind == "monomial_criterion"

    def test_d_k_higher_dimension(self):
        for nvars in (4, 5):
            s = validate_support(ade_support("D", k=5, nvars=nvars))
            data = certificate_data(s, weight_data(s, (1,) * nvars))
            assert equality_certificate(data).status == "CERTIFIED"
            # the initial form keeps the pure squares, the pivot is their variable
            assert len(data.initial_form.terms) == nvars - 2
            assert len(data.pivot_coefficient.terms) == 1

    def test_curve_needs_the_torus_zero_criterion(self):
        # g has two monomials, so the monomial criterion does not apply
        data = certificate_data(CURVE, weight_data(CURVE, (1, 1)))
        assert len(data.initial_form.terms) == 3
        assert len(data.pivot_coefficient.terms) == 2
        cert = equality_certificate(data)
        assert cert.status == "CERTIFIED"
        assert cert.kind == "torus_zero_criterion"

    def test_torus_zero_certificate_carries_no_sample(self):
        certified = equality_certificate(certificate_data(CURVE, weight_data(CURVE, (1, 1))))
        assert certified.kind == "torus_zero_criterion"
        assert set(certified.detail) == {
            "pivot_index",
            "initial_form",
            "initial_form_monomials",
            "pivot_coefficient",
            "pivot_coefficient_monomials",
        }

    def test_initial_form_dividing_the_pivot_derivative(self):
        data = certificate_data(DIVIDES, weight_data(DIVIDES, (1, 1, 1)))
        assert data.initial_form.describe() == "a2*x0*x2 + a3*x0*x1"
        assert data.pivot_coefficient.describe() == "a2*x2 + a3*x1"
        cert = equality_certificate(data)
        assert cert.status == "UNDECIDED" and cert.kind is None
        for prime in (101, 10007):
            assert torus_point_sample(
                data.initial_form, data.pivot_coefficient, prime=prime, trials=50, seed=3
            ) is None

    def test_unequal_pivot_exponents_do_not_divide(self):
        # f and g share their symbols, but the pivot exponents 2 and 1 differ
        s = validate_support([(0, 0, 2), (1, 1, 1), (3, 2, 0)])
        data = certificate_data(s, weight_data(s, (1, 1, 2)))
        assert data.initial_form.describe() == "a0*x2^2 + a1*x0*x1*x2"
        assert data.pivot_coefficient.describe() == "2*a0*x2 + a1*x0*x1"
        cert = equality_certificate(data)
        assert cert.kind == "torus_zero_criterion"


def random_supports(rng, count):
    """Seeded integral supports: 2-4 variables, entries 0-3, 2-4 monomials."""
    made = 0
    while made < count:
        nv = rng.randint(2, 4)
        rows = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(2, 4))]
        try:
            s = validate_support(rows)
            minimizers = minimize_objective(s, max_points=20000).minimizers
        except (SupportError, LimitError):
            continue
        made += 1
        yield s, minimizers


def exact_value(form, coefficients, point, prime):
    """The form's value by exact integer powers, reduced only at the end."""
    total = 0
    for mult, ci, expo in form.terms:
        term = mult * coefficients[ci]
        for x, e in zip(point, expo):
            term *= x**e
        total += term
    return total % prime


class TestGenericFormEvaluate:
    """Evaluation with modular powers against exact evaluation."""

    def test_random_forms(self):
        rng = random.Random(1818)
        for _ in range(2000):
            nv = rng.randint(1, 4)
            terms = tuple(
                (rng.choice([1, -1, 2, -3, 7]), rng.randrange(5), tuple(rng.randint(0, 12) for _ in range(nv)))
                for _ in range(rng.randint(1, 5))
            )
            form = GenericForm(nv, terms)
            prime = rng.choice([3, 5, 101, 10007, 2**31 - 1])
            coefficients = [rng.randint(-prime, 2 * prime) for _ in range(5)]
            point = [rng.randint(-prime, 2 * prime) for _ in range(nv)]
            got = form.evaluate(coefficients, point, prime)
            assert got == exact_value(form, coefficients, point, prime), (terms, point, prime)

    def test_certificate_forms(self):
        rng = random.Random(1819)
        for s, minimizers in random_supports(rng, 200):
            for alpha in minimizers:
                data = certificate_data(s, weight_data(s, alpha))
                for form in (data.initial_form, data.pivot_coefficient):
                    coefficients = {i: rng.randrange(1, 101) for i in range(len(s.exponents))}
                    point = [rng.randrange(1, 101) for _ in range(s.num_vars)]
                    assert form.evaluate(coefficients, point, 101) == exact_value(form, coefficients, point, 101)


class TestTorusZeroCriterionAgainstSampler:
    """The exact criterion against torus_point_sample, the reference."""

    def test_sampler_agrees_at_every_minimizer(self):
        # a witness proves the criterion; a "no" means f divides g, which
        # leaves no witness over any field.  At this seed the sampler also
        # finds a witness wherever the criterion says yes.
        rng = random.Random(20261018)
        yes = no = 0
        for s, minimizers in random_supports(rng, 1000):
            for alpha in minimizers:
                data = certificate_data(s, weight_data(s, alpha))
                certified = equality_certificate(data).status == "CERTIFIED"
                forms = (data.initial_form, data.pivot_coefficient)
                witness = torus_point_sample(*forms, prime=10007, trials=50, seed=1)
                assert (witness is not None) == certified, (s.exponents, alpha)
                if certified:
                    yes += 1
                else:
                    assert torus_point_sample(*forms, prime=101, trials=50, seed=1) is None
                    no += 1
        assert yes > 1000 and no > 15


def regression_supports():
    """The 180 supports of the benchmark pool and the ADE table: (support,
    recorded status or None)."""
    pool = json.loads(
        (pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8")
    )
    rows = [(e["support"], e["status"]) for e in pool["supports"]]
    rows += [(e["support"], None) for e in pool["oracle_pairs"]]
    ade = [("A", k, 3) for k in (1, 2, 5)] + [("D", k, 3) for k in (4, 5, 6, 7)]
    ade += [("D", 5, 4), ("D", 6, 4), ("E6", None, 3), ("E7", None, 3), ("E8", None, 3)]
    rows += [(ade_support(kind, k, nvars), "EXACT") for kind, k, nvars in ade]
    return [(validate_support(expo), status) for expo, status in rows]


class TestReportAgainstTwoPasses:
    """The one certificate route against the retired two-pass report."""

    def test_regression_supports(self):
        moved = 0
        supports = regression_supports()
        for s, status in supports:
            report = hypersurface_report(s)
            assert report == reference_hypersurface_report(s, certify=True), s.exponents
            assert status in (None, report.status)
            before = reference_hypersurface_report(s)
            if before != report:
                # only the certificate moves, from undecided to torus-zero
                assert (before.status, report.status) == ("LOWER_BOUND", "EXACT")
                assert report.certificate.kind == "torus_zero_criterion"
                assert before.lambda_lower_bound == report.lambda_lower_bound
                moved += 1
        assert (len(supports), moved) == (180, 13)

    def test_random_supports(self):
        rng = random.Random(20261019)
        kinds = set()
        for s, _ in random_supports(rng, 300):
            report = hypersurface_report(s, max_points=20000)
            assert report == reference_hypersurface_report(s, certify=True, max_points=20000), s.exponents
            kinds.add(report.certificate.kind)
        assert kinds == {"monomial_criterion", "torus_zero_criterion", None}

    def test_flat_family(self, monkeypatch):
        # the minimizers fall into an undecided class and a torus-zero one
        # starting later, and each class is certified once
        calls = []
        certify = hypersurface.equality_certificate
        monkeypatch.setattr(hypersurface, "equality_certificate", lambda data: calls.append(data) or certify(data))
        for s in FLAT_FAMILY:
            calls.clear()
            report = hypersurface_report(s)
            assert report == reference_hypersurface_report(s, certify=True), s.exponents
            assert [certify(data).kind for data in calls] == [None, "torus_zero_criterion"]
            assert report.witness_alpha > calls[0].record.orders


def scan_outcome(scan, support, max_points):
    """The scan's `ObjectiveMinimum`, or the message of its LimitError."""
    try:
        return scan(support, max_points=max_points)
    except LimitError as err:
        return str(err)


# {xy, xz, y^K, z^K}: every pivot order 1..K-1 of x is a minimizer
FLAT_FAMILY = [validate_support([(1, 1, 0), (1, 0, 1), (0, k, 0), (0, 0, k)]) for k in (5, 20, 60)]


def swapped_row_supports(seed, count):
    """Random supports with 2-4 variables holding a row and a swap of two of
    its coordinates: at a pivot off the swap, the two rows weigh the same
    line whenever the swapped coordinates have the same order."""
    rng = random.Random(seed)
    supports = []
    while len(supports) < count:
        nvars = rng.randint(2, 4)
        row = [rng.randint(0, 4) for _ in range(nvars)]
        j, k = rng.sample(range(nvars), 2)
        swapped = list(row)
        swapped[j], swapped[k] = row[k], row[j]
        rows = {tuple(row), tuple(swapped)}
        rows.update(tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 2)))
        try:
            supports.append(validate_support(sorted(rows)))
        except SupportError:
            continue
    return supports


def doubled_line_tuples(support, last_layer):
    """Tuples of the orders off the pivot, over every pivot and the layers
    0..last_layer, at which two monomials weigh the same line in the pivot order."""
    nv, count = support.num_vars, 0
    for layer in range(last_layer + 1):
        for pivot in range(nv):
            for rest in _small_tuples(nv - 1, layer):
                orders = rest[:pivot] + (0,) + rest[pivot:]
                lines = [(e[pivot], sum(a * i for a, i in zip(orders, e))) for e in support.exponents]
                count += len(set(lines)) < len(lines)
    return count


def layer_estimates(support, last_layer):
    """The scan's evaluation estimates summed over the layers 0..last_layer."""
    nv, n = support.num_vars, len(support.exponents)
    return sum(nv * math.comb(layer + nv - 1, nv - 1) * n * (n - 1) for layer in range(last_layer + 1))


class TestScanAtTies:
    """The scan that walks each pair's tie interval in from both ends,
    against the one that evaluates every order 1..top."""

    @staticmethod
    def agree(supports, max_points=None):
        for s in supports:
            got = scan_outcome(minimize_objective, s, max_points)
            assert got == scan_outcome(reference_minimize_objective, s, max_points), s.exponents

    def test_regression_supports(self):
        # the pool's supports and oracle pairs, and the ADE rows
        self.agree([s for s, _ in regression_supports()])

    def test_cross_route_binomials(self):
        pairs = [(u, v) for u, v, _ in LAMBDA_POSITIVE_BINOMIALS] + random_normal_binomials(seed=2017, count=40)
        self.agree([validate_support([u, v]) for u, v in pairs])

    def test_random_supports(self):
        rng = random.Random(27)
        supports = []
        for nvars in (2, 3, 4, 5):
            while len(supports) < 100 * (nvars - 1):
                s = random_integral_support(rng, nvars, 3, max_monomials=5)
                if s.num_vars == nvars:
                    supports.append(s)
        self.agree(supports, max_points=20000)

    def test_coinciding_lines(self):
        # x^k and y^k weigh the same at alpha_x = alpha_y, whatever the
        # pivot order, so their tie set is all of 1..top
        family = [[(k, 0, 0), (0, k, 0), (0, 0, m)] for k in (2, 3, 5) for m in (2, 3, 7)]
        family += [[(k, 0, 0, 0), (0, k, 0, 0), (0, 0, k, 0), (0, 0, 0, 2)] for k in (2, 3)]
        family.append([(2, 1, 0), (1, 2, 0), (0, 0, 3)])
        self.agree([validate_support(rows) for rows in family])

    @pytest.mark.parametrize("exponent", [10**7, 10**20])
    def test_large_exponent_takes_one_evaluation_per_crossing(self, monkeypatch, exponent):
        # layer 0 has one tuple per pivot, and two monomials cross at most once
        calls = []
        evaluate = hypersurface._evaluate
        monkeypatch.setattr(hypersurface, "_evaluate", lambda *args: calls.append(args) or evaluate(*args))
        result = minimize_objective(validate_support([(exponent, 0), (0, 1)]))
        assert (result.value, result.minimizers, result.box_bound) == (0, ((1, exponent),), exponent)
        assert len(calls) <= 2

    def test_flat_family(self):
        # each walk of pivot x crosses the whole interval 1..K-1
        self.agree(FLAT_FAMILY)
        for s, k in zip(FLAT_FAMILY, (5, 20, 60)):
            assert minimize_objective(s).minimizers == tuple((a, 1, 1) for a in range(1, k))

    def test_swapped_rows(self):
        supports = swapped_row_supports(seed=28, count=300)
        self.agree(supports)
        doubled = sum(doubled_line_tuples(s, minimize_objective(s).value) for s in supports)
        assert doubled >= 100

    @pytest.mark.parametrize("exponent", [10**6, 10**20])
    def test_coinciding_large_exponents(self, exponent):
        # x^K + y^K + z^2: the lines of x^K and y^K coincide at pivot z
        s = validate_support([(exponent, 0, 0), (0, exponent, 0), (0, 0, 2)])
        result = minimize_objective(s)
        assert (result.value, result.minimizers, result.box_bound) == (0, ((1, 1, exponent // 2),), exponent)

    def test_evaluations_within_the_estimates(self, monkeypatch):
        # a layer that finds nothing stays within its estimate; the last one
        # may evaluate a minimizer again from another pivot or interval
        calls = []
        evaluate = hypersurface._evaluate
        monkeypatch.setattr(hypersurface, "_evaluate", lambda *args: calls.append(args) or evaluate(*args))
        supports = [s for s, _ in regression_supports()] + FLAT_FAMILY + swapped_row_supports(seed=28, count=300)
        for s in supports:
            calls.clear()
            result = minimize_objective(s)
            assert len(calls) <= layer_estimates(s, result.value) + 2 * len(result.minimizers), s.exponents


class TestBinomial:
    def test_whitney(self):
        result = binomial_lambda(WHITNEY)
        assert result.value == 1
        assert result.minimizers[0] == (2, 1, 2)

    def test_toric_threefold(self):
        s = validate_support([(1, 1, 1, 0), (0, 0, 0, 2)])
        result = binomial_lambda(s)
        assert result.value == 1

    def test_quadric_cone(self):
        s = validate_support([(1, 1, 0, 0), (0, 0, 1, 1)])
        result = binomial_lambda(s)
        assert result.value == 0
        assert result.minimizers[0] == (1, 1, 1, 1)

    def test_agrees_with_general_pipeline(self):
        for exps in (
            [(2, 0, 0), (0, 2, 1)],
            [(1, 1, 0, 0), (0, 0, 1, 1)],
            [(3, 0), (0, 2)],
            [(1, 2, 0), (0, 0, 3)],
        ):
            s = validate_support(exps)
            assert is_binomial(s)
            fast = binomial_lambda(s)
            slow = minimize_objective(s)
            assert fast.value == slow.value
            assert fast.minimizers[0] == slow.minimizers[0]

    @pytest.mark.parametrize(
        "support",
        [
            validate_support([(2, 0, 0), (0, 2, 1), (1, 1, 1)]),
            # a valid binomial touches every coordinate plane, so its variables
            # are disjoint: a shared one needs the rows without those checks
            raw_support([(2, 1, 0), (0, 1, 2)]),
        ],
        ids=["three-monomials", "shared-variable"],
    )
    def test_refuses_other_shapes(self, support):
        with pytest.raises(ValueError, match="^binomial_lambda needs a binomial with disjoint variables$"):
            binomial_lambda(support)


class TestReports:
    def test_whitney(self):
        report = hypersurface_report(WHITNEY)
        assert report.lambda_lower_bound == 1
        assert report.mather_mld_lower_bound == 3
        assert report.status == "EXACT"

    def test_e6(self):
        s = validate_support(ade_support("E6"))
        report = hypersurface_report(s)
        assert report.lambda_lower_bound == 1
        assert report.witness_alpha == (1, 2, 2)
        assert report.status == "EXACT"
        assert report.mather_mld_lower_bound == 3

    def test_d_k_surface(self):
        s = validate_support(ade_support("D", k=6))
        report = hypersurface_report(s)
        assert report.lambda_lower_bound == 1
        assert report.witness_alpha == (2, 1, 2)
        assert report.status == "EXACT"

    def test_curve_is_exact_by_the_torus_zero_criterion(self):
        report = hypersurface_report(CURVE)
        assert report.lambda_lower_bound == 0
        assert report.witness_alpha == (1, 1)
        assert report.status == "EXACT"
        assert report.certificate.kind == "torus_zero_criterion"

    def test_report_moves_past_a_divisible_minimizer(self):
        # (1, 1, 1) is the first minimizer, but there f divides g
        report = hypersurface_report(DIVIDES)
        assert report.lambda_lower_bound == 0
        assert minimize_objective(DIVIDES).minimizers[0] == (1, 1, 1)
        assert report.witness_alpha == (2, 1, 1)
        assert report.status == "EXACT"
        assert report.certificate.kind == "torus_zero_criterion"

    def test_assumptions_recorded(self):
        report = hypersurface_report(WHITNEY)
        assert report.assumptions == ("integral support", "very general coefficients")
