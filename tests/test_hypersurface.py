import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldhat.hypersurface import (
    AlphaTuple,
    Support,
    SupportError,
    binomial_lambda,
    certificate_data,
    equality_certificate,
    hypersurface_report,
    is_binomial,
    is_feasible,
    minimize_objective,
    objective,
    validate_support,
    weight_data,
)

WHITNEY = validate_support([(2, 0, 0), (0, 2, 1)])
CURVE = validate_support([(2, 0), (0, 2), (1, 1), (0, 3)])


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
                Support.raw(bad)
        with pytest.raises(ValueError):
            is_feasible(WHITNEY, (2.0, 1, 2))

    def test_rejects_divisible(self):
        with pytest.raises(SupportError) as err:
            validate_support([(2, 0), (4, 0)])
        assert err.value.clause == "divisible"

    def test_rejects_origin(self):
        with pytest.raises(SupportError) as err:
            validate_support([(0, 0, 0), (1, 1, 0)])
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
        with pytest.raises(ValueError):
            AlphaTuple(orders=(1, 0, 2))

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
        # pairs: the x^2 monomial with x, and the y^2 z monomial with z
        named = {
            (WHITNEY.exponents[i], j) for i, j in data.attaining_pairs
        }
        assert named == {((2, 0, 0), 0), ((0, 2, 1), 2)}

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
        assert result.witness == (2, 1, 2)

    def test_a_k_family(self):
        for k in (1, 2, 5):
            s = validate_support(ade_support("A", k=k))
            result = minimize_objective(s)
            assert result.value == 0
            assert result.witness == (1, 1, 1)

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
            assert result.witness == wide[1]
            assert result.minimizers == wide[2]
            checked += 1

    def test_box_override_marks_heuristic(self):
        result = minimize_objective(WHITNEY, box_override=4)
        assert result.heuristic
        assert (result.value, result.minimizers) == (1, brute_minimum(WHITNEY, 4)[2])
        with pytest.raises(ValueError):
            minimize_objective(WHITNEY, box_override=1)

    def test_no_feasible_tuple_raises(self):
        # (1, 0) divides (2, 1): its weight is the unique minimum for every alpha
        with pytest.raises(SupportError) as err:
            minimize_objective(Support.raw([(1, 0), (2, 1)]))
        assert err.value.clause == "infeasible"


class TestCertificates:
    def test_whitney_monomial_criterion(self):
        cert = equality_certificate(WHITNEY, (2, 1, 2))
        assert cert.status == "CERTIFIED"
        assert cert.kind == "monomial_criterion"
        data = certificate_data(WHITNEY, (2, 1, 2))
        assert data.initial_form.monomial_count == 2
        assert data.pivot_coefficient.monomial_count == 1
        assert data.pivot_index == 0

    def test_a_k_higher_dimension(self):
        s = validate_support(ade_support("A", k=3, nvars=4))
        cert = equality_certificate(s, (1, 1, 1, 1))
        assert cert.status == "CERTIFIED"
        assert cert.kind == "monomial_criterion"

    def test_d_k_higher_dimension(self):
        for nvars in (4, 5):
            s = validate_support(ade_support("D", k=5, nvars=nvars))
            cert = equality_certificate(s, (1,) * nvars)
            assert cert.status == "CERTIFIED"
            data = certificate_data(s, (1,) * nvars)
            # the initial form keeps the pure squares, the pivot is their variable
            assert data.initial_form.monomial_count == nvars - 2
            assert data.pivot_coefficient.monomial_count == 1

    def test_curve_needs_sampler(self):
        cert = equality_certificate(CURVE, (1, 1))
        assert cert.status == "UNDECIDED"
        data = certificate_data(CURVE, (1, 1))
        assert data.initial_form.monomial_count == 3
        assert data.pivot_coefficient.monomial_count == 2

    def test_sampler_callback_is_used(self):
        marker = {"called": False}

        def fake_sampler(initial_form, pivot_form):
            marker["called"] = True
            return {"witness": "stub"}

        cert = equality_certificate(CURVE, (1, 1), sampler=fake_sampler)
        assert marker["called"]
        assert cert.status == "CERTIFIED"
        assert cert.kind == "finite_field_witness"


class TestBinomial:
    def test_whitney(self):
        result = binomial_lambda(WHITNEY)
        assert result.value == 1
        assert result.witness == (2, 1, 2)

    def test_toric_threefold(self):
        s = validate_support([(1, 1, 1, 0), (0, 0, 0, 2)])
        result = binomial_lambda(s)
        assert result.value == 1

    def test_quadric_cone(self):
        s = validate_support([(1, 1, 0, 0), (0, 0, 1, 1)])
        result = binomial_lambda(s)
        assert result.value == 0
        assert result.witness == (1, 1, 1, 1)

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
            assert fast.witness == slow.witness


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

    def test_curve_without_sampler_stays_lower_bound(self):
        report = hypersurface_report(CURVE)
        assert report.lambda_lower_bound == 0
        assert report.witness_alpha == (1, 1)
        assert report.status == "LOWER_BOUND"

    def test_assumptions_recorded(self):
        report = hypersurface_report(WHITNEY)
        assert report.assumptions == ("integral support", "very general coefficients")
