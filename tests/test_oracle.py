import math
import random
from itertools import product

import pytest

from mldhat.hypersurface import certificate_data, validate_support, weight_data
from mldhat.oracle import (
    OracleError,
    expand,
    staircase_verify,
    torus_point_sample,
)

WHITNEY = validate_support([(2, 0, 0), (0, 2, 1)])


def mono(*pairs):
    """Canonical monomial key from ((var, superscript), exponent) pairs."""
    return tuple(sorted(((j, u), e) for (j, u), e in pairs))


class TestExpand:
    def test_pure_square(self):
        # f = x^2 with order 1 and truncation 3
        from mldhat.hypersurface import Support

        s = Support.raw([(2,)])
        exp = expand(s, [1], (1,), m=3)
        assert exp.coefficient(2) == {mono((((0, 1)), 2)): 1}
        assert exp.coefficient(3) == {mono((((0, 1)), 1), (((0, 2)), 1)): 2}

    def test_square_of_one_variable(self):
        s = validate_support([(2, 0), (0, 1)])  # x^2 + y, to look at the x part
        exp = expand(s, [1, 1], (1, 2), m=3)
        # t^2 coefficient: (x^(1))^2 together with the y^(2) term of y
        g2 = exp.coefficient(2)
        assert g2[mono((((0, 1)), 2))] == 1
        g3 = exp.coefficient(3)
        assert g3[mono((((0, 1)), 1), (((0, 2)), 1))] == 2

    def test_whitney_initial_form(self):
        # coefficients follow the canonical (sorted) order of the support
        assert WHITNEY.exponents == ((0, 2, 1), (2, 0, 0))
        exp = expand(WHITNEY, [-1, 1], (2, 1, 2), m=4)
        g4 = exp.coefficient(4)
        assert g4 == {
            mono((((0, 2)), 2)): 1,
            mono((((1, 1)), 2), (((2, 2)), 1)): -1,
        }

    def test_linear_plus_square(self):
        s = validate_support([(1, 0), (0, 2)])
        exp = expand(s, [1, 1], (2, 1), m=2)
        g2 = exp.coefficient(2)
        assert g2 == {
            mono((((0, 2)), 1)): 1,
            mono((((1, 1)), 2)): 1,
        }

    def test_rejects_small_truncation(self):
        with pytest.raises(OracleError):
            expand(WHITNEY, [1, 1], (2, 1, 2), m=1)

    def test_weight_invariant_random(self):
        rng = random.Random(9)
        for _ in range(20):
            nv = rng.randint(2, 3)
            while True:
                try:
                    s = validate_support(
                        sorted(
                            {
                                tuple(rng.randint(0, 3) for _ in range(nv))
                                for _ in range(rng.randint(2, 3))
                            }
                        )
                    )
                    break
                except Exception:
                    continue
            alpha = tuple(rng.randint(1, 2) for _ in range(s.num_vars))
            m = max(alpha) + rng.randint(1, 3)
            exp = expand(s, [rng.randint(1, 9) for _ in s.exponents], alpha, m)
            for val, poly in exp.terms.items():
                for key in poly:
                    assert sum(u * e for ((_, u), e) in key) == val

    def test_multinomial_coefficients(self):
        # expansion of a pure power against the closed-form coefficient
        s = validate_support([(3, 0), (0, 1)])
        exp = expand(s, [1, 1], (1, 1), m=4)
        for g, poly in exp.terms.items():
            for key, coeff in poly.items():
                if any(j != 0 for ((j, _), _) in key):
                    continue
                counts = [e for (_, e) in key]
                if sum(counts) != 3:
                    continue
                expected = math.factorial(3)
                for e in counts:
                    expected //= math.factorial(e)
                assert coeff == expected


class TestStaircase:
    def test_whitney_headline(self):
        result = staircase_verify(WHITNEY, (2, 1, 2), m=8, prime=10007, trials=50, seed=1)
        assert not result.empty
        assert result.estimated_dim == 15
        assert result.equations_solved == 7
        assert result.window_size == 22
        assert result.successes >= 45

    def test_a1_surface(self):
        s = validate_support([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        result = staircase_verify(s, (1, 1, 1), m=5, prime=101, trials=60, seed=2)
        assert result.estimated_dim == 10
        assert result.successes > 0

    def test_infeasible_is_empty(self):
        result = staircase_verify(WHITNEY, (1, 1, 1), m=6, prime=101, trials=9)
        assert result.empty
        assert result.trials == 0
        assert result.estimated_dim is None

    def test_composite_modulus_rejected(self):
        with pytest.raises(OracleError):
            staircase_verify(WHITNEY, (2, 1, 2), m=6, prime=91, trials=2)

    def test_formula_across_orders(self):
        # window - equations must equal mn - sum(alpha - 1) - 1 + n0 - mu
        s = validate_support([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        n = s.num_vars - 1
        for m in (4, 6, 8):
            for alpha in ((1, 1, 1), (2, 2, 2), (1, 2, 2)):
                from mldhat.hypersurface import is_feasible

                if not is_feasible(s, alpha):
                    continue
                data = weight_data(s, alpha)
                result = staircase_verify(s, alpha, m=m, prime=101, trials=5, seed=3)
                expected = (
                    m * n - sum(a - 1 for a in alpha) - 1
                    + data.min_weight
                    - data.pivot_gap
                )
                assert result.estimated_dim == expected

    def test_d4_surface(self):
        s = validate_support([(3, 0, 0), (1, 2, 0), (0, 0, 2)])
        result = staircase_verify(s, (2, 1, 2), m=7, prime=211, trials=40, seed=5)
        assert result.successes > 0
        data = weight_data(s, (2, 1, 2))
        assert result.estimated_dim == 2 * 7 - 2 - 1 + data.min_weight - data.pivot_gap

    def test_dimension_matches_objective_at_witnesses(self):
        # window - equations equals m*n - objective at every feasible tuple,
        # which ties the sampler's bookkeeping to the optimization formula
        from mldhat.hypersurface import objective

        cases = [
            (validate_support([(2, 0, 0), (0, 2, 1)]), (2, 1, 2)),
            (validate_support([(5, 0, 0), (0, 3, 0), (0, 0, 2)]), (2, 2, 3)),
            (validate_support([(4, 0, 0), (0, 3, 0), (0, 0, 2)]), (1, 2, 2)),
            (validate_support([(3, 0, 0), (1, 2, 0), (0, 0, 2)]), (2, 1, 2)),
        ]
        m = 8
        for s, alpha in cases:
            n = s.num_vars - 1
            result = staircase_verify(s, alpha, m=m, prime=211, trials=8, seed=6)
            assert result.estimated_dim == m * n - objective(s, alpha)

    def test_pivot_outside_minimal_monomials(self):
        # the pivot variable appears only above the minimal weight, so the
        # staircase needs the intermediate chain before the pivot chain
        s = validate_support([(4, 0, 0), (0, 4, 0), (1, 1, 1)])
        alpha = (1, 1, 5)
        data = weight_data(s, alpha)
        from mldhat.hypersurface import certificate_data as cdata

        cert = cdata(s, alpha)
        assert cert.pivot_order > data.min_weight  # middle chain is nonempty
        result = staircase_verify(s, alpha, m=7, prime=401, trials=80, seed=4)
        assert result.successes > 0
        assert result.estimated_dim == 2 * 7 - 4 - 1 + data.min_weight - data.pivot_gap


class TestTorusSample:
    def test_whitney_style_form(self):
        data = certificate_data(WHITNEY, (2, 1, 2))
        witness = torus_point_sample(data.initial_form, data.pivot_coefficient, prime=101, trials=30, seed=7)
        assert witness is not None
        assert all(x != 0 for x in witness["point"])

    def test_monomial_has_no_torus_zero(self):
        from mldhat.hypersurface import GenericForm

        form = GenericForm(num_vars=2, terms=((1, 0, (2, 0)),))
        pivot = GenericForm(num_vars=2, terms=((2, 0, (1, 0)),))
        assert torus_point_sample(form, pivot, prime=101, trials=10, seed=1) is None
        # two coefficients on one monomial are still a monomial
        form = GenericForm(num_vars=2, terms=((1, 0, (2, 0)), (1, 1, (2, 0))))
        assert torus_point_sample(form, pivot, prime=101, trials=10, seed=1) is None

    def test_two_linear_monomials(self):
        from mldhat.hypersurface import GenericForm

        form = GenericForm(num_vars=2, terms=((1, 0, (1, 0)), (1, 1, (0, 1))))
        pivot = GenericForm(num_vars=2, terms=((1, 0, (0, 0)),))
        witness = torus_point_sample(form, pivot, prime=101, trials=10, seed=1)
        assert witness is not None
        a, b = witness["coefficients"]
        x, y = witness["point"]
        assert (a * x + b * y) % 101 == 0

    @pytest.mark.parametrize("perm", [(0, 2, 1), (2, 0, 1), (2, 1, 0)])
    def test_solve_variable_is_not_a_factor(self, perm):
        # the initial form x2 (a0 x1 + a3 x0^2) at alpha = (1, 2, 1): solving
        # for the factor x2, which ties x1 on degree, finds only the root 0
        rows = [(0, 1, 1), (0, 2, 0), (0, 3, 1), (2, 0, 1)]
        s = validate_support([tuple(r[p] for p in perm) for r in rows])
        alpha = tuple((1, 2, 1)[p] for p in perm)
        data = certificate_data(s, alpha)
        witness = torus_point_sample(
            data.initial_form, data.pivot_coefficient, prime=10007, trials=50, seed=0
        )
        assert witness is not None
        assert staircase_verify(s, alpha, m=4, prime=10007, trials=50, seed=0).successes > 0

    def test_curve_certificate_upgrade(self):
        curve = validate_support([(2, 0), (0, 2), (1, 1), (0, 3)])
        data = certificate_data(curve, (1, 1))
        witness = torus_point_sample(
            data.initial_form, data.pivot_coefficient, prime=10007, trials=50, seed=11
        )
        assert witness is not None
