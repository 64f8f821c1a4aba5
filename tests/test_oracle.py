import contextlib
import io
import json
import math
import pathlib
import random
import sys
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mldhat.hypersurface import (
    GenericForm,
    certificate_data,
    is_feasible,
    validate_support,
    weight_data,
)
from mldhat import cli, oracle
from mldhat.lattice import LimitError
from mldhat.oracle import (
    OracleError,
    _collapse,
    _compile_equation,
    _divmod,
    _expand_single_monomial,
    _nonzero_roots,
    _pivot_schedule,
    _powmod_minus_one,
    _sqrt_mod,
    _window_monomial_bound,
    expand,
    staircase_verify,
    torus_point_sample,
)
from reference_kernels import (
    _combine,
    reference_expand_single_monomial,
    reference_nonzero_roots,
    reference_powmod_minus_one,
    reference_staircase_verify,
)
from test_hypersurface import raw_support

WHITNEY = validate_support([(2, 0, 0), (0, 2, 1)])
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
PRIMES = [p for p in range(3, 212) if all(p % q for q in range(2, p))]


def mono(*pairs):
    """Canonical monomial key from ((var, superscript), exponent) pairs."""
    return tuple(sorted(((j, u), e) for (j, u), e in pairs))


class TestExpand:
    def test_pure_square(self):
        # f = x^2 with order 1 and truncation 3
        s = raw_support([(2,)])
        exp = expand(s, [1], (1,), m=3)
        assert exp.terms[2] == {mono((((0, 1)), 2)): 1}
        assert exp.terms[3] == {mono((((0, 1)), 1), (((0, 2)), 1)): 2}

    def test_square_of_one_variable(self):
        s = validate_support([(2, 0), (0, 1)])  # x^2 + y, to look at the x part
        exp = expand(s, [1, 1], (1, 2), m=3)
        # t^2 coefficient: (x^(1))^2 together with the y^(2) term of y
        g2 = exp.terms[2]
        assert g2[mono((((0, 1)), 2))] == 1
        g3 = exp.terms[3]
        assert g3[mono((((0, 1)), 1), (((0, 2)), 1))] == 2

    def test_whitney_initial_form(self):
        # coefficients follow the canonical (sorted) order of the support
        assert WHITNEY.exponents == ((0, 2, 1), (2, 0, 0))
        exp = expand(WHITNEY, [-1, 1], (2, 1, 2), m=4)
        g4 = exp.terms[4]
        assert g4 == {
            mono((((0, 2)), 2)): 1,
            mono((((1, 1)), 2), (((2, 2)), 1)): -1,
        }

    def test_linear_plus_square(self):
        s = validate_support([(1, 0), (0, 2)])
        exp = expand(s, [1, 1], (2, 1), m=2)
        g2 = exp.terms[2]
        assert g2 == {
            mono((((0, 2)), 1)): 1,
            mono((((1, 1)), 2)): 1,
        }

    def test_rejects_small_truncation(self):
        with pytest.raises(OracleError):
            expand(WHITNEY, [1, 1], (2, 1, 2), m=1)

    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to every base 2, ..., 37
    @pytest.mark.parametrize("prime", [4, 91, 2, 1, 0, -7, 318665857834031151167461])
    def test_rejects_non_prime_modulus(self, prime):
        with pytest.raises(OracleError):
            expand(WHITNEY, [1, 1], (2, 1, 2), m=4, prime=prime)

    def test_accepts_large_prime_below_bound(self):
        prime = 2**61 - 1
        g = expand(WHITNEY, [1, prime - 1], (2, 1, 2), m=4, prime=prime)
        assert g == expand(WHITNEY, [1, -1], (2, 1, 2), m=4, prime=prime)

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

    def test_matches_the_merge_route(self):
        # expand writes each window monomial once; summing the series of the
        # support monomials per t-power (`_combine`) gives the same G_s, in
        # the same order.  Over F_3 an exponent of 3 or more makes 3 divide
        # some k(M), and those monomials drop
        rng = random.Random(32)
        dropped = 0
        for prime in (None, 101, 3) * 40:
            nv = rng.randint(1, 3)
            rows = {tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(1, 4))} - {(0,) * nv}
            if prime == 3 or not rows:
                rows.add(tuple(rng.randint(3, 4) if j == 0 else rng.randint(0, 1) for j in range(nv)))
            s = raw_support(rows)
            alpha = tuple(rng.randint(1, 2) for _ in range(nv))
            m = max(alpha) + rng.randint(0, 3)
            coeffs = [rng.choice([-1, 1]) * rng.randint(1, 2 if prime == 3 else 9) for _ in s.exponents]
            per_monomial = [_expand_single_monomial(e, alpha, m, m) for e in s.exponents]
            merged = {k: g for k in range(m + 1) if (g := _combine(coeffs, per_monomial, k, prime))}
            terms = expand(s, coeffs, alpha, m, prime=prime).terms
            assert terms == merged
            assert [list(g) for g in terms.values()] == [list(g) for g in merged.values()]
            assert list(terms) == sorted(terms)
            if prime == 3:
                exact = expand(s, coeffs, alpha, m).terms
                dropped += sum(map(len, exact.values())) - sum(map(len, terms.values()))
        assert dropped > 0


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

    @pytest.mark.parametrize(
        "alpha, m", [((1.9, 1.2), 4), ((True, 1), 4), ((1, 1), 4.5), ((1, 1), True)]
    )
    def test_non_integer_orders_rejected(self, alpha, m):
        s = validate_support([(2, 0), (0, 3)])
        with pytest.raises(OracleError):
            staircase_verify(s, alpha, m=m)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trials_rejected(self, trials):
        with pytest.raises(OracleError):
            staircase_verify(WHITNEY, (2, 1, 2), m=6, prime=101, trials=trials)
        with pytest.raises(OracleError):
            staircase_verify(WHITNEY, (1, 1, 1), m=6, prime=101, trials=trials)

    def test_large_prime(self):
        started = time.perf_counter()
        result = staircase_verify(WHITNEY, (2, 1, 2), m=8, prime=2147483647, trials=2, seed=1)
        assert time.perf_counter() - started < 5.0
        assert result.trials == 2
        assert result.estimated_dim == 15
        assert result.successes > 0

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
        cert = certificate_data(s, data)
        assert cert.pivot_order > data.min_weight  # middle chain is nonempty
        result = staircase_verify(s, alpha, m=7, prime=401, trials=80, seed=4)
        assert result.successes > 0
        assert result.estimated_dim == 2 * 7 - 4 - 1 + data.min_weight - data.pivot_gap


# the (support, alpha) pairs of TestStaircase, the infeasible one included
STAIRCASE_CASES = [
    ([(2, 0, 0), (0, 2, 1)], (2, 1, 2)),
    ([(2, 0, 0), (0, 2, 1)], (1, 1, 1)),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 1, 1)),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (2, 2, 2)),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 2, 2)),
    ([(3, 0, 0), (1, 2, 0), (0, 0, 2)], (2, 1, 2)),
    ([(5, 0, 0), (0, 3, 0), (0, 0, 2)], (2, 2, 3)),
    ([(4, 0, 0), (0, 3, 0), (0, 0, 2)], (1, 2, 2)),
    ([(4, 0, 0), (0, 4, 0), (1, 1, 1)], (1, 1, 5)),  # intermediate pivot chain
    ([(0, 1, 2), (2, 0, 1), (3, 0, 0)], (2, 2, 2)),
]


class TestStaircasePlans:
    """The compiled staircase against the per-trial symbolic rebuild."""

    @pytest.mark.parametrize("rows, alpha", STAIRCASE_CASES)
    @pytest.mark.parametrize("prime", [3, 5, 101, 10007])
    def test_matches_reference_on_known_supports(self, rows, alpha, prime):
        s = validate_support(rows)
        for m in range(max(alpha), max(alpha) + 5):
            args = (s, alpha, m, prime, 20, m)
            assert staircase_verify(*args) == reference_staircase_verify(*args)

    def test_matches_reference_on_random_supports(self):
        rng = random.Random(14)
        reasons = set()
        compared = 0
        while compared < 150:
            nv = rng.randint(2, 4)
            rows = {tuple(rng.randint(0, 5) for _ in range(nv)) for _ in range(rng.randint(2, 4))}
            rows.discard((0,) * nv)
            if len(rows) < 2:
                continue
            s = raw_support(rows)
            alpha = tuple(rng.randint(1, 3) for _ in range(nv))
            if not is_feasible(s, alpha):
                continue
            args = (s, alpha, max(alpha) + rng.randint(0, 3), rng.choice([3, 5, 7, 11, 101]), 12, compared)
            result = staircase_verify(*args)
            assert result == reference_staircase_verify(*args), args
            reasons.update(result.failure_reasons)
            compared += 1
        assert reasons == {"no_nonzero_root", "pivot_derivative_vanishes"}

    def test_matches_reference_on_first_chain_supports(self):
        # random supports seldom have a first chain (n0' > n0); a binary form
        # of degree d plus z of order above d has one, and z times x and y
        # in place of z alone makes the pivot derivative g vary
        rng = random.Random(26)
        reasons = set()
        first_chain = compared = 0
        while compared < 60:
            d = rng.randint(2, 4)
            form = {(a, d - a, 0) for a in rng.sample(range(d + 1), rng.randint(2, d + 1))}
            s = raw_support(form | rng.choice([{(0, 0, 1)}, {(1, 0, 1), (0, 1, 1)}]))
            alpha = (1, 1, d + rng.randint(1, 2))
            if not is_feasible(s, alpha):
                continue
            m = max(alpha) + rng.randint(0, 3)
            args = (s, alpha, m, rng.choice([3, 5, 7, 11, 101]), 12, compared)
            result = staircase_verify(*args)
            assert result == reference_staircase_verify(*args), args
            reasons.update(result.failure_reasons)
            cert, pivots = _pivot_schedule(s, weight_data(s, alpha), m)
            # a trial that passed solved the first chain's steps
            first_chain += cert.pivot_order > min(pivots) and result.successes > 0
            compared += 1
        assert first_chain >= 20, first_chain
        assert reasons == {"no_nonzero_root", "pivot_derivative_vanishes", "linear_pivot_coefficient_vanishes"}

    def test_failure_reasons(self):
        s = validate_support([(0, 1, 2), (2, 0, 1), (3, 0, 0)])
        result = staircase_verify(s, (2, 2, 2), m=4, prime=5, trials=10, seed=0)
        assert result.successes == 7
        assert result.failure_reasons == ("no_nonzero_root", "pivot_derivative_vanishes")

    def test_window_monomial_bound(self):
        # over the integers every multiset of superscripts within the cut appears
        rng = random.Random(3)
        for _ in range(40):
            nv = rng.randint(1, 3)
            s = raw_support({tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(3)} - {(0,) * nv})
            alpha = tuple(rng.randint(1, 2) for _ in range(nv))
            m = max(alpha) + rng.randint(0, 2)
            exp = expand(s, [1] * len(s.exponents), alpha, m=m)
            bound = _window_monomial_bound(s, alpha, m, m)
            assert sum(len(poly) for poly in exp.terms.values()) <= bound

    def test_window_monomial_bound_at_the_cut(self):
        # x^60 at weight 60 has one unit of slack below the cut 61, so each of
        # its 60 superscripts is 1 or 2: 61 monomials, not C(120, 60); and
        # x^(10^20) lies past the cut, with none
        s = validate_support([(60, 0), (0, 1)])
        assert _window_monomial_bound(s, (1, 1), 61, 61) == 61 + 61
        exp = expand(s, [1, 1], (1, 1), m=61)
        assert sum(len(poly) for poly in exp.terms.values()) == 2 + 61
        assert _window_monomial_bound(validate_support([(10**20, 0), (0, 1)]), (1, 1), 2, 2) == 2

    def test_window_monomial_bound_left_uncounted(self):
        # C(s + I_j, I_j) >= 2^min(s, I_j), which is not computed past 63;
        # a count over 2^63 is not returned either
        assert _window_monomial_bound(validate_support([(20, 0), (0, 1)]), (1, 1), 40, 40) == math.comb(40, 20) + 40
        s = validate_support([(70, 0), (0, 1)])
        assert _window_monomial_bound(s, (1, 1), 140, 140) is None
        big = validate_support([(10**8, 0), (0, 1)])
        started = time.perf_counter()
        assert _window_monomial_bound(big, (1, 1), 2 * 10**8, 2 * 10**8) is None
        assert time.perf_counter() - started < 1.0
        # four factors of about 10^1173 each, past the 4300 digits that int to str converts
        wide = validate_support([(10**20,) * 4 + (0,), (0, 0, 0, 0, 1)])
        assert _window_monomial_bound(wide, (1,) * 5, 4 * 10**20 + 63, 4 * 10**20 + 63) is None
        # a limit above sys.maxsize counts as sys.maxsize: no list holds more
        for limit, shown in ((1000, 1000), (2**100, sys.maxsize)):
            with pytest.raises(LimitError, match=rf"^oracle expand: over 2\^63 window monomials exceed the limit \({shown}\)$"):
                expand(s, [1, 1], (1, 1), 140, max_points=limit)

    def test_staircase_cut_is_its_last_equation(self):
        # the staircase expands up to its last equation G_(m + mu), and its
        # guard's bound at that cut covers the expansion
        rng = random.Random(33)
        checked = 0
        while checked < 60:
            nv = rng.randint(2, 3)
            rows = {tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(2, 4))} - {(0,) * nv}
            alpha = tuple(rng.randint(1, 3) for _ in range(nv))
            if len(rows) < 2 or not is_feasible(s := raw_support(rows), alpha):
                continue
            m = max(alpha) + rng.randint(0, 4)
            record = weight_data(s, alpha)
            _, pivots = _pivot_schedule(s, record, m)
            cut = m + record.pivot_gap
            assert max(pivots) == cut
            terms = sum(len(p) for e in s.exponents for p in _expand_single_monomial(e, alpha, m, cut).values())
            assert terms <= _window_monomial_bound(s, alpha, m, cut)
            checked += 1

    def test_limits(self):
        alpha, m, trials = (2, 1, 2), 8, 5
        bound = _window_monomial_bound(WHITNEY, alpha, m, m)
        # the staircase cuts at its last equation, G_(m + mu)
        cut_bound = _window_monomial_bound(WHITNEY, alpha, m, m + weight_data(WHITNEY, alpha).pivot_gap)
        args = (WHITNEY, alpha, m, 101, trials, 1)
        assert staircase_verify(*args, max_points=cut_bound * trials) == staircase_verify(*args)
        with pytest.raises(LimitError, match=rf"^oracle staircase: up to {cut_bound} window monomials times {trials} trials"):
            staircase_verify(*args, max_points=cut_bound * trials - 1)
        assert expand(WHITNEY, [1, 1], alpha, m, max_points=bound) == expand(WHITNEY, [1, 1], alpha, m)
        with pytest.raises(LimitError, match=rf"^oracle expand: up to {bound} window monomials"):
            expand(WHITNEY, [1, 1], alpha, m, max_points=bound - 1)
        # an infeasible tuple expands nothing, so no limit refuses it
        assert staircase_verify(WHITNEY, (1, 1, 1), m, 101, trials, max_points=0).empty

    def test_refusals_build_no_window(self):
        # the window holds m - alpha_j + 1 superscripts of each variable, 3 * 10^5
        # entries here (tens of MB), so a small peak shows that neither the
        # refusal nor the infeasible tuple built it.  m stays this small so
        # that a regression cannot turn into a runaway allocation
        m = 10**5
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match=r"^oracle staircase: up to"):
                staircase_verify(WHITNEY, (2, 1, 2), m, 101, 5, max_points=1000)
            empty = staircase_verify(WHITNEY, (1, 1, 1), m, 101, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (empty.empty, empty.window_size) == (True, 3 * m)
        assert peak < 10**6


# a binary quadratic form plus a variable of higher order: the pivot x of
# the base step is solved on a x^2 + b xy + c y^2, and the chain step after
# it has c1 = 2a x + b y, which vanishes at the double root of b^2 = 4ac
QUADRATIC_FORM = ([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)], (1, 1, 3))


class TestStaircaseBlocks:
    """The blocked linear steps and re-check of `staircase_verify`."""

    @staticmethod
    def prime_below(bound):
        p = bound - 2 if bound % 2 else bound - 1
        while True:
            try:
                oracle._require_odd_prime(p)
                return p
            except OracleError:
                p -= 2

    def test_draw_matches_randrange(self):
        widths = [1, 3, 101, 2**31 - 1, self.prime_below(oracle._PRIME_BOUND)]
        widths += [2**e + d for e in range(1, 70, 7) for d in (-1, 0, 1)]
        for width in widths:
            for lo in (0, 1):
                for seed in range(60):
                    drawn, expected = random.Random(seed), random.Random(seed)
                    got = [oracle._draw(drawn.getrandbits, lo, lo + width) for _ in range(4)]
                    assert got == [expected.randrange(lo, lo + width) for _ in range(4)], (width, seed)
                    assert drawn.getstate() == expected.getstate()

    @pytest.mark.parametrize("prime", [5, 7])
    def test_linear_pivot_coefficient_vanishes_at_a_double_root(self, prime):
        s = validate_support(QUADRATIC_FORM[0])
        for m in range(3, 6):
            args = (s, QUADRATIC_FORM[1], m, prime, 60, m)
            result = staircase_verify(*args)
            assert result == reference_staircase_verify(*args)
            assert "linear_pivot_coefficient_vanishes" in result.failure_reasons
            assert 0 < result.successes < 60

    def test_every_trial_drops_where_the_chain_loses_its_pivot(self):
        # over F_3 the cube x^3 has a triple root, and k(M) = 3 removes the
        # pivot from the chain equation altogether
        s = validate_support([(3, 0, 0), (0, 3, 0), (0, 0, 1)])
        args = (s, (1, 1, 4), 5, 3, 30, 2)
        result = staircase_verify(*args)
        assert result == reference_staircase_verify(*args)
        assert (result.successes, result.failure_reasons) == (0, ("linear_pivot_coefficient_vanishes",))

    @pytest.mark.parametrize(
        "rows, alpha, m, prime",
        [
            ([(2, 0, 0), (0, 2, 1)], (2, 1, 2), 4, 101),
            (*QUADRATIC_FORM, 4, 5),
            ([(4, 0, 0), (0, 4, 0), (1, 1, 1)], (1, 1, 5), 6, 101),
        ],
    )
    def test_block_boundaries(self, rows, alpha, m, prime):
        s = validate_support(rows)
        block = oracle._BLOCK
        for trials in (block - 1, block, block + 1, 2 * block + 1):
            args = (s, alpha, m, prime, trials, trials)
            assert staircase_verify(*args) == reference_staircase_verify(*args)

    def test_first_chain_coefficient_is_not_read_where_that_chain_is_empty(self):
        # n0' = n0 = 12, so every step is on the second chain; over F_3 the
        # solve variable x2 enters the initial form a0 x1^2 x2^3 + a1 x1^4
        # only cubed, so f' = 0 at every root and still every trial succeeds
        s = validate_support([(0, 4, 2), (3, 0, 4), (0, 4, 0), (0, 2, 3)])
        alpha = (2, 3, 2)
        cert, pivots = _pivot_schedule(s, weight_data(s, alpha), 5)
        assert cert.pivot_order == min(pivots) == 12
        args = (s, alpha, 5, 3, 20, 0)
        result = staircase_verify(*args)
        assert result == reference_staircase_verify(*args)
        assert (result.successes, result.failure_reasons) == (20, ())

    @pytest.mark.parametrize("chain, equation", [(-2, 3), (-1, 4)])
    def test_a_wrong_chain_inverse_fails_the_recheck(self, monkeypatch, chain, equation):
        # both chains are nonempty: G_3 is solved on the first, G_4 and G_5 on the second
        blocks = []
        monkeypatch.setattr(oracle, "_solve_block", lambda *block: blocks.append(block))
        staircase_verify(validate_support(QUADRATIC_FORM[0]), QUADRATIC_FORM[1], 5, 101, 20, 0)
        monkeypatch.undo()
        [(rows, steps, checks, prime)] = blocks
        oracle._solve_block(rows, steps, checks, prime)  # the rows as recorded pass
        for row in rows:
            row[chain] = row[chain] % (prime - 1) + 1
        with pytest.raises(AssertionError, match=rf"^staircase produced a non-solution at equation {equation}$"):
            oracle._solve_block(rows, steps, checks, prime)

    @staticmethod
    def chain_coefficients_agree(support, alpha, m, rng):
        """Check each step's pivot coefficient at random values; returns the steps checked per chain.

        On the first chain it is the derivative of the initial form in the
        solve variable at the lowest values, and on the second the pivot
        derivative g there.
        """
        cert, pivots = _pivot_schedule(support, weight_data(support, alpha), m)
        n0 = min(pivots)
        jp = pivots[n0][0]
        window = [(j, u) for j in range(support.num_vars) for u in range(alpha[j], m + 1)]
        slot = {var: s for s, var in enumerate(window)}
        per_monomial = [_expand_single_monomial(e, alpha, m, max(pivots)) for e in support.exponents]
        for prime in (3, 5, 7, 101):
            values = [rng.randrange(prime) for _ in window]
            coeffs = [rng.randrange(1, prime) for _ in support.exponents]
            lowest = [values[slot[(j, a)]] for j, a in enumerate(alpha)]
            derivative = 0
            for mult, i, expo in cert.initial_form.terms:
                if expo[jp]:
                    lowered = [e - (j == jp) for j, e in enumerate(expo)]
                    derivative += mult * coeffs[i] * expo[jp] * math.prod(map(pow, lowest, lowered))
            derivative %= prime
            g = cert.pivot_coefficient.evaluate(coeffs, lowest, prime)
            for k in range(n0 + 1, max(pivots) + 1):
                plan, _, _ = _compile_equation(per_monomial, k, pivots[k], slot, prime)
                linear = _collapse(plan, (values + coeffs).__getitem__, prime)[1]
                expected = derivative if k <= cert.pivot_order else g
                assert linear == expected, (support, alpha, m, prime, k)
        return cert.pivot_order - n0, max(pivots) - cert.pivot_order

    def test_each_chain_has_one_pivot_coefficient(self):
        rng = random.Random(25)
        pool = json.loads((PERFBENCH / "pool.json").read_text(encoding="utf-8"))
        cases = [(validate_support(pair["support"]), tuple(pair["alpha"])) for pair in pool["oracle_pairs"]]
        while len(cases) < 440:
            nv = rng.randint(2, 3)
            rows = {tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(rng.randint(2, 4))}
            rows.discard((0,) * nv)
            if len(rows) < 2:
                continue
            s = raw_support(rows)
            alpha = tuple(rng.randint(1, 3) for _ in range(nv))
            if is_feasible(s, alpha):
                cases.append((s, alpha))
        # random supports seldom have a first chain; a binary form of degree
        # d plus z of order above d always has one, of length alpha_z - d
        while len(cases) < 540:
            d = rng.randint(2, 4)
            form = {(a, d - a, 0) for a in rng.sample(range(d + 1), rng.randint(2, d + 1))}
            cases.append((raw_support(form | {(0, 0, 1)}), (1, 1, d + rng.randint(1, 2))))
        first = second = 0
        for s, alpha in cases:
            for m in range(max(alpha) + 1, max(alpha) + 4):
                on_first, on_second = self.chain_coefficients_agree(s, alpha, m, rng)
                first, second = first + on_first, second + on_second
        assert min(first, second) > 400, (first, second)

    def test_memory_is_bounded_by_the_block(self):
        def peak(trials):
            tracemalloc.start()
            try:
                staircase_verify(WHITNEY, (2, 1, 2), 4, 101, trials, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        staircase_verify(WHITNEY, (2, 1, 2), 4, 101, 1, 0)  # one-time allocations before tracing
        one_block = peak(oracle._BLOCK)
        assert peak(20 * oracle._BLOCK) <= 2 * one_block


class TestPivotSchedule:
    """The weight argument of `staircase_verify`, over the integers.

    No G_k reads the pivot of a later equation, and no G_k after the first
    holds its own pivot squared.  Checked on the exact expansion (every
    multinomial kept), so it holds for every prime.
    """

    @staticmethod
    def check(support, alpha, m):
        _, pivots = _pivot_schedule(support, weight_data(support, alpha), m)
        n0, top = min(pivots), max(pivots)
        per_monomial = [_expand_single_monomial(e, alpha, m, top) for e in support.exponents]
        for k, pivot in pivots.items():
            later = {var for k2, var in pivots.items() if k2 > k}
            for series in per_monomial:
                for mono in series.get(k, {}):
                    powers = dict(mono)
                    assert not later & powers.keys(), (support, alpha, m, k, mono)
                    assert k == n0 or powers.get(pivot, 0) <= 1, (support, alpha, m, k, mono)

    def test_pool_pairs(self):
        pool = json.loads((PERFBENCH / "pool.json").read_text(encoding="utf-8"))
        assert len(pool["oracle_pairs"]) == 40
        for pair in pool["oracle_pairs"]:
            s = validate_support(pair["support"])
            alpha = tuple(pair["alpha"])
            for offset in (2, 4, 6):  # the offsets of the benchmark's staircase and expand ops
                self.check(s, alpha, max(alpha) + offset)

    @pytest.mark.parametrize("rows, alpha", STAIRCASE_CASES)
    def test_staircase_cases(self, rows, alpha):
        s = validate_support(rows)
        if is_feasible(s, alpha):
            for m in range(max(alpha), max(alpha) + 5):
                self.check(s, alpha, m)

    def test_random_supports(self):
        rng = random.Random(15)
        checked = 0
        while checked < 1500:
            nv = rng.randint(2, 4)
            rows = {tuple(rng.randint(0, 5) for _ in range(nv)) for _ in range(rng.randint(2, 4))}
            rows.discard((0,) * nv)
            if len(rows) < 2:
                continue
            s = raw_support(rows)
            alpha = tuple(rng.randint(1, 3) for _ in range(nv))
            if not is_feasible(s, alpha):
                continue
            self.check(s, alpha, max(alpha) + rng.randint(0, 3))
            checked += 1


class TestExpansionCompositions:
    """The composition generator against the retired series multiplication."""

    @staticmethod
    def agree(support, alpha, m, upto):
        for e in support.exponents:
            ours = _expand_single_monomial(e, alpha, m, upto)
            assert ours == reference_expand_single_monomial(e, alpha, m, upto), (e, alpha, m, upto)

    def test_pool_pairs(self):
        pool = json.loads((PERFBENCH / "pool.json").read_text(encoding="utf-8"))
        for pair in pool["oracle_pairs"]:
            s = validate_support(pair["support"])
            alpha = tuple(pair["alpha"])
            mu = weight_data(s, alpha).pivot_gap
            for offset in (2, 4, 6):
                m = max(alpha) + offset
                for upto in (m, m + mu):  # expand's cut and the staircase's
                    self.agree(s, alpha, m, upto)

    @pytest.mark.parametrize("rows, alpha", STAIRCASE_CASES)
    def test_staircase_cases(self, rows, alpha):
        s = validate_support(rows)
        for m in range(max(alpha), max(alpha) + 5):
            for upto in range(m, m + 5):  # m + mu for every feasible case
                self.agree(s, alpha, m, upto)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=4),
        st.integers(0, 4),
        st.integers(-1, 6),
    )
    @example([(3, 1), (0, 2)], 0, -1)  # upto below alpha . I: nothing survives the cut
    @example([(0, 1), (0, 2)], 1, 0)  # the constant monomial
    def test_random_exponents(self, pairs, extra, past):
        exponents, alpha = (tuple(x) for x in zip(*pairs))
        m = max(alpha) + extra
        upto = m + past
        assert _expand_single_monomial(exponents, alpha, m, upto) == reference_expand_single_monomial(
            exponents, alpha, m, upto
        )


class TestTorusSample:
    def test_whitney_style_form(self):
        data = certificate_data(WHITNEY, weight_data(WHITNEY, (2, 1, 2)))
        witness = torus_point_sample(data.initial_form, data.pivot_coefficient, prime=101, trials=30, seed=7)
        assert witness is not None
        assert all(x != 0 for x in witness["point"])

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trials_rejected(self, trials):
        data = certificate_data(WHITNEY, weight_data(WHITNEY, (2, 1, 2)))
        with pytest.raises(OracleError):
            torus_point_sample(data.initial_form, data.pivot_coefficient, prime=101, trials=trials)
        monomial = GenericForm(num_vars=2, terms=((1, 0, (2, 0)),))
        with pytest.raises(OracleError):
            torus_point_sample(monomial, monomial, prime=101, trials=trials)

    def test_limit(self):
        data = certificate_data(WHITNEY, weight_data(WHITNEY, (2, 1, 2)))
        args = (data.initial_form, data.pivot_coefficient, 101, 30, 7)
        # the solve variable x2 has degree 1 and 101 has 7 bits: 30 * 1 * 7 steps
        assert torus_point_sample(*args, max_points=210) == torus_point_sample(*args)
        with pytest.raises(
            LimitError,
            match=r"^oracle torus-point: up to 210 root-finding steps \(30 trials, degree 1, 7-bit prime\)",
        ):
            torus_point_sample(*args, max_points=209)
        # a monomial has no torus zero and draws nothing, so no limit refuses it
        form = GenericForm(num_vars=2, terms=((1, 0, (2, 0)),))
        assert torus_point_sample(form, form, prime=101, trials=10, max_points=0) is None

    def test_monomial_has_no_torus_zero(self):
        form = GenericForm(num_vars=2, terms=((1, 0, (2, 0)),))
        pivot = GenericForm(num_vars=2, terms=((2, 0, (1, 0)),))
        assert torus_point_sample(form, pivot, prime=101, trials=10, seed=1) is None
        # two coefficients on one monomial are still a monomial
        form = GenericForm(num_vars=2, terms=((1, 0, (2, 0)), (1, 1, (2, 0))))
        assert torus_point_sample(form, pivot, prime=101, trials=10, seed=1) is None

    def test_two_linear_monomials(self):
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
        data = certificate_data(s, weight_data(s, alpha))
        witness = torus_point_sample(
            data.initial_form, data.pivot_coefficient, prime=10007, trials=50, seed=0
        )
        assert witness is not None
        assert staircase_verify(s, alpha, m=4, prime=10007, trials=50, seed=0).successes > 0

    def test_curve_certificate_upgrade(self):
        curve = validate_support([(2, 0), (0, 2), (1, 1), (0, 3)])
        data = certificate_data(curve, weight_data(curve, (1, 1)))
        witness = torus_point_sample(
            data.initial_form, data.pivot_coefficient, prime=10007, trials=50, seed=11
        )
        assert witness is not None


def residue_scan_roots(f, p):
    """Nonzero roots by evaluating at every residue, in ascending order."""
    roots = []
    for x in range(1, p):
        val = 0
        for c in reversed(f):
            val = (val * x + c) % p
        if val == 0:
            roots.append(x)
    return roots


class RecordingRng:
    """Stands in for random.Random: records shuffles and allows no draws."""

    def __init__(self):
        self.shuffled = []

    def shuffle(self, items):
        self.shuffled.append(list(items))


def _times_linear(poly, r, p):
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = (out[i + 1] + c) % p
        out[i] = (out[i] - r * c) % p
    return out


@st.composite
def univariate_forms(draw):
    """(f, p): a dense coefficient list of degree 2-8, lowest degree first,
    with repeated roots, a root at 0 or no roots."""
    p = draw(st.sampled_from(PRIMES))
    degree = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["random", "split", "rootless"]))
    if kind == "rootless":
        # x^k times irreducible quadratics x^2 - c, c a non-square: no nonzero root
        non_square = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        poly = [0] * (degree % 2) + [1]
        for _ in range(degree // 2):
            poly = [(a - non_square * b) % p for a, b in zip([0, 0] + poly, poly + [0, 0])]
    else:
        roots = draw(st.lists(st.integers(0, p - 1), max_size=degree if kind == "split" else degree - 2))
        roots += draw(st.lists(st.sampled_from([0, 1]), max_size=2))  # repeats and 0
        roots = roots[:degree]
        rest = degree - len(roots)
        poly = draw(st.lists(st.integers(0, p - 1), min_size=rest, max_size=rest))
        poly.append(draw(st.integers(1, p - 1)))
        for r in roots:
            poly = _times_linear(poly, r, p)
    return poly, p


class TestQuadraticRoots:
    """The closed form for quadratics against Cantor-Zassenhaus."""

    @staticmethod
    def agree(f, p, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        roots = _nonzero_roots(f, p, ours)
        assert roots == reference_nonzero_roots(f, p, theirs), (f, p)
        assert ours.getstate() == theirs.getstate()
        return len(roots)

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_every_monic_quadratic(self, p):
        counts = [0, 0, 0]
        for b, c in product(range(p), repeat=2):
            counts[self.agree([c, b, 1], p, b * p + c)] += 1
        assert all(counts)

    @pytest.mark.parametrize("p", [10007, 65537, 998244353, 2**61 - 1])
    def test_random_quadratics(self, p):
        # random forms, then a double root, a root at 0 and two random roots
        rng = random.Random(p)
        counts = [0, 0, 0]
        for trial in range(400):
            if trial % 4 == 0:
                c, b = rng.randrange(p), rng.randrange(p)
            else:
                r1 = rng.randrange(p)
                r2 = [r1, 0, rng.randrange(p)][trial % 4 - 1]
                c, b = r1 * r2 % p, -(r1 + r2) % p
            lead = rng.randrange(1, p)
            counts[self.agree([x * lead % p for x in (c, b, 1)], p, trial)] += 1
        assert all(counts)

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 101, 7681, 65537, 998244353, 2**61 - 1])
    def test_square_root(self, p):
        # 2-adic parts of p - 1 from 1 (3, 2^61 - 1) to 23 (998244353)
        rng = random.Random(p)
        for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(100)]:
            root = _sqrt_mod(x * x % p, p)
            assert root in (x, p - x if x else 0)


class TestRootFinderEndToEnd:
    def test_corpus_oracle_ops_match_reference_root_finder(self, tmp_path, monkeypatch):
        # the staircase and torus-point ops of the hyper-oracle corpus, seed 1
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import corpus

        ops = [op for op in corpus.build("hyper-oracle", 1, str(tmp_path)) if op.kind in ("staircase", "torus")]
        assert len(ops) == 160

        def run():
            outputs = []
            for op in ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(op.argv))
                outputs.append((code, out.getvalue()))
            return outputs

        ours = run()
        monkeypatch.setattr(oracle, "_nonzero_roots", reference_nonzero_roots)
        assert run() == ours

    def test_torus_point_refuses_a_non_root(self, tmp_path, monkeypatch):
        # a root of the collapsed form that misses the initial form is a
        # fault in the collapse, not "no witness"
        def non_root(f, prime, rng):
            return [next(r for r in range(1, prime) if sum(c * pow(r, d, prime) for d, c in enumerate(f)) % prime)]

        monkeypatch.setattr(oracle, "_nonzero_roots", non_root)
        path = tmp_path / "whitney.json"
        path.write_text(json.dumps({"vars": 3, "support": [[2, 0, 0], [0, 2, 1]]}))
        with pytest.raises(AssertionError, match="misses the initial form"):
            cli.main(["oracle", "torus-point", "--support", str(path), "--alpha", "2,1,2", "--prime", "101"])


class TestNonzeroRoots:
    @settings(max_examples=300, deadline=None)
    @given(univariate_forms())
    @example(([1, 0, 1], 7))  # x^2 + 1 has no root over F_7
    @example(([0, 0, 0, 1], 101))  # only the root 0
    def test_agrees_with_residue_scan(self, case):
        f, p = case
        assert len(f) >= 3 and f[-1]
        rng = RecordingRng()
        roots = _nonzero_roots(f, p, rng)
        expected = residue_scan_roots(f, p)
        assert rng.shuffled == [expected]
        assert sorted(roots) == expected
        # zero entries above the top degree are ignored
        assert sorted(_nonzero_roots(f + [0, 0], p, RecordingRng())) == expected

    def test_linear_power_matches_square_and_multiply(self):
        rng = random.Random(5)
        for p in (3, 5, 7, 101, 10007, 2147483647):
            for _ in range(200):
                f = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
                a = rng.randrange(p)
                e = rng.choice([rng.randint(1, 64), p - 1, (p - 1) // 2])
                base = _divmod([a, 1], f, p)[1]
                assert _powmod_minus_one(a, e, f, p) == reference_powmod_minus_one(base, e, f, p)

    def test_large_prime_cubic(self):
        p = 2147483647
        r = (12345, 999999, 2**30)
        f = [
            -r[0] * r[1] * r[2] % p,
            (r[0] * r[1] + r[0] * r[2] + r[1] * r[2]) % p,
            -sum(r) % p,
            1,
        ]
        assert _nonzero_roots(f, p, RecordingRng()) == sorted(r)
