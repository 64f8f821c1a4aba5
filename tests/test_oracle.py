import contextlib
import io
import json
import math
import pathlib
import random
import time
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
        from mldhat.hypersurface import certificate_data as cdata

        cert = cdata(s, alpha)
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

    def test_failure_reasons(self):
        s = validate_support([(0, 1, 2), (2, 0, 1), (3, 0, 0)])
        result = staircase_verify(s, (2, 2, 2), m=4, prime=5, trials=10, seed=0)
        assert result.successes == 7
        assert result.failure_reasons == ("no_nonzero_root", "pivot_derivative_vanishes")

    def test_window_monomial_bound(self):
        # over the integers every multiset of superscripts appears, so with
        # the weight cut above the top weight the bound is the exact count
        rng = random.Random(3)
        for _ in range(40):
            nv = rng.randint(1, 3)
            s = raw_support({tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(3)} - {(0,) * nv})
            alpha = tuple(rng.randint(1, 2) for _ in range(nv))
            m = max(alpha) + rng.randint(0, 2)
            exp = expand(s, [1] * len(s.exponents), alpha, m=m)
            bound = _window_monomial_bound(s, alpha, m)
            assert sum(len(poly) for poly in exp.terms.values()) <= bound

    def test_limits(self):
        alpha, m, trials = (2, 1, 2), 8, 5
        bound = _window_monomial_bound(WHITNEY, alpha, m)
        args = (WHITNEY, alpha, m, 101, trials, 1)
        assert staircase_verify(*args, max_points=bound * trials) == staircase_verify(*args)
        with pytest.raises(LimitError, match=r"^oracle staircase: up to"):
            staircase_verify(*args, max_points=bound * trials - 1)
        assert expand(WHITNEY, [1, 1], alpha, m, max_points=bound) == expand(WHITNEY, [1, 1], alpha, m)
        with pytest.raises(LimitError, match=rf"^oracle expand: up to {bound} window monomials"):
            expand(WHITNEY, [1, 1], alpha, m, max_points=bound - 1)
        # an infeasible tuple expands nothing, so no limit refuses it
        assert staircase_verify(WHITNEY, (1, 1, 1), m, 101, trials, max_points=0).empty


class TestPivotSchedule:
    """The weight argument of `staircase_verify`, over the integers.

    No G_k reads the pivot of a later equation, and no G_k after the first
    holds its own pivot squared.  Checked on the exact expansion (every
    multinomial kept), so it holds for every prime.
    """

    @staticmethod
    def check(support, alpha, m):
        _, pivots = _pivot_schedule(support, alpha, m)
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
        data = certificate_data(WHITNEY, (2, 1, 2))
        witness = torus_point_sample(data.initial_form, data.pivot_coefficient, prime=101, trials=30, seed=7)
        assert witness is not None
        assert all(x != 0 for x in witness["point"])

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trials_rejected(self, trials):
        data = certificate_data(WHITNEY, (2, 1, 2))
        with pytest.raises(OracleError):
            torus_point_sample(data.initial_form, data.pivot_coefficient, prime=101, trials=trials)
        monomial = GenericForm(num_vars=2, terms=((1, 0, (2, 0)),))
        with pytest.raises(OracleError):
            torus_point_sample(monomial, monomial, prime=101, trials=trials)

    def test_limit(self):
        data = certificate_data(WHITNEY, (2, 1, 2))
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


def residue_scan_roots(uni, p):
    """Nonzero roots by evaluating at every residue, in ascending order."""
    dense = [uni.get(d, 0) for d in range(max(uni, default=0), -1, -1)]
    roots = []
    for x in range(1, p):
        val = 0
        for c in dense:
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
    """(uni, p): degree 2-8, with repeated roots, a root at 0 or no roots."""
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
    return {d: c for d, c in enumerate(poly) if c}, p


class TestQuadraticRoots:
    """The closed form for quadratics against Cantor-Zassenhaus."""

    @staticmethod
    def agree(uni, p, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        roots = _nonzero_roots(dict(uni), p, ours)
        assert roots == reference_nonzero_roots(dict(uni), p, theirs), (uni, p)
        assert ours.getstate() == theirs.getstate()
        return len(roots)

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_every_monic_quadratic(self, p):
        counts = [0, 0, 0]
        for b, c in product(range(p), repeat=2):
            counts[self.agree({d: x for d, x in enumerate((c, b, 1)) if x}, p, b * p + c)] += 1
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
            uni = {d: x * lead % p for d, x in enumerate((c, b, 1)) if x}
            counts[self.agree(uni, p, trial)] += 1
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
        def non_root(uni, prime, rng):
            return [next(r for r in range(1, prime) if sum(c * pow(r, d, prime) for d, c in uni.items()) % prime)]

        monkeypatch.setattr(oracle, "_nonzero_roots", non_root)
        path = tmp_path / "whitney.json"
        path.write_text(json.dumps({"vars": 3, "support": [[2, 0, 0], [0, 2, 1]]}))
        with pytest.raises(AssertionError, match="misses the initial form"):
            cli.main(["oracle", "torus-point", "--support", str(path), "--alpha", "2,1,2", "--prime", "101"])


class TestNonzeroRoots:
    @settings(max_examples=300, deadline=None)
    @given(univariate_forms())
    @example(({2: 1, 0: 1}, 7))  # x^2 + 1 has no root over F_7
    @example(({3: 1}, 101))  # only the root 0
    def test_agrees_with_residue_scan(self, case):
        uni, p = case
        assert max(uni) >= 2
        rng = RecordingRng()
        roots = _nonzero_roots(dict(uni), p, rng)
        expected = residue_scan_roots(uni, p)
        assert rng.shuffled == [expected]
        assert sorted(roots) == expected

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
        uni = {
            0: -r[0] * r[1] * r[2] % p,
            1: (r[0] * r[1] + r[0] * r[2] + r[1] * r[2]) % p,
            2: -sum(r) % p,
            3: 1,
        }
        assert _nonzero_roots(uni, p, RecordingRng()) == sorted(r)
