"""Acceptance suite: one test per headline criterion, timed where required.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import itertools
import random
import time
from math import gcd

from mldhat.cones import Cone, ConeError, dual_cone
from mldhat.hilbert import hilbert_basis
from mldhat.hypersurface import (
    binomial_lambda,
    hypersurface_report,
    is_feasible,
    minimize_objective,
    objective,
    validate_support,
    weight_data,
)
from mldhat.lattice import pairing, rank_of
from mldhat.oracle import expand, staircase_verify
from mldhat.toric import minimize_spanning_cost
from reference_kernels import basis_greedy, determinant, has_isolated_fixed_point, is_simplicial
from test_toric import spanning_cost_bruteforce


def report_pass(number, message):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def ade_support(kind, k=None, nvars=3):
    quad = [tuple(2 if j == i else 0 for j in range(nvars)) for i in range(2, nvars)]
    if kind == "A":
        lead = [tuple([k + 1] + [0] * (nvars - 1)), tuple([0, 2] + [0] * (nvars - 2))]
    elif kind == "D":
        lead = [tuple([k - 1] + [0] * (nvars - 1)), tuple([1, 2] + [0] * (nvars - 2))]
    elif kind == "E6":
        lead = [tuple([4] + [0] * (nvars - 1)), tuple([0, 3] + [0] * (nvars - 2))]
    elif kind == "E7":
        lead = [tuple([3, 1] + [0] * (nvars - 2)), tuple([0, 3] + [0] * (nvars - 2))]
    elif kind == "E8":
        lead = [tuple([5] + [0] * (nvars - 1)), tuple([0, 3] + [0] * (nvars - 2))]
    else:
        raise ValueError(kind)
    return validate_support(lead + quad)


def random_2d_pointed_cone(rng, bound):
    while True:
        g1 = tuple(rng.randint(-bound, bound) for _ in range(2))
        g2 = tuple(rng.randint(-bound, bound) for _ in range(2))
        if not any(g1) or not any(g2):
            continue
        try:
            c = Cone.from_generators(2, [g1, g2])
        except ConeError:
            continue
        if c.is_full_dimensional:
            return c


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += c * m[j][col]
    perm = list(range(n))
    rng.shuffle(perm)
    return [m[p] for p in perm]


def test_criterion_1_toric_headline_example():
    started = time.perf_counter()
    cone = Cone.from_generators(2, [(2, -1), (0, 1)])
    report = minimize_spanning_cost(cone)
    elapsed = time.perf_counter() - started
    assert report.lambda_value == 0
    assert report.mather_mld == 2
    assert elapsed < 1.0
    report_pass(1, f"cone((2,-1),(0,1)) gives lambda=0, mld-hat=2 in {elapsed:.3f}s")


def test_criterion_2_surface_law():
    rng = random.Random(20_240_817)
    cones = [random_2d_pointed_cone(rng, 8) for _ in range(100)]
    started = time.perf_counter()
    for c in cones:
        report = minimize_spanning_cost(c)
        assert report.lambda_value == 0, c.generators
        assert report.fast_path == "none"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(2, f"100 random surface cones all have lambda=0 by general search in {elapsed:.1f}s")


def test_criterion_3_simplicial_isolated():
    rng = random.Random(33)
    cones = []
    while len(cones) < 12:
        t = rng.randint(2, 5)
        a1, a2 = rng.randint(0, t - 1), rng.randint(0, t - 1)
        if gcd(a1, t) != 1 or gcd(a2, t) != 1:
            continue
        rays = [(1, 0, 0), (0, 1, 0), (a1, a2, t)]
        u = random_unimodular(rng, 3)
        rays = [
            tuple(sum(u[i][j] * r[j] for j in range(3)) for i in range(3))
            for r in rays
        ]
        c = Cone.from_generators(3, rays)
        if is_simplicial(c) and has_isolated_fixed_point(c):
            cones.append(c)
    for c in cones:
        report = minimize_spanning_cost(c)
        assert report.lambda_value == 0, c.generators
    report_pass(3, f"{len(cones)} simplicial cones with isolated fixed point all have lambda=0")


def test_criterion_4_hilbert_basis():
    dual = Cone.from_generators(2, [(1, 0), (1, 2)])
    basis = hilbert_basis(dual)
    assert basis.elements == ((1, 0), (1, 1), (1, 2))
    report_pass(4, "minimal generators of the cone((1,0),(1,2)) semigroup are exactly the expected three")


def test_criterion_5_greedy_equals_bruteforce():
    rng = random.Random(55)
    cones = []
    while len(cones) < 30:
        n = 2 if len(cones) % 2 == 0 else 3
        while True:
            k = rng.randint(n, n + 1)
            gens = [
                tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)
            ]
            gens = [g for g in gens if any(g)]
            if not gens or rank_of(gens) < n:
                continue
            try:
                c = Cone.from_generators(n, gens)
                break
            except ConeError:
                continue
        d = dual_cone(c)
        volume = sum(
            abs(determinant([list(r) for r in combo]))
            for combo in itertools.combinations(d.generators, n)
            if rank_of(combo) == n
        )
        if volume > 800:
            continue
        hb = hilbert_basis(d)
        if len(hb.elements) > 14:
            continue
        cones.append((c, d, hb))
    pairs = 0
    for c, d, hb in cones:
        for _ in range(10):
            coeffs = [rng.randint(1, 3) for _ in c.generators]
            a = tuple(
                sum(x * g[j] for x, g in zip(coeffs, c.generators))
                for j in range(c.ambient_rank)
            )
            assert basis_greedy(a, hb).value == spanning_cost_bruteforce(a, hb, d).value
            pairs += 1
    assert pairs == 300
    report_pass(5, "greedy spanning cost equals exhaustive minimum on 300 random instances")


def test_criterion_6_binomial_closed_form():
    whitney = validate_support([(2, 0, 0), (0, 2, 1)])
    result = binomial_lambda(whitney)
    assert result.value == 1
    report = hypersurface_report(whitney)
    assert report.lambda_lower_bound == 1
    assert report.mather_mld_lower_bound == 3
    assert report.status == "EXACT"

    toric_threefold = validate_support([(1, 1, 1, 0), (0, 0, 0, 2)])
    result2 = binomial_lambda(toric_threefold)
    assert result2.value == 1
    report_pass(6, "binomial closed form: x^2 - y^2 z has lambda=1, mld-hat=3; x1 x2 x3 - y^2 has lambda=1")


def test_criterion_7_ade_regression_table():
    rows = []
    for k in (1, 2, 5):
        started = time.perf_counter()
        report = hypersurface_report(ade_support("A", k=k))
        elapsed = time.perf_counter() - started
        assert report.lambda_lower_bound == 0 and report.status == "EXACT"
        assert elapsed < 10.0
        rows.append(f"A_{k}: 0")
    for k, expect_witness in ((4, False), (5, False), (6, True), (7, True)):
        s = ade_support("D", k=k)
        started = time.perf_counter()
        report = hypersurface_report(s)
        result = minimize_objective(s)
        elapsed = time.perf_counter() - started
        assert report.lambda_lower_bound == 1 and report.status == "EXACT"
        assert (2, 1, 2) in result.minimizers  # the stated tuple attains the minimum
        if expect_witness:
            assert report.witness_alpha == (2, 1, 2)
        assert elapsed < 10.0
        rows.append(f"D_{k}: 1 at (2,1,2)")
    for k in (5, 6):
        report = hypersurface_report(ade_support("D", k=k, nvars=4))
        assert report.lambda_lower_bound == 0 and report.status == "EXACT"
        rows.append(f"D_{k} in 4 vars: 0")
    started = time.perf_counter()
    report = hypersurface_report(ade_support("E6"))
    elapsed = time.perf_counter() - started
    assert report.lambda_lower_bound == 1 and report.status == "EXACT"
    assert report.witness_alpha == (1, 2, 2)
    assert elapsed < 10.0
    rows.append("E6: 1 at (1,2,2)")

    s = ade_support("E7")
    started = time.perf_counter()
    report = hypersurface_report(s)
    result = minimize_objective(s)
    elapsed = time.perf_counter() - started
    assert report.lambda_lower_bound == 2 and report.status == "EXACT"
    assert (2, 2, 3) in result.minimizers
    assert elapsed < 10.0
    rows.append("E7: 2 at (2,2,3)")

    started = time.perf_counter()
    report = hypersurface_report(ade_support("E8"))
    elapsed = time.perf_counter() - started
    assert report.lambda_lower_bound == 2 and report.status == "EXACT"
    assert report.witness_alpha == (2, 2, 3)
    assert elapsed < 10.0
    rows.append("E8: 2 at (2,2,3)")
    report_pass(7, "ADE table EXACT with certificates: " + "; ".join(rows))


def test_criterion_8_curve_example():
    curve = validate_support([(2, 0), (0, 2), (1, 1), (0, 3)])
    report = hypersurface_report(curve)
    assert report.lambda_lower_bound == 0
    assert report.witness_alpha == (1, 1)
    assert report.status == "EXACT"
    assert report.certificate.kind == "torus_zero_criterion"
    report_pass(8, "plane curve support gives bound 0 at (1,1), EXACT via the torus-zero criterion")


def test_criterion_9_oracle_agreement():
    whitney = validate_support([(2, 0, 0), (0, 2, 1)])
    result = staircase_verify(whitney, (2, 1, 2), m=8, prime=10007, trials=50, seed=1)
    assert result.estimated_dim == 15
    assert result.successes >= 45  # at least 90 percent

    a1 = validate_support([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    result2 = staircase_verify(a1, (1, 1, 1), m=5, prime=101, trials=60, seed=2)
    assert result2.estimated_dim == 10
    assert result2.successes > 0
    report_pass(
        9,
        f"staircase oracle: Whitney dim 15 with {result.successes}/50 successes; "
        f"A1 surface dim 10 with {result2.successes}/60 successes",
    )


def test_criterion_10_invariant_suites():
    rng = random.Random(1010)
    # spanning-cost invariants on random cones
    for _ in range(25):
        n = rng.randint(2, 3)
        while True:
            gens = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
            if rank_of(gens) < n:
                continue
            try:
                c = Cone.from_generators(n, gens)
                break
            except ConeError:
                continue
        hb = hilbert_basis(dual_cone(c))
        coeffs = [rng.randint(1, 3) for _ in c.generators]
        coeffs_b = [rng.randint(1, 3) for _ in c.generators]
        a = tuple(
            sum(x * g[j] for x, g in zip(coeffs, c.generators)) for j in range(n)
        )
        b = tuple(
            sum(x * g[j] for x, g in zip(coeffs_b, c.generators)) for j in range(n)
        )
        cost_a = basis_greedy(a, hb).value
        assert cost_a >= n
        assert basis_greedy(tuple(2 * x for x in a), hb).value == 2 * cost_a
        ab = tuple(x + y for x, y in zip(a, b))
        assert (
            basis_greedy(ab, hb).value
            >= cost_a + basis_greedy(b, hb).value
        )

    # objective and pivot-gap nonnegativity on 1000 random feasible tuples
    feasible_checked = 0
    while feasible_checked < 1000:
        nv = rng.randint(2, 3)
        rows = set()
        while len(rows) < rng.randint(2, 4):
            rows.add(tuple(rng.randint(0, 3) for _ in range(nv)))
        try:
            s = validate_support(sorted(rows))
        except Exception:
            continue
        orders = tuple(rng.randint(1, 5) for _ in range(s.num_vars))
        if not is_feasible(s, orders):
            continue
        assert weight_data(s, orders).pivot_gap >= 0
        assert objective(s, orders) >= 0
        feasible_checked += 1

    # weight invariant of generated expansion coefficients
    whitney = validate_support([(2, 0, 0), (0, 2, 1)])
    for alpha, m in (((2, 1, 2), 6), ((1, 1, 1), 4), ((3, 1, 4), 8)):
        exp = expand(whitney, [1, 1], alpha, m=m)
        for s_val, poly in exp.terms.items():
            for mono in poly:
                assert sum(u * e for ((_, u), e) in mono) == s_val

    # biduality on random cones
    for _ in range(100):
        n = rng.randint(2, 3)
        while True:
            k = rng.randint(n, n + 2)
            gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
            gens = [g for g in gens if any(g)]
            if not gens or rank_of(gens) < n:
                continue
            try:
                c = Cone.from_generators(n, gens)
                break
            except ConeError:
                continue
        assert dual_cone(dual_cone(c)).generators == c.generators
    report_pass(
        10,
        "invariants hold: spanning-cost homogeneity/superadditivity/lower bound, "
        "1000 nonnegative objectives, expansion weight invariant, biduality",
    )
