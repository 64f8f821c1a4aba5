import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldhat.lattice import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LatticeError,
    RationalPolytope,
    UnboundedPolytopeError,
    as_vector,
    enumerate_lattice_points,
    in_row_lattice,
    integer_kernel,
    pairing,
    primitive,
    rank_of,
    same_lattice,
    saturate,
    solve_lp_max,
)


def brute_force_points(p, radius):
    """Independent oracle: scan the integer box [-radius, radius]^n."""
    pts = []
    for pt in itertools.product(range(-radius, radius + 1), repeat=p.ambient_rank):
        if all(pairing(n, pt) >= b for n, b in p.inequalities):
            pts.append(pt)
    return pts


class TestPairing:
    def test_examples(self):
        assert pairing((1, 2), (1, 0)) == 1
        assert pairing((0, 0), (5, 7)) == 0
        assert pairing((1, 1), (1, 2)) == 3

    def test_against_bruteforce_table(self):
        # hand pairing table over a small grid
        for u in itertools.product(range(-2, 3), repeat=2):
            for a in itertools.product(range(-2, 3), repeat=2):
                expected = u[0] * a[0] + u[1] * a[1]
                assert pairing(u, a) == expected

    def test_rank_mismatch(self):
        with pytest.raises(LatticeError):
            pairing((1, 2), (1, 2, 3))

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    )
    def test_bilinear(self, u, v, a):
        left = pairing(tuple(x + y for x, y in zip(u, v)), tuple(a))
        assert left == pairing(tuple(u), tuple(a)) + pairing(tuple(v), tuple(a))


class TestAsVector:
    def test_plain_ints(self):
        assert as_vector([2, -1], 2) == (2, -1)

    @pytest.mark.parametrize("entry", [2.7, 2.0, True, "1", None, Fraction(1)])
    def test_rejects_non_integers(self, entry):
        with pytest.raises(LatticeError):
            as_vector([entry, 1])

    def test_rank_mismatch(self):
        with pytest.raises(LatticeError):
            as_vector([1, 2], 3)


class TestRank:
    def test_examples(self):
        assert rank_of([(1, 0), (0, 1)]) == 2
        assert rank_of([(1, 0), (2, 0)]) == 1
        assert rank_of([(1, 0), (1, 1), (1, 2)]) == 2

    def test_empty(self):
        assert rank_of([]) == 0

    def test_random_against_fraction_elimination(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)]
            # oracle: Gaussian elimination over Fractions
            mat = [[Fraction(e) for e in r] for r in rows]
            rank = 0
            for col in range(n):
                piv = next((i for i in range(rank, m) if mat[i][col] != 0), None)
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                for i in range(m):
                    if i != rank and mat[i][col]:
                        f = mat[i][col] / mat[rank][col]
                        mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                rank += 1
            assert rank_of(rows) == rank


class TestSaturate:
    def test_primitive_generator(self):
        basis = saturate([(2, 0)])
        assert len(basis) == 1
        assert primitive(basis[0]) == basis[0]
        assert same_lattice(basis, [(1, 0)])

    def test_identity(self):
        basis = saturate([(1, 0), (0, 1)])
        assert same_lattice(basis, [(1, 0), (0, 1)])

    def test_full_saturation_by_smith_reasoning(self):
        # the Q-span of (2,2),(0,4) is the whole plane, so the saturation is Z^2
        basis = saturate([(2, 2), (0, 4)])
        assert same_lattice(basis, [(1, 0), (0, 1)])

    def test_inputs_are_integer_combinations(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            vecs = [
                tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            basis = saturate(vecs)
            assert len(basis) == rank_of(vecs)
            for v in vecs:
                assert in_row_lattice(basis, v)

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            vecs = [
                tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            once = saturate(vecs)
            twice = saturate(once) if once else []
            assert same_lattice(once, twice)

    def test_zero_vector_input(self):
        assert saturate([(0, 0)]) == []
        assert rank_of([(0, 0, 0)]) == 0

    def test_kernel_orthogonality(self):
        rows = [(2, 4, 6), (1, 1, 1)]
        ker = integer_kernel(rows)
        for k in ker:
            for r in rows:
                assert pairing(r, k) == 0


class TestLp:
    def test_bounded_segment(self):
        status, value, _ = solve_lp_max((1,), [(1,), (-1,)], [0, -1])
        assert status == OPTIMAL and value == 1

    def test_unbounded(self):
        status, _, _ = solve_lp_max((1,), [(1,)], [0])
        assert status == UNBOUNDED

    def test_infeasible(self):
        status, _, _ = solve_lp_max((1,), [(1,), (-1,)], [1, 0])
        assert status == INFEASIBLE

    def test_triangle_vertex(self):
        # max x + y over x >= 0, y >= 0, x + y <= 1
        status, value, _ = solve_lp_max(
            (1, 1), [(1, 0), (0, 1), (-1, -1)], [0, 0, -1]
        )
        assert status == OPTIMAL and value == 1

    def test_fractional_optimum(self):
        # max y over y <= x/2, x <= 3, y >= 0 -> 3/2
        status, value, _ = solve_lp_max(
            (0, 1), [(1, -2), (-1, 0), (0, 1)], [0, -3, 0]
        )
        assert status == OPTIMAL and value == Fraction(3, 2)


class TestEnumerate:
    def test_triangle(self):
        p = RationalPolytope(
            2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -1))
        )
        assert enumerate_lattice_points(p) == [(0, 0), (0, 1), (1, 0)]

    def test_infeasible(self):
        p = RationalPolytope(1, (((1,), 1), ((-1,), 0)))
        assert enumerate_lattice_points(p) == []

    def test_skew_region_against_box_scan(self):
        # x >= 0, 2y - x >= 0, x + 2y <= 4
        p = RationalPolytope(
            2, (((1, 0), 0), ((-1, 2), 0), ((-1, -2), -4))
        )
        expected = sorted(brute_force_points(p, 5))
        assert enumerate_lattice_points(p) == expected
        assert expected == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 1)]

    def test_unbounded_errors(self):
        p = RationalPolytope(2, (((1, 0), 0), ((0, 1), 0)))
        with pytest.raises(UnboundedPolytopeError):
            enumerate_lattice_points(p)

    def test_random_polytopes_against_box_scan(self):
        rng = random.Random(23)
        tried = 0
        while tried < 40:
            n = rng.randint(1, 3)
            ineqs = []
            # random cuts plus a bounding box to keep things bounded
            for _ in range(rng.randint(0, 3)):
                normal = tuple(rng.randint(-4, 4) for _ in range(n))
                if all(x == 0 for x in normal):
                    continue
                ineqs.append((normal, rng.randint(-6, 6)))
            bound = rng.randint(1, 10)
            for j in range(n):
                e = tuple(1 if k == j else 0 for k in range(n))
                ineqs.append((e, -bound))
                ineqs.append((tuple(-x for x in e), -bound))
            p = RationalPolytope(n, tuple(ineqs))
            expected = sorted(brute_force_points(p, 12))
            assert enumerate_lattice_points(p) == expected
            tried += 1

    def test_degenerate_segment(self):
        # opposing inequalities carve out the segment x + y = 1, 0 <= x <= 1
        p = RationalPolytope(
            2,
            (((1, 1), 1), ((-1, -1), -1), ((1, 0), 0), ((-1, 0), -1)),
        )
        assert enumerate_lattice_points(p) == [(0, 1), (1, 0)]

    def test_lexicographic_order(self):
        p = RationalPolytope(
            2, (((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1))
        )
        pts = enumerate_lattice_points(p)
        assert pts == sorted(pts)
