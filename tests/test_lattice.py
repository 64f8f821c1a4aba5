import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mldhat.cones import Cone, FaceError, FaceSpec, dual_description, resolve_face
from mldhat.hypersurface import SupportError, validate_support, weight_data
from mldhat.lattice import (
    LatticeError,
    LimitError,
    as_vector,
    express_in_basis,
    integer_kernel,
    pairing,
    primitive,
    rank_of,
    row_hermite,
)
from mldhat.oracle import OracleError, check_alpha
import reference_kernels
from reference_kernels import (
    RationalPolytope,
    UnboundedPolytopeError,
    reference_enumerate_lattice_points,
    reference_fm_enumerate,
    saturate,
)


def reference_express_in_basis(basis_rows, v):
    """Coordinates by a Fraction solve on k independent columns; the route
    that back-substitution along the echelon pivots replaced.
    """
    k = len(basis_rows)
    n = len(v)
    cols = []
    for j in range(n):
        trial = cols + [j]
        if rank_of([tuple(basis_rows[i][c] for c in trial) for i in range(k)]) == len(trial):
            cols = trial
        if len(cols) == k:
            break
    if len(cols) < k:
        raise LatticeError("basis rows are not independent")
    mat = [[Fraction(basis_rows[i][c]) for i in range(k)] + [Fraction(v[c])] for c in cols]
    for col in range(k):
        piv = next(i for i in range(col, k) if mat[i][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        mat[col] = [e / mat[col][col] for e in mat[col]]
        for i in range(k):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    sol = [mat[i][k] for i in range(k)]
    if any(x.denominator != 1 for x in sol):
        raise LatticeError("vector is not an integer combination of the basis")
    coords = tuple(int(x) for x in sol)
    if [sum(coords[i] * basis_rows[i][j] for i in range(k)) for j in range(n)] != list(v):
        raise LatticeError("vector lies outside the span of the basis")
    return coords


def is_row_hermite(rows):
    """Echelon form, positive pivots, entries above each pivot in [0, pivot)."""
    pivots = []
    for r in rows:
        col = next((j for j, e in enumerate(r) if e != 0), None)
        if col is None or (pivots and col <= pivots[-1]) or r[col] < 0:
            return False
        pivots.append(col)
    return all(
        0 <= rows[i][col] < rows[t][col]
        for t, col in enumerate(pivots)
        for i in range(t)
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


class Int(int):
    """An int subclass: an integer by isinstance, but not of type int."""


class TestAsVector:
    def test_plain_ints(self):
        assert as_vector([2, -1], 2) == (2, -1)

    @pytest.mark.parametrize("entry", [2.7, 2.0, True, "1", None, Fraction(1), pytest.param(Int(1), id="int_subclass")])
    def test_rejects_non_integers(self, entry):
        with pytest.raises(LatticeError):
            as_vector([entry, 1], 2)

    def test_rank_mismatch(self):
        with pytest.raises(LatticeError):
            as_vector([1, 2], 3)


WHITNEY = validate_support([(2, 0, 0), (0, 2, 1)])
SQUARE = Cone.from_generators(2, [(1, 0), (0, 1)])


class TestOneIntegerRule:
    # every validator takes an entry as an integer when its type is exactly
    # int, so an int subclass is refused alike, each input with its own error
    @pytest.mark.parametrize(
        "check, error, message",
        [
            (lambda: Cone.from_generators(2, [(Int(1), 0), (0, 1)]), LatticeError, "vector entries must be integers"),
            (lambda: validate_support([(Int(2), 0), (0, 1)]), SupportError, "exponents must be integers"),
            (lambda: validate_support([(2, 0), (0, 1)], num_vars=Int(2)), SupportError, "vars must be an integer"),
            (lambda: weight_data(WHITNEY, (Int(2), 1, 2)), ValueError, "vanishing orders must be integers"),
            (lambda: check_alpha(WHITNEY, (Int(2), 1, 2)), OracleError, r"alpha entries must be integers, got \[2, 1, 2\]"),
            (lambda: resolve_face(SQUARE, FaceSpec(generator_subset=(Int(0),))), FaceError, "ray indices must be integers"),
            (lambda: resolve_face(SQUARE, FaceSpec(supporting_functional=(Int(1), 0))), LatticeError, "vector entries must be integers"),
        ],
        ids=["generators", "exponents", "num_vars", "weight_data", "check_alpha", "ray_indices", "functional"],
    )
    def test_int_subclass_refused(self, check, error, message):
        with pytest.raises(error, match=message) as err:
            check()
        assert type(err.value) is error


class TestRank:
    def test_examples(self):
        assert rank_of([(1, 0), (0, 1)]) == 2
        assert rank_of([(1, 0), (2, 0)]) == 1
        assert rank_of([(1, 0), (1, 1), (1, 2)]) == 2

    def test_empty(self):
        assert rank_of([]) == 0

    @pytest.mark.parametrize("rows", [[(1, 0), (1,)], [(1,), (1, 0)], [(), (0,)]])
    def test_ragged(self, rows):
        with pytest.raises(LatticeError, match="ragged matrix"):
            rank_of(iter(rows))

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


class TestPrimitive:
    def test_random_against_euclid(self):
        rng = random.Random(11)
        for _ in range(2000):
            v = [rng.randint(-30, 30) * rng.choice((1, 1, 6)) for _ in range(rng.randint(0, 5))]
            g = 0
            for x in v:
                a, b = g, abs(x)
                while b:
                    a, b = b, a % b
                g = a
            assert primitive(v) == tuple(x // max(g, 1) for x in v), v

    def test_zero_and_empty(self):
        assert primitive((0, 0)) == (0, 0)
        assert primitive(()) == ()
        assert primitive((0, -4, 6)) == (0, -2, 3)


class TestSaturate:
    def test_primitive_generator(self):
        basis = saturate([(2, 0)])
        assert len(basis) == 1
        assert primitive(basis[0]) == basis[0]
        # the row Hermite form is canonical: equal forms, equal lattices
        assert row_hermite(basis) == row_hermite([(1, 0)])

    def test_identity(self):
        basis = saturate([(1, 0), (0, 1)])
        assert row_hermite(basis) == row_hermite([(1, 0), (0, 1)])

    def test_full_saturation_by_smith_reasoning(self):
        # the Q-span of (2,2),(0,4) is the whole plane, so the saturation is Z^2
        basis = saturate([(2, 2), (0, 4)])
        assert row_hermite(basis) == row_hermite([(1, 0), (0, 1)])

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
                coords = express_in_basis(basis, v)
                assert tuple(sum(c * b[j] for c, b in zip(coords, basis)) for j in range(n)) == v

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
            assert row_hermite(once) == row_hermite(twice)

    def test_zero_vector_input(self):
        assert saturate([(0, 0)]) == []
        assert rank_of([(0, 0, 0)]) == 0

    def test_kernel_orthogonality(self):
        rows = [(2, 4, 6), (1, 1, 1)]
        ker = integer_kernel(rows, 3)
        assert len(ker) == 1
        for k in ker:
            for r in rows:
                assert pairing(r, k) == 0

    def test_kernel_without_constraints(self):
        assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert integer_kernel([], 0) == []

    def test_kernel_rejects_wrong_rank(self):
        with pytest.raises(LatticeError):
            integer_kernel([(1, 2)], 3)


class TestExpressInBasis:
    @staticmethod
    def outcome(fn, basis, v):
        try:
            return fn(basis, v)
        except LatticeError:
            return "LatticeError"

    def test_saturate_returns_row_hermite_rows(self):
        rng = random.Random(401)
        for _ in range(500):
            n = rng.randint(1, 6)
            vecs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            assert is_row_hermite(saturate(vecs)), vecs

    def test_integer_kernel_returns_row_hermite_rows(self):
        # face_chart reads coordinates off these rows directly
        rng = random.Random(403)
        for _ in range(500):
            n = rng.randint(1, 6)
            rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            basis = integer_kernel(rows, n)
            assert is_row_hermite(basis), rows
            assert len(basis) == n - rank_of(rows)

    def test_agrees_with_fraction_reference(self):
        rng = random.Random(402)
        counts = {"member": 0, "non-member": 0, "outside": 0}
        for _ in range(300):
            k = rng.randint(1, 5)
            n = rng.randint(k, 6)
            basis = saturate([tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)])
            if len(basis) != k:
                continue
            # the basis with its last row doubled: still echelon, index 2
            half = basis[:-1] + [tuple(2 * x for x in basis[-1])]
            for _ in range(5):
                coords = [rng.randint(-4, 4) for _ in range(k)]
                v = tuple(sum(c * b[j] for c, b in zip(coords, basis)) for j in range(n))
                assert express_in_basis(basis, v) == tuple(coords)
                assert reference_express_in_basis(basis, v) == tuple(coords)
                counts["member"] += 1
                if coords[-1] % 2:
                    counts["non-member"] += 1
                    assert self.outcome(express_in_basis, half, v) == "LatticeError"
                    assert self.outcome(reference_express_in_basis, half, v) == "LatticeError"
                else:
                    expected = tuple(coords[:-1]) + (coords[-1] // 2,)
                    assert express_in_basis(half, v) == expected
                    assert reference_express_in_basis(half, v) == expected
                w = tuple(rng.randint(-5, 5) for _ in range(n))
                if rank_of(basis + [w]) > k:
                    counts["outside"] += 1
                    assert self.outcome(express_in_basis, basis, w) == "LatticeError"
                    assert self.outcome(reference_express_in_basis, basis, w) == "LatticeError"
        assert min(counts.values()) >= 100, counts

    @pytest.mark.parametrize(
        "rows",
        [[(0, 1), (1, 0)], [(1, 0), (2, 1)], [(1, 0), (0, 0)], [(0, 1, 0), (0, 1, 1)]],
        ids=["pivots-descend", "pivot-column-not-cleared", "zero-row", "repeated-pivot"],
    )
    def test_rejects_rows_not_in_echelon_form(self, rows):
        with pytest.raises(LatticeError, match="echelon"):
            express_in_basis(rows, tuple(sum(col) for col in zip(*rows)))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(LatticeError, match="rank"):
            express_in_basis([(1, 0)], (1, 0, 0))


class TestEnumerate:
    def test_triangle(self):
        p = RationalPolytope(
            2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -1))
        )
        assert reference_fm_enumerate(p) == [(0, 0), (0, 1), (1, 0)]

    def test_infeasible(self):
        p = RationalPolytope(1, (((1,), 1), ((-1,), 0)))
        assert reference_fm_enumerate(p) == []

    def test_skew_region_against_box_scan(self):
        # x >= 0, 2y - x >= 0, x + 2y <= 4
        p = RationalPolytope(
            2, (((1, 0), 0), ((-1, 2), 0), ((-1, -2), -4))
        )
        expected = sorted(brute_force_points(p, 5))
        assert reference_fm_enumerate(p) == expected
        assert expected == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 1)]

    def test_unbounded_errors(self):
        p = RationalPolytope(2, (((1, 0), 0), ((0, 1), 0)))
        with pytest.raises(UnboundedPolytopeError):
            reference_fm_enumerate(p)

    def test_random_polytopes_against_box_scan(self):
        rng = random.Random(23)
        counts = {"points": 0, "empty": 0}
        ranks = set()
        for _ in range(120):
            n = rng.randint(1, 4)
            ineqs = []
            # random cuts plus a bounding box to keep things bounded
            for _ in range(rng.randint(0, 4)):
                normal = tuple(rng.randint(-4, 4) for _ in range(n))
                if all(x == 0 for x in normal):
                    continue
                # offsets up to 10 cut many boxes away entirely
                ineqs.append((normal, rng.randint(-6, 10)))
            bound = rng.randint(1, 10 if n < 4 else 3)
            for j in range(n):
                e = tuple(1 if k == j else 0 for k in range(n))
                ineqs.append((e, -bound))
                ineqs.append((tuple(-x for x in e), -bound))
            p = RationalPolytope(n, tuple(ineqs))
            expected = sorted(brute_force_points(p, bound))
            assert reference_fm_enumerate(p) == expected, ineqs
            counts["points" if expected else "empty"] += 1
            ranks.add(n)
        assert ranks == {1, 2, 3, 4}
        assert min(counts.values()) >= 20, counts

    @pytest.mark.parametrize(
        "ineqs, message",
        [
            # 0 <= x0 <= 1 and x1 free: the line (0, 1)
            ((((1, 0), 0), ((-1, 0), -1)), "coordinate 1 is unbounded above"),
            # 0 <= x0 <= 1, x1 >= 0: the recession ray (0, 1)
            ((((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)), "coordinate 1 is unbounded above"),
            # 0 <= x0 <= 1, x1 <= 0: the recession ray (0, -1)
            ((((1, 0), 0), ((-1, 0), -1), ((0, -1), 0)), "coordinate 1 is unbounded below"),
            # x0 <= 2, 0 <= x1 <= 1: coordinate 0 goes down only
            ((((-1, 0), -2), ((0, 1), 0), ((0, -1), -1)), "coordinate 0 is unbounded below"),
            # x0 >= x1 >= 0: coordinate 0 comes first, and above before below
            ((((1, -1), 0), ((0, 1), 0)), "coordinate 0 is unbounded above"),
            # x0 + x1 = 0: the line (1, -1) is unbounded both ways in both coordinates
            ((((1, 1), 0), ((-1, -1), 0)), "coordinate 0 is unbounded above"),
        ],
        ids=["line", "ray-up", "ray-down", "first-coordinate-down", "order", "diagonal-line"],
    )
    def test_unbounded_direction_in_message(self, ineqs, message):
        with pytest.raises(UnboundedPolytopeError, match=f"^{message}$"):
            reference_fm_enumerate(RationalPolytope(2, ineqs))

    def test_empty_before_unbounded(self):
        # x0 >= 1 and x0 <= 0 with x1 free: empty, though its recession cone is a line
        p = RationalPolytope(2, (((1, 0), 1), ((-1, 0), 0)))
        assert reference_fm_enumerate(p) == []

    def test_zero_dimensional_ambient(self):
        assert reference_fm_enumerate(RationalPolytope(0, ())) == [()]
        assert reference_fm_enumerate(RationalPolytope(0, (((), 0), ((), -3)))) == [()]
        assert reference_fm_enumerate(RationalPolytope(0, (((), 1),))) == []

    def test_zero_normal(self):
        square = (((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1))
        points = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert reference_fm_enumerate(RationalPolytope(2, square + (((0, 0), -2),))) == points
        assert reference_fm_enumerate(RationalPolytope(2, square + (((0, 0), 0),))) == points
        assert reference_fm_enumerate(RationalPolytope(2, square + (((0, 0), 1),))) == []
        # 0 >= 1 cuts away everything, unbounded directions included
        assert reference_fm_enumerate(RationalPolytope(2, (((0, 0), 1),))) == []

    def test_degenerate_segment(self):
        # opposing inequalities carve out the segment x + y = 1, 0 <= x <= 1
        p = RationalPolytope(
            2,
            (((1, 1), 1), ((-1, -1), -1), ((1, 0), 0), ((-1, 0), -1)),
        )
        assert reference_fm_enumerate(p) == [(0, 1), (1, 0)]

    def test_lexicographic_order(self):
        p = RationalPolytope(
            2, (((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1))
        )
        pts = reference_fm_enumerate(p)
        assert pts == sorted(pts)


def random_polytope(rng, n):
    """Up to five random cuts in rank n, most often inside a box of half-width 0..3.

    Cuts with a zero normal, empty polytopes and, without the box,
    unbounded ones all come up.
    """
    ineqs = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.7:
        bound = rng.randint(0, 3 if n < 4 else 2)
        for j in range(n):
            e = tuple(int(k == j) for k in range(n))
            ineqs += [(e, -bound), (tuple(-x for x in e), -bound)]
    return RationalPolytope(n, tuple(ineqs))


def outcome(enumerate_points, p):
    """The points, or the message of the UnboundedPolytopeError."""
    try:
        return enumerate_points(p)
    except UnboundedPolytopeError as exc:
        return str(exc)


def dilate(p, m):
    return RationalPolytope(p.ambient_rank, tuple((c, m * b) for c, b in p.inequalities))


class TestFourierMotzkinBounds:
    """The general Fourier-Motzkin enumerator (`reference_fm_enumerate`) against the box scan it replaced."""

    def test_seeded_polytopes_against_box_scan(self):
        rng = random.Random(1986)
        kinds = Counter()
        for k in range(1200):
            n = k % 5
            p = random_polytope(rng, n)
            expected = outcome(reference_enumerate_lattice_points, p)
            assert outcome(reference_fm_enumerate, p) == expected, p.inequalities
            kinds[n, "unbounded" if isinstance(expected, str) else "points" if expected else "empty"] += 1
        # every rank from 1 up meets all three outcomes; rank 0 has no unbounded direction
        assert all(kinds[n, kind] >= 20 for n in range(1, 5) for kind in ("points", "empty", "unbounded")), kinds
        assert kinds[0, "points"] and kinds[0, "empty"]

    def test_dilations_against_box_scan(self):
        # one elimination serves every dilation: the offsets scale, the normals stay
        rng = random.Random(1987)
        checked = 0
        while checked < 300:
            p = random_polytope(rng, rng.randint(1, 3))
            if isinstance(outcome(reference_fm_enumerate, p), str):
                continue
            for m in (2, 3):
                assert reference_fm_enumerate(p, m) == reference_enumerate_lattice_points(dilate(p, m)), (p, m)
            checked += 1

    def test_rounding_of_the_offsets(self):
        # 2 x >= 1 and 2 x <= 3: only x = 1, at dilation 1; at dilation 2, 1 <= x <= 3
        p = RationalPolytope(1, (((2,), 1), ((-2,), -3)))
        assert reference_fm_enumerate(p) == [(1,)]
        assert reference_fm_enumerate(p, 2) == [(1,), (2,), (3,)]
        # 3 x + 3 y >= 1 and x + y <= 0: no lattice point, though not empty over the rationals
        q = RationalPolytope(2, (((3, 3), 1), ((-1, -1), 0), ((1, 0), -2), ((-1, 0), -2)))
        assert reference_fm_enumerate(q) == []

    def test_empty_over_the_rationals_is_empty_before_unbounded(self):
        # 2 x0 >= 1 and 2 x0 <= 1 hold x0 = 1/2 with x1 free: unbounded, with no
        # lattice point; rounding first would call it empty
        p = RationalPolytope(2, (((2, 0), 1), ((-2, 0), -1)))
        with pytest.raises(UnboundedPolytopeError, match="^coordinate 1 is unbounded above$"):
            reference_fm_enumerate(p)
        assert outcome(reference_enumerate_lattice_points, p) == "coordinate 1 is unbounded above"

    def test_zero_dimensional_dilations(self):
        # a slice of dimension 0 gives one point or none, at every dilation
        cases = [([((), -1)], [()]), ([((), 2)], []), ([], [()])]
        for rows, points in cases:
            p = RationalPolytope(0, tuple(rows))
            assert [reference_fm_enumerate(p, m) for m in (1, 2, 5)] == [points] * 3

    def test_limit_counts_the_bounding_box(self):
        # the triangle x, y >= 0, 2 x + 3 y <= 12: its box is 7 by 5
        p = RationalPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-2, -3), -12)))
        assert len(reference_fm_enumerate(p)) == 19
        assert reference_fm_enumerate(p, 1, 35) == reference_fm_enumerate(p)
        with pytest.raises(LimitError, match=r"^triangle: about 35 points exceed the limit \(34\)$"):
            reference_fm_enumerate(p, 1, 34, "triangle")
        # at dilation 2 the box is 13 by 9
        with pytest.raises(LimitError, match=r"^lattice points: about 117 points exceed the limit \(116\)$"):
            reference_fm_enumerate(p, 2, 116)

    def test_limit_box_is_the_exact_box(self):
        # the count is the lattice points of the box of P, from its vertices
        rng = random.Random(1988)
        for _ in range(200):
            p = random_polytope(rng, rng.randint(1, 3))
            if isinstance(outcome(reference_fm_enumerate, p), str) or p.projections[0]:
                continue
            n = p.ambient_rank
            _, rays, _ = dual_description([c + (-b,) for c, b in p.inequalities] + [(0,) * n + (1,)], n + 1)
            box = 1
            for j in range(n):
                lo = min(-(-r[j] // r[n]) for r in rays)
                hi = max(r[j] // r[n] for r in rays)
                box *= max(hi - lo + 1, 0)
            reference_fm_enumerate(p, 1, box)
            with pytest.raises(LimitError, match=f"about {box} points"):
                reference_fm_enumerate(p, 1, box - 1)

    def test_one_elimination_serves_every_dilation(self, monkeypatch):
        # the projections and the axes of a polytope are made once, at first use
        calls = []
        canonical = reference_kernels._canonical
        monkeypatch.setattr(reference_kernels, "_canonical", lambda rows: calls.append(1) or canonical(rows))
        p = RationalPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-2, -3), -12)))
        assert not calls
        reference_fm_enumerate(p, 1, 100)
        made = len(calls)
        for m in (2, 3, 4):
            assert reference_fm_enumerate(p, m, 10**6) == reference_enumerate_lattice_points(dilate(p, m))
        assert made and len(calls) == made

    def test_projection_limit(self, monkeypatch):
        # a square has two rows bounding each coordinate: eliminating x1 keeps
        # the two rows of x0 and pairs the two of x1, 3 rows in all
        square = (((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1))
        monkeypatch.setattr(reference_kernels, "MAX_PROJECTION_ROWS", 2)
        with pytest.raises(LimitError, match=r"^lattice points: eliminating coordinate 1 gives 3 inequalities, over the limit \(2\)$"):
            reference_fm_enumerate(RationalPolytope(2, square))
        monkeypatch.setattr(reference_kernels, "MAX_PROJECTION_ROWS", 3)
        assert reference_fm_enumerate(RationalPolytope(2, square)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
