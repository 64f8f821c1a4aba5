import itertools
import json
import pathlib
import random
from math import gcd
from operator import mul

import pytest

from mldhat import hilbert
from mldhat.cones import Cone, ConeError, dual_cone
from mldhat.hilbert import (
    FacetValues,
    HilbertBasis,
    _fold,
    _numerators,
    _walk,
    cell_walk,
    hilbert_basis,
    interior_candidates,
    parallelepiped_points,
)
from mldhat.lattice import LatticeError, LimitError, as_vector, pairing, row_hermite
from mldhat.toric import minimize_spanning_cost
from reference_kernels import (
    adjugate,
    contains,
    determinant,
    is_zero,
    numerator_lists,
    reference_facet_values,
    reference_hilbert_basis,
    reference_numerators,
    reference_point,
    reference_walks,
    unit_walk,
    unpack_numerators,
    vec_sub,
)


def _grading_point(dual):
    """Interior point of the primal cone: positive on the dual minus 0."""
    primal = dual_cone(dual)
    return tuple(sum(col) for col in zip(*primal.generators))


def is_irreducible(u, candidates, dual):
    """Can u not be split as a sum of two nonzero semigroup elements?

    `candidates` must contain every irreducible element below u; scanning
    them suffices because any decomposition refines to one whose first part
    is irreducible.
    """
    u = as_vector(u, dual.ambient_rank)
    if is_zero(u):
        raise LatticeError("the zero element is neither reducible nor irreducible")
    if not contains(dual, u):
        raise LatticeError("element lies outside the cone")
    grading = _grading_point(dual)
    gu = pairing(u, grading)
    for v in candidates:
        v = tuple(v)
        if v == u or is_zero(v):
            continue
        if pairing(v, grading) >= gu:
            continue
        if contains(dual, vec_sub(u, v)):
            return False
    return True


def naive_basis_2d(dual, box):
    """Independent oracle: sieve a box with the bare irreducibility definition.

    Correct whenever every irreducible element fits in the box, which holds
    as soon as the box covers the parallelepiped sums of the extreme rays.
    """
    pts = [
        p
        for p in itertools.product(range(-box, box + 1), repeat=2)
        if any(p) and contains(dual, p)
    ]
    ptset = set(pts)
    basis = []
    for u in pts:
        reducible = False
        for v in pts:
            w = vec_sub(u, v)
            if w != (0, 0) and v != u and w in ptset:
                reducible = True
                break
        if not reducible:
            basis.append(u)
    return sorted(basis)


def decompose(point, elements, dual, depth=0):
    """Greedy-with-backtracking decomposition into basis elements."""
    if all(x == 0 for x in point):
        return True
    if depth > 40:
        return False
    for e in elements:
        w = vec_sub(point, e)
        if contains(dual, w):
            if decompose(w, elements, dual, depth + 1):
                return True
    return False


class TestParallelepiped:
    def test_unit_square(self):
        pts = parallelepiped_points(((1, 0), (0, 1)))
        assert pts == [(0, 0)]

    def test_index_two(self):
        pts = sorted(parallelepiped_points(((1, 0), (1, 2))))
        assert len(pts) == 2 and (0, 0) in pts
        other = next(p for p in pts if p != (0, 0))
        assert other == (1, 1)

    def test_point_count_matches_determinant(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 3)
            rays = [
                tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
            ]
            d = determinant([list(r) for r in rays])
            if d == 0:
                continue
            pts = parallelepiped_points(tuple(rays))
            assert len(pts) == abs(d)
            assert len(set(pts)) == abs(d)

    @pytest.mark.parametrize("rays", [((1, 2), (2, 4)), ((1, 0, 1), (0, 1, 1), (1, 1, 2)), ((0,),)])
    def test_dependent_rays_rejected(self, rays):
        with pytest.raises(LatticeError, match="parallelepiped needs linearly independent rays"):
            parallelepiped_points(rays)

    @pytest.mark.parametrize("rays", [((1, 0, 5), (0, 2, 0)), ((1, 0), (0, 1), (1, 1))])
    def test_non_square_rays_rejected(self, rays):
        with pytest.raises(LatticeError, match="as many rays as their rank"):
            parallelepiped_points(rays)


class TestNumeratorKernel:
    """One Hermite form of [T | I] against rank test, Bareiss and adjugate."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_numerators(self, n):
        rng = random.Random(900 + n)
        signs = {-1: 0, 0: 0, 1: 0}
        for _ in range(300):
            rays = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
            if rng.random() < 0.2:
                # a combination of the others: singular with nonzero entries
                rays[-1] = tuple(sum(c * r[j] for c, r in zip((1, -2, 1), rays[:-1])) for j in range(n))
            d = determinant(rays)
            signs[(d > 0) - (d < 0)] += 1
            if abs(d) > 3000:
                continue
            walk = numerator_lists(rays)
            if d == 0:
                assert walk is None, rays
                continue
            absdet, numerators = walk
            assert (absdet, list(numerators)) == reference_numerators(rays), rays
        assert all(signs.values()), signs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_running_sum_matches_reference(self, n):
        # the walk against reference_numerators, in order, its running
        # packed value u against the image of each point's fold, under a
        # random injective linear map P(x) = sum_j x_j columns_j with
        # signed columns, so that u may be negative, and the coordinates it
        # carries against the fold itself
        rng = random.Random(950 + n)
        multi_digit = non_cyclic = 0
        for _ in range(200):
            rays = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
            d = determinant(rays)
            if d == 0 or abs(d) > 3000:
                continue
            cell = _numerators(rays)
            absdet, coords, _ = unit_walk(rays)  # the layout of the coordinate fields
            bits = rng.choice([8, 64, 200])  # coordinates of the points lie in (-2^7, 2^7)
            columns = [rng.choice([-1, 1]) << (j * bits) for j in range(n)]
            packs = [(sum(map(mul, t, columns)), sum(map(mul, t, coords.units))) for t in rays]
            walked = _walk(rays, *cell, packs, coords)
            points = [(unpack_numerators(x, absdet, n, coords.base), u, x) for u, x in walked.items()]
            assert (absdet, [frac for frac, _, _ in points]) == reference_numerators(rays), rays
            folds = [_fold(rays, frac, absdet) for frac, _, _ in points]
            assert [u for _, u, _ in points] == [sum(map(mul, p, columns)) for p in folds], (rays, columns)
            assert [coords.point(x, coords.image(p)) for (_, _, x), p in zip(points, folds)] == folds, rays
            # the walk steps the Hermite digits above 1 only
            hermite = row_hermite(rays)
            multi_digit += sum(hermite[i][i] > 1 for i in range(n)) >= 2
            # Z^n / T Z^n is not cyclic when the (n - 1)-minors share a factor
            non_cyclic += gcd(*(x for row in adjugate(rays) for x in row)) > 1
        if n > 1:
            assert multi_digit >= 40 and non_cyclic >= 5, (multi_digit, non_cyclic)

    def test_one_hermite_form_per_cell(self, monkeypatch):
        # the only elimination left is row_hermite, called once per cell of
        # the pulling triangulation: 4 cells
        hexagon = Cone.from_generators(
            3, [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]
        )
        calls = []

        def counted(rows, original=row_hermite):
            calls.append(len(rows))
            return original(rows)

        for module in ("mldhat.lattice", "mldhat.hilbert"):
            monkeypatch.setattr(f"{module}.row_hermite", counted)
        hilbert_basis(hexagon)
        assert calls == [3] * 4


class TestCellWalkChecks:
    """Each check of the cell walk raises on a planted fault."""

    WEDGE = Cone.from_generators(2, [(1, 0), (1, 2)])  # one cell, |det| = 2

    @staticmethod
    def plant(monkeypatch, columns):
        # the moves of every cell: one digit of radix |det T| with the
        # given column, then the given closing column
        original = hilbert._numerators

        def planted(rays):
            absdet = original(rays)[0]
            return absdet, columns, [absdet]

        monkeypatch.setattr(hilbert, "_numerators", planted)

    def searches(self):
        return hilbert_basis, lambda cone: cell_walk(cone, None, "test")

    def test_dependent_cell(self, monkeypatch):
        monkeypatch.setattr(hilbert, "pulling_triangulation", lambda cone: iter([((1, 0), (1, 0))]))
        with pytest.raises(AssertionError, match="not linearly independent"):
            hilbert_basis(self.WEDGE)

    def test_repeated_point(self, monkeypatch):
        self.plant(monkeypatch, [[0, 0], [0, 0]])
        for search in self.searches():
            with pytest.raises(AssertionError, match=r"found 1 parallelepiped points, expected \|det\| = 2"):
                search(self.WEDGE)

    def test_non_lattice_move(self, monkeypatch):
        # half a ray: its packed image divides by |det T| = 2 all the same,
        # as every facet value of either ray is even
        self.plant(monkeypatch, [[1, 0], [1, 0]])
        for search in self.searches():
            with pytest.raises(LatticeError, match="non-lattice point"):
                search(self.WEDGE)

    def test_skipped_wrap(self, monkeypatch):
        # wraps that take |det T| off each numerator field that reaches it
        # but leave u alone: u moves up by the rays that wrapped so far, and
        # the walk does not come back to its first point
        class Skipping(hilbert._Wraps):
            def __init__(self, seeds):
                # the lift under top bit g of field i is C(t_i) in the
                # coordinate fields, |det T| in field i, and P(t_i) above
                # every numerator field, a multiple of 2 g
                super().__init__((g, lift % (2 * g)) for g, lift in seeds)

        monkeypatch.setattr(hilbert, "_Wraps", Skipping)
        wedge = Cone.from_generators(2, [(1, 0), (1, 20)])  # one cell, |det| = 20
        for search in (hilbert_basis, minimize_spanning_cost):
            with pytest.raises(AssertionError, match="does not return to its first point"):
                search(wedge)

    def test_point_that_misses_its_facet_values(self):
        # the coordinates (1, 1) and (1, 2), biased in their fields
        coords = FacetValues([(1, 0), (0, 1)], 10, [(1, 0), (0, 1)])
        x = coords.offset + coords.units[0] + coords.units[1]
        with pytest.raises(AssertionError, match="does not reproduce its facet values"):
            coords.point(x, coords.image((1, 2)))
        assert coords.point(x + coords.units[1], coords.image((1, 2))) == (1, 2)

    # planted faults of the coordinate fields: each cone has a kept Hilbert
    # basis element and a minimal interior point that the fault misreads
    SKEW = Cone.from_generators(2, [(1, 0), (5, -2)])  # bias 13; (6, -2) overflows a 4-bit field 0
    SQUARE = Cone.from_generators(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])  # (1, 1, 2) is closed

    @staticmethod
    def plant_layout(monkeypatch, fault):
        class Planted(FacetValues):
            def __init__(self, *args):
                super().__init__(*args)
                fault(self)

        monkeypatch.setattr(hilbert, "FacetValues", Planted)

    @staticmethod
    def assert_misread(cone):
        for search in (hilbert_basis, lambda cone: interior_candidates(cone, None)):
            with pytest.raises(AssertionError, match="does not reproduce its facet values"):
                search(cone)

    @pytest.mark.parametrize("cone", [SKEW, SQUARE], ids=["skew", "square"])
    def test_coordinate_bias_off_by_one(self, monkeypatch, cone):
        # the walk starts every coordinate field at bias + 1, `point` takes bias off
        self.plant_layout(monkeypatch, lambda coords: setattr(coords, "offset", coords.offset + sum(coords.units)))
        self.assert_misread(cone)

    def test_coordinate_field_one_bit_too_narrow(self, monkeypatch):
        # on SKEW, bias = 2 (1 + 5) + 1 = 13 in fields of 5 bits; in 4 bits
        # the first coordinate of (3, -1) + (3, -1) = (6, -2), reached by the
        # closing move before its wraps, reads 6 + 13 = 19 > 15 and carries
        # into field 1, as do the kept (3, -1) and (5, -2); field 1 stays
        # in range, so the numerators above read true and the walk closes
        def narrow(coords):
            coords.spacing -= 1
            coords.base = len(coords.columns) * coords.spacing
            coords.units = [1 << s for s in range(0, coords.base, coords.spacing)]
            coords.offset = coords.bias * sum(coords.units)

        self.plant_layout(monkeypatch, narrow)
        self.assert_misread(self.SKEW)
        # the same layout holds the square's points, at most 2 + 9 = 11 < 16
        assert hilbert_basis(self.SQUARE) == HilbertBasis(elements=((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))

    def test_closed_point_without_its_ray_coordinates(self, monkeypatch):
        # the rays' coordinate packs dropped after the walk: a closed point
        # p + sum_J v, and in `hilbert_basis` each ray, the closed point
        # 0 + t, keeps the coordinates of p alone
        original = hilbert.cell_walk

        def dropped(*args, **kwargs):
            coords, cells = original(*args, **kwargs)
            return coords, [(T, absdet, [(p, 0) for p, _ in rays], points) for T, absdet, rays, points in cells]

        monkeypatch.setattr(hilbert, "cell_walk", dropped)
        self.assert_misread(self.SQUARE)

    def test_one_fold_per_move_and_none_per_point(self, monkeypatch):
        # `_fold` checks each non-closing move once, before the walk; no
        # kept element or candidate is folded
        folds, moves = [], []
        fold, numerators = hilbert._fold, hilbert._numerators

        def counted_fold(*args):
            folds.append(args)
            return fold(*args)

        def counted_numerators(rays):
            cell = numerators(rays)
            moves.append(len(cell[1]) - 1)  # every column but the closing one
            return cell

        monkeypatch.setattr(hilbert, "_fold", counted_fold)
        monkeypatch.setattr(hilbert, "_numerators", counted_numerators)
        # SKEW keeps (3, -1) off one move; SQUARE walks no move and keeps
        # the closed (1, 1, 2); the folding route made 2 and 1 folds
        assert hilbert_basis(self.SKEW).elements == ((1, 0), (3, -1), (5, -2)) and folds == [folds[0]]
        assert interior_candidates(self.SQUARE, None) == [(1, 1, 2)] and not folds[1:]
        for cone in [self.SKEW, self.SQUARE] + random_full_cones(random.Random(77), 3, 20):
            for search in (hilbert_basis, lambda cone: interior_candidates(cone, None)):
                del folds[:], moves[:]
                search(cone)
                assert len(folds) == sum(moves), cone.generators


class TestHilbertBasis:
    def test_index_two_wedge(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 2)])
        hb = hilbert_basis(dual)
        assert hb.elements == ((1, 0), (1, 1), (1, 2))

    def test_smooth_orthant(self):
        dual = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert hilbert_basis(dual).elements == ((0, 1), (1, 0))

    def test_index_three_wedge(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 3)])
        expected = naive_basis_2d(dual, 4)
        hb = hilbert_basis(dual)
        assert list(hb.elements) == expected
        assert hb.elements == ((1, 0), (1, 1), (1, 2), (1, 3))

    def test_requires_full_dimensional(self):
        dual = Cone.from_generators(2, [(1, 0)])
        with pytest.raises(ConeError):
            hilbert_basis(dual)

    def test_point_limit(self):
        # |det| = 200000 parallelepiped points: refused before any is built
        wide = Cone.from_generators(2, [(1, 0), (1, 200000)])
        with pytest.raises(LimitError, match="hilbert parallelepiped points"):
            hilbert_basis(wide, max_points=10)
        # six rays in rank 3: 4 cells of determinants 1, 1, 2, 2
        hexagon = Cone.from_generators(
            3, [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]
        )
        with pytest.raises(LimitError, match=r"hilbert parallelepiped points: cell 4 of the triangulation exceeds the limit \(3\)"):
            hilbert_basis(hexagon, max_points=3)
        with pytest.raises(LimitError, match=r"hilbert parallelepiped points: about 6 points exceed the limit \(4\)"):
            hilbert_basis(hexagon, max_points=4)
        assert hilbert_basis(hexagon, max_points=6) == hilbert_basis(hexagon)
        # a limit equal to the point count (|det| = 2) is not exceeded
        wedge = Cone.from_generators(2, [(1, 0), (1, 2)])
        assert hilbert_basis(wedge, max_points=2).elements == ((1, 0), (1, 1), (1, 2))

    def test_agreement_with_naive_sieve_random_2d(self):
        rng = random.Random(41)
        for _ in range(40):
            while True:
                g1 = (rng.randint(1, 8), rng.randint(-8, 8))
                g2 = (rng.randint(-8, 8), rng.randint(1, 8))
                try:
                    dual = Cone.from_generators(2, [g1, g2])
                except ConeError:
                    continue
                if dual.is_full_dimensional:
                    break
            hb = hilbert_basis(dual)
            box = max(abs(x) for g in dual.generators for x in g) * 2 + 2
            assert list(hb.elements) == naive_basis_2d(dual, box)

    def test_generation_up_to_grading_twelve(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 2)])
        hb = hilbert_basis(dual)
        primal = dual_cone(dual)
        v0 = tuple(sum(col) for col in zip(*primal.generators))
        pts = [
            p
            for p in itertools.product(range(-13, 14), repeat=2)
            if contains(dual, p) and 0 < pairing(p, v0) <= 12
        ]
        for p in pts:
            assert decompose(p, hb.elements, dual)

    def test_minimality(self):
        # dropping any element breaks generation of that element itself
        rng = random.Random(83)
        duals = [Cone.from_generators(2, [(2, -1), (0, 1)])]
        while len(duals) < 6:
            g1 = (rng.randint(1, 6), rng.randint(-6, 6))
            g2 = (rng.randint(-6, 6), rng.randint(1, 6))
            try:
                c = Cone.from_generators(2, [g1, g2])
            except ConeError:
                continue
            if c.is_full_dimensional:
                duals.append(c)
        for dual in duals:
            hb = hilbert_basis(dual)
            for e in hb.elements:
                rest = [x for x in hb.elements if x != e]
                assert not decompose(e, rest, dual)


class TestIrreducibility:
    def test_wedge_generator_irreducible(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 2)])
        hb = hilbert_basis(dual)
        assert is_irreducible((1, 1), hb.elements, dual)

    def test_double_of_generator_reducible(self):
        dual = Cone.from_generators(2, [(1, 0), (0, 1)])
        hb = hilbert_basis(dual)
        assert not is_irreducible((2, 0), hb.elements, dual)

    def test_sum_reducible(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 2)])
        hb = hilbert_basis(dual)
        assert not is_irreducible((2, 2), hb.elements, dual)

    def test_outside_cone_rejected(self):
        dual = Cone.from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(LatticeError):
            is_irreducible((-1, 0), [], dual)


# entry bound of the random rays by rank: keeps every cone within 60000 points
SCALE = {2: 12, 3: 5, 4: 3, 5: 2}


def random_full_cones(rng, n, count):
    """Full-dimensional pointed cones from n + 0..3 random rays in rank n."""
    cones = []
    while len(cones) < count:
        s = SCALE[n]
        rays = [tuple(rng.randint(-s, s) for _ in range(n)) for _ in range(n + rng.randint(0, 3))]
        try:
            cone = Cone.from_generators(n, rays)
        except ConeError:
            continue
        if cone.is_full_dimensional:
            cones.append(cone)
    return cones


def pool_cones():
    """The cones of the benchmark's hilbert ops whose all-subsets walk has at most 3000 points: all 70."""
    pool = json.loads((pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8"))
    cones = []
    for entry in pool["cones_rank3"] + pool["cones_rank4"]:
        cone = Cone.from_generators(len(entry["rays"][0]), entry["rays"])
        if sum(absdet for _, absdet, _ in reference_walks(cone.generators, cone.ambient_rank)) <= 3000:
            cones.append(cone)
    assert len(cones) == 70
    return cones


def packed_candidates(cone):
    """The packed Hilbert basis candidates of `cone`: its rays and the points of `cell_walk`, 0 removed."""
    coords, cells = cell_walk(cone, None, "test")
    candidates = {p for _, _, rays, _ in cells for p, _ in rays}.union(*(points for *_, points in cells))
    candidates.discard(0)
    return coords, candidates


def all_pool_cones():
    """Every cone of the benchmark pool: the toric cones and their duals, then the cones of the hilbert ops.

    The duals of the hilbert-op cones are left out: some have millions of
    cell points.
    """
    pool = json.loads((pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8"))
    cones = []
    for key in ("surfaces", "toric_random", "simplicial_isolated"):
        for entry in pool[key]:
            cone = Cone.from_generators(len(entry["rays"][0]), entry["rays"])
            cones += [cone, dual_cone(cone)]
    return cones + pool_cones()


class TestHalfDegreeCut:
    """The Hilbert basis sieve with the half-degree cut against the full scan."""

    @staticmethod
    def assert_cut_matches_full_scan(cone):
        coords, candidates = packed_candidates(cone)
        assert coords.minimal_elements(candidates, half_degree=True) == coords.minimal_elements(candidates), cone.generators

    def test_matches_full_scan_on_pool_cones(self):
        cones = all_pool_cones()
        assert len(cones) == 2 * (50 + 14 + 8) + 40 + 30
        for cone in cones:
            self.assert_cut_matches_full_scan(cone)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_full_scan_on_random_cones(self, n):
        # 80 cones per rank, 240 in all
        for cone in random_full_cones(random.Random(1300 + n), n, 80):
            self.assert_cut_matches_full_scan(cone)

    def test_reducer_of_exactly_half_the_degree(self):
        # the wedge (-1, 0), (1, 3), |det| = 3, has the cell points (0, 1)
        # and (0, 2) = 2 (0, 1); the only reducer of (0, 2) is (0, 1), of
        # exactly half its degree, so a cut at deg(e) < deg(u) / 2 keeps it
        cone = Cone.from_generators(2, [(-1, 0), (1, 3)])
        coords, candidates = packed_candidates(cone)
        e, u = coords.image((0, 1)), coords.image((0, 2))
        guard = coords.guard
        assert [x for x in candidates if x != u and ((u | guard) - x) & guard == guard] == [e]
        assert 2 * (e >> coords.shift) == u >> coords.shift
        assert coords.minimal_elements(candidates, half_degree=True) == coords.minimal_elements(candidates)
        assert u not in coords.minimal_elements(candidates, half_degree=True)
        assert hilbert_basis(cone).elements == ((-1, 0), (0, 1), (1, 3))


def corpus_cones():
    """The lambda > 0 corpus cones."""
    corpus = json.loads(pathlib.Path(__file__).with_name("lambda_positive_cones.json").read_text(encoding="utf-8"))
    return [Cone.from_generators(len(entry["rays"][0]), entry["rays"]) for entry in corpus]


# a unimodular shear with entries of 10^12: the image of a cone keeps its
# cells and determinants, and its coordinate fields pass 64 bits
SHEAR = ((1, 0, 0), (0, 1, 0), (10**12, -(10**12), 1))


def sheared(point):
    return tuple(sum(x * row[j] for x, row in zip(point, SHEAR)) for j in range(3))


class TestCarriedCoordinates:
    """The coordinates the walk carries against the fold of each point's numerators."""

    @staticmethod
    def assert_carried_match_folds(cone):
        coords, cells = cell_walk(cone, None, "test")
        for T, absdet, rays, points in cells:
            assert rays == [(coords.image(t), sum(map(mul, t, coords.units))) for t in T]
            for u, x in points.items():
                assert coords.point(x, u) == reference_point(coords, T, x, absdet, u), (cone.generators, T)
        return coords

    def test_pool_cones(self):
        for cone in all_pool_cones():
            self.assert_carried_match_folds(cone)

    def test_lambda_positive_corpus(self):
        cones = corpus_cones()
        assert len(cones) == 91
        for cone in cones:
            self.assert_carried_match_folds(cone)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_cones(self, n):
        for cone in random_full_cones(random.Random(1500 + n), n, 60):
            self.assert_carried_match_folds(cone)

    def test_entries_of_ten_to_the_twelve(self):
        base = Cone.from_generators(3, [(2, 0, 1), (0, 3, 1), (-2, 1, 1), (-1, -2, 1), (1, -3, 1)])  # 3 cells
        cone = Cone.from_generators(3, [sheared(t) for t in base.generators])
        assert max(abs(x) for t in cone.generators for x in t) > 10**12
        coords = self.assert_carried_match_folds(cone)
        assert coords.spacing > 40 and coords.base > 64
        assert hilbert_basis(cone).elements == tuple(sorted(map(sheared, hilbert_basis(base).elements)))
        assert sorted(interior_candidates(cone, None)) == sorted(map(sheared, interior_candidates(base, None)))


class TestFacetValueKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_reference_sieve(self, n):
        rng = random.Random(700 + n)
        cones = random_full_cones(rng, n, 40)
        # from rank 3 on, non-simplicial cones are in the draw
        assert n == 2 or any(len(c.generators) > n for c in cones)
        for cone in cones:
            assert hilbert_basis(cone, max_points=60000).elements == reference_hilbert_basis(cone)

    def test_matches_reference_on_pool_cones(self):
        for cone in pool_cones():
            assert hilbert_basis(cone).elements == reference_hilbert_basis(cone), cone.generators

    def test_image_matches_reference_packing(self):
        # image against one pairing per facet form on every generator, every
        # walked point, every Hilbert basis element and every minimal interior
        # candidate of each cone
        cones = corpus_cones()
        for cone in pool_cones() + cones + [dual_cone(c) for c in cones]:
            coords, cells = cell_walk(cone, None, "test")
            forms, n = cone.dual_pair[1], cone.ambient_rank
            points = list(cone.generators)
            for T, absdet, rays, walked in cells:
                assert [p for p, _ in rays] == [coords.image(t) for t in T]
                for u, x in walked.items():
                    point = _fold(T, unpack_numerators(x, absdet, n, coords.base), absdet)
                    assert u == reference_facet_values(forms, coords.width, point), (cone.generators, point)
                    points.append(point)
            points += hilbert_basis(cone).elements
            points += interior_candidates(cone, None)
            for point in points:
                assert coords.image(point) == reference_facet_values(forms, coords.width, point), (cone.generators, point)

    @pytest.mark.parametrize(
        "rays",
        [
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)],
        ],
        ids=["orthant", "hexagon"],
    )
    def test_coordinates_at_field_maximum_refused(self, rays):
        # every walked point and every ray has its coordinates in
        # (-bias, bias); the largest value of a coordinate field,
        # 2^spacing - 1, reads as 2^spacing - 1 - bias > bias, outside that
        # range, so a point read off it matches no walked point or ray
        cone = Cone.from_generators(3, rays)
        coords, cells = cell_walk(cone, None, "test")
        largest = sum(((1 << coords.spacing) - 1) * unit for unit in coords.units)
        point = ((1 << coords.spacing) - 1 - coords.bias,) * 3
        assert point[0] > coords.bias
        for T, absdet, packed_rays, points in cells:
            values = [*points.items(), *((p, c + coords.offset) for p, c in packed_rays)]
            for u, x in values:
                assert all(abs(v) < coords.bias for v in coords.point(x, u))
                with pytest.raises(AssertionError, match="does not reproduce its facet values"):
                    coords.point(largest, u)
        assert coords.point(largest, coords.image(point)) == point

    def test_guard_bits_compare_componentwise(self):
        # the unit forms of the orthant: the facet values are the coordinates
        rng = random.Random(5)
        for _ in range(3000):
            fields = rng.randint(1, 6)
            top = 2 ** rng.choice([3, 20, 64, 80])
            u = [rng.randint(0, top) for _ in range(fields)]
            # e near u in each field, so both outcomes of each comparison occur
            e = [max(0, x + rng.randint(-2, 1)) if rng.random() < 0.8 else rng.randint(0, top) for x in u]
            forms = [tuple(int(i == j) for j in range(fields)) for i in range(fields)]
            coords = FacetValues(forms, top, forms)
            pe, pu = coords.image(e), coords.image(u)
            reduced = coords.minimal_elements({pe, pu}) == [pe]
            assert reduced == all(x >= y for x, y in zip(u, e))
