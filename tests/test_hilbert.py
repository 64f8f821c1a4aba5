import itertools
import math
import random

import pytest

from mldhat.cones import Cone, ConeError, dual_cone
from mldhat.hilbert import _numerators, _pack, _sieve, hilbert_basis, parallelepiped_points
from mldhat.lattice import LatticeError, LimitError, as_vector, is_zero, pairing, row_hermite, vec_sub
from reference_kernels import determinant, independent_subsets, reference_numerators


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
    if not dual.contains(u):
        raise LatticeError("element lies outside the cone")
    grading = _grading_point(dual)
    gu = pairing(u, grading)
    for v in candidates:
        v = tuple(v)
        if v == u or is_zero(v):
            continue
        if pairing(v, grading) >= gu:
            continue
        if dual.contains(vec_sub(u, v)):
            return False
    return True


def reference_sieve(dual):
    """The Hilbert basis by the pairwise sieve over parallelepiped points.

    The same candidates as hilbert_basis, kept as coordinate vectors and
    scanned in grading order; u is reducible when u - v lies in the cone
    for an irreducible v found before it.
    """
    n = dual.ambient_rank
    candidates = set(dual.generators)
    for combo in independent_subsets(dual.generators, n):
        candidates.update(parallelepiped_points(combo))
    candidates.discard(tuple([0] * n))
    grading = _grading_point(dual)
    primal_rays = dual_cone(dual).generators
    ordered = sorted(candidates, key=lambda u: (pairing(u, grading), u))
    elements = []
    for u in ordered:
        reducible = False
        for v in elements:
            w = vec_sub(u, v)
            if all(pairing(r, w) >= 0 for r in primal_rays):
                reducible = True
                break
        if not reducible:
            elements.append(u)
    return tuple(sorted(elements))


def naive_basis_2d(dual, box):
    """Independent oracle: sieve a box with the bare irreducibility definition.

    Correct whenever every irreducible element fits in the box, which holds
    as soon as the box covers the parallelepiped sums of the extreme rays.
    """
    pts = [
        p
        for p in itertools.product(range(-box, box + 1), repeat=2)
        if any(p) and dual.contains(p)
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
        if dual.contains(w):
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
            walk = _numerators(rays)
            if d == 0:
                assert walk is None, rays
                continue
            absdet, numerators = walk
            assert (absdet, list(numerators)) == reference_numerators(rays), rays
        assert all(signs.values()), signs

    def test_one_hermite_form_per_subset(self, monkeypatch):
        # the only elimination left is row_hermite, called once per n-subset
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
        assert calls == [3] * math.comb(6, 3)


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
        # six rays in rank 3: C(6, 3) = 20 subsets to decompose
        hexagon = Cone.from_generators(
            3, [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]
        )
        with pytest.raises(LimitError, match="hilbert parallelepiped points: 20 ray subsets"):
            hilbert_basis(hexagon, max_points=19)
        with pytest.raises(LimitError, match="hilbert parallelepiped points: about"):
            hilbert_basis(hexagon, max_points=20)
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
            if dual.contains(p) and 0 < pairing(p, v0) <= 12
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


class TestFacetValueKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_reference_sieve(self, n):
        rng = random.Random(700 + n)
        cones = random_full_cones(rng, n, 40)
        # from rank 3 on, non-simplicial cones are in the draw
        assert n == 2 or any(len(c.generators) > n for c in cones)
        for cone in cones:
            assert hilbert_basis(cone, max_points=60000).elements == reference_sieve(cone)

    def test_guard_bits_compare_componentwise(self):
        rng = random.Random(5)
        for _ in range(3000):
            fields = rng.randint(1, 6)
            top = 2 ** rng.choice([3, 20, 64, 80])
            u = [rng.randint(0, top) for _ in range(fields)]
            # e near u in each field, so both outcomes of each comparison occur
            e = [max(0, x + rng.randint(-2, 1)) if rng.random() < 0.8 else rng.randint(0, top) for x in u]
            width = top.bit_length() + 1
            guard = _pack([1 << (width - 1)] * fields, width)
            reduced = _sieve([_pack(e, width), _pack(u, width)], guard) == [_pack(e, width)]
            assert reduced == all(x >= y for x, y in zip(u, e))
