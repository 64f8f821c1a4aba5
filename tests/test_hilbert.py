import itertools
import random

import pytest

from mldhat.cones import Cone, ConeError, dual_cone
from mldhat.hilbert import hilbert_basis, is_irreducible, parallelepiped_points
from mldhat.lattice import LatticeError, LimitError, pairing, vec_sub


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
            from mldhat.lattice import determinant

            d = determinant([list(r) for r in rays])
            if d == 0:
                continue
            pts = parallelepiped_points(tuple(rays))
            assert len(pts) == abs(d)
            assert len(set(pts)) == abs(d)


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
        # six rays in rank 3: C(6, 3) = 20 subsets to rank-test
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
