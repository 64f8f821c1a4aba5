import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from mldhat import cones
from mldhat.cones import (
    Cone,
    ConeError,
    FaceError,
    FaceSpec,
    dual_cone,
    dual_description,
    face_chart,
    pulling_triangulation,
    resolve_face,
)
from mldhat.lattice import LatticeError, as_vector, pairing, primitive, rank_of
from reference_kernels import (
    contains,
    determinant,
    face_cone,
    facets,
    has_isolated_fixed_point,
    is_simplicial,
    is_smooth,
    is_zero,
    reference_face_chart,
    reference_facet_masks,
    reference_resolve_face,
    split_torus_factor,
    vec_neg,
    vec_scale,
    vec_sub,
)


def exact_coefficients(cols, u):
    """The c with sum c_i cols_i = u for independent cols, by Fraction
    elimination; None when the cols are dependent or u is outside their span.
    """
    k = len(cols)
    mat = [[Fraction(c[i]) for c in cols] + [Fraction(u[i])] for i in range(len(u))]
    for col in range(k):
        piv = next((i for i in range(col, len(mat)) if mat[i][col]), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        mat[col] = [e / mat[col][col] for e in mat[col]]
        for i in range(len(mat)):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    if any(mat[i][k] for i in range(k, len(mat))):
        return None
    return [mat[i][k] for i in range(k)]


def in_cone_caratheodory(u, gens):
    """Is u a nonnegative combination of gens?  By Caratheodory's theorem it
    is exactly when it is one of some linearly independent subset, whose
    coefficients are unique and found by exact elimination.
    """
    return any(
        (c := exact_coefficients(subset, u)) is not None and all(x >= 0 for x in c)
        for k in range(len(u) + 1)
        for subset in itertools.combinations(gens, k)
    )


def reference_dual_description(ineq_vectors, n):
    """The rank-pruned double description that the bitmask sweep replaced.

    Every step recombines all positive/negative pairs and keeps a candidate
    when the processed inequalities tight at it have the rank of a
    one-dimensional face modulo lineality.
    """
    ineqs = []
    seen = set()
    for a in ineq_vectors:
        a = primitive(as_vector(a, n))
        if is_zero(a) or a in seen:
            continue
        seen.add(a)
        ineqs.append(a)
    lines = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    rays = []
    processed = []

    def prune(candidates):
        lineality_dim = n - rank_of(processed) if processed else n
        out = []
        seen_local = set()
        for r in candidates:
            r = primitive(r)
            if is_zero(r) or r in seen_local:
                continue
            seen_local.add(r)
            tight = [a for a in processed if pairing(r, a) == 0]
            if n - rank_of(tight) == lineality_dim + 1:
                out.append(r)
        return sorted(out)

    for a in ineqs:
        pivot = next((l for l in lines if pairing(l, a) != 0), None)
        if pivot is not None:
            d0 = pairing(pivot, a)
            new_lines = []
            for l in lines:
                if l is pivot:
                    continue
                d = pairing(l, a)
                if d == 0:
                    new_lines.append(l)
                else:
                    new_lines.append(primitive(vec_sub(vec_scale(d0, l), vec_scale(d, pivot))))
            lines = sorted(new_lines)
            rays = rays + [pivot, vec_neg(pivot)]
        pos = [r for r in rays if pairing(r, a) > 0]
        zero = [r for r in rays if pairing(r, a) == 0]
        neg = [r for r in rays if pairing(r, a) < 0]
        combos = []
        for rp in pos:
            wp = pairing(rp, a)
            for rn in neg:
                wn = pairing(rn, a)
                combos.append(vec_sub(vec_scale(wp, rn), vec_scale(wn, rp)))
        processed.append(a)
        rays = prune(pos + zero + combos)
    return sorted(lines), sorted(rays)


def reference_extreme_rays(gens, dual_lines, dual_rays, n):
    """Generators whose tight dual constraints cut out a one-dimensional face."""
    out = []
    for g in gens:
        tight = list(dual_lines) + [r for r in dual_rays if pairing(r, g) == 0]
        if n - rank_of(tight) == 1:
            out.append(g)
    return out


def reference_from_generators(n, generators):
    """Cone.from_generators on the reference kernels: (generators, dual pair)."""
    if type(n) is not int:
        raise ConeError(f"ambient rank must be an integer, got {n!r}")
    if n < 1:
        raise ConeError("ambient rank must be positive")
    gens = []
    for g in generators:
        v = as_vector(g, n)
        if is_zero(v):
            raise ConeError("zero vector is not a valid ray generator")
        v = primitive(v)
        if v not in gens:
            gens.append(v)
    if not gens:
        raise ConeError("a cone needs at least one generator")
    lines, rays = reference_dual_description(gens, n)
    if rank_of(list(lines) + list(rays)) < n:
        raise ConeError("cone is not pointed: it contains a nonzero linear subspace")
    extremes = tuple(sorted(reference_extreme_rays(gens, lines, rays, n)))
    return extremes, reference_dual_description(extremes, n)


ENTRIES = (0, 1, -1, 2, -2, 3, -3, 5, -5)


def random_vectors(rng, n):
    """1 to n + 4 vectors, with a repeat, a negative or a multiple at times."""
    vecs = [tuple(rng.choice(ENTRIES) for _ in range(n)) for _ in range(rng.randint(1, n + 4))]
    roll = rng.random()
    if roll < 0.15:
        vecs.append(vec_neg(rng.choice(vecs)))  # often not pointed
    elif roll < 0.3:
        vecs.append(vec_scale(rng.randint(2, 3), rng.choice(vecs)))
    elif roll < 0.45:
        vecs = vecs[: max(1, n - 2)]  # often not full-dimensional
    return vecs


def distinct_inequalities(vecs, n):
    """The distinct nonzero primitive vectors, in input order: the cone they cut out is the one of `vecs`."""
    return list(dict.fromkeys(primitive(as_vector(v, n)) for v in vecs if any(v)))


def assert_facet_table(c):
    """The facet table the cone keeps is the one pairings give."""
    assert c.facets == reference_facet_masks(c.generators, c.dual_pair[1]), c


def moment_rays(k):
    return [(1, i, i * i, i**3) for i in range(1, k + 1)]


def random_pointed_cone(rng, n, entry_bound, max_gens=None):
    """Rejection-sample a full-dimensional pointed cone."""
    max_gens = max_gens or n + 2
    while True:
        k = rng.randint(n, max_gens)
        gens = []
        for _ in range(k):
            v = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n))
            if any(v):
                gens.append(v)
        if not gens or rank_of(gens) < n:
            continue
        try:
            return Cone.from_generators(n, gens)
        except ConeError:
            continue


def brute_membership(c, point, radius=24):
    """Oracle: is the point a nonnegative rational combination of generators?

    Checked by scanning small nonnegative integer combinations of the
    generators of c scaled by denominators up to 4.
    """
    # instead verify the dual characterization directly on a grid of functionals
    # <u, v> >= 0 for all generators v implies <u, point> must be >= 0
    n = c.ambient_rank
    for u in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(pairing(u, v) >= 0 for v in c.generators):
            if pairing(u, point) < 0:
                return False
    return True


class TestConstruction:
    def test_primitivizes_and_reduces(self):
        c = Cone.from_generators(2, [(2, 0), (0, 3), (1, 1)])
        assert c.generators == ((0, 1), (1, 0))

    def test_rejects_zero_ray(self):
        with pytest.raises(ConeError):
            Cone.from_generators(2, [(0, 0), (1, 0)])

    def test_rejects_non_pointed(self):
        with pytest.raises(ConeError):
            Cone.from_generators(2, [(1, 0), (-1, 0)])

    @pytest.mark.parametrize("rank", [True, 1.0, "1"])
    def test_rejects_non_integer_rank(self, rank):
        with pytest.raises(ConeError):
            Cone.from_generators(rank, [(1,)])

    @pytest.mark.parametrize(
        "rank, rays, kind",
        [
            (2, [(1, 0), (0, 1, 0)], LatticeError),
            (0, [()], ConeError),
            (2, [], ConeError),
        ],
        ids=["generator-rank", "ambient-rank", "none"],
    )
    def test_error_classes(self, rank, rays, kind):
        # a generator of the wrong rank is a LatticeError, a bad cone a
        # ConeError, and both are ValueErrors; the other cases have tests
        # of their own
        with pytest.raises(kind) as caught:
            Cone.from_generators(rank, rays)
        assert type(caught.value) is kind and isinstance(caught.value, ValueError)

    def test_direct_construction_checks_the_generators(self):
        # Cone(...) bypasses from_generators; __post_init__ still refuses
        # an empty generator list and a generator of the wrong rank
        with pytest.raises(ConeError, match="a cone needs at least one generator"):
            Cone(2, (), ([], []), [])
        with pytest.raises(ConeError, match="generator rank mismatch"):
            Cone(2, ((1, 0, 0),), ([], []), [])

    def test_keeps_extreme_rays_only(self):
        c = Cone.from_generators(2, [(1, 0), (1, 1), (0, 1)])
        assert c.generators == ((0, 1), (1, 0))

    @pytest.mark.parametrize(
        "rays, sweeps",
        [
            ([(1, 2, 0), (1, 0, 0)], 1),
            ([(1, 2, 0), (1, 1, 0), (1, 0, 0)], 2),
            ([(1, 0), (1, 1), (0, 1)], 1),
        ],
        ids=["flat", "flat-with-inner-ray", "full-with-inner-ray"],
    )
    def test_sweeps_again_only_to_drop_a_ray_of_a_flat_cone(self, monkeypatch, rays, sweeps):
        # the generators are swept sorted, so the first sweep is canonical
        # unless a ray is dropped from a cone with dual lines
        calls = []
        original = cones.dual_description

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cones, "dual_description", counted)
        c = Cone.from_generators(len(rays[0]), rays)
        assert len(calls) == sweeps
        assert c.dual_pair == reference_dual_description(c.generators, c.ambient_rank)
        assert_facet_table(c)


class TestDual:
    def test_index_two_wedge(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        assert dual_cone(c).generators == ((1, 0), (1, 2))

    def test_orthant_self_dual(self):
        for n in (1, 2, 3):
            c = Cone.from_generators(n, [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)])
            assert dual_cone(c).generators == c.generators

    def test_solved_by_hand(self):
        c = Cone.from_generators(2, [(1, 0), (1, 3)])
        d = dual_cone(c)
        assert d.generators == ((0, 1), (3, -1))
        # confirm nonnegativity on a grid of cone points
        for s in range(4):
            for t in range(4):
                pt = (s * 1 + t * 1, t * 3)
                assert all(pairing(u, pt) >= 0 for u in d.generators)

    def test_biduality_on_random_cones(self):
        rng = random.Random(101)
        for _ in range(500):
            n = rng.randint(2, 3)
            c = random_pointed_cone(rng, n, 6)
            assert dual_cone(dual_cone(c)).generators == c.generators

    def test_dual_requires_full_dimensional(self):
        c = Cone.from_generators(2, [(1, 0)])
        with pytest.raises(ConeError):
            dual_cone(c)


class TestMembership:
    def test_interior_point_of_wedge(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        assert contains(c, (1, 0), strict=True)

    def test_origin_not_interior(self):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert not contains(c, (0, 0), strict=True)
        assert contains(c, (0, 0))

    def test_boundary_point(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        assert not contains(c, (0, 1), strict=True)
        assert contains(c, (0, 1))

    def test_interior_requires_full_dimensional(self):
        c = Cone.from_generators(2, [(1, 0)])
        with pytest.raises(ConeError):
            contains(c, (1, 0), strict=True)

    def test_closed_membership_of_flat_cone(self):
        # points off the span of a lower-dimensional cone are not members
        c = Cone.from_generators(2, [(1, 0)])
        assert contains(c, (3, 0))
        assert not contains(c, (-1, 0))
        assert not contains(c, (1, 1))

    def test_generators_are_members(self):
        rng = random.Random(5)
        for _ in range(50):
            c = random_pointed_cone(rng, rng.randint(2, 3), 5)
            for g in c.generators:
                assert contains(c, g)

    def test_interior_implies_closed(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 3)
            c = random_pointed_cone(rng, n, 5)
            a = tuple(sum(col) for col in zip(*c.generators))
            if contains(c, a, strict=True):
                assert contains(c, a)

    def test_against_functional_grid_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            c = random_pointed_cone(rng, 2, 3)
            for pt in itertools.product(range(-3, 4), repeat=2):
                assert contains(c, pt) == brute_membership(c, pt, radius=12)


class TestSplit:
    def test_single_ray_in_plane(self):
        c = Cone.from_generators(2, [(1, 0)])
        indices, chart, torus_rank = face_chart(c)
        assert indices == (0,)
        assert chart.ambient_rank == 1
        assert torus_rank == 1
        assert chart.generators == ((1,),)

    def test_full_orthant_unchanged(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        indices, chart, torus_rank = face_chart(c)
        assert indices == (0, 1, 2)
        assert chart is c and torus_rank == 0

    def test_full_rank_skew_cone_unchanged(self):
        c = Cone.from_generators(2, [(2, 2), (0, 4)])
        _, chart, torus_rank = face_chart(c)
        assert torus_rank == 0 and chart.ambient_rank == 2

    def test_reduced_cone_is_full_dimensional(self):
        c = Cone.from_generators(3, [(1, 0, 1), (0, 1, 1)])
        _, chart, torus_rank = face_chart(c)
        assert torus_rank == 1
        assert chart.is_full_dimensional


class TestFaces:
    def test_orthant_facet(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        idx = tuple(
            i for i, g in enumerate(c.generators) if g in ((1, 0, 0), (0, 1, 0))
        )
        indices, face, torus_rank = face_chart(c, FaceSpec(generator_subset=idx))
        assert indices == idx
        assert face.ambient_rank == 2
        assert face.generators == ((0, 1), (1, 0))
        assert torus_rank == 1

    def test_whole_cone_face(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        _, face, torus_rank = face_chart(c, FaceSpec(generator_subset=(0, 1)))
        assert face is c and torus_rank == 0

    def test_whole_face_of_a_cone_that_does_not_span(self):
        # the torus factor of the whole cone does not depend on how it is asked for
        c = Cone.from_generators(3, [(1, 0, 0), (1, 2, 0)])
        whole = face_chart(c, FaceSpec(generator_subset=(0, 1)))
        assert whole == face_chart(c)
        assert whole[2] == 1

    def test_smooth_ray_face(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        idx = c.generators.index((0, 1))
        _, face, torus_rank = face_chart(c, FaceSpec(generator_subset=(idx,)))
        assert face.ambient_rank == 1
        assert face.generators == ((1,),)
        assert torus_rank == 1

    def test_zero_face_has_no_chart(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert face_chart(c, FaceSpec(generator_subset=())) == ((), None, 3)

    def test_functional_spec(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        # (1,0) is in the dual and vanishes exactly on the ray (0,1)
        idx = resolve_face(c, FaceSpec(supporting_functional=(1, 0)))
        assert tuple(c.generators[i] for i in idx) == ((0, 1),)

    def test_non_face_subset_rejected(self):
        # in the orthant, {e1, e3} spans a 2-face; {e1} alone is a face but
        # a diagonal pair of a square cone is not
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
        gens = c.generators
        # find a pair of rays that do not share a facet: (1,0,0) and (0,1,1)
        i = gens.index((1, 0, 0))
        j = gens.index((0, 1, 1))
        with pytest.raises(FaceError):
            face_chart(c, FaceSpec(generator_subset=(i, j)))

    @pytest.mark.parametrize("index", [0.9, True])
    def test_non_integer_ray_index_rejected(self, index):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(FaceError):
            resolve_face(c, FaceSpec(generator_subset=(index,)))

    def test_repeated_ray_index_rejected(self):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(FaceError, match="repeat"):
            resolve_face(c, FaceSpec(generator_subset=(0, 0)))
        assert resolve_face(c, FaceSpec(generator_subset=(1, 0))) == (0, 1)

    def test_functional_outside_dual_rejected(self):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(FaceError):
            resolve_face(c, FaceSpec(supporting_functional=(-1, 0)))

    @pytest.mark.parametrize("spec", [{}, {"supporting_functional": (1, 0), "generator_subset": (0,)}])
    def test_face_spec_needs_exactly_one_description(self, spec):
        with pytest.raises(FaceError, match="specify exactly one of supporting_functional or generator_subset"):
            FaceSpec(**spec)

    def test_face_cones_full_dimensional_and_pointed(self):
        rng = random.Random(17)
        for _ in range(40):
            c = random_pointed_cone(rng, 3, 4)
            for subset in facets(c):
                if not subset:
                    continue
                _, face, _ = face_chart(c, FaceSpec(generator_subset=subset))
                assert face.is_full_dimensional


def every_face(c):
    """(ray indices, supporting functional) of each face of a pointed cone.

    A functional in the dual cone is a line plus a nonnegative combination
    of dual rays, and it vanishes on a ray of c exactly when each dual ray
    with a positive coefficient does; so the faces are the zero sets of the
    sums of the subsets of the dual rays (the empty sum gives c itself).
    """
    _, dual_rays = c.dual_pair
    faces = {}
    for k in range(len(dual_rays) + 1):
        for chosen in itertools.combinations(dual_rays, k):
            u = tuple(sum(col) for col in zip(*chosen)) if chosen else (0,) * c.ambient_rank
            zero_set = tuple(i for i, g in enumerate(c.generators) if pairing(u, g) == 0)
            faces.setdefault(zero_set, u)
    return sorted(faces.items())


def random_embedded_cone(rng, n):
    """A pointed cone spanning a random sublattice of rank 2..n in Z^n.

    A full-dimensional cone of rank k is mapped into Z^n by a random
    injective integer matrix, which need not be saturated.
    """
    k = rng.randint(2, n)
    c = random_pointed_cone(rng, k, 3)
    if k == n:
        return c
    while True:
        columns = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if rank_of(columns) == k:
            break
    rays = [tuple(sum(x * col[i] for x, col in zip(g, columns)) for i in range(n)) for g in c.generators]
    return Cone.from_generators(n, rays)


def pool_rays():
    """The ray lists of the cones of the benchmark pool, as recorded."""
    pool = json.loads((pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8"))
    for key in ("surfaces", "toric_random", "simplicial_isolated", "cones_rank3", "cones_rank4"):
        for entry in pool[key]:
            yield [tuple(r) for r in entry["rays"]]


def pool_cones():
    for rays in pool_rays():
        yield Cone.from_generators(len(rays[0]), rays)


def lambda_positive_rays():
    """The ray lists of the lambda > 0 corpus cones."""
    corpus = json.loads((pathlib.Path(__file__).parent / "lambda_positive_cones.json").read_text(encoding="utf-8"))
    return [[tuple(r) for r in entry["rays"]] for entry in corpus]


def volume(c, cells):
    """The volume of the slice <h, x> = 1 of the cone, h the sum of its dual rays.

    A cell T slices to the simplex on the points t / <h, t>, of volume
    |det T| / prod_t <h, t> up to a factor that depends on n only.
    """
    h = [sum(col) for col in zip(*c.dual_pair[1])]
    total = Fraction(0)
    for T in cells:
        heights = 1
        for t in T:
            heights *= pairing(h, t)
        total += Fraction(abs(determinant(T)), heights)
    return total


class TestPullingTriangulation:
    """The cells cover the cone, their interiors are disjoint, and their
    volumes add up to the same total after a lattice automorphism changes
    which ray is pulled first."""

    HEXAGON = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]
    SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    MOMENT = [(1, i, i * i, i**3) for i in range(30)]

    @staticmethod
    def check(c, rng, points=30):
        """The number of sampled points in the interior of a cell."""
        n = c.ambient_rank
        cells = list(pulling_triangulation(c))
        assert len(set(cells)) == len(cells)
        for T in cells:
            assert len(T) == n and list(T) == sorted(T) and set(T) <= set(c.generators)
            assert rank_of(T) == n
        # a signed coordinate permutation keeps every determinant and
        # reorders the rays, so another ray is pulled first
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        moved = Cone.from_generators(n, [tuple(signs[i] * g[perm[i]] for i in range(n)) for g in c.generators])
        assert volume(c, cells) == volume(moved, list(pulling_triangulation(moved)))
        inside = 0
        for _ in range(points):
            # zero coefficients put some points on the boundary or on walls
            coeffs = [rng.randint(1, 60) if rng.random() < 0.75 else 0 for _ in c.generators]
            x = tuple(sum(k * g[j] for k, g in zip(coeffs, c.generators)) for j in range(n))
            if not any(x):
                continue
            where = [exact_coefficients(T, x) for T in cells]
            assert any(all(k >= 0 for k in w) for w in where), (c.generators, x)
            interior = sum(all(k > 0 for k in w) for w in where)
            assert interior <= 1, (c.generators, x)
            inside += interior
        return inside

    # a polygon or a 3-polytope whose first ray is joined to every other by
    # an edge has k - 2 or k - 3 cells, the least any triangulation has
    @pytest.mark.parametrize(
        "rays, cells", [(HEXAGON, 4), (SQUARE, 2), (MOMENT, 27)], ids=["hexagon", "square", "moment"]
    )
    def test_named_cones(self, rays, cells):
        c = Cone.from_generators(len(rays[0]), rays)
        assert len(list(pulling_triangulation(c))) == cells
        assert self.check(c, random.Random(len(rays))) >= 10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_cones(self, n):
        rng = random.Random(1300 + n)
        inside = 0
        for _ in range(30):
            inside += self.check(random_pointed_cone(rng, n, 3, max_gens=n + 3), rng, points=10)
        assert inside >= 100

    def test_simplicial_cone_is_its_own_cell(self):
        c = Cone.from_generators(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)])
        assert list(pulling_triangulation(c)) == [c.generators]

    @pytest.mark.parametrize("rays", [[(1, 0, 0), (1, 2, 0)], [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (0, 0, 1, 0)]])
    def test_cone_that_does_not_span_refused(self, rays):
        # the second has as many rays as the rank, but spans only 3 dimensions
        c = Cone.from_generators(len(rays[0]), rays)
        with pytest.raises(ConeError, match="full-dimensional"):
            list(pulling_triangulation(c))


class TestFaceChartAgainstReference:
    """`face_chart` against `face_cone` and `split_torus_factor` as they were."""

    def check_every_face(self, c):
        n = c.ambient_rank
        indices, chart, torus_rank = face_chart(c)
        assert indices == tuple(range(len(c.generators)))
        assert (chart, torus_rank) == split_torus_factor(c)
        assert torus_rank == n - rank_of(c.generators)
        for subset, u in every_face(c):
            by_rays = face_chart(c, FaceSpec(generator_subset=subset))
            assert face_chart(c, FaceSpec(supporting_functional=u)) == by_rays
            got_indices, got_chart, got_rank = by_rays
            assert got_indices == subset
            if not subset:
                assert (got_chart, got_rank) == (None, n)
                with pytest.raises(FaceError):
                    face_cone(c, FaceSpec(generator_subset=subset))
                continue
            expected = face_cone(c, FaceSpec(generator_subset=subset))
            assert got_chart.ambient_rank == expected.ambient_rank
            assert got_chart.generators == expected.generators
            assert got_rank == n - rank_of([c.generators[i] for i in subset])

    def test_pool_cones(self):
        for c in pool_cones():
            self.check_every_face(c)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_cones(self, n):
        rng = random.Random(1800 + n)
        for _ in range(60):
            self.check_every_face(random_embedded_cone(rng, n))


class TestPredicates:
    def test_orthant(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert is_simplicial(c)
        assert is_smooth(c)
        assert has_isolated_fixed_point(c)

    def test_singular_wedge_still_isolated(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        assert is_simplicial(c)
        assert not is_smooth(c)
        assert has_isolated_fixed_point(c)

    def test_cone_over_square_not_simplicial(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert not is_simplicial(c)
        assert not is_smooth(c)

    def test_non_isolated_example(self):
        # cone over a square has a singular 2-face? no: test a cone with a
        # singular facet instead: rays e1, e2, e1 + 2 e3 span a facet lattice
        # of index 2 when paired as {e1, e1+2e3}? construct directly:
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2)])
        # facet spanned by (1,0,0),(1,0,2) has saturation Z^2 but index-2 lattice
        assert not has_isolated_fixed_point(c)


class TestBitmaskKernelAgainstRankReference:
    def test_dual_description_identical(self):
        # the masks are checked against the facet table by pairings
        rng = random.Random(2024)
        kinds = {"pointed": 0, "not pointed": 0, "not spanning": 0}
        for _ in range(1000):
            n = rng.randint(1, 5)
            vecs = random_vectors(rng, n)
            lines, rays, masks = dual_description(vecs, n)
            assert (lines, rays) == reference_dual_description(vecs, n), vecs
            # one bit per inequality as given, zero and repeated ones included
            assert masks == reference_facet_masks(vecs, rays), vecs
            if rank_of(vecs) < n:
                kinds["not spanning"] += 1
            kinds["pointed" if rank_of(lines + rays) == n else "not pointed"] += 1
        assert all(count >= 100 for count in kinds.values()), kinds

    def test_from_generators_identical(self):
        rng = random.Random(2025)
        for _ in range(1000):
            n = rng.randint(1, 5)
            vecs = random_vectors(rng, n)
            try:
                expected = reference_from_generators(n, vecs)
            except ConeError as exc:
                with pytest.raises(ConeError) as got:
                    Cone.from_generators(n, vecs)
                assert str(got.value) == str(exc)
                continue
            c = Cone.from_generators(n, vecs)
            assert c.generators == expected[0]
            assert c.dual_pair == expected[1], vecs
            # the dual lines are a basis of span(generators)^perp
            assert c.ambient_rank - len(c.dual_pair[0]) == rank_of(c.generators)

    def test_dual_pairs_of_dual_cones(self):
        rng = random.Random(2026)
        for _ in range(200):
            n = rng.randint(1, 5)
            try:
                c = Cone.from_generators(n, random_vectors(rng, n))
            except ConeError:
                continue
            if not c.is_full_dimensional:
                continue
            d = dual_cone(c)
            assert d.dual_pair == reference_dual_description(d.generators, n)
            assert_facet_table(c)
            assert_facet_table(d)
            assert dual_cone(d).generators == c.generators

    @pytest.mark.parametrize("k", [4, 7, 12])
    def test_moment_cones(self, k):
        c = Cone.from_generators(4, moment_rays(k))
        expected = reference_from_generators(4, moment_rays(k))
        assert c.generators == expected[0] and len(c.generators) == k
        assert c.dual_pair == expected[1]
        d = dual_cone(c)
        assert d.dual_pair == reference_dual_description(d.generators, 4)

    @pytest.mark.parametrize(
        "gens, canonical",
        [
            # (1, 1) lies inside the orthant
            (((0, 1), (1, 0), (1, 1)), ((0, 1), (1, 0))),
            # (1, 1, 2) lies inside the cone over the unit square
            (
                ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)),
                ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
            ),
            (((1, 0), (0, 1)), ((0, 1), (1, 0))),
            (((0, 1), (2, 0)), ((0, 1), (1, 0))),
            (((0, 1), (0, 1), (1, 0)), ((0, 1), (1, 0))),
        ],
        ids=["redundant", "redundant-rank-3", "unsorted", "not-primitive", "repeated"],
    )
    def test_canonical_pair(self, gens, canonical):
        n = len(gens[0])
        c = Cone.from_generators(n, gens)
        assert c.generators == canonical
        assert c.dual_pair == reference_dual_description(canonical, n)
        d = dual_cone(c)
        assert d.dual_pair == reference_dual_description(d.generators, n)
        assert dual_cone(d) == c
        assert dual_cone(d).dual_pair == c.dual_pair

    def test_non_pointed_generators_rejected(self):
        with pytest.raises(ConeError, match="not pointed"):
            Cone.from_generators(2, ((-1, 0), (0, 1), (1, 0)))


class TestFromGeneratorsCanonicalises:
    """`Cone.from_generators` is the one normalisation before the sweep: its
    generators, dual pair and facet table match the rank-pruned reference
    and the table by pairings, whatever order, scale and repeats the rays
    come in."""

    @staticmethod
    def check(rays, rng):
        n = len(rays[0])
        c = Cone.from_generators(n, rays)
        expected = reference_from_generators(n, rays)
        assert c.generators == expected[0], rays
        assert c.dual_pair == expected[1] == reference_dual_description(c.generators, n), rays
        assert_facet_table(c)
        # shuffled, scaled, repeated and with a sum of two rays inside, the
        # rays give the same cone
        inner = tuple(x + y for x, y in zip(rng.choice(rays), rng.choice(rays)))
        raw = [vec_scale(rng.randint(1, 3), r) for r in rays] + [rng.choice(rays), inner]
        rng.shuffle(raw)
        again = Cone.from_generators(n, raw)
        assert (again.generators, again.dual_pair, again.facets) == (c.generators, c.dual_pair, c.facets), raw

    def test_pool_cones(self):
        rng = random.Random(2028)
        for rays in pool_rays():
            self.check(rays, rng)

    def test_lambda_positive_corpus(self):
        rng = random.Random(2029)
        for rays in lambda_positive_rays():
            self.check(rays, rng)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_cones(self, n):
        rng = random.Random(2030 + n)
        for _ in range(40):
            self.check(list(random_embedded_cone(rng, n).generators), rng)


class TestDualDescription:
    def test_halfspace(self):
        lines, rays, masks = dual_description([(1, 0)], 2)
        assert lines == [(0, 1)]
        assert rays == [(1, 0)]
        assert masks == [0]

    def test_masks_have_one_bit_per_inequality_as_given(self):
        # the zero vector vanishes on both rays and (2, 0) wherever (1, 0)
        # does, so (0, 1) and (1, 1) hold bits 3 and 4
        lines, rays, masks = dual_description([(1, 0), (0, 0), (2, 0), (0, 1), (1, 1)], 2)
        assert (lines, rays) == ([], [(0, 1), (1, 0)])
        assert masks == [0b00111, 0b01010]

    def test_raw_rows_cut_out_the_cone_of_their_distinct_primitive_rows(self):
        # zero, repeated and scaled rows change the masks only: bit j of a
        # ray's mask is set for a zero row, and otherwise is the bit of the
        # distinct primitive row that rows[j] reduces to
        rng = random.Random(2027)
        planted = {"zero": 0, "repeated": 0, "scaled": 0}
        for _ in range(600):
            n = rng.randint(1, 5)
            rows = random_vectors(rng, n)
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(sorted(planted))
                row = rng.choice(rows)
                if kind == "zero":
                    row = (0,) * n
                elif kind == "scaled":
                    row = vec_scale(rng.randint(2, 4), row)
                rows.insert(rng.randint(0, len(rows)), row)
                planted[kind] += 1
            distinct = distinct_inequalities(rows, n)
            lines, rays, masks = dual_description(rows, n)
            expected_lines, expected_rays, distinct_masks = dual_description(distinct, n)
            assert (lines, rays) == (expected_lines, expected_rays), rows
            index = {a: k for k, a in enumerate(distinct)}
            for m, d in zip(masks, distinct_masks):
                for j, row in enumerate(rows):
                    assert m >> j & 1 == (d >> index[primitive(row)] & 1 if any(row) else 1), rows
        assert all(count >= 300 for count in planted.values()), planted

    def test_generation_completeness_via_lp(self):
        # every grid point satisfying the inequalities must be a combination
        # of the returned generators with free line and nonnegative ray
        # coefficients; checked exactly by Caratheodory's theorem over the
        # rays and both signs of every line
        rng = random.Random(47)
        checked = 0
        for _ in range(25):
            n = rng.randint(1, 3)
            vecs = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            vecs = [v for v in vecs if any(v)] or [(1,) * n]
            lines, rays, _ = dual_description(vecs, n)
            gens = list(rays) + list(lines) + [vec_neg(l) for l in lines]
            for u in itertools.product(range(-2, 3), repeat=n):
                if all(pairing(u, v) >= 0 for v in vecs):
                    assert in_cone_caratheodory(u, gens), (vecs, lines, rays, u)
                    checked += 1
        assert checked >= 200

    def test_random_agreement_with_grid(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 3)
            k = rng.randint(1, 4)
            vecs = [
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)
            ]
            vecs = [v for v in vecs if any(v)] or [(1,) * n]
            lines, rays, _ = dual_description(vecs, n)
            # every generator satisfies the inequalities
            for l in lines:
                assert all(pairing(l, v) == 0 for v in vecs)
            for r in rays:
                assert all(pairing(r, v) >= 0 for v in vecs)
            # every grid point satisfying the inequalities is generated:
            # check via membership in the cone generated by (lines, rays)
            gens = list(rays) + list(lines) + [tuple(-x for x in l) for l in lines]
            for u in itertools.product(range(-2, 3), repeat=n):
                sat = all(pairing(u, v) >= 0 for v in vecs)
                if sat and any(x != 0 for x in u):
                    # u must have nonnegative pairing with every functional that
                    # is nonnegative on all generators (weak duality check)
                    for w in itertools.product(range(-2, 3), repeat=n):
                        if all(pairing(w, g) >= 0 for g in gens):
                            assert pairing(w, u) >= 0


def face_outcome(fn, c, face):
    """What fn returns on a face, with a chart as its rays and dual pair, or the FaceError it raises."""
    try:
        result = fn(c, face)
    except FaceError as exc:
        return type(exc).__name__, str(exc)
    if fn in (resolve_face, reference_resolve_face):
        return result
    indices, chart, torus_rank = result
    if chart is None:
        return indices, None, torus_rank
    return indices, (chart.ambient_rank, chart.generators, chart.dual_pair), torus_rank


class TestFaceTableAgainstReference:
    """`resolve_face` and `face_chart` read off the facet table, against the
    sum of the vanishing dual rays and the chart lattice from `saturate`."""

    # the cone over a cube has square facets, so a diagonal of one is no face
    CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]

    @staticmethod
    def check_every_ray_subset(c, seen):
        assert_facet_table(c)
        assert_facet_table(face_chart(c)[1])
        assert face_outcome(face_chart, c, None) == face_outcome(reference_face_chart, c, None)
        for k in range(len(c.generators) + 1):
            for subset in itertools.combinations(range(len(c.generators)), k):
                face = FaceSpec(generator_subset=subset[::-1])
                got = face_outcome(resolve_face, c, face)
                assert got == face_outcome(reference_resolve_face, c, face), (c, subset)
                assert face_outcome(face_chart, c, face) == face_outcome(reference_face_chart, c, face), (c, subset)
                if got == subset:
                    chart = face_chart(c, face)[1]
                    if chart is not None:
                        assert_facet_table(chart)
                    seen["face"] += 1
                else:
                    seen["no functional" if "no supporting" in got[1] else "not a face"] += 1

    def test_every_ray_subset(self):
        rng = random.Random(2200)
        cube_in_rank_5 = [(x, y, z, 1, x + y + 2 * z) for x, y, z, _ in self.CUBE]
        cones = [Cone.from_generators(4, self.CUBE), Cone.from_generators(5, cube_in_rank_5)]
        cones += [random_embedded_cone(rng, n) for n in (2, 3, 4, 5) for _ in range(40)]
        seen = {"face": 0, "not a face": 0, "no functional": 0}
        for c in cones:
            self.check_every_ray_subset(c, seen)
        assert all(seen.values()), seen
        assert sum(not c.is_full_dimensional for c in cones) >= 40
