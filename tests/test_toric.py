import json
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mldhat.cones import (
    Cone,
    ConeError,
    FaceSpec,
    RationalPolytope,
    dual_cone,
    enumerate_lattice_points,
)
from mldhat.hilbert import HilbertBasis, hilbert_basis
from mldhat.lattice import LatticeError, LimitError, as_vector, pairing, rank_of
from mldhat.toric import (
    SpanningWitness,
    _candidate_points,
    mld_at_point,
    minimize_spanning_cost,
    spanning_cost_greedy,
)
from reference_kernels import determinant, independent_subsets, reference_spanning_cost_greedy
from test_cones import random_embedded_cone

A1_CONE = Cone.from_generators(2, [(2, -1), (0, 1)])

# cone over the unit square; its only minimal interior point (1, 1, 2) lies
# on the diagonal wall between the two cells of a triangulation
SQUARE_CONE = Cone.from_generators(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def spanning_cost_bruteforce(a, hb: HilbertBasis, max_subsets=1_000_000) -> SpanningWitness:
    """Exhaustive minimum over all spanning subsets; the greedy oracle."""
    n = hb.rank
    a = as_vector(a, n)
    if not hb.is_interior_point(a):
        raise LatticeError("spanning cost needs an interior lattice point")
    s = len(hb.elements)
    count = 1
    for i in range(n):
        count = count * (s - i) // (i + 1)
    if count > max_subsets:
        raise LimitError(
            f"{count} subsets exceed the guard ({max_subsets}); use the greedy form"
        )
    best = None
    for combo in independent_subsets(hb.elements, n):
        value = sum(pairing(u, a) for u in combo)
        cand = SpanningWitness(point=a, value=value, chosen_set=tuple(sorted(combo)))
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    if best is None:
        raise LatticeError("basis does not span; cone cannot be full-dimensional")
    return best


def box_reference(cone):
    """Minimum-cost witness by the zonotope box scan; the search's oracle.

    Every pairing <a, u> with a interior and u a nonzero semigroup element
    is a positive integer, so each term of an optimal spanning set at the
    minimizer a* is at most cost(a*).  Writing a* over at most n independent
    rays, each coefficient is at most cost(a*), so for any B >= cost(a*) the
    minimizer lies in the coordinate box of {sum c_v v : 0 <= c_v <= B}.
    The scan takes B = n, n + 1, ... and stops at the first box holding a
    point of cost <= B; the boxes are nested and each holds the sum of the
    rays, so it stops by B = cost(sum of the rays).
    """
    n = cone.ambient_rank
    hb = hilbert_basis(dual_cone(cone))
    _, dual_rays = cone.dual_pair
    bound = n
    while True:
        ineqs = [(r, 1) for r in dual_rays]  # strict interior for lattice points
        for j in range(n):
            e = tuple(1 if k == j else 0 for k in range(n))
            lo = bound * sum(min(0, v[j]) for v in cone.generators)
            hi = bound * sum(max(0, v[j]) for v in cone.generators)
            ineqs.append((e, lo))
            ineqs.append((tuple(-x for x in e), -hi))
        points = enumerate_lattice_points(RationalPolytope(n, tuple(ineqs)))
        best = min(
            (spanning_cost_greedy(a, hb) for a in points), key=lambda w: w.sort_key()
        )
        if best.value <= bound:
            return best
        bound += 1


def orthant(n):
    return Cone.from_generators(
        n, [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    )


def random_pointed_cone(rng, n, entry_bound, max_gens=None):
    max_gens = max_gens or n + 1
    while True:
        k = rng.randint(n, max_gens)
        gens = [
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n))
            for _ in range(k)
        ]
        gens = [g for g in gens if any(g)]
        if not gens or rank_of(gens) < n:
            continue
        try:
            return Cone.from_generators(n, gens)
        except ConeError:
            continue


def random_interior_point(rng, cone):
    coeffs = [rng.randint(1, 3) for _ in cone.generators]
    return tuple(
        sum(c * g[j] for c, g in zip(coeffs, cone.generators))
        for j in range(cone.ambient_rank)
    )


class TestGreedy:
    def test_a1_cone_fixed_point(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        w = spanning_cost_greedy((1, 0), hb)
        assert w.value == 2
        assert w.chosen_set == ((1, 0), (1, 1))

    def test_smooth_orthant(self):
        hb = hilbert_basis(dual_cone(orthant(2)))
        w = spanning_cost_greedy((1, 1), hb)
        assert w.value == 2
        assert w.chosen_set == ((0, 1), (1, 0))

    def test_off_axis_point(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        w = spanning_cost_greedy((1, 1), hb)
        assert w.value == 3

    def test_rejects_boundary_point(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        with pytest.raises(LatticeError):
            spanning_cost_greedy((0, 1), hb)


class TestGreedyEchelon:
    """The echelon-form greedy against a fresh rank test per scanned element."""

    @staticmethod
    def agree(rays):
        """Both greedy routes give the same witness at every candidate point."""
        cone = Cone.from_generators(len(rays[0]), rays)
        hb = hilbert_basis(dual_cone(cone))
        for a in _candidate_points(cone, None):
            assert spanning_cost_greedy(a, hb) == reference_spanning_cost_greedy(a, hb), (rays, a)

    def test_pool_cones(self):
        # the pool cones of the benchmark's toric ops
        pool = json.loads(
            (pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8")
        )
        searched = [e["rays"] for f in ("surfaces", "simplicial_isolated", "toric_random") for e in pool[f]]
        assert len(searched) == 72
        for rays in searched:
            self.agree(rays)

    def test_random_cones(self):
        rng = random.Random(15)
        for k in range(150):
            n = 2 + k % 3
            self.agree(random_pointed_cone(rng, n, 4 if n < 4 else 2).generators)


class TestBruteforce:
    def test_matches_greedy_on_examples(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        for a in [(1, 0), (1, 1), (2, 0)]:
            assert (
                spanning_cost_bruteforce(a, hb).value
                == spanning_cost_greedy(a, hb).value
            )

    def test_orthant_three(self):
        hb = hilbert_basis(dual_cone(orthant(3)))
        assert spanning_cost_bruteforce((1, 2, 3), hb).value == 6

    def test_wedge_hand_enumeration(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 3)])
        primal = dual_cone(dual)
        hb = hilbert_basis(dual_cone(primal))
        assert hb.elements == ((1, 0), (1, 1), (1, 2), (1, 3))
        w = spanning_cost_bruteforce((2, 1), hb)
        assert w.value == 5
        assert w.chosen_set == ((1, 0), (1, 1))

    def test_greedy_equals_bruteforce_random(self):
        rng = random.Random(59)
        pairs = 0
        cones = []
        while len(cones) < 30:
            n = 2 if len(cones) % 2 == 0 else 3
            c = random_pointed_cone(rng, n, 6)
            d = dual_cone(c)
            # skip duals whose ray sublattices have huge index; the candidate
            # sets would dominate the runtime without adding coverage
            import itertools as it

            volume = sum(
                abs(determinant([list(r) for r in combo]))
                for combo in it.combinations(d.generators, n)
                if rank_of(combo) == n
            )
            if volume > 800:
                continue
            hb = hilbert_basis(d)
            if len(hb.elements) > 14:
                continue
            cones.append((c, hb))
        for c, hb in cones:
            for _ in range(10):
                a = random_interior_point(rng, c)
                g = spanning_cost_greedy(a, hb)
                b = spanning_cost_bruteforce(a, hb)
                assert g.value == b.value
                pairs += 1
        assert pairs == 300


class TestMinimize:
    def test_a1_cone(self):
        report = minimize_spanning_cost(A1_CONE)
        assert report.lambda_value == 0
        assert report.mather_mld == 2

    def test_a1_cone_general_search(self):
        # the candidate search reports itself as "none", and the greedy cost
        # of its witness is the exhaustive minimum at the witness point
        report = minimize_spanning_cost(A1_CONE)
        assert report.lambda_value == 0
        assert report.mather_mld == 2
        assert report.fast_path == "none"
        hb = hilbert_basis(dual_cone(A1_CONE))
        assert spanning_cost_bruteforce(report.witness.point, hb).value == report.witness.value

    def test_smooth_orthants(self):
        for n in (1, 2, 3, 4):
            report = minimize_spanning_cost(orthant(n))
            assert report.lambda_value == 0
            assert report.mather_mld == n

    def test_witness_is_valid(self):
        report = minimize_spanning_cost(A1_CONE)
        w = report.witness
        assert A1_CONE.contains(w.point, strict=True)
        assert rank_of(w.chosen_set) == 2
        assert sum(pairing(u, w.point) for u in w.chosen_set) == w.value

    def test_requires_full_dimensional(self):
        c = Cone.from_generators(2, [(1, 0)])
        with pytest.raises(ConeError):
            minimize_spanning_cost(c)

    def test_structured_cone_witnesses_are_valid(self):
        # surfaces and cones over a smooth facet with one extra ray have
        # lambda = 0; the search must hand back a verifiable certificate:
        # interior point, dual elements, total n
        from math import gcd

        rng = random.Random(63)
        cones = []
        while len(cones) < 20:
            c = random_pointed_cone(rng, 2, 6)
            cones.append(c)
        while len(cones) < 40:
            t = rng.randint(2, 6)
            a1, a2 = rng.randint(0, t - 1), rng.randint(0, t - 1)
            if gcd(a1, t) != 1 or gcd(a2, t) != 1:
                continue
            try:
                c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (a1, a2, t)])
            except ConeError:
                continue
            cones.append(c)
        for c in cones:
            w = minimize_spanning_cost(c).witness
            n = c.ambient_rank
            assert w.value == n
            assert c.contains(w.point, strict=True)
            assert rank_of(w.chosen_set) == n
            assert all(
                all(pairing(u, v) >= 0 for v in c.generators) for u in w.chosen_set
            )
            assert sum(pairing(u, w.point) for u in w.chosen_set) == n

    def test_positive_lambda_cone(self):
        # simplicial but with a singular facet: the invariant exceeds zero;
        # the value was confirmed by exhaustive search over a radius-12 box
        c = Cone.from_generators(3, [(-3, 1, 2), (-1, -3, -4), (-1, -1, -2)])
        report = minimize_spanning_cost(c)
        assert report.fast_path == "none"
        assert report.lambda_value == 1
        assert report.mather_mld == 4

    def test_search_agrees_with_bruteforce_oracle(self):
        import itertools

        rng = random.Random(99)
        checked = 0
        while checked < 12:
            n = rng.choice([2, 3])
            c = random_pointed_cone(rng, n, 4)
            try:
                hb = hilbert_basis(dual_cone(c))
            except Exception:
                continue
            if len(hb.elements) > 10:
                continue
            report = minimize_spanning_cost(c)
            radius = min(
                report.witness.value
                * max(sum(abs(v[j]) for v in c.generators) for j in range(n))
                + 2,
                8,
            )
            _, dual_rays = c.dual_pair
            best = None
            for a in itertools.product(range(-radius, radius + 1), repeat=n):
                if not all(
                    sum(r[j] * a[j] for j in range(n)) >= 1 for r in dual_rays
                ):
                    continue
                w = spanning_cost_bruteforce(a, hb)
                if best is None or w.value < best:
                    best = w.value
            assert best - n == report.lambda_value, c.generators
            checked += 1

    def test_square_cone_needs_closed_parallelepipeds(self):
        # the points with every coefficient in (0, 1] over a ray subset miss
        # (1, 1, 2) and give lambda = 1 here
        report = minimize_spanning_cost(SQUARE_CONE)
        assert report.lambda_value == 0
        assert report.witness.point == (1, 1, 2)
        assert box_reference(SQUARE_CONE).sort_key() == report.witness.sort_key()

    def test_candidate_limit(self):
        with pytest.raises(LimitError, match="toric candidates"):
            minimize_spanning_cost(SQUARE_CONE, max_points=20)

    # every ray has a positive last coordinate, so the cone is pointed; the
    # box scan grows fast with the rank, so rank 4 gets 0/1 entries
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-2, 2)] * (n - 1), st.integers(1, 3)),
                min_size=n,
                max_size=n + 1,
            )
        )
    )
    def test_search_agrees_with_box_reference(self, rays):
        self._check_against_box_reference(rays)

    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * 3, st.integers(1, 2)),
            min_size=4,
            max_size=5,
        )
    )
    def test_search_agrees_with_box_reference_rank_4(self, rays):
        self._check_against_box_reference(rays)

    @staticmethod
    def _check_against_box_reference(rays):
        n = len(rays[0])
        assume(rank_of(rays) == n)
        cone = Cone.from_generators(n, rays)
        report = minimize_spanning_cost(cone)
        reference = box_reference(cone)
        assert report.lambda_value == reference.value - n
        assert report.witness.value == reference.value


class TestCrossPipeline:
    def test_threefold_with_binomial_equation(self):
        # the semigroup generated by u1, u2, u4, u3 with u1 + u2 + u3 = 2 u4
        # presents the hypersurface x1 x2 x3 = y^2, so the toric search and
        # the binomial closed form must agree
        from mldhat.hypersurface import binomial_lambda, validate_support

        dual = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
        hb = hilbert_basis(dual)
        assert hb.elements == ((0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 2))
        toric = minimize_spanning_cost(dual_cone(dual))
        support = validate_support([(1, 1, 1, 0), (0, 0, 0, 2)])
        assert toric.lambda_value == binomial_lambda(support).value == 1
        assert toric.mather_mld == 4

    def test_quadric_cone_two_presentations(self):
        # cone over the unit square presents x y = z w
        from mldhat.hypersurface import binomial_lambda, validate_support

        square = Cone.from_generators(
            3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
        )
        toric = minimize_spanning_cost(square)
        support = validate_support([(1, 1, 0, 0), (0, 0, 1, 1)])
        assert toric.lambda_value == binomial_lambda(support).value == 0


class TestInvariants:
    def test_homogeneity(self):
        rng = random.Random(67)
        for _ in range(20):
            c = random_pointed_cone(rng, 2, 5)
            hb = hilbert_basis(dual_cone(c))
            a = random_interior_point(rng, c)
            base = spanning_cost_greedy(a, hb).value
            for k in (2, 3):
                scaled = tuple(k * x for x in a)
                assert spanning_cost_greedy(scaled, hb).value == k * base

    def test_superadditivity(self):
        rng = random.Random(71)
        for _ in range(20):
            c = random_pointed_cone(rng, 2, 5)
            hb = hilbert_basis(dual_cone(c))
            a = random_interior_point(rng, c)
            b = random_interior_point(rng, c)
            ab = tuple(x + y for x, y in zip(a, b))
            assert (
                spanning_cost_greedy(ab, hb).value
                >= spanning_cost_greedy(a, hb).value
                + spanning_cost_greedy(b, hb).value
            )

    def test_lower_bound_dimension(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(2, 3)
            c = random_pointed_cone(rng, n, 4)
            hb = hilbert_basis(dual_cone(c))
            a = random_interior_point(rng, c)
            assert spanning_cost_greedy(a, hb).value >= n


def reference_orbit_dimension(a, hb):
    """(cost, threshold) from every optimal spanning set, by brute force.

    The threshold is the least, over the spanning sets of least cost, of
    their largest pairing with a: from jet level m = threshold on, the orbit
    of the order map of a has dimension exactly (m + 1) n - cost.
    """
    n = hb.rank
    costs = [
        (sum(pairing(u, a) for u in combo), max(pairing(u, a) for u in combo))
        for combo in independent_subsets(hb.elements, n)
    ]
    value = min(cost for cost, _ in costs)
    return value, min(top for cost, top in costs if cost == value)


def greedy_threshold(a, hb):
    """(cost, threshold) read off the greedy spanning set."""
    best = spanning_cost_greedy(a, hb)
    return best.value, max(pairing(u, best.point) for u in best.chosen_set)


class TestOrbitDimension:
    def test_agrees_with_bruteforce_threshold(self):
        # the greedy set is Gale optimal, so its largest pairing is the
        # least over all optimal sets (see spanning_cost_greedy)
        rng = random.Random(83)
        checks = 0
        thresholds = set()
        cones = 0
        while cones < 40:
            n = rng.choice((2, 2, 3, 3, 4))
            c = random_pointed_cone(rng, n, 3 if n < 4 else 2)
            d = dual_cone(c)
            if len(independent_subsets(d.generators, n)) > 40:
                continue
            try:
                hb = hilbert_basis(d, max_points=2000)
            except LimitError:
                continue
            if len(hb.elements) > 14:
                continue
            cones += 1
            for _ in range(6):
                a = random_interior_point(rng, c)
                expected = reference_orbit_dimension(a, hb)
                assert greedy_threshold(a, hb) == expected, (c.generators, a)
                thresholds.add(expected[1])
                checks += 1
        assert checks == 40 * 6
        assert len(thresholds) >= 15  # 20 distinct thresholds, 1 to 23

    def test_exact_smooth_case(self):
        # m = 3 reaches the threshold: dimension (3 + 1) * 2 - cost
        hb = hilbert_basis(dual_cone(orthant(2)))
        value, threshold = greedy_threshold((1, 1), hb)
        assert threshold <= 3 and (3 + 1) * 2 - value == 6

    def test_exact_a1_cone(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        value, threshold = greedy_threshold((1, 0), hb)
        assert threshold <= 2 and (2 + 1) * 2 - value == 4

    def test_interval_below_threshold(self):
        # m = 2 is below the threshold: (m + 1) n - cost is only a lower bound
        dual = Cone.from_generators(2, [(1, 0), (1, 3)])
        primal = dual_cone(dual)
        hb = hilbert_basis(dual_cone(primal))
        value, threshold = greedy_threshold((2, 1), hb)
        assert threshold > 2 and (2 + 1) * 2 - value == 1


class TestMldAtPoint:
    def test_smooth_face_of_orthant(self):
        c = orthant(2)
        report = mld_at_point(c, FaceSpec(generator_subset=(0,)))
        assert report.lambda_value == 0
        assert report.mather_mld == 2

    def test_whole_cone_face(self):
        report = mld_at_point(A1_CONE, FaceSpec(generator_subset=(0, 1)))
        assert report.lambda_value == 0
        assert report.mather_mld == 2

    def test_orthant_three_facet(self):
        c = orthant(3)
        report = mld_at_point(c, FaceSpec(generator_subset=(0, 1)))
        assert report.lambda_value == 0
        assert report.mather_mld == 3

    def test_zero_face_is_torus_point(self):
        report = mld_at_point(orthant(2), FaceSpec(generator_subset=()))
        assert report.lambda_value == 0
        assert report.mather_mld == 2
        assert report.torus_factor_rank == 2

    def test_no_face_on_split_cone(self):
        c = Cone.from_generators(2, [(1, 0)])
        report = mld_at_point(c)
        assert report.lambda_value == 0
        assert report.mather_mld == 2
        assert report.torus_factor_rank == 1

    def test_mld_keeps_original_dimension(self):
        c = Cone.from_generators(3, [(2, -1, 0), (0, 1, 0)])
        report = mld_at_point(c)
        assert report.lambda_value == 0
        assert report.mather_mld == 3
        assert report.torus_factor_rank == 1

    def test_whole_cone_face_equals_no_face(self):
        # the whole cone as a face and no face take one chart, field for field
        pool = json.loads(
            (pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8")
        )
        cones = [
            Cone.from_generators(len(e["rays"][0]), e["rays"])
            for f in ("surfaces", "simplicial_isolated", "toric_random")
            for e in pool[f]
        ]
        rng = random.Random(1820)
        cones += [random_embedded_cone(rng, 3) for _ in range(40)]
        for c in cones:
            whole = tuple(range(len(c.generators)))
            plain = mld_at_point(c)
            by_rays = mld_at_point(c, FaceSpec(generator_subset=whole))
            assert plain.face_reduced_from is None
            assert by_rays.face_reduced_from == whole
            for name in ("lambda_value", "mather_mld", "witness", "fast_path", "torus_factor_rank"):
                assert getattr(by_rays, name) == getattr(plain, name), (c.generators, name)
            assert plain.torus_factor_rank == c.ambient_rank - rank_of(c.generators)

    def test_torus_rank_of_a_face_is_its_codimension(self):
        c = orthant(3)
        for subset, rank in (((0, 1), 1), ((2,), 2), ((), 3), ((0, 1, 2), 0)):
            assert mld_at_point(c, FaceSpec(generator_subset=subset)).torus_factor_rank == rank
