import io
import json
import math
import pathlib
import random
from collections import Counter
from contextlib import redirect_stdout
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mldhat import toric
from mldhat.cli import main
from mldhat.cones import Cone, ConeError, FaceSpec, dual_cone
from mldhat.hilbert import HilbertBasis, hilbert_basis, interior_candidates
from mldhat.lattice import LatticeError, LimitError, as_vector, pairing, primitive, rank_of
from mldhat.toric import (
    SpanningWitness,
    mld_at_point,
    minimize_spanning_cost,
    spanning_cost_greedy,
)
from reference_kernels import (
    RationalPolytope,
    basis_greedy,
    contains,
    determinant,
    dual_elements_up_to,
    independent_subsets,
    is_interior_point,
    jet_orbit_dimension,
    reference_candidate_points,
    reference_enumerate_lattice_points,
    reference_fm_enumerate,
    reference_level_box,
    reference_level_search,
    reference_minimize_spanning_cost,
    reference_spanning_cost_greedy,
    witness_key,
)
from test_cones import random_embedded_cone
import test_lambda_positive as lambda_positive

A1_CONE = Cone.from_generators(2, [(2, -1), (0, 1)])

# cone over the unit square; its only minimal interior point (1, 1, 2) lies
# on the diagonal wall between the two cells of a triangulation
SQUARE_CONE = Cone.from_generators(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])

POOL = json.loads((pathlib.Path(__file__).parent.parent / "perfbench" / "pool.json").read_text(encoding="utf-8"))
LAMBDA_POSITIVE = json.loads((pathlib.Path(__file__).parent / "lambda_positive_cones.json").read_text(encoding="utf-8"))
# the toric cones of the benchmark pool and the lambda > 0 corpus, by family
SEARCHED = {
    name: [entry["rays"] for entry in POOL[name]]
    for name in ("surfaces", "toric_random", "simplicial_isolated", "cones_rank3", "cones_rank4")
}
SEARCHED["lambda_positive"] = [entry["rays"] for entry in LAMBDA_POSITIVE]


def spanning_cost_bruteforce(a, hb: HilbertBasis, dual: Cone, max_subsets=1_000_000) -> SpanningWitness:
    """Exhaustive minimum over all spanning subsets of the basis `hb` of
    the cone `dual`; the greedy oracle."""
    n = dual.ambient_rank
    a = as_vector(a, n)
    if not is_interior_point(dual, a):
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
        if best is None or witness_key(cand) < witness_key(best):
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
        points = reference_fm_enumerate(RationalPolytope(n, tuple(ineqs)))
        best = min(
            (basis_greedy(a, hb) for a in points), key=witness_key
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


def slice_polytope(greedy):
    """The level slice of a fed `_LevelGreedy`, {y : <r, V_0 + sum y_i V_i> >= 0}, as a `RationalPolytope`."""
    first, *others = list(zip(*greedy.columns))
    rows = tuple((tuple(pairing(r, v) for v in others), -pairing(r, first)) for r in greedy.cone.generators)
    return RationalPolytope(len(others), rows)


def random_interior_point(rng, cone):
    coeffs = [rng.randint(1, 3) for _ in cone.generators]
    return tuple(
        sum(c * g[j] for c, g in zip(coeffs, cone.generators))
        for j in range(cone.ambient_rank)
    )


class TestGreedy:
    def test_a1_cone_fixed_point(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        w = basis_greedy((1, 0), hb)
        assert w.value == 2
        assert w.chosen_set == ((1, 0), (1, 1))

    def test_smooth_orthant(self):
        hb = hilbert_basis(dual_cone(orthant(2)))
        w = basis_greedy((1, 1), hb)
        assert w.value == 2
        assert w.chosen_set == ((0, 1), (1, 0))

    def test_off_axis_point(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        w = basis_greedy((1, 1), hb)
        assert w.value == 3

    def test_rejects_boundary_point(self):
        # (0, 1) pairs to 0 with the dual ray (1, 0)
        hb = hilbert_basis(dual_cone(A1_CONE))
        with pytest.raises(LatticeError, match="^spanning cost needs an interior lattice point$"):
            basis_greedy((0, 1), hb)

    def test_rejects_outside_point(self):
        # (-1, 1) pairs to -1 with the dual ray (1, 0)
        hb = hilbert_basis(dual_cone(A1_CONE))
        with pytest.raises(LatticeError, match="^spanning cost needs an interior lattice point$"):
            basis_greedy((-1, 1), hb)

    def test_continues_across_calls(self):
        # the ranking fed in two parts picks what one call picks
        hb = hilbert_basis(dual_cone(A1_CONE))
        ranked = sorted((pairing(u, (1, 1)), u) for u in hb.elements)
        whole = spanning_cost_greedy(ranked, [])
        for cut in range(len(ranked) + 1):
            echelon = []
            assert spanning_cost_greedy(ranked[:cut], echelon) + spanning_cost_greedy(ranked[cut:], echelon) == whole
        assert whole == [(1, 0), (1, 1)]

    def test_rejects_a_wrong_rank_and_an_empty_basis(self):
        hb = hilbert_basis(dual_cone(A1_CONE))
        with pytest.raises(LatticeError, match="rank 2"):
            basis_greedy((1, 0, 0), hb)
        with pytest.raises(LatticeError):
            basis_greedy((1, 0), HilbertBasis(elements=()))


class TestGreedyEchelon:
    """The search against the all-subsets, all-candidates route.

    At every all-subsets candidate, the echelon-form greedy gives the same
    witness as a fresh rank test per scanned element.  The minimal cell
    candidates are the minimal interior points, found the same way from
    the all-subsets candidates, and the full report equals the one of the
    greedy run on every all-subsets candidate.
    """

    @staticmethod
    def agree(rays):
        cone = Cone.from_generators(len(rays[0]), rays)
        dual = dual_cone(cone)
        hb = hilbert_basis(dual)
        candidates = reference_candidate_points(cone)
        for a in candidates:
            assert basis_greedy(a, hb) == reference_spanning_cost_greedy(a, hb, dual), (rays, a)
        _, dual_rays = cone.dual_pair
        values = {a: [pairing(g, a) for g in dual_rays] for a in candidates}
        minimal = {
            a
            for a in candidates
            if not any(b != a and all(x >= y for x, y in zip(values[a], values[b])) for b in candidates)
        }
        assert sorted(interior_candidates(cone, None)) == sorted(minimal), rays
        assert all(math.gcd(*a) == 1 for a in minimal), rays
        assert minimize_spanning_cost(cone) == reference_minimize_spanning_cost(cone, hb), rays

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
        dual = dual_cone(A1_CONE)
        hb = hilbert_basis(dual)
        for a in [(1, 0), (1, 1), (2, 0)]:
            assert (
                spanning_cost_bruteforce(a, hb, dual).value
                == basis_greedy(a, hb).value
            )

    def test_orthant_three(self):
        dual = dual_cone(orthant(3))
        assert spanning_cost_bruteforce((1, 2, 3), hilbert_basis(dual), dual).value == 6

    def test_wedge_hand_enumeration(self):
        dual = Cone.from_generators(2, [(1, 0), (1, 3)])
        primal = dual_cone(dual)
        wedge = dual_cone(primal)
        hb = hilbert_basis(wedge)
        assert hb.elements == ((1, 0), (1, 1), (1, 2), (1, 3))
        w = spanning_cost_bruteforce((2, 1), hb, wedge)
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
            cones.append((c, d, hb))
        for c, d, hb in cones:
            for _ in range(10):
                a = random_interior_point(rng, c)
                g = basis_greedy(a, hb)
                b = spanning_cost_bruteforce(a, hb, d)
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
        dual = dual_cone(A1_CONE)
        assert spanning_cost_bruteforce(report.witness.point, hilbert_basis(dual), dual).value == report.witness.value

    def test_smooth_orthants(self):
        for n in (1, 2, 3, 4):
            report = minimize_spanning_cost(orthant(n))
            assert report.lambda_value == 0
            assert report.mather_mld == n

    def test_witness_is_valid(self):
        report = minimize_spanning_cost(A1_CONE)
        w = report.witness
        assert contains(A1_CONE, w.point, strict=True)
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
            assert contains(c, w.point, strict=True)
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
            dual = dual_cone(c)
            try:
                hb = hilbert_basis(dual)
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
                w = spanning_cost_bruteforce(a, hb, dual)
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
        assert witness_key(box_reference(SQUARE_CONE)) == witness_key(report.witness)

    def test_candidate_limit(self):
        # 2 cells of determinant 1, so at most 2^3 * 2 = 16 closed points
        with pytest.raises(LimitError, match=r"toric candidates: about 16 points exceed the limit \(15\)"):
            minimize_spanning_cost(SQUARE_CONE, max_points=15)
        assert minimize_spanning_cost(SQUARE_CONE, max_points=16) == minimize_spanning_cost(SQUARE_CONE)

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


def walked_candidates(cone):
    """The candidates whose level 1 the search walks: in point order, up to the witness."""
    candidates = sorted(interior_candidates(cone, None))
    return candidates[: candidates.index(minimize_spanning_cost(cone).witness.point) + 1]


class TestLevelRoute:
    """The level search against the greedy over the dual Hilbert basis it replaced."""

    def test_pool_cones_against_the_basis_route(self):
        # every rank-3 and rank-4 pool cone whose dual Hilbert basis takes at
        # most 200,000 points; the 72 smaller pool cones are in TestGreedyEchelon
        checked = {}
        for family in ("cones_rank3", "cones_rank4"):
            for entry in POOL[family]:
                cone = Cone.from_generators(len(entry["rays"][0]), entry["rays"])
                try:
                    hb = hilbert_basis(dual_cone(cone), max_points=200_000)
                except LimitError:
                    continue
                assert minimize_spanning_cost(cone) == reference_minimize_spanning_cost(cone, hb), entry["rays"]
                checked[family] = checked.get(family, 0) + 1
        assert checked == {"cones_rank3": 36, "cones_rank4": 6}

    def test_every_rank4_pool_cone_finishes_toric(self, tmp_path):
        # lambda = 0 on each: the chosen elements lie in the dual, are
        # independent and pair to 1 with the interior witness point
        path = tmp_path / "cone.json"
        assert len(POOL["cones_rank4"]) == 30
        for entry in POOL["cones_rank4"]:
            path.write_text(json.dumps({"lattice_rank": 4, "rays": entry["rays"]}))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["--seed", "0", "toric", "--cone", str(path)]) == 0
            report = json.loads(out.getvalue())
            witness = report["witness"]
            point, chosen = tuple(witness["point"]), [tuple(u) for u in witness["chosen_set"]]
            cone = Cone.from_generators(4, entry["rays"])
            assert (report["lambda"], report["mather_mld"], witness["value"]) == (0, 4, 4)
            assert contains(cone, point, strict=True)
            assert all(pairing(u, r) >= 0 for u in chosen for r in cone.generators)
            assert rank_of(chosen) == 4
            assert [pairing(u, point) for u in chosen] == [1] * 4

    def test_walked_slices_against_the_general_enumerator(self, monkeypatch):
        # every slice the search walks on the toric pool cones and the
        # lambda > 0 corpus, at every level it feeds: the walker against the
        # general enumerator and the box scan on the same dilate
        fed = []
        feed = toric._LevelGreedy.feed

        def recorded(greedy, level, max_points):
            feed(greedy, level, max_points)
            fed.append((greedy, level))

        monkeypatch.setattr(toric._LevelGreedy, "feed", recorded)
        walked = {}
        for name, searched in SEARCHED.items():
            for rays in searched:
                del fed[:]
                minimize_spanning_cost(Cone.from_generators(len(rays[0]), rays))
                for greedy, m in fed:
                    piece = slice_polytope(greedy)
                    dilate = RationalPolytope(piece.ambient_rank, tuple((c, m * b) for c, b in piece.inequalities))
                    points = toric.enumerate_lattice_points(greedy.projections, m)
                    assert points == reference_fm_enumerate(piece, m), (rays, greedy.point, m)
                    assert points == reference_enumerate_lattice_points(dilate), (rays, greedy.point, m)
                    walked[name, m] = walked.get((name, m), 0) + 1
        assert walked == {
            ("surfaces", 1): 50,
            ("toric_random", 1): 23,
            ("simplicial_isolated", 1): 8,
            ("cones_rank3", 1): 92,
            ("cones_rank4", 1): 140,
            ("lambda_positive", 1): 340,
            ("lambda_positive", 2): 92,
        }

    def test_hull_projections_against_fourier_motzkin(self):
        # every candidate, fed by the search or not, of the toric pool cones,
        # the lambda > 0 corpus, 120 rank-6 products of its rank-3 cones and
        # 60 seeded random rank-5 cones: the walk over the hulls of the
        # slice's projections against Fourier-Motzkin elimination of the
        # slice, at dilations 1-3
        rng = random.Random(43)
        rank3 = [(3, r["rays"], lambda_positive.witness(r)) for r in LAMBDA_POSITIVE if len(r["rays"][0]) == 3]
        cones = [Cone.from_generators(len(rays[0]), rays) for searched in SEARCHED.values() for rays in searched]
        cones += [lambda_positive.product(rng.sample(rank3, 2))[0] for _ in range(120)]
        cones += [random_pointed_cone(rng, 5, 1, 8) for _ in range(60)]
        hulls = Counter()
        for cone in cones:
            for a in interior_candidates(cone, None):
                greedy = toric._LevelGreedy(cone, a)
                greedy.feed(1, None)
                piece = slice_polytope(greedy)
                for m in (1, 2, 3):
                    points = toric.enumerate_lattice_points(greedy.projections, m)
                    assert points == reference_fm_enumerate(piece, m), (cone.generators, a, m)
                hulls[cone.ambient_rank] += len(greedy.projections) - 1
        assert hulls == {2: 0, 3: 948, 4: 5208, 5: 456, 6: 4964}

    def test_best_first_against_the_level_loop(self, monkeypatch):
        # the toric pool cones, the lambda > 0 corpus, 120 rank-6 products of
        # its rank-3 cones and 300 seeded random cones of rank 2-4, with no
        # limit and under each limit: best-first gives the report or the
        # LimitError text of the level loop it replaced, and feeds no
        # (point, level) that the level loop does not feed
        fed = []
        feed = toric._LevelGreedy.feed

        def recorded(greedy, level, max_points):
            fed.append((greedy.point, level))
            feed(greedy, level, max_points)

        def run(search, cone, max_points):
            del fed[:]
            try:
                outcome = search(cone, max_points)
            except LimitError as exc:
                outcome = str(exc)
            return outcome, set(fed)

        monkeypatch.setattr(toric._LevelGreedy, "feed", recorded)
        rng = random.Random(40)
        rank3 = [(3, r["rays"], lambda_positive.witness(r)) for r in LAMBDA_POSITIVE if len(r["rays"][0]) == 3]
        cones = [Cone.from_generators(len(rays[0]), rays) for searched in SEARCHED.values() for rays in searched]
        cones += [lambda_positive.product(rng.sample(rank3, 2))[0] for _ in range(120)]
        cones += [random_pointed_cone(rng, 2 + k % 3, 3, 5 + k % 3) for k in range(300)]
        refused, levels = 0, set()
        for max_points in (None, 0, 5, 10, 20, 40, 100, 400, 5000):
            for cone in cones:
                outcome, best_first = run(minimize_spanning_cost, cone, max_points)
                expected, level_loop = run(reference_level_search, cone, max_points)
                assert outcome == expected, (cone.generators, max_points)
                assert best_first <= level_loop, (cone.generators, max_points)
                refused += isinstance(outcome, str)
                levels |= {level for _, level in best_first}
        assert (len(cones), refused, levels) == (653, 3587, {1, 2})

    def test_enumerator_is_called_through_the_toric_binding(self, monkeypatch):
        # the search walks level 1 of each candidate up to the witness, and no more
        calls = []
        walk = toric.enumerate_lattice_points

        def counted(*args):
            points = walk(*args)
            calls.append(len(points))
            return points

        monkeypatch.setattr(toric, "enumerate_lattice_points", counted)
        for entry in POOL["cones_rank4"][:12]:
            cone = Cone.from_generators(4, entry["rays"])
            walked = walked_candidates(cone)
            del calls[:]
            minimize_spanning_cost(cone)
            assert len(calls) == len(walked) and calls[-1] >= 4, entry["rays"]

    @staticmethod
    def planned_search(monkeypatch, plans):
        """The search over fake candidates of rank 3: `plans[a][L]` picks at level L.

        Returns the witness and the (point, level) of every feed, in order.
        """
        fed = []

        class Planned:
            def __init__(self, cone, a):
                self.point, self.chosen, self.value = a, [], 0

            def feed(self, level, max_points):
                fed.append((self.point, level))
                for i in range(plans[self.point].get(level, 0)):
                    self.chosen.append((level, len(self.chosen), 0))
                    self.value += level

            def witness(self):
                return SpanningWitness(self.point, self.value, tuple(sorted(self.chosen)))

        monkeypatch.setattr(toric, "interior_candidates", lambda cone, max_points: list(plans))
        monkeypatch.setattr(toric, "_LevelGreedy", Planned)
        return minimize_spanning_cost(orthant(3)).witness, fed

    def test_level_one_stops_at_the_first_exact_candidate(self, monkeypatch):
        plans = {(3, 3, 3): {1: 3}, (2, 2, 2): {1: 3}, (1, 1, 1): {1: 2, 2: 1}}
        witness, fed = self.planned_search(monkeypatch, plans)
        assert (witness.point, witness.value) == ((2, 2, 2), 3)
        assert fed == [((1, 1, 1), 1), ((2, 2, 2), 1)]

    def test_tie_goes_to_the_next_level(self, monkeypatch):
        # after level 1 the keys are (5, (0, 0, 1)), (4, (1, 1, 1)) and
        # (5, (2, 2, 2)).  (1, 1, 1) walks level 2 with no pick, to the bound
        # 2 + 3 = 5: a tie with both others, and the points order it second.
        # (0, 0, 1) picks 2 there and goes to 3 + 3 = 6; (1, 1, 1) reaches 5
        # at level 3, exact and least.  (2, 2, 2), which the level loop walked
        # at level 2 to be exact at 1 + 2 + 2 = 5, is never fed past level 1
        plans = {(2, 2, 2): {1: 1, 2: 2}, (1, 1, 1): {1: 2, 3: 1}, (0, 0, 1): {1: 1, 2: 1}}
        witness, fed = self.planned_search(monkeypatch, plans)
        assert (witness.point, witness.value) == ((1, 1, 1), 5)
        assert fed[-1] == ((1, 1, 1), 3) and ((0, 0, 1), 3) not in fed
        assert ((2, 2, 2), 2) not in fed

    def test_a_tie_across_levels_goes_to_the_smaller_point(self, monkeypatch):
        # (1, 1, 1) waits at level 1 with one pick of 1 and the bound 1 + 2 * 2
        # = 5; (2, 2, 2) walks level 2 with no pick to the bound 2 + 3 = 5.
        # At the tie the point, not the level walked, decides: (1, 1, 1) is
        # fed level 2 and is exact at 5, and (2, 2, 2) never walks level 3,
        # where it would be exact at 5 too
        plans = {(2, 2, 2): {1: 2, 3: 1}, (1, 1, 1): {1: 1, 2: 2}}
        witness, fed = self.planned_search(monkeypatch, plans)
        assert (witness.point, witness.value) == ((1, 1, 1), 5)
        assert fed == [((1, 1, 1), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((1, 1, 1), 2)]

    def test_level_limits_name_the_level(self):
        # the candidates pass at 8 points, the level-1 slice of the witness does not
        cone = Cone.from_generators(3, [(-1, -2, -1), (0, -1, 1), (0, 0, 1)])
        with pytest.raises(LimitError, match=r"^toric level 1: about 18 points exceed the limit \(8\)$"):
            minimize_spanning_cost(cone, max_points=8)
        # lambda = 1: level 1 decides nothing, and a slice of level 2 has a box of 40 points
        cone = Cone.from_generators(3, [(-3, -2, 0), (-1, 0, 0), (-1, 2, -2)])
        with pytest.raises(LimitError, match=r"^toric level 2: about 40 points exceed the limit \(39\)$"):
            minimize_spanning_cost(cone, max_points=39)
        assert minimize_spanning_cost(cone, max_points=40) == minimize_spanning_cost(cone)
        assert minimize_spanning_cost(cone).lambda_value == 1

    def test_a_planted_non_primitive_candidate_is_refused(self, monkeypatch):
        # the Hermite form of [(2, 2, 2) | I] starts with (2, 0, 0): no element pairs to 1
        monkeypatch.setattr(toric, "interior_candidates", lambda cone, max_points: [(2, 2, 2)])
        with pytest.raises(AssertionError, match=r"^the Hermite form of \[\(2, 2, 2\) \| I\] does not start with e_1$"):
            minimize_spanning_cost(orthant(3))

    def test_candidates_are_primitive_and_boxes_match_the_per_axis_route(self):
        # every candidate of the toric pool cones, the lambda > 0 corpus and
        # random cones of rank 2-4 is primitive (module docstring), and at
        # levels 1-6 its box read off the dual rays is the one of one
        # elimination per axis
        rng = random.Random(38)
        cones = [Cone.from_generators(len(rays[0]), rays) for searched in SEARCHED.values() for rays in searched]
        cones += [random_pointed_cone(rng, 2 + k % 3, 3 if k % 3 < 2 else 2) for k in range(210)]
        pairs = 0
        for cone in cones:
            for a in interior_candidates(cone, None):
                assert math.gcd(*a) == 1, (cone.generators, a)
                greedy = toric._LevelGreedy(cone, a)
                greedy.feed(1, 10**15)
                levels = range(1, 7)
                assert [greedy.box(m) for m in levels] == reference_level_box(cone, a, levels), (cone.generators, a)
                pairs += len(levels)
        assert pairs > 10_000

    def test_rank_one_chart(self):
        # the chart of a ray: a slice of dimension 0 at every level
        report = minimize_spanning_cost(Cone.from_generators(1, [(1,)]))
        assert (report.lambda_value, report.witness.point, report.witness.chosen_set) == (0, (1,), ((1,),))


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
            base = basis_greedy(a, hb).value
            for k in (2, 3):
                scaled = tuple(k * x for x in a)
                assert basis_greedy(scaled, hb).value == k * base

    def test_superadditivity(self):
        rng = random.Random(71)
        for _ in range(20):
            c = random_pointed_cone(rng, 2, 5)
            hb = hilbert_basis(dual_cone(c))
            a = random_interior_point(rng, c)
            b = random_interior_point(rng, c)
            ab = tuple(x + y for x, y in zip(a, b))
            assert (
                basis_greedy(ab, hb).value
                >= basis_greedy(a, hb).value
                + basis_greedy(b, hb).value
            )

    def test_lower_bound_dimension(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(2, 3)
            c = random_pointed_cone(rng, n, 4)
            hb = hilbert_basis(dual_cone(c))
            a = random_interior_point(rng, c)
            assert basis_greedy(a, hb).value >= n


def reference_orbit_dimension(a, hb):
    """(cost, threshold) from every optimal spanning set, by brute force.

    The threshold is the least, over the spanning sets of least cost, of
    their largest pairing with a: from jet level m = threshold on, the orbit
    of the order map of a has dimension exactly (m + 1) n - cost.
    """
    n = len(a)
    costs = [
        (sum(pairing(u, a) for u in combo), max(pairing(u, a) for u in combo))
        for combo in independent_subsets(hb.elements, n)
    ]
    value = min(cost for cost, _ in costs)
    return value, min(top for cost, top in costs if cost == value)


def greedy_threshold(a, hb):
    """(cost, threshold) read off the greedy spanning set."""
    best = basis_greedy(a, hb)
    return best.value, max(pairing(u, best.point) for u in best.chosen_set)


def jet_faults(cone, greedy, rng):
    """(m, dimension) wherever the jets disagree twice with the cost of a greedy that has n picks.

    From the threshold m0, the largest pairing of the picks, the orbit of
    the arcs t^a u(t) in the m-jets has dimension (m + 1) n - cost(a); below
    it the dimension lies in [(m + 1) n - cost(a), (m + 1) n - m]
    (`spanning_cost_greedy`).  Each m of 1..m0 + 1 is checked by a rank over
    F_p at a random point, which can fall below the generic rank; so a
    dimension outside its range is redrawn once, and reported only when
    the second draw is outside it too.
    """
    n, a, cost = cone.ambient_rank, greedy.point, greedy.value
    threshold = max(sum(map(mul, u, a)) for u in greedy.chosen)
    faults = []
    for m in range(1, threshold + 2):
        elements = dual_elements_up_to(cone, a, m)
        low, high = (m + 1) * n - cost, (m + 1) * n - (cost if m >= threshold else m)
        for _ in range(2):
            dimension = jet_orbit_dimension(elements, a, m, rng)
            if low <= dimension <= high:
                break
        else:
            faults.append((m, dimension))
    return faults


def completed_greedies(monkeypatch, cone, greedy_class=toric._LevelGreedy):
    """The search's report and the greedies it completed (n picks), the witness's among them."""
    built = []

    class Recorded(greedy_class):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with monkeypatch.context() as patched:
        patched.setattr(toric, "_LevelGreedy", Recorded)
        report = minimize_spanning_cost(cone)
    return report, [g for g in built if len(g.chosen) == cone.ambient_rank]


class TestOrbitDimension:
    def test_cost_through_jets(self, monkeypatch):
        # the paper's route: the orbit dimension in the jets, from the dual
        # elements of the general enumerator, gives back the cost of the
        # witness and of every other candidate the search completes, on the
        # toric pool cones, the lambda > 0 corpus and 40 rank-6 products of
        # its rank-3 cones (lambda = 2)
        rng = random.Random(18)
        rank3 = [(3, r["rays"], lambda_positive.witness(r)) for r in LAMBDA_POSITIVE if len(r["rays"][0]) == 3]
        cones = [Cone.from_generators(len(rays[0]), rays) for searched in SEARCHED.values() for rays in searched]
        cones += [lambda_positive.product(rng.sample(rank3, 2))[0] for _ in range(40)]
        checked, thresholds = 0, set()
        for cone in cones:
            report, greedies = completed_greedies(monkeypatch, cone)
            assert report.witness == next(g for g in greedies if g.point == report.witness.point).witness()
            for greedy in greedies:
                assert not jet_faults(cone, greedy, rng), (cone.generators, greedy.point)
                thresholds.add(max(sum(map(mul, u, greedy.point)) for u in greedy.chosen))
                checked += 1
        assert (len(cones), checked, thresholds) == (273, 273, {1, 2})

    def test_cost_through_jets_at_random_points(self):
        # any interior point obeys the same law; random points of random
        # cones of rank 2-4 reach thresholds 1-8, so the range below the
        # threshold is checked at up to 7 levels
        rng = random.Random(43)
        reached = set()
        for _ in range(150):
            threshold = 9
            while threshold > 8:
                cone = random_pointed_cone(rng, rng.choice((2, 3, 3, 4)), 3)
                greedy = toric._LevelGreedy(cone, primitive(random_interior_point(rng, cone)))
                level = 0
                while len(greedy.chosen) < cone.ambient_rank:
                    level += 1
                    greedy.feed(level, None)
                threshold = max(sum(map(mul, u, greedy.point)) for u in greedy.chosen)
            assert not jet_faults(cone, greedy, rng), (cone.generators, greedy.point)
            reached.add((cone.ambient_rank, threshold))
        assert len(reached) == 22

    @pytest.mark.parametrize("offset", [1, -1])
    def test_a_greedy_one_off_is_caught(self, monkeypatch, offset):
        class OneOff(toric._LevelGreedy):
            """A planted fault: the value is off by `offset` once the greedy has n picks."""

            def feed(self, level, max_points):
                super().feed(level, max_points)
                if len(self.chosen) == self.cone.ambient_rank:
                    self.value += offset

        rng = random.Random(19)
        for rays in SEARCHED["lambda_positive"][:10] + SEARCHED["cones_rank4"][:4]:
            cone = Cone.from_generators(len(rays[0]), rays)
            _, greedies = completed_greedies(monkeypatch, cone, OneOff)
            assert greedies and all(jet_faults(cone, greedy, rng) for greedy in greedies), cone.generators

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
