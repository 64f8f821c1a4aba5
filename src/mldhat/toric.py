"""The invariant lambda and Mather mld at closed points of affine toric
varieties.

For a full-dimensional pointed cone with torus-fixed point x, the invariant
is

    lambda(x) = min over interior lattice points a of cost(a) - n,

where cost(a) is the minimum of sum_i <a, u_i> over all linearly
independent n-element subsets {u_1, ..., u_n} of the dual semigroup.  The
Mather minimal log discrepancy is lambda + dim X.

Candidate set.  The search evaluates the minimal interior lattice points
of the closed parallelepipeds {sum_{v in T} c_v v : 0 <= c_v <= 1} over
the cells T of the pulling triangulation of the cone
(`cones.pulling_triangulation`, no new rays), as
`hilbert.interior_candidates` finds them; they hold every minimizer, and
the witness is the minimizer of least point: the least interior point
under the key (cost, point) of the best-first heap below.
(1) Strict monotonicity: if a = b + w with b interior and w != 0 a lattice
point of the cone, then cost(a) > cost(b).  For an optimal set {u_i} of a,
cost(a) = sum <u_i, b> + sum <u_i, w> >= cost(b) + sum <u_i, w>; every
<u_i, w> >= 0, and the u_i span, so some <u_i, w> > 0.  So every
minimizer is minimal among the interior points under "a - b lies in the
cone", and a point minimal there is minimal in any candidate set holding
it.  (2) Every minimal interior point lies in a closed parallelepiped
(proved in `hilbert.interior_candidates`).  By (1) and (2), the least
witness over the minimal candidates, kept by the sieve of
`hilbert.FacetValues.minimal_elements` on the dual-ray values, is the
least over all interior points; the greedy runs on the minimal candidates
only.

Pairing levels.  The greedy of a candidate a (`spanning_cost_greedy`) is
fed the dual elements of pairing L with a, for L = 1, 2, ..., each level in
lexicographic order, in place of the dual Hilbert basis.
(i) Up to every level it picks what the greedy over the Hilbert basis
picks: a reducible u = e + w pairs strictly above e and w, as a is
interior, so by induction u lies in the span of the elements passed
before it, which is the span of the picks; the irreducible elements come
in the same order in both.  (ii) With n picks by level L their sum is
cost(a).  With k < n picks, every later pick pairs to L + 1 or more, so
cost(a) >= (sum of the picks) + (n - k)(L + 1), the bound of a.
(iii) Every pairing is a positive integer, so cost(a) >= n: lambda >= 0.
Best-first order.  A heap holds each candidate a under the key
(bound, a), the bound of (ii) after its last level L, with L = 0 before
any (bound n), and the search feeds the least key's candidate level L + 1.
Every key is a lower bound on (cost(a), a), by (ii) and (iii).  With n picks
the bound is the sum of the picks, so the key is exact; when the least
key has n picks, its (cost, point) is the least over all candidates, so
it is the witness.  Each feed raises a candidate's level, and every
candidate has n picks by the largest pairing of some spanning set of dual
elements, so the search ends.
Feeding level L to k picks of value v, bound v + (n - k) L, adds k' - k
picks of L: the bound becomes v + (k' - k) L + (n - k')(L + 1), up by
n - k'.  So a candidate's keys only grow, and the witness's entry keeps a
key at most its (cost, point): best-first feeds only entries whose key is
at most the witness's.  A loop over levels that drops each entry sorting
after the best exact candidate so far feeds all of those, and maybe more.
At level 1 every bound is n and the candidates come in point order, so
the first with n picks, value n, ends the search.

The elements of a level are the lattice points of a polytope.  Every
candidate a is primitive.  It is minimal among all interior points: an
interior b != a with a - b in the cone lies above a minimal interior
point, which lies in a closed parallelepiped (`interior_candidates`), so
in the pool, and the sieve would have dropped a.  And a = c a0 with
c >= 2 would leave a - a0 = (c - 1) a0 in the cone, a0 being interior.
So the row Hermite form of [a | I] has first column e_1, and its
identity block is a unimodular V with <a, V_0> = 1 and <a, V_i> = 0 for
i >= 1; the elements of level L are L V_0 + sum y_i V_i over the lattice
points y of L times the slice
S = {y : <r, V_0 + sum y_i V_i> >= 0 for every ray r}.  Each dual ray w
is sum z_i V_i with z_0 = <a, w> > 0, as a is interior, and S is the
convex hull of the points (z_1, ..., z_(n-1)) / z_0 (Ziegler, *Lectures on
Polytopes*, 1995, section 2.2); so it is nonempty.  S is bounded: a
recession direction y != 0 would make u = sum y_i V_i a nonzero dual
element with <a, u> = 0, and a is interior.  It is full-dimensional, the
section of the full-dimensional dual cone by a hyperplane through its
interior.  A projection of a hull is the hull of the projected points,
so the projection of L S onto y_0..y_k is cut out exactly by the facets
of the cone over the prefixes z_0..z_(k+1), each facet normal d giving
the row d_0 L + d_1 y_0 + ... + d_(k+1) y_k >= 0.  That cone is pointed,
as z_0 > 0, and full-dimensional, as S is, so `cones.dual_description`
gives its facet normals as its rays, with no lines.  So the projections
are set up once per candidate (`_LevelGreedy.feed`) and each level walks
its dilate (`enumerate_lattice_points`), with no test for an empty or an
unbounded slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapreplace
from operator import mul

from .cones import Cone, ConeError, FaceSpec, dual_description, face_chart
from .hilbert import hilbert_basis  # not called here; perfbench/tracing.py wraps this name
from .hilbert import interior_candidates
from .lattice import LatticeError, LimitError, express_in_basis, row_hermite
from .lattice import rank_of  # not called here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class SpanningWitness:
    """An interior point with a spanning set attaining its pairing cost."""

    point: tuple[int, ...]
    value: int
    chosen_set: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ToricMldReport:
    lambda_value: int
    mather_mld: int
    witness: SpanningWitness
    fast_path: str  # "none" from the search, "smooth" at the zero face; kept for report readers
    torus_factor_rank: int
    face_reduced_from: tuple[int, ...] | None


def spanning_cost_greedy(ranked, echelon) -> list[tuple[int, ...]]:
    """Feed the greedy the dual elements (pairing, u) of `ranked`; return those it picks.

    The greedy of a point a takes dual elements in order of pairing with a,
    ties broken by lexicographic order, and picks each one outside the span
    of the elements picked before, until it has n.  The spanning sets are
    the bases of a matroid, and the greedy basis is Gale optimal (Gale,
    1968): its k-th smallest pairing is at most the k-th smallest pairing
    of every basis, for each k.  Summing over k makes the greedy value the
    true minimum.  Taking k = n makes its largest pairing at most that of
    every basis, in particular of every optimal set, so the greedy set
    attains the jet-orbit threshold: the least, over optimal sets, of their
    largest pairing with a.  From level m on that threshold, the orbit of
    the order map of a in the m-jets has dimension exactly
    (m + 1) n - cost(a); below it only the bracket
    [(m + 1) n - cost(a), (m + 1) n - m] is known.

    `echelon` holds the picks so far in fraction-free echelon form, as
    (pivot column, row); it grows by the new picks, so the next call
    continues the same greedy.  Each stored row is zero at the pivot
    columns of the rows stored before it, so reducing u against the rows
    in turn zeroes every pivot column, and u lies in the span exactly when
    nothing is left.  Every nonzero dual element pairs positively with an
    interior point, so a pairing <= 0 raises LatticeError.
    """
    picked = []
    for paired, u in ranked:
        if paired <= 0:
            raise LatticeError("spanning cost needs an interior lattice point")
        if len(echelon) == len(u):
            break
        v = list(u)
        for col, row in echelon:
            if v[col]:
                p, q = row[col], v[col]
                v = [p * x - q * y for x, y in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            picked.append(u)
    return picked


def enumerate_lattice_points(projections, dilation):
    """The lattice points of `dilation` times the slice with these projections, in lexicographic order.

    Projection k holds rows d of length k + 2: at dilation L a point
    y_0..y_k lies in L times the projection of the slice onto y_0..y_k
    exactly when d_0 L + d_1 y_0 + ... + d_(k+1) y_k >= 0 for every row
    (`_LevelGreedy.feed`).  A depth-first search reads the range of y_k,
    given y_0..y_(k-1), off projection k: with c = d_(k+1) and
    s = sum_(i<k) d_(i+1) y_i, a row gives y_k >= ceil((-L d_0 - s) / c)
    when c > 0 and y_k <= floor((-L d_0 - s) / c) when c < 0.
    Exactness: each accepted prefix lies in the exact rational projection,
    by induction on k.  Its rows with c != 0 hold by the range, and a row
    with c = 0 leaves out y_k and holds on the whole projection, so on its
    image, projection k - 1, which holds y_0..y_(k-1) (for k = 0 the row
    reads d_0 L >= 0, true on the nonempty projection).  The last projection is the slice
    itself, so every leaf is a lattice point of the dilate; and the
    prefixes of every lattice point of the dilate lie in the projections,
    so they meet every bound and the search misses none.  A range that no
    lattice point extends is empty, and the search backs up.  Every range
    is finite: projection k of the nonempty bounded slice is nonempty and
    bounded, so it holds a row with c > 0 and one with c < 0, as y_k would
    otherwise grow, or fall, without bound on it.
    """
    bounds = [
        (
            [(d[1:-1], d[-1], -dilation * d[0]) for d in rows if d[-1] > 0],
            [(d[1:-1], d[-1], -dilation * d[0]) for d in rows if d[-1] < 0],
        )
        for rows in projections
    ]
    points, prefix = [], []

    def search(k):
        if k == len(bounds):
            points.append(tuple(prefix))
            return
        below, above = bounds[k]
        lo = max(-((sum(map(mul, c, prefix)) - b) // ck) for c, ck, b in below)
        hi = min((sum(map(mul, c, prefix)) - b) // -ck for c, ck, b in above)
        for x in range(lo, hi + 1):
            prefix.append(x)
            search(k + 1)
            prefix.pop()

    search(0)
    return points


class _LevelGreedy:
    """The greedy of one candidate a, fed one pairing level at a time (module docstring)."""

    def __init__(self, cone: Cone, a):
        self.cone, self.point = cone, a
        self.columns = self.projections = self.vertices = None
        self.echelon: list = []
        self.chosen: list[tuple[int, ...]] = []
        self.value = 0

    def feed(self, level, max_points):
        """Continue the greedy with the dual elements that pair to `level` with a.

        The first call sets up the projections of the slice (module
        docstring).  It takes the row Hermite form h of [a | I], raising
        AssertionError when its first column is not e_1 (a candidate that is
        not primitive), and reads each dual ray w off the rows of h,
        z = express_in_basis(h, (<a, w>, w)): the point w / <a, w> of the
        slice is y = (z_1, ..., z_(n-1)) / z_0.  Projection k < n - 2 is
        cut out by the facet normals d of the cone over the prefixes
        z_0..z_(k+1), the rays of one `dual_description`; the slice itself,
        projection n - 2, by the rows (<r, V_0>, ..., <r, V_(n-1)>) over the
        rays r.  A rank-1 chart has no coordinates and no projections.
        No guard bounds the set-up: the cone over V points of rank d has
        O(V^floor(d/2)) facets (McMullen's upper bound theorem), and so has
        each cone the sweep passes through, the dual of the cone over the
        points swept so far; V is the cone's dual-ray count, which
        `Cone.from_generators` has already swept, so the set-up is
        polynomial in that count for fixed rank.  With `max_points` set, the
        same at every level, each level counts the lattice points of the
        bounding box of its dilate first (`box`), and a LimitError names
        the level when they are more than `max_points`.
        """
        a, n = self.point, self.cone.ambient_rank
        if self.projections is None:
            h = row_hermite([(x, *(int(i == j) for j in range(n))) for i, x in enumerate(a)])
            if [row[0] for row in h] != [1] + [0] * (n - 1):
                raise AssertionError(f"the Hermite form of [{a} | I] does not start with e_1")
            basis = [row[1:] for row in h]
            self.columns = list(zip(*basis))
            self.vertices = [express_in_basis(h, (sum(map(mul, w, a)), *w)) for w in self.cone.dual_pair[1]]
            self.projections = [dual_description([z[:k + 2] for z in self.vertices], k + 2)[1] for k in range(n - 2)]
            if n > 1:
                self.projections.append([tuple(sum(map(mul, r, v)) for v in basis) for r in self.cone.generators])
        if max_points is not None and (estimate := self.box(level)) > max_points:
            raise LimitError(f"toric level {level}: about {estimate} points exceed the limit ({max_points})")
        points = enumerate_lattice_points(self.projections, level)
        elements = sorted(tuple(sum(map(mul, column, (level, *y))) for column in self.columns) for y in points)
        picked = spanning_cost_greedy([(level, u) for u in elements], self.echelon)
        self.chosen += picked
        self.value += level * len(picked)

    def box(self, level):
        """The lattice points of the bounding box of the level's dilate, read off the dual rays.

        The slice is the convex hull of its points z_k / z_0 (`feed`), so y_k
        runs over min_w ceil(L z_k / z_0) .. max_w floor(L z_k / z_0) at
        level L, a range of at least 0 points as the slice is nonempty.
        """
        estimate = 1
        for k in range(1, self.cone.ambient_rank):
            lo = min(-(-level * z[k] // z[0]) for z in self.vertices)
            hi = max(level * z[k] // z[0] for z in self.vertices)
            estimate *= hi - lo + 1
        return estimate

    def witness(self) -> SpanningWitness:
        return SpanningWitness(point=self.point, value=self.value, chosen_set=tuple(sorted(self.chosen)))


def minimize_spanning_cost(cone: Cone, max_points: int | None = None) -> ToricMldReport:
    """lambda and mld-hat at the torus-fixed point of a full-dimensional cone.

    The best-first level search of the module docstring: a heap of
    (bound, point, level fed, greedy), one entry per candidate, until the
    least entry has n picks.  `max_points` caps the cells and points of
    the candidates and the points of each level slice, by the box estimate
    of `_LevelGreedy.box`.
    """
    n = cone.ambient_rank
    if not cone.is_full_dimensional:
        raise ConeError("split off the torus factor before minimizing")
    heap = [(n, a, 0, _LevelGreedy(cone, a)) for a in sorted(interior_candidates(cone, max_points))]
    while len(heap[0][3].chosen) < n:
        _, point, level, greedy = heap[0]
        greedy.feed(level + 1, max_points)
        heapreplace(heap, (greedy.value + (n - len(greedy.chosen)) * (level + 2), point, level + 1, greedy))
    best = heap[0][3].witness()
    return ToricMldReport(
        lambda_value=best.value - n,
        mather_mld=best.value,
        witness=best,
        fast_path="none",
        torus_factor_rank=0,
        face_reduced_from=None,
    )


def mld_at_point(
    cone: Cone,
    face: FaceSpec | None = None,
    max_points: int | None = None,
) -> ToricMldReport:
    """lambda and mld-hat at the distinguished point of a face of the cone.

    `face_chart` gives the face's chart and the rank n - dim F of the torus
    factor beside it (`face=None` is the whole cone).  lambda is computed on
    the chart; mld-hat = lambda + n keeps the ambient dimension of the
    original variety.  The zero face has no chart: its distinguished point
    lies in the dense torus, a smooth point, with lambda 0.
    """
    indices, chart, torus_rank = face_chart(cone, face)
    if chart is None:
        search = ToricMldReport(0, 0, SpanningWitness(point=(), value=0, chosen_set=()), "smooth", 0, None)
    else:
        search = minimize_spanning_cost(chart, max_points=max_points)
    return replace(
        search,
        mather_mld=search.lambda_value + cone.ambient_rank,
        torus_factor_rank=torus_rank,
        face_reduced_from=None if face is None else indices,
    )
