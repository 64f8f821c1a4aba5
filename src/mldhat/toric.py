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
S = {y : <r, V_0 + sum y_i V_i> >= 0 for every ray r}.  S is the convex
hull of the points w / <a, w> over the dual rays w (Ziegler, *Lectures on
Polytopes*, 1995, section 2.2), as every dual ray pairs positively with
the interior point a; so it is nonempty.  S is bounded: a recession
direction y != 0 would make u = sum y_i V_i a nonzero dual element with
<a, u> = 0, and a is interior.  So the slice is eliminated once per
candidate (`eliminate`) and each level walks its dilate
(`enumerate_lattice_points`), with no test for an empty or an unbounded
slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapreplace
from math import gcd
from operator import mul

from .cones import Cone, ConeError, FaceSpec, face_chart
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


MAX_PROJECTION_ROWS = 100_000  # inequalities one Fourier-Motzkin projection may hold


def _tightest(rows):
    """Rows (c, b, g) of <c, y> >= b / g, c primitive, g >= 1 prime to b: the tightest of each c.

    A row of largest offset implies the others of its normal direction.  A
    row with a zero normal, 0 >= b / g, is dropped: the slice is nonempty
    (module docstring), so it holds there, like every row derived from the
    slice's rows.
    """
    kept = {}
    for normal, num, den in rows:
        h = gcd(*normal)
        if h:
            r = gcd(num, den * h)
            c, num, den = tuple(x // h for x in normal), num // r, den * h // r
            if c not in kept or num * kept[c][2] > kept[c][1] * den:
                kept[c] = (c, num, den)
    return list(kept.values())


def eliminate(inequalities, dimension, level):
    """The Fourier-Motzkin projections of the slice {y : <c, y> >= b}: entry k onto y_0..y_k.

    Each projection is a list of `_tightest` rows, and entry dimension - 1
    is the slice itself.  Eliminating y_k passes the rows with c_k = 0 and
    adds, for each row with c_k = p > 0 and each with c_k = -q < 0, their
    sum q * first + p * second, cross multiplied in integers.  The offsets
    stay exact: dilating by m >= 1 scales every offset by m and no normal,
    so one elimination serves every level.  A projection of more than
    MAX_PROJECTION_ROWS rows raises LimitError, naming `level`, before its
    rows are made.
    """
    rows = _tightest((c, b, 1) for c, b in inequalities)
    projections = []
    for k in reversed(range(dimension)):
        projections.append(rows)
        lower = [row for row in rows if row[0][k] > 0]
        upper = [row for row in rows if row[0][k] < 0]
        count = len(rows) - len(lower) - len(upper) + len(lower) * len(upper)
        if count > MAX_PROJECTION_ROWS:
            raise LimitError(
                f"toric level {level}: eliminating coordinate {k} gives {count} inequalities, "
                f"over the limit ({MAX_PROJECTION_ROWS})"
            )
        rows = _tightest(
            [(c[:k], b, g) for c, b, g in rows if not c[k]]
            + [
                (tuple(-d[k] * x + c[k] * y for x, y in zip(c, d[:k])), -d[k] * b * h + c[k] * e * g, g * h)
                for c, b, g in lower
                for d, e, h in upper
            ]
        )
    return projections[::-1]


def enumerate_lattice_points(projections, dilation):
    """The lattice points of `dilation` times the slice with these projections, in lexicographic order.

    A depth-first search reads the range of y_k, given y_0..y_(k-1), off
    `projections[k]`.  At dilation m a row <c, y> >= m b / g holds at a
    lattice point exactly when <c, y> >= B = ceil(m b / g), as c is
    integral; with s = sum_(i<k) c_i y_i, it gives y_k >= ceil((B - s) / c_k)
    when c_k > 0 and y_k <= floor((B - s) / c_k) when c_k < 0.
    Exactness: Fourier-Motzkin elimination gives each projection of the
    slice exactly over the rationals, so the prefixes of every lattice point
    of the slice meet every bound and the search misses none; and a row of
    the slice whose last nonzero entry is c_k passes into projection k, or a
    tighter row of its direction does, so every leaf meets every row.  A
    range that no lattice point extends is empty, and the search backs up.
    Every range is finite: projection k of the nonempty bounded slice is
    nonempty and bounded, so it holds a row with c_k > 0 and one with
    c_k < 0, as y_k would otherwise grow, or fall, without bound on it.
    """
    bounds = [
        (
            [(c[:k], c[k], -(-dilation * b // g)) for c, b, g in rows if c[k] > 0],
            [(c[:k], c[k], -(-dilation * b // g)) for c, b, g in rows if c[k] < 0],
        )
        for k, rows in enumerate(projections)
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

        The first call takes the row Hermite form h of [a | I], raising
        AssertionError when its first column is not e_1 (a candidate that is
        not primitive), and eliminates the slice.  With `max_points` set, the
        same at every level, it also reads each dual ray w off the rows of h,
        z = express_in_basis(h, (<a, w>, w)): the point w / <a, w> of the
        slice is y = (z_1, ..., z_(n-1)) / z_0.  Each level then counts the
        lattice points of the bounding box of its dilate first (`box`), and
        a LimitError names the level when they are more than `max_points`.
        """
        a, n = self.point, self.cone.ambient_rank
        if self.columns is None:
            h = row_hermite([(x, *(int(i == j) for j in range(n))) for i, x in enumerate(a)])
            if [row[0] for row in h] != [1] + [0] * (n - 1):
                raise AssertionError(f"the Hermite form of [{a} | I] does not start with e_1")
            first, *others = basis = [row[1:] for row in h]
            self.columns = list(zip(*basis))
            rows = [(tuple(sum(map(mul, r, v)) for v in others), -sum(map(mul, r, first))) for r in self.cone.generators]
            self.projections = eliminate(rows, n - 1, level)
            if max_points is not None:
                self.vertices = [express_in_basis(h, (sum(map(mul, w, a)), *w)) for w in self.cone.dual_pair[1]]
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
