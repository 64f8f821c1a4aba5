"""Minimal generating sets of the semigroups behind affine toric charts.

For a full-dimensional pointed cone D in the dual lattice, the semigroup of
lattice points of D has a unique minimal generating set: its irreducible
elements (those not expressible as a sum of two nonzero semigroup
elements).  The candidates come from one triangulation of D without new
rays, the pulling triangulation of `cones.pulling_triangulation`.  Every
lattice point x of D lies in a cell T, a simplicial cone on n independent
extreme rays, and writes as x = p + sum_T k_t t with p in the half-open
parallelepiped {sum l_t t : 0 <= l_t < 1} of T and integers k_t >= 0.  An
irreducible x of D is irreducible in the semigroup of T too, since a sum
in T is a sum in D; so x is a ray t of T (p = 0) or x = p.  The rays of D
and the half-open parallelepiped points of its cells therefore hold the
basis.  The basis is then the set of minimal nonzero candidates under
"u - e lies in D": a reducible u = e + w has an irreducible e, a
candidate, below it, and no nonzero lattice point of D other than an
irreducible u lies below it.

Both searches over lattice points, this one and the toric candidates,
walk the cells with `cell_walk` and keep minimal elements with
`FacetValues.minimal_elements`, exactly, in packed facet-value coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul

from .cones import Cone, ConeError, pulling_triangulation
from .lattice import LatticeError, LimitError, pairing, row_hermite
from .lattice import rank_of  # not called here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class HilbertBasis:
    """The irreducible elements of the lattice semigroup of a dual cone."""

    dual: Cone
    elements: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.dual.ambient_rank

    def is_interior_point(self, a) -> bool:
        """Is a in the topological interior of the primal cone?"""
        return all(pairing(u, a) > 0 for u in self.dual.generators)


def _numerators(rays):
    """|det T| and a walk over the coefficient numerators of the points of T.

    One row Hermite form [H | U] of [T | I] decomposes the square matrix T
    whose rows are the rays: U is unimodular with U T = H, and T is
    independent exactly when every pivot of H lies on its diagonal.  Then H
    is the Hermite form of T, |det T| is the product of its diagonal, and
    back-substitution in H C = |det T| U gives the integer matrix
    C = |det T| T^-1.  For a dependent T the result is None.

    For independent rays the half-open parallelepiped {sum l_i t_i :
    0 <= l_i < 1} holds one lattice point per coset of the sublattice T
    spans.  The walk yields, for each, the numerators frac with
    l_i = frac_i / |det T|: an odometer over the coordinate box on the
    diagonal of H (a transversal of the quotient) keeps q = sum_j x_j C_j
    for the box point x, and frac = q mod |det T| folds x into the
    parallelepiped.
    """
    n = len(rays)
    h = row_hermite([(*r, *(int(i == j) for j in range(n))) for i, r in enumerate(rays)])
    diag = [h[i][i] for i in range(n)]
    if not all(diag):
        return None
    absdet = prod(diag)
    cols = [None] * n
    for i in reversed(range(n)):
        row = [absdet * x for x in h[i][n:]]
        for j in range(i + 1, n):
            row = [a - h[i][j] * b for a, b in zip(row, cols[j])]
        cols[i] = [a // diag[i] for a in row]

    def walk():
        t = [0] * n
        q = [0] * n
        while True:
            yield [x % absdet for x in q]
            j = n - 1
            while j >= 0:
                t[j] += 1
                if t[j] < diag[j]:
                    col = cols[j]
                    for i in range(n):
                        q[i] += col[i]
                    break
                t[j] = 0
                col = cols[j]
                back = diag[j] - 1
                for i in range(n):
                    q[i] -= back * col[i]
                j -= 1
            if j < 0:
                return

    return absdet, walk()


def _fold(rays, frac, absdet) -> tuple[int, ...]:
    """The point sum_i frac_i * rays_i / |det T|, by exact division."""
    point = []
    for column in zip(*rays):
        x, rest = divmod(sum(map(mul, column, frac)), absdet)
        if rest:
            raise LatticeError("parallelepiped fold produced a non-lattice point")
        point.append(x)
    return tuple(point)


def _check_distinct(points, absdet):
    """Raise unless the set `points` of independent rays T holds |det T| points."""
    if len(points) != absdet:
        raise AssertionError(
            f"found {len(points)} parallelepiped points, expected |det| = {absdet}"
        )


def parallelepiped_points(rays) -> list[tuple[int, ...]]:
    """Lattice points of {sum l_i r_i : 0 <= l_i < 1} for independent rays.

    The numerators of `_numerators`, each folded into its point.
    """
    if any(len(r) != len(rays) for r in rays):
        raise LatticeError("parallelepiped needs as many rays as their rank")
    walk = _numerators(rays)
    if walk is None:
        raise LatticeError("parallelepiped needs linearly independent rays")
    absdet, numerators = walk
    points = [_fold(rays, frac, absdet) for frac in numerators]
    _check_distinct(set(points), absdet)
    return points


class FacetValues:
    """Packed facet-value coordinates of lattice points.

    A point u maps to its values <g, u> under the facet forms g of a
    full-dimensional cone (its dual rays) and, as the top field, their sum,
    the degree, all packed into one integer.  The map is linear and, the
    facet forms spanning the dual space, injective.  The width puts every
    field value in [0, bound] below 2^(width - 1), so in the packed
    subtraction of `minimal_elements` no borrow crosses a field.
    """

    def __init__(self, forms, bound: int):
        self.forms = forms
        self.width = width = bound.bit_length() + 1
        self.field = (1 << width) - 1
        self.guard = self.pack([1 << (width - 1)] * len(forms))
        self.ones = self.pack([1] * len(forms))

    def pack(self, values) -> int:
        """The values as one integer, field k in bits [k * width, (k + 1) * width)."""
        packed = 0
        for k, v in enumerate(values):
            packed |= v << (k * self.width)
        return packed

    def minimal_elements(self, packed) -> list[int]:
        """The packed vectors not above another, in degree order.

        e lies below u when u - e lies in the cone, that is, when
        u_k >= e_k in every field.  Sorting the packed integers sorts by
        degree, the top field, and a vector below u other than u has
        smaller degree; below every non-minimal u lies a minimal one, so one
        scan against the minimal vectors kept so far keeps exactly the
        minimal ones.  With `guard` holding the top bit of each field,
        (u | guard) - e subtracts field by field with no borrow crossing a
        field, and a field keeps its guard bit exactly when u_k >= e_k.
        """
        guard = self.guard
        elements: list[int] = []
        for u in sorted(packed):
            ug = u | guard
            for e in elements:
                if (ug - e) & guard == guard:
                    break
            else:
                elements.append(u)
        return elements

    def point(self, rays, frac, absdet, u) -> tuple[int, ...]:
        """The point sum_i frac_i * rays_i / |det T|; raise unless it has the values packed in u."""
        point = _fold(rays, frac, absdet)
        if [pairing(g, point) for g in self.forms] != [
            (u >> (k * self.width)) & self.field for k in range(len(self.forms))
        ]:
            raise AssertionError(f"point {point} does not reproduce its facet values")
        return point


def cell_walk(cone: Cone, max_points, stage, scale=1):
    """(coordinates, cells): the half-open parallelepiped points of each cell.

    The cells are those of `cones.pulling_triangulation(cone)`, walked one
    at a time, so that the points of one cell are held at once; each comes
    as (T, |det T|, packed rays of T, {packed point: numerators}).  A point
    with numerators frac packs to sum_i frac_i * P(t_i) // |det T|, since
    P is linear and no field of the sum overflows.

    With `max_points` set, a LimitError names the stage as soon as the
    triangulation passes the limit, and before any point is built when the
    stage's scale * sum_T |det T| points exceed it.  Checks, each raising:
    every cell is independent, every packed fold divides exactly and leaves
    the top bits of each field clear, and every cell gives |det T| distinct
    points.
    """
    walks = []
    for count, T in enumerate(pulling_triangulation(cone), 1):
        if max_points is not None and count > max_points:
            raise LimitError(f"{stage}: cell {count} of the triangulation exceeds the limit ({max_points})")
        walk = _numerators(T)
        if walk is None:
            raise AssertionError(f"cell {T} is not linearly independent")
        walks.append((T, *walk))
    if max_points is not None:
        estimate = scale * sum(absdet for _, absdet, _ in walks)
        if estimate > max_points:
            raise LimitError(f"{stage}: about {estimate} points exceed the limit ({max_points})")
    forms = cone.dual_pair[1]
    values = {t: [pairing(g, t) for g in forms] for t in cone.generators}
    max_det = max(absdet for _, absdet, _ in walks)
    max_value = max(max(v) for v in values.values())
    # a fold sum has every field at most n * max|det T| * max value, and a
    # closed parallelepiped point below 2 n * max value
    coords = FacetValues(forms, 2 * cone.ambient_rank * max_det * max_value)
    # fold check: with 2^g > max|det T|, a true point has every facet value
    # below n * max value < 2^(width - g); conversely a quotient with the top
    # g bits of each field clear, times |det T|, carries into no next field,
    # so the sum was divisible field by field
    g = max_det.bit_length()
    high = coords.pack([coords.field ^ ((1 << (coords.width - g)) - 1)] * len(forms))
    packed = {t: coords.pack(v + [sum(v)]) for t, v in values.items()}

    def cells():
        for T, absdet, numerators in walks:
            rays = [packed[t] for t in T]
            points = {}
            for frac in numerators:
                u, rest = divmod(sum(map(mul, frac, rays)), absdet)
                if rest or u & high:
                    raise LatticeError("parallelepiped fold produced a non-lattice point")
                points[u] = frac
            _check_distinct(points, absdet)
            yield T, absdet, rays, points

    return coords, cells()


def hilbert_basis(dual: Cone, max_points: int | None = None) -> HilbertBasis:
    """The unique minimal generating set of the lattice points of `dual`.

    Requires a full-dimensional pointed cone (a cone that does not span
    reduces to its chart, `cones.face_chart(c)`, first); `max_points` caps
    the cells and the parallelepiped points.

    The candidates of the module docstring, packed by `cell_walk`: the rays
    of `dual` and the half-open parallelepiped points of its cells, with 0
    removed; deduplicating on the packed integer deduplicates points.  Each
    remembers the first (T, frac) that gave it, a ray t the origin
    ((t,), (1,), 1), and each minimal one becomes its point by one fold
    from there, with no second solve.
    """
    if not dual.is_full_dimensional:
        raise ConeError("hilbert_basis needs a full-dimensional cone")
    coords, cells = cell_walk(dual, max_points, "hilbert parallelepiped points")
    origin = {}  # packed value -> (T, frac, |det T|)
    for T, absdet, rays, points in cells:
        for t, p in zip(T, rays):  # every ray lies in a cell
            origin.setdefault(p, ((t,), (1,), 1))
        for u, frac in points.items():
            if u not in origin:
                origin[u] = (T, frac, absdet)
    origin.pop(0, None)
    elements = [coords.point(*origin[u], u) for u in coords.minimal_elements(origin)]
    return HilbertBasis(dual=dual, elements=tuple(sorted(elements)))
