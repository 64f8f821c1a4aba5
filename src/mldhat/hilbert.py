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

The sieve scans a candidate u only against the kept elements of degree,
the sum of the facet values, at most deg(u) / 2 (Bruns-Ichim, J. Algebra
2010).  A reducible u = e + w, e and w nonzero in D, has a summand, say e,
of degree at most deg(u) / 2; an irreducible e' with e - e' in D has degree
at most that, so it sorts before u and is kept by then, and u - e' =
(e - e') + w lies in D.  `interior_candidates` scans in full, as there w
need not be interior.

Both searches over lattice points, this one and `interior_candidates`,
walk the cells with `cell_walk` and keep minimal elements with
`FacetValues.minimal_elements`, exactly, in packed facet-value coordinates.
The walk of a cell (`_walk`) costs one big-integer addition per point and
carries each point's own coordinates, so a kept point is read off the walk
by shifts and masks, with no division; it visits the points of the full
odometer in its order, as the docstring of `_numerators` shows, so the
reports do not depend on how it steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod
from operator import mul

from .cones import Cone, ConeError, pulling_triangulation
from .lattice import LatticeError, LimitError, row_hermite
from .lattice import rank_of  # not called here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class HilbertBasis:
    """The irreducible elements of the lattice semigroup of a dual cone."""

    elements: tuple[tuple[int, ...], ...]


def _numerators(rays):
    """(|det T|, columns, radices): the moves of the walk over the points of T.

    One row Hermite form [H | U] of [T | I] decomposes the square matrix T
    whose rows are the rays: U is unimodular with U T = H, and T is
    independent exactly when every pivot of H lies on its diagonal.  Then H
    is the Hermite form of T, |det T| is the product of its diagonal, and
    back-substitution in H C = |det T| U gives the integer matrix
    C = |det T| T^-1, whose rows the moves read from the first j with
    H_jj > 1 on.  For a dependent T the result is None.

    For independent rays the half-open parallelepiped {sum l_i t_i :
    0 <= l_i < 1} holds one lattice point per coset of the sublattice T
    spans, and the box 0 <= x_j < H_jj on the diagonal of H is a
    transversal of the cosets.  The point of the coset of x has
    l_i = frac_i / |det T| with frac = x C mod |det T|.  `_walk` visits the
    box in odometer order, the last digit fastest:

    * A digit j with H_jj = 1 only ever takes 0, so the odometer has a
      digit only for each j with H_jj > 1, and the points come in the
      order of the full box.
    * A move raises one digit by 1 and sets every later digit back to 0.
      It adds to frac a fixed column: the row of C for the digit, minus
      H_kk - 1 times the row of C for each later digit k, all taken
      mod |det T|.  `columns` holds it for each digit, the last digit
      first, then the closing column that sets every digit back to 0, and
      `radices` holds H_jj for each digit.
    """
    n = len(rays)
    h = row_hermite([(*r, *(int(i == j) for j in range(n))) for i, r in enumerate(rays)])
    diag = [h[i][i] for i in range(n)]
    if not all(diag):
        return None
    absdet = prod(diag)
    # back-substitution from the last row of C up to the first digit with
    # H_jj > 1, as no move reads a row above it
    first = next((j for j in range(n) if diag[j] > 1), n)
    cols = [None] * n
    columns, radices = [], []
    back = [0] * n  # sum over the later digits k of (H_kk - 1) C_k
    for i in reversed(range(first, n)):
        row = [absdet * x for x in h[i][n:]]
        for j in range(i + 1, n):
            row = [a - h[i][j] * b for a, b in zip(row, cols[j])]
        cols[i] = col = [a // diag[i] for a in row]
        if diag[i] > 1:
            columns.append([(c - b) % absdet for c, b in zip(col, back)])
            radices.append(diag[i])
            back = [b + (diag[i] - 1) * c for b, c in zip(back, col)]
    columns.append([-b % absdet for b in back])
    return absdet, columns, radices


class _Wraps(dict):
    """Top bits of the fields that wrap -> the sum of their lifts, from the lift of each field on."""

    def __missing__(self, g):
        low = g & -g
        self[g] = wrap = self[low] + self[g - low]
        return wrap


def _walk(rays, absdet, columns, radices, packs, coords) -> dict[int, int]:
    """{u: x} over the points of the cell T, `rays`, in the order of `_numerators`.

    u is P(point) for a linear map P, and x the walk's integer at the point:
    its coordinates biased in the low fields of `coords` (`FacetValues.point`
    reads them), its numerators frac above them, u above those.  `packs`
    holds (P(t_i), C(t_i)) for the rays, where C(t) = sum_j t_j * units[j]
    packs the coordinates of t by `coords.units`.  The walk carries the point
    itself: a move adds its column c to frac and P(v), C(v) to u and the
    coordinates, for the lattice vector v = sum_i c_i t_i / |det T|: one
    exact division per move, before the walk (`_fold` raises unless v is a
    lattice vector; for the closing move the return check below implies
    it).  frac_i + c_i lies below 2 |det T|, so one wrap, subtracting
    |det T| from frac_i and t_i from the point, reduces it: frac is exactly
    x C mod |det T|, and the point exactly the parallelepiped point of its
    coset, throughout.

    Field widths.  Each numerator field is biased by 2^(w - 1) - |det T|
    for its width w = |det T|.bit_length() + 1, so that its top bit is set
    after a move exactly when it must wrap.  Between a move and its wraps
    the coefficients of the point on the rays lie in [0, 2), so
    |x_j| < 2 sum_i |t_ij| < bias = 2 sum_t max_j |t_j| + 1 over the rays t
    of the cone; biased, coordinate j lies in (0, 2 bias), below
    2^spacing with spacing = bias.bit_length() + 1.  So every field stays
    in range, no carry or borrow reaches the numerators' top bits, and
    each point's fields read back exactly.

    One integer x holds all three.  Ray i lifts to P(t_i) above |det T| in
    numerator field i above C(t_i): a move adds sum_i c_i lift_i / |det T|,
    and a wrap subtracts the lifts of the fields that wrap (`_Wraps`), each
    one packed addition.  After the last point the closing move must bring x
    back to its start, and the cell must hold |det T| distinct points; else
    AssertionError.
    """
    width = absdet.bit_length() + 1
    top = 1 << (width - 1)
    above = coords.base + len(rays) * width  # u sits above the numerators, they above the coordinates
    units = [1 << s for s in range(coords.base, above, width)]
    lifts = [(p << above) + absdet * unit + c for (p, c), unit in zip(packs, units)]
    for column in columns[:-1]:
        _fold(rays, column, absdet)  # raises unless the move is a lattice vector
    steps = [sum(map(mul, column, lifts)) // absdet for column in columns]
    sequence = []  # the move after each point, in odometer order
    for step, radix in zip(steps, radices):
        sequence += ([step] + sequence) * (radix - 1)
    sequence.append(steps[-1])
    ones = sum(units)
    guard, start = top * ones, (top - absdet) * ones + coords.offset
    wraps = _Wraps(zip([top * unit for unit in units], lifts))
    points = {}
    x = start
    for step in sequence:
        points[x >> above] = x
        x += step
        g = x & guard
        if g:
            x -= wraps[g]
    if x != start:
        raise AssertionError(f"the walk of {rays} does not return to its first point")
    if len(points) != absdet:
        raise AssertionError(f"found {len(points)} parallelepiped points, expected |det| = {absdet}")
    return points


def _fold(rays, frac, absdet) -> tuple[int, ...]:
    """The point sum_i frac_i * rays_i / |det T|, by exact division."""
    point = []
    for column in zip(*rays):
        x, rest = divmod(sum(map(mul, column, frac)), absdet)
        if rest:
            raise LatticeError("parallelepiped fold produced a non-lattice point")
        point.append(x)
    return tuple(point)


def parallelepiped_points(rays) -> list[tuple[int, ...]]:
    """Lattice points of {sum l_i r_i : 0 <= l_i < 1} for independent rays.

    The points of `_walk` under the unit forms, whose facet values are the
    coordinates, each read off the walk; on these points, each |x_j| below
    sum_i |r_ij|, the unit forms' packing is injective.
    """
    n = len(rays)
    if any(len(r) != n for r in rays):
        raise LatticeError("parallelepiped needs as many rays as their rank")
    cell = _numerators(rays)
    if cell is None:
        raise LatticeError("parallelepiped needs linearly independent rays")
    coords = FacetValues([tuple(int(i == j) for j in range(n)) for i in range(n)], sum(max(map(abs, r)) for r in rays), rays)
    points = _walk(rays, *cell, [(coords.image(r), sum(map(mul, r, coords.units))) for r in rays], coords)
    return [coords.point(x, u) for u, x in points.items()]


class FacetValues:
    """Packed facet-value coordinates of lattice points: one linear map.

    `image(x)` packs the values <g, x> of a point x under the facet forms g
    of a full-dimensional cone (its dual rays), field k in bits
    [k * width, (k + 1) * width), and, as the top field, their sum, the
    degree, from bit `shift` on.  It is sum_j x_j * columns[j]: column j
    holds the j-th entry of every form in its field and their sum in the
    top field.  The map is linear and, the facet forms spanning the dual
    space, injective.  The width puts every field value in [0, bound] below
    2^(width - 1), so in the packed subtraction of `minimal_elements` no
    borrow crosses a field.  `ones` holds a 1 in every facet field, and
    `guard` the top bit of each.

    The walk of `cell_walk` also carries each point's own coordinates, in
    the low fields of its integer: coordinate j, biased by `bias`, in bits
    [j * spacing, (j + 1) * spacing), below bit `base`.  `units` holds the
    1 of each coordinate field, so C(t) = sum_j t_j * units[j] packs a ray,
    and `offset` the bias of every field; `_walk` argues the widths.

    `point` reads a point off such an integer by shifts and masks and checks
    it against its packed value u by one integer comparison,
    image(point) == u.  Fields in [0, 2^width) have one reading, so a point
    whose facet values lie in [0, 2^(width - 1)), as u's do, passes exactly
    when it is the point of u.
    """

    def __init__(self, forms, bound: int, generators):
        self.width = width = bound.bit_length() + 1
        self.shift = shift = len(forms) * width
        self.columns = [sum(g << (k * width) for k, g in enumerate(column)) + (sum(column) << shift) for column in zip(*forms)]
        self.ones = sum(1 << (k * width) for k in range(len(forms)))
        self.guard = (1 << (width - 1)) * self.ones
        self.bias = bias = 2 * sum(max(map(abs, t)) for t in generators) + 1
        self.spacing = spacing = bias.bit_length() + 1
        self.base = len(self.columns) * spacing
        self.units = [1 << s for s in range(0, self.base, spacing)]
        self.offset = bias * sum(self.units)

    def image(self, x) -> int:
        """The packed facet values and degree of the point x."""
        return sum(map(mul, x, self.columns))

    def minimal_elements(self, packed, half_degree=False) -> list[int]:
        """The packed vectors not above another, in degree order.

        e lies below u when u - e lies in the cone, that is, when
        u_k >= e_k in every field.  Sorting the packed integers sorts by
        degree, the top field, and a vector below u other than u has
        smaller degree; below every non-minimal u lies a minimal one, so one
        scan against the minimal vectors kept so far keeps exactly the
        minimal ones.  With `guard` holding the top bit of each field,
        (u | guard) - e subtracts field by field with no borrow crossing a
        field, and a field keeps its guard bit exactly when u_k >= e_k.

        With `half_degree`, for the Hilbert basis candidates of the module
        docstring, the scan of u stops at the first kept vector of degree
        above deg(u) / 2, at or above ((deg(u) >> 1) + 1) << shift: u is
        then minimal.  Without it the scan stops at u, above every kept one.
        """
        guard, shift = self.guard, self.shift
        elements: list[int] = []
        for u in sorted(packed):
            ug = u | guard
            cut = ((u >> shift >> 1) + 1) << shift if half_degree else u
            for e in elements:
                if e >= cut:
                    elements.append(u)
                    break
                if (ug - e) & guard == guard:
                    break
            else:
                elements.append(u)
        return elements

    def point(self, x, u) -> tuple[int, ...]:
        """The point whose coordinates x holds in its low fields; raise unless its image is u."""
        field, bias = (1 << self.spacing) - 1, self.bias
        point = tuple((x >> s & field) - bias for s in range(0, self.base, self.spacing))
        if self.image(point) != u:
            raise AssertionError(f"point {point} does not reproduce its facet values")
        return point


def cell_walk(cone: Cone, max_points, stage, scale=1):
    """(coordinates, cells): the half-open parallelepiped points of each cell.

    The cells are those of `cones.pulling_triangulation(cone)`, each as
    (T, |det T|, [(P(t), C(t)) for the rays t of T], {u: x}) from `_walk`:
    P is `FacetValues.image`, C packs the coordinates of a ray in the low
    fields of the returned `FacetValues`, and x holds the coordinates of
    the point of u there, as `FacetValues.point` reads them.  Each
    generator is packed once.

    With `max_points` set, a LimitError names the stage as soon as the
    triangulation passes the limit.  Before any point is built, one names
    it when the stage's scale * sum_T |det T| points exceed `max_points`
    or sys.maxsize: no list holds more.  Checks, each raising:
    every cell is independent, every move of a walk is a lattice vector,
    every walk ends where it began and gives |det T| distinct points.
    """
    walks = []
    for count, T in enumerate(pulling_triangulation(cone), 1):
        if max_points is not None and count > max_points:
            raise LimitError(f"{stage}: cell {count} of the triangulation exceeds the limit ({max_points})")
        cell = _numerators(T)
        if cell is None:
            raise AssertionError(f"cell {T} is not linearly independent")
        walks.append((T, *cell))
    limit = sys.maxsize if max_points is None else min(max_points, sys.maxsize)
    estimate = scale * sum(absdet for _, absdet, _, _ in walks)
    if estimate > limit:
        raise LimitError(f"{stage}: about {estimate} points exceed the limit ({limit})")
    forms = cone.dual_pair[1]
    max_value = max(sum(map(mul, g, t)) for g in forms for t in cone.generators)
    # every candidate, a closed parallelepiped point, has each facet value at most n * max value
    coords = FacetValues(forms, cone.ambient_rank * max_value, cone.generators)
    packs = {t: (coords.image(t), sum(map(mul, t, coords.units))) for t in cone.generators}
    cells = []
    for T, absdet, columns, radices in walks:
        rays = [packs[t] for t in T]
        cells.append((T, absdet, rays, _walk(T, absdet, columns, radices, rays, coords)))
    return coords, cells


def hilbert_basis(dual: Cone, max_points: int | None = None) -> HilbertBasis:
    """The unique minimal generating set of the lattice points of `dual`.

    Requires a full-dimensional pointed cone (a cone that does not span
    reduces to its chart, `cones.face_chart(c)`, first); `max_points` caps
    the cells and the parallelepiped points.

    The candidates of the module docstring, packed by `cell_walk`: the rays
    of `dual`, each the closed point 0 + t with coordinates C(t), and the
    half-open parallelepiped points of its cells, with 0 removed; merging
    the cells' maps on the packed integer deduplicates points.  The sieve
    makes the half-degree cut, and each minimal value is read off its
    coordinates and must reproduce its facet values.
    """
    if not dual.is_full_dimensional:
        raise ConeError("hilbert_basis needs a full-dimensional cone")
    coords, cells = cell_walk(dual, max_points, "hilbert parallelepiped points")
    found = {p: c + coords.offset for _, _, rays, _ in cells for p, c in rays}
    for *_, points in cells:
        found.update(points)
    del found[0], cells  # the cells' maps are freed once merged
    elements = [coords.point(found[u], u) for u in coords.minimal_elements(found, half_degree=True)]
    return HilbertBasis(elements=tuple(sorted(elements)))


def interior_candidates(cone: Cone, max_points: int | None) -> list[tuple[int, ...]]:
    """The minimal interior lattice points of the closed cell parallelepipeds.

    The closed parallelepipeds are {sum_{v in T} c_v v : 0 <= c_v <= 1}
    over the cells T of `cones.pulling_triangulation(cone)`, and every
    minimal interior lattice point of `cone` lies in one.  An interior
    point a lies in the relative interior of a face of a cell T, spanned by
    the rays S with positive coefficient c_v; that face is interior, since
    each dual ray pairs positively with a, hence with some v in S.
    Subtracting w = sum_S (ceil(c_v) - 1) v leaves coefficients in (0, 1]
    on S and 0 off S: the same support, so a - w is interior, and it lies
    in the closed parallelepiped of T; for a minimal a, w = 0.  Closed
    matters: on the cone over the unit square, rays (0,0,1), (1,0,1),
    (0,1,1), (1,1,1), the only minimal interior point (1,1,2) lies on the
    diagonal wall between the two cells, and the points with every
    coefficient in (0, 1] give the toric lambda 1 instead of 0.  A closed
    parallelepiped point is p + sum_J v for a half-open point p and rays J
    on which p has coefficient 0, so there are at most 2^n sum_T |det T|,
    the scale of the `max_points` estimate.  The coefficient numerators of
    p come from the same walk that packs p, so a zero coefficient is read
    off the walk.

    Each closed point is packed from its half-open point by adding the
    packed values and coordinates of the rays J (its coefficients lie in
    [0, 1], inside the range `_walk` argues for the coordinate fields), is
    tested for interior on its packed facet values, and keeps the
    coordinates of the first that gave it; each minimal point is read off
    them and must reproduce its facet values.
    """
    coords, cells = cell_walk(cone, max_points, "toric candidates", scale=2**cone.ambient_rank)
    guard, ones = coords.guard, coords.ones
    origin = {}  # packed interior point -> an integer holding its coordinates
    for T, absdet, rays, points in cells:
        # numerator i in bits [base + i * width, base + (i + 1) * width), biased as `_walk` packs it
        width = absdet.bit_length() + 1
        field, zero = (1 << width) - 1, (1 << (width - 1)) - absdet
        fields = [(r, c, field << s, zero << s) for (r, c), s in zip(rays, range(coords.base, coords.base + len(T) * width, width))]
        for u, x in points.items():
            closed = [(u, x)]
            for r, c, mask, empty in fields:
                if x & mask == empty:
                    closed += [(a + r, y + c) for a, y in closed]
            for a, y in closed:
                # every facet value at least 1: no field loses its guard bit
                if a not in origin and ((a | guard) - ones) & guard == guard:
                    origin[a] = y
    return [coords.point(origin[a], a) for a in coords.minimal_elements(origin)]
