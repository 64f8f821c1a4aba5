"""Minimal generating sets of the semigroups behind affine toric charts.

For a full-dimensional pointed cone D in the dual lattice, the semigroup of
lattice points of D has a unique minimal generating set: its irreducible
elements (those not expressible as a sum of two nonzero semigroup
elements).  Every irreducible element lies, for some linearly independent
subset of the extreme rays of D, in the union of those rays with the
half-open parallelepiped they span; so the basis is found by collecting
these candidates over all spanning ray subsets and sieving out the
reducible ones.

The sieve runs in facet-value coordinates, exactly:

* the candidate set is the one above, walked once per ray subset T:
  `_numerators` decomposes T by one row Hermite form, which tells whether
  T is independent and gives |det T| and the coefficient numerators of
  each point; the sieve folds them into facet values, and each kept value
  is folded back into its point from the first (T, numerators) that gave
  it;
* the facet-value map u -> (<r, u>)_r over the primal rays r is injective
  on a full-dimensional cone, so deduplicating values deduplicates points;
* the degree of u, its pairing with the grading point sum_r r, is the sum
  of its facet values;
* every value is below 2^(w - 1) for the field width w, so in the packed
  subtraction no borrow crosses a field, and the guard-bit test equals the
  componentwise comparison u >= e that decides whether u - e lies in D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

from .cones import Cone, ConeError
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
    for j in range(len(rays[0])):
        num = 0
        for r, f in zip(rays, frac):
            num += r[j] * f
        x, rest = divmod(num, absdet)
        if rest:
            raise LatticeError("parallelepiped fold produced a non-lattice point")
        point.append(x)
    return tuple(point)


def _check_distinct(points, absdet):
    """Raise unless the set `points` of one ray subset T holds |det T| points."""
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


def _pack(values, width) -> int:
    """The values as one integer, field k in bits [k * width, (k + 1) * width)."""
    packed = 0
    for k, v in enumerate(values):
        packed |= v << (k * width)
    return packed


def _sieve(ordered, guard) -> list[int]:
    """The packed vectors of `ordered` not reducible by an earlier kept one.

    e reduces u when u - e >= 0 in every field.  With every field value
    below 2^(width - 1) and `guard` holding the top bit of each field,
    (u | guard) - e subtracts field by field with no borrow crossing a
    field, and a field keeps its guard bit exactly when u_k >= e_k.
    """
    elements: list[int] = []
    for u in ordered:
        ug = u | guard
        for e in elements:
            if (ug - e) & guard == guard:
                break
        else:
            elements.append(u)
    return elements


def budgeted_walks(vectors, n, max_points, stage, scale=1):
    """(T, |det T|, numerator walk) for the independent n-subsets T of `vectors`.

    With `max_points` set, a LimitError names the stage before any
    elimination when the C(k, n) subsets to decompose exceed it, and before
    any point is built when the stage's scale * sum_T |det T| points do.
    """
    tests = comb(len(vectors), n)
    if max_points is not None and tests > max_points:
        raise LimitError(f"{stage}: {tests} ray subsets to decompose exceed the limit ({max_points})")
    walks = [(T, *w) for T in itertools.combinations(vectors, n) if (w := _numerators(T))]
    if max_points is not None:
        estimate = scale * sum(absdet for _, absdet, _ in walks)
        if estimate > max_points:
            raise LimitError(f"{stage}: about {estimate} points exceed the limit ({max_points})")
    return walks


def hilbert_basis(dual: Cone, max_points: int | None = None) -> HilbertBasis:
    """The unique minimal generating set of the lattice points of `dual`.

    Requires a full-dimensional pointed cone (a cone that does not span
    reduces to its chart, `cones.face_chart(c)`, first); `max_points` caps
    the parallelepiped points.

    The work runs in facet-value coordinates: u maps to its values <r, u>
    under the primal rays r, the facet forms of `dual`, packed as one
    integer with the degree sum_r <r, u> as its top field.

    * Candidates: the rays of `dual` and the points of the half-open
      parallelepipeds of its independent ray subsets T, the candidate set
      of the module docstring.  A point with numerators frac packs to
      sum_i frac_i * P(t_i) // |det T|, since P is linear and no field of
      the sum overflows: each is at most n * max|det T| * max value, below
      2^(width - 1).
    * Deduplicating on the packed integer deduplicates points: the facet
      forms span the dual space of a full-dimensional cone, so the
      facet-value map is injective.
    * Order: the grading point sum_r r is interior to the primal cone, and
      the degree of u is its pairing with u, the sum of the facet values.
      Sorting the packed integers sorts by degree, the top field.  A
      reducible u = v + w has v, w of smaller degree, and some irreducible
      e of smaller degree has u - e in the cone; equal degrees never
      reduce each other.  So one scan against the elements kept so far
      leaves exactly the irreducible candidates.
    * Sieve: u - e lies in the cone exactly when every facet value of u is
      at least that of e.  Every value is below 2^(width - 1), so no borrow
      crosses a field and the guard-bit test of `_sieve` equals this
      componentwise comparison.
    * Points: each packed candidate remembers the first (T, frac) that
      gave it, a ray t the origin ((t,), (1,), 1); a kept value becomes
      its point by `_fold` from that origin, with no second solve.
    * Checks, each raising: every packed fold divides exactly and leaves
      the top bits of each field clear, every subset gives |det T|
      distinct points, every point fold divides exactly, and every element
      reproduces all its facet values.
    """
    n = dual.ambient_rank
    if not dual.is_full_dimensional:
        raise ConeError("hilbert_basis needs a full-dimensional cone")
    walks = budgeted_walks(dual.generators, n, max_points, "hilbert parallelepiped points")
    _, forms = dual.dual_pair
    m = len(forms)
    values = {t: [pairing(r, t) for r in forms] for t in dual.generators}
    max_det = max(absdet for _, absdet, _ in walks)
    max_value = max(max(v) for v in values.values())
    width = (n * max_det * max_value).bit_length() + 1
    field = (1 << width) - 1
    guard = _pack([1 << (width - 1)] * m, width)
    # fold check: with 2^g > max|det T|, a true point has every facet value
    # below n * max value < 2^(width - g); conversely a quotient with the top
    # g bits of each field clear, times |det T|, carries into no next field,
    # so the sum was divisible field by field
    g = max_det.bit_length()
    high = _pack([field ^ ((1 << (width - g)) - 1)] * m, width)
    packed = {t: _pack(v + [sum(v)], width) for t, v in values.items()}
    origin = {p: ((t,), (1,), 1) for t, p in packed.items()}  # packed value -> (T, frac, |det T|)
    for T, absdet, numerators in walks:
        rays = [packed[t] for t in T]
        points = set()
        for frac in numerators:
            s = 0
            for f, p in zip(frac, rays):
                s += f * p
            u, rest = divmod(s, absdet)
            if rest or u & high:
                raise LatticeError("parallelepiped fold produced a non-lattice point")
            points.add(u)
            if u not in origin:
                origin[u] = (T, frac, absdet)
        _check_distinct(points, absdet)
    origin.pop(0, None)
    elements = []
    for u in _sieve(sorted(origin), guard):
        point = _fold(*origin[u])
        if [pairing(r, point) for r in forms] != [(u >> (k * width)) & field for k in range(m)]:
            raise AssertionError(f"point {point} does not reproduce its facet values")
        elements.append(point)
    return HilbertBasis(dual=dual, elements=tuple(sorted(elements)))
