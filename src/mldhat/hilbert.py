"""Minimal generating sets of the semigroups behind affine toric charts.

For a full-dimensional pointed cone D in the dual lattice, the semigroup of
lattice points of D has a unique minimal generating set: its irreducible
elements (those not expressible as a sum of two nonzero semigroup
elements).  Every irreducible element lies, for some linearly independent
subset of the extreme rays of D, in the union of those rays with the
half-open parallelepiped they span; so the basis is found by collecting
these candidates over all spanning ray subsets and sieving out the
reducible ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .cones import Cone, ConeError, dual_cone
from .lattice import (
    LatticeError,
    LimitError,
    adjugate,
    as_vector,
    determinant,
    is_zero,
    pairing,
    rank_of,
    row_hermite,
    vec_sub,
)


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


def parallelepiped_points(rays) -> list[tuple[int, ...]]:
    """Lattice points of {sum l_i r_i : 0 <= l_i < 1} for independent rays.

    One point per coset of the sublattice spanned by the rays, produced from
    the diagonal of a triangular basis of that sublattice and folded into
    the half-open parallelepiped with exact rational arithmetic.
    """
    n = len(rays)
    matrix = [tuple(r[j] for r in rays) for j in range(n)]  # columns = rays
    tri = row_hermite([tuple(r) for r in rays])
    if len(tri) != n:
        raise LatticeError("parallelepiped needs linearly independent rays")
    det = determinant([list(r) for r in matrix])
    adj = adjugate([list(r) for r in matrix])
    sign = 1 if det > 0 else -1
    absdet = abs(det)
    # tri is square upper triangular, so the coordinate box over its diagonal
    # is a transversal of the quotient lattice
    diag = [tri[i][i] for i in range(n)]
    # walk the box with an odometer, updating q = sign * adj @ t incrementally
    cols = [[sign * adj[i][j] for i in range(n)] for j in range(n)]
    t = [0] * n
    q = [0] * n
    points = []
    while True:
        frac = [x % absdet for x in q]
        pt = []
        for j in range(n):
            row = matrix[j]
            num = 0
            for i in range(n):
                num += row[i] * frac[i]
            if num % absdet != 0:
                raise LatticeError("parallelepiped fold produced a non-lattice point")
            pt.append(num // absdet)
        points.append(tuple(pt))
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
            break
    if len(set(points)) != absdet:
        raise AssertionError(
            f"found {len(set(points))} parallelepiped points, expected |det| = {absdet}"
        )
    return points


def is_irreducible(u, candidates, dual: Cone) -> bool:
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


def _grading_point(dual: Cone):
    """Interior point of the primal cone: positive on the dual minus 0."""
    primal = dual_cone(dual)
    return tuple(sum(col) for col in zip(*primal.generators))


@lru_cache(maxsize=128)
def independent_subsets(vectors, n):
    """All rank-n subsets of a tuple of vectors, cached per tuple."""
    return tuple(
        combo for combo in itertools.combinations(vectors, n) if rank_of(combo) == n
    )


def budgeted_subsets(vectors, n, max_points, stage, scale=1):
    """The independent n-subsets T of `vectors`, within a stage's budget.

    With `max_points` set, a LimitError names the stage before any rank test
    when the C(k, n) subsets to test exceed it, and before any point is built
    when the stage's scale * sum_T |det T| points do.
    """
    tests = comb(len(vectors), n)
    if max_points is not None and tests > max_points:
        raise LimitError(f"{stage}: {tests} ray subsets to rank-test exceed the limit ({max_points})")
    subsets = independent_subsets(vectors, n)
    if max_points is not None:
        estimate = scale * sum(abs(determinant([list(r) for r in T])) for T in subsets)
        if estimate > max_points:
            raise LimitError(f"{stage}: about {estimate} points exceed the limit ({max_points})")
    return subsets


def hilbert_basis(dual: Cone, max_points: int | None = None) -> HilbertBasis:
    """The unique minimal generating set of the lattice points of `dual`.

    Requires a full-dimensional pointed cone (reduce with split_torus_factor
    first if needed); `max_points` caps the parallelepiped points.
    """
    n = dual.ambient_rank
    if not dual.is_full_dimensional:
        raise ConeError("hilbert_basis needs a full-dimensional cone")
    subsets = budgeted_subsets(dual.generators, n, max_points, "hilbert parallelepiped points")
    candidates: set[tuple[int, ...]] = set(dual.generators)
    for combo in subsets:
        candidates.update(parallelepiped_points(combo))
    candidates.discard(tuple([0] * n))
    grading = _grading_point(dual)
    primal_rays = dual_cone(dual).generators
    # scan in grading order: a reducible element always splits off an
    # irreducible part of strictly smaller grading, so testing against the
    # irreducibles found so far is enough
    ordered = sorted(candidates, key=lambda u: (pairing(u, grading), u))
    elements: list[tuple[int, ...]] = []
    for u in ordered:
        reducible = False
        for v in elements:
            w = vec_sub(u, v)
            inside = True
            for r in primal_rays:
                s = 0
                for x, y in zip(r, w):
                    s += x * y
                if s < 0:
                    inside = False
                    break
            if inside:
                reducible = True
                break
        if not reducible:
            elements.append(u)
    return HilbertBasis(dual=dual, elements=tuple(sorted(elements)))
