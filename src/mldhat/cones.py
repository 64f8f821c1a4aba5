"""Rational polyhedral cones: duals, faces, membership, smoothness tests.

A cone is stored by its primitive extreme rays in a lattice Z^n and must be
pointed (it contains no nonzero linear subspace).  Dual descriptions are
computed by an incremental double-description sweep over exact integers:
rays are recombined across each new half-space and pruned back to extreme
rays with a tightness-rank test, which keeps every intermediate set minimal
and the final output canonical (primitive, lexicographically sorted).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import (
    as_vector,
    determinant,
    express_in_basis,
    is_zero,
    pairing,
    primitive,
    rank_of,
    saturate,
    vec_neg,
    vec_scale,
    vec_sub,
)


class ConeError(ValueError):
    """Invalid cone input (zero ray, not pointed, wrong rank...)."""


class FaceError(ValueError):
    """A generator subset or functional that does not describe a face."""


def _unit_vectors(n):
    return [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]


def dual_description(ineq_vectors, n):
    """Generators of {u in Z^n : <u, a> >= 0 for all a}, as (lines, rays).

    The lineality part `lines` is a lattice basis of the maximal linear
    subspace; `rays` generate the pointed remainder and are exactly the
    extreme rays modulo lineality.  Both lists are primitive and sorted.
    """
    ineqs = []
    seen = set()
    for a in ineq_vectors:
        a = primitive(as_vector(a, n))
        if is_zero(a) or a in seen:
            continue
        seen.add(a)
        ineqs.append(a)
    lines = _unit_vectors(n)
    rays: list[tuple[int, ...]] = []
    processed: list[tuple[int, ...]] = []

    def prune(candidates):
        # keep extreme rays of the current cone {<.,a> >= 0 for processed}
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
        # ordinary double-description step on the pointed part
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


@dataclass(frozen=True)
class Cone:
    """A pointed rational polyhedral cone given by primitive extreme rays."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_generators(ambient_rank, generators):
        if type(ambient_rank) is not int:
            raise ConeError(f"ambient rank must be an integer, got {ambient_rank!r}")
        n = ambient_rank
        if n < 1:
            raise ConeError("ambient rank must be positive")
        gens = []
        seen = set()
        for g in generators:
            v = as_vector(g, n)
            if is_zero(v):
                raise ConeError("zero vector is not a valid ray generator")
            v = primitive(v)
            if v not in seen:
                seen.add(v)
                gens.append(v)
        if not gens:
            raise ConeError("a cone needs at least one generator")
        lines, rays = dual_description(gens, n)
        if rank_of(list(lines) + list(rays)) < n:
            raise ConeError("cone is not pointed: it contains a nonzero linear subspace")
        extremes = _extreme_rays(gens, lines, rays, n)
        return Cone(n, tuple(sorted(extremes)))

    def __post_init__(self):
        if not self.generators:
            raise ConeError("a cone needs at least one generator")
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ConeError("generator rank mismatch")

    @cached_property
    def dual_pair(self):
        """(lines, rays) generating the dual cone; lines span span(self)^perp."""
        return dual_description(self.generators, self.ambient_rank)

    @cached_property
    def span_rank(self) -> int:
        return rank_of(self.generators)

    @property
    def is_full_dimensional(self) -> bool:
        return self.span_rank == self.ambient_rank

    def contains(self, point, strict=False) -> bool:
        """Closed (or topological-interior) membership via the dual description."""
        a = as_vector(point, self.ambient_rank)
        lines, rays = self.dual_pair
        if strict:
            if not self.is_full_dimensional:
                raise ConeError("interior membership needs a full-dimensional cone")
            return all(pairing(r, a) > 0 for r in rays)
        return all(pairing(l, a) == 0 for l in lines) and all(
            pairing(r, a) >= 0 for r in rays
        )


def _extreme_rays(gens, dual_lines, dual_rays, n):
    """Extreme rays among generators of a pointed cone.

    A generator is extreme exactly when the constraints tight at it cut the
    cone down to a one-dimensional face.
    """
    lineality = list(dual_lines)
    out = []
    for g in gens:
        tight = lineality + [r for r in dual_rays if pairing(r, g) == 0]
        if n - rank_of(tight) == 1:
            out.append(g)
    return out


def dual_cone(c: Cone) -> Cone:
    """The dual cone in the dual lattice, for a full-dimensional cone."""
    if not c.is_full_dimensional:
        raise ConeError(
            "dual of a non-full-dimensional cone is not pointed; "
            "split off the torus factor first"
        )
    lines, rays = c.dual_pair
    if lines:
        raise AssertionError("the dual of a full-dimensional cone contains a line")
    return Cone(c.ambient_rank, tuple(sorted(rays)))


def membership(c: Cone, a, mode="closed") -> bool:
    if mode not in ("closed", "interior"):
        raise ValueError("mode must be 'closed' or 'interior'")
    return c.contains(a, strict=(mode == "interior"))


def split_torus_factor(c: Cone):
    """Re-express a cone inside the saturation of its span.

    Returns (full-dimensional cone in Z^k, torus_rank n-k); a cone that
    already spans comes back unchanged with torus rank 0.
    """
    k = c.span_rank
    n = c.ambient_rank
    if k == n:
        return c, 0
    basis = saturate(c.generators)
    coords = [express_in_basis(basis, g) for g in c.generators]
    return Cone.from_generators(k, coords), n - k


@dataclass(frozen=True)
class FaceSpec:
    """A face given either by a supporting functional or by ray indices."""

    supporting_functional: tuple[int, ...] | None = None
    generator_subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.supporting_functional is None) == (self.generator_subset is None):
            raise FaceError(
                "specify exactly one of supporting_functional or generator_subset"
            )


def resolve_face(c: Cone, f: FaceSpec) -> tuple[int, ...]:
    """Validated tuple of extreme-ray indices spanning the face."""
    lines, dual_rays = c.dual_pair
    if f.supporting_functional is not None:
        u = as_vector(f.supporting_functional, c.ambient_rank)
        if any(pairing(u, v) < 0 for v in c.generators):
            raise FaceError("supporting functional is negative on a generator, not in the dual cone")
        return tuple(
            i for i, v in enumerate(c.generators) if pairing(u, v) == 0
        )
    if not all(type(i) is int for i in f.generator_subset):
        raise FaceError(f"ray indices must be integers, got {list(f.generator_subset)!r}")
    subset = tuple(sorted(f.generator_subset))
    if len(set(subset)) != len(subset):
        raise FaceError(f"ray indices repeat in {list(f.generator_subset)!r}")
    for i in subset:
        if not 0 <= i < len(c.generators):
            raise FaceError(f"ray index {i} out of range")
    if len(subset) == len(c.generators):
        return subset
    # the minimal face containing the subset is the zero set of the sum of
    # all dual rays vanishing on it; the subset is a face iff they coincide
    vanishing = [
        r
        for r in dual_rays
        if all(pairing(r, c.generators[i]) == 0 for i in subset)
    ]
    u = tuple(sum(col) for col in zip(*vanishing)) if vanishing else None
    if u is None:
        raise FaceError(
            f"no supporting functional vanishes on rays {subset}; not a face"
        )
    zero_set = tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0)
    if zero_set != subset:
        extra = [i for i in zero_set if i not in subset]
        raise FaceError(
            f"rays {subset} do not form a face: the minimal face also contains ray {extra[0]}"
        )
    return subset


def face_cone(c: Cone, f: FaceSpec) -> Cone:
    """The face as a full-dimensional pointed cone in the lattice it spans."""
    subset = resolve_face(c, f)
    if not subset:
        raise FaceError("the zero face has no cone; handle dimension 0 at the call site")
    rays = [c.generators[i] for i in subset]
    if len(subset) == len(c.generators):
        sub = c
    else:
        sub = Cone.from_generators(c.ambient_rank, rays)
    reduced, _ = split_torus_factor(sub)
    return reduced


def _require_full_pointed(c: Cone):
    if not c.is_full_dimensional:
        raise ConeError("this predicate needs a full-dimensional cone")


def is_simplicial(c: Cone) -> bool:
    _require_full_pointed(c)
    return len(c.generators) == c.ambient_rank


def is_smooth(c: Cone) -> bool:
    """Do the extreme rays form a lattice basis?"""
    _require_full_pointed(c)
    if not is_simplicial(c):
        return False
    return abs(determinant([list(g) for g in c.generators])) == 1


def facets(c: Cone) -> list[tuple[int, ...]]:
    """Ray-index sets of the facets (codimension-one faces)."""
    _require_full_pointed(c)
    _, dual_rays = c.dual_pair
    out = []
    for u in dual_rays:
        out.append(tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0))
    return sorted(set(out))


def has_isolated_fixed_point(c: Cone) -> bool:
    """Is every proper face smooth?  (Equivalently: every facet is smooth;
    faces of smooth cones are smooth, so facet smoothness propagates down.)
    """
    _require_full_pointed(c)
    if c.ambient_rank == 1:
        return True
    for subset in facets(c):
        if not subset:
            continue
        face = face_cone(c, FaceSpec(generator_subset=subset))
        if not is_smooth(face):
            return False
    return True
