"""Rational polyhedral cones: duals, faces, membership, face charts.

A cone is stored by its primitive extreme rays in a lattice Z^n and must be
pointed (it contains no nonzero linear subspace).  Dual descriptions are
computed by an incremental double-description sweep over exact integers.
Each ray carries the bitmask of the inequalities that vanish on it: a new
line-splitting inequality projects the rays along the split line, and any
other inequality combines exactly the adjacent pairs of rays across it,
found by comparing bitmasks.  No step computes a rank, every intermediate
set is minimal, and the output is canonical (primitive, lexicographically
sorted).  Extreme rays are picked out by the same zero-set comparison.

Every cone carries its double description: `Cone.from_generators` and
`dual_cone`, the only two constructors, store the pair (dual lines, dual
rays) as the cone's `dual_pair` next to its sorted primitive extreme rays.
`dual_cone` swaps the two halves, so a cone and its dual together cost one
sweep, and `face_chart` builds a face as a new cone from its rays in the
lattice they span, with the rank of the torus factor it leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .lattice import (
    LatticeError,
    as_vector,
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

    The sweep starts from Z^n (lines = unit vectors, no rays) and adds one
    inequality a at a time.  Each ray carries the bitmask of the processed
    inequalities that vanish on it; no rank is ever computed.

    * Pivot step, when a is nonzero on some line.  The first such line p,
      oriented so that <p, a> > 0, leaves the lineality space, and the
      other lines are moved into a^perp as before.  Since p lies in the
      lineality space L of the current cone C, every x of the new cone
      C' = C cap {a >= 0} splits as x = (x - t p) + t p with
      t = <x, a> / <p, a> >= 0 and x - t p in C cap a^perp; so
      C' = (C cap a^perp) + R_{>=0} p, a direct sum.  Projection along p is
      an isomorphism C / L -> (C cap a^perp) / (L cap a^perp), so the
      extreme rays of C' are p and the projections of the rays of C, with
      no test.  A processed b vanishes on p, so p's mask has every earlier
      bit set, and b(projected r) is a positive multiple of b(r), so a
      projected ray keeps its mask and gains the bit of a.
    * Ordinary step, when a vanishes on every line.  Rays with <r, a> >= 0
      stay extreme.  Every new extreme ray lies on a 2-face of C spanned by
      a ray r+ with <r+, a> > 0 and a ray r- with <r-, a> < 0, so the new
      rays are the combinations of adjacent such pairs.  Adjacency lemma
      (Fukuda and Prodon, 1996): the minimal face of the pointed cone C / L
      containing r+ and r- is cut out by their common zero set Z, and it is
      2-dimensional exactly when it holds no third extreme ray, that is,
      when no other ray's mask contains Z.  The combination vanishes on a
      processed b exactly when both rays do, so its mask is Z plus the bit
      of a.
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
    masks: list[int] = []
    for k, a in enumerate(ineqs):
        bit = 1 << k
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
            if d0 < 0:
                pivot, d0 = vec_neg(pivot), -d0
            rays = [
                primitive(vec_sub(vec_scale(d0, r), vec_scale(pairing(r, a), pivot)))
                for r in rays
            ]
            rays.append(pivot)
            masks = [m | bit for m in masks] + [bit - 1]
            continue
        values = [pairing(r, a) for r in rays]
        new_rays = []
        new_masks = []
        for r, m, v in zip(rays, masks, values):
            if v >= 0:
                new_rays.append(r)
                new_masks.append(m | bit if v == 0 else m)
        pos = [i for i, v in enumerate(values) if v > 0]
        neg = [j for j, v in enumerate(values) if v < 0]
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if any(
                    m & common == common and t != i and t != j
                    for t, m in enumerate(masks)
                ):
                    continue
                new_rays.append(
                    primitive(vec_sub(vec_scale(values[i], rays[j]), vec_scale(values[j], rays[i])))
                )
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return sorted(lines), sorted(rays)


def _extreme_rays(gens, dual_rays):
    """Extreme rays among distinct primitive generators of a pointed cone C.

    With Z(g) the dual rays vanishing on g, the face cut out by Z(g) is the
    minimal face F of C containing g, and F is generated by the generators
    lying in it, those h with Z(h) containing Z(g).  So g spans the face
    R_{>=0} g, that is, g is extreme, exactly when no other generator
    vanishes on every dual ray that vanishes on g.  The dual lines vanish on
    all of C and do not enter the test.
    """
    # bit k of masks[i] is set when dual_rays[k] vanishes on gens[i]
    masks = [
        sum(1 << k for k, r in enumerate(dual_rays) if pairing(g, r) == 0) for g in gens
    ]
    return [
        g
        for i, (g, m) in enumerate(zip(gens, masks))
        if not any(mh & m == m and h != i for h, mh in enumerate(masks))
    ]


@dataclass(frozen=True)
class Cone:
    """A pointed rational polyhedral cone with its double description.

    `generators` are the primitive extreme rays, sorted; `dual_pair` is
    (lines, rays) of `dual_description(generators)`: the lines are a
    lattice basis of span(generators)^perp and the rays generate the dual
    cone modulo them.  Equality and hashing use the generators only.  Build
    cones with `Cone.from_generators` or `dual_cone`, which establish both.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    dual_pair: tuple[list, list] = field(compare=False, repr=False)

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
        extremes = tuple(sorted(_extreme_rays(gens, rays)))
        if lines:
            # rays modulo lineality are representatives that depend on the
            # input; sweeping the extreme rays makes the pair canonical
            lines, rays = dual_description(extremes, n)
        return Cone(n, extremes, (lines, rays))

    def __post_init__(self):
        if not self.generators:
            raise ConeError("a cone needs at least one generator")
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ConeError("generator rank mismatch")

    @property
    def is_full_dimensional(self) -> bool:
        return not self.dual_pair[0]

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


def dual_cone(c: Cone) -> Cone:
    """The dual cone in the dual lattice, for a full-dimensional cone.

    The dual's generators are c's dual rays, and its dual pair is c's
    generators with no lines: c is pointed, so its dual is full-dimensional.
    """
    if not c.is_full_dimensional:
        raise ConeError(
            "dual of a non-full-dimensional cone is not pointed; "
            "split off the torus factor first"
        )
    return Cone(c.ambient_rank, tuple(c.dual_pair[1]), ([], list(c.generators)))


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


def face_chart(c: Cone, face: FaceSpec | None = None):
    """The chart of a face: (ray indices, chart, torus rank).

    Near the distinguished point of a face F, the toric variety of c is the
    toric variety of F, taken in the lattice F spans, times a torus of rank
    n - dim F.  The chart is the face's rays expressed in a basis of the
    saturation of their span, a full-dimensional pointed cone; the extreme
    rays of a face are the extreme rays of c lying in it.  `face=None`
    means the whole cone, and a full-dimensional cone comes back unchanged
    with torus rank 0.  The zero face has no chart (None) and torus rank n.
    """
    indices = tuple(range(len(c.generators))) if face is None else resolve_face(c, face)
    if not indices:
        return indices, None, c.ambient_rank
    if c.is_full_dimensional and len(indices) == len(c.generators):
        return indices, c, 0
    rays = [c.generators[i] for i in indices]
    basis = saturate(rays)
    chart = Cone.from_generators(len(basis), [express_in_basis(basis, r) for r in rays])
    return indices, chart, c.ambient_rank - len(basis)


class UnboundedPolytopeError(LatticeError):
    """The polytope handed to an enumeration is unbounded."""


@dataclass(frozen=True)
class RationalPolytope:
    """Intersection of half-spaces <normal, x> >= offset with integer data."""

    ambient_rank: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        for normal, _offset in self.inequalities:
            if len(normal) != self.ambient_rank:
                raise LatticeError("inequality normal has wrong rank")

    def contains(self, point) -> bool:
        return all(pairing(n, point) >= b for n, b in self.inequalities)


def enumerate_lattice_points(p: RationalPolytope) -> list[tuple[int, ...]]:
    """All lattice points of a bounded polytope, in lexicographic order.

    P = {x : <normal, x> >= offset} is the slice t = 1 of the cone
    K = {(x, t) : t >= 0, <normal, x> - offset t >= 0} in Z^(n+1), and
    `dual_description` writes K = lin + cone(rays).  The lines have t = 0,
    since t >= 0 is one of the inequalities.  As t is nonnegative on K, the
    face K cap {t = 0}, the recession cone of P, is generated by the lines
    and the rays with t = 0; and P is empty exactly when no ray has t > 0.
    Otherwise:

    * Coordinate j is unbounded above on P exactly when the recession cone
      holds an x with x_j > 0: when some line has x_j != 0 or some ray with
      t = 0 has x_j > 0.  It is unbounded below exactly when some ray with
      t = 0 has x_j < 0 (a line would already have counted as "above").
      Coordinates are checked in order, above before below.
    * Past these checks there are no lines and no rays with t = 0 (each is
      nonzero in some coordinate), so P is the convex hull of its vertices
      r / t over the rays with t > 0.  Every lattice point lies in the box
      min ceil(r_j / t) <= x_j <= max floor(r_j / t), in exact floor
      division, and the box is scanned and filtered by the inequalities.
    """
    n = p.ambient_rank
    cone_ineqs = [tuple(normal) + (-offset,) for normal, offset in p.inequalities]
    lines, rays = dual_description(cone_ineqs + [(0,) * n + (1,)], n + 1)
    vertices = [r for r in rays if r[n] > 0]
    if not vertices:
        return []
    recession = [r for r in rays if r[n] == 0]
    for j in range(n):
        if any(l[j] for l in lines) or any(r[j] > 0 for r in recession):
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded above")
        if any(r[j] < 0 for r in recession):
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
    ranges = [
        range(min(-(-r[j] // r[n]) for r in vertices), max(r[j] // r[n] for r in vertices) + 1)
        for j in range(n)
    ]
    return [pt for pt in itertools.product(*ranges) if p.contains(pt)]
