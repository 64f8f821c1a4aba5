"""Rational polyhedral cones: duals, faces, face charts, triangulations.

A cone is stored by its primitive extreme rays in a lattice Z^n and must be
pointed (it contains no nonzero linear subspace).  Dual descriptions are
computed by an incremental double-description sweep over exact integers.
Each ray carries the bitmask of the inequalities that vanish on it: a new
line-splitting inequality projects the rays along the split line, and any
other inequality combines exactly the adjacent pairs of rays across it,
found by comparing bitmasks.  No step computes a rank, every intermediate
set is minimal, and the output is canonical (primitive, lexicographically
sorted).

Every cone carries its double description: `Cone.from_generators` and
`dual_cone`, the only two constructors, store the pair (dual lines, dual
rays) as the cone's `dual_pair` next to its sorted primitive extreme rays,
and the facet table as its `facets`: the bitmask of the extreme rays on
each facet.  The table comes from the sweep over the generators, whose
ray masks have one bit per inequality as given: `from_generators` checks
the generators and makes them primitive, distinct and sorted, and the
sweep below it works on plain integer tuples with no normalisation of
its own.  `dual_cone` swaps the two halves of the pair and transposes
the table, so a cone and its dual together cost one sweep.  Faces are
read off the table: `_extreme_rays` keeps a generator when the facets
through it hold no other, `resolve_face` checks a ray subset against the
intersection of the facets containing it, `face_chart` takes a face's
rays in the lattice they span, the kernel of the dual lines and the facet
normals through the face, and `pulling_triangulation` reads the cells of
one triangulation off the same table.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

from .lattice import (
    as_vector,
    express_in_basis,
    integer_kernel,
    pairing,
    primitive,
    rank_of,  # not called here; perfbench/tracing.py wraps this name
)


class ConeError(ValueError):
    """Invalid cone input (zero ray, not pointed, wrong rank...)."""


class FaceError(ValueError):
    """A generator subset or functional that does not describe a face."""


def dual_description(ineq_vectors, n):
    """Generators of {u in Z^n : <u, a> >= 0 for all a}, as (lines, rays, masks).

    The lineality part `lines` is a lattice basis of the maximal linear
    subspace; `rays` generate the pointed remainder and are exactly the
    extreme rays modulo lineality.  Both lists are primitive and sorted.
    `masks[k]` has bit j set when the j-th inequality as given vanishes on
    `rays[k]`: the facet table.  The inequalities are integer vectors of
    rank n and are taken as they come, one bit each.  A zero, repeated or
    scaled one gives the same `lines` and `rays` as the distinct primitive
    nonzero ones: a zero inequality vanishes everywhere, a repeat cuts
    nothing more, and every combination below is made primitive.
    `Cone.from_generators`, the one caller, passes them canonical.

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
    lines = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for k, a in enumerate(ineq_vectors):
        bit = 1 << k
        pivot = next((l for l in lines if sum(map(operator.mul, l, a))), None)
        if pivot is not None:
            d0 = sum(map(operator.mul, pivot, a))
            new_lines = []
            for l in lines:
                if l is pivot:
                    continue
                d = sum(map(operator.mul, l, a))
                if d == 0:
                    new_lines.append(l)
                else:
                    new_lines.append(primitive([d0 * x - d * y for x, y in zip(l, pivot)]))
            lines = sorted(new_lines)
            if d0 < 0:
                pivot, d0 = tuple(-x for x in pivot), -d0
            values = [sum(map(operator.mul, r, a)) for r in rays]
            rays = [primitive([d0 * x - d * y for x, y in zip(r, pivot)]) for r, d in zip(rays, values)]
            rays.append(pivot)
            masks = [m | bit for m in masks] + [bit - 1]
            continue
        values = [sum(map(operator.mul, r, a)) for r in rays]
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
                vi, vj = values[i], values[j]
                new_rays.append(primitive([vi * y - vj * x for x, y in zip(rays[i], rays[j])]))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    table = sorted(zip(rays, masks))
    return sorted(lines), [r for r, _ in table], [m for _, m in table]


def _extreme_rays(count, facets):
    """Indices of the extreme rays among `count` distinct primitive generators of a cone C.

    `facets` has bit i of mask k set when dual ray k vanishes on generator
    i.  The minimal face of C containing g is the intersection of the
    facets containing g (all of C when none does), and it is generated by
    the generators lying in it.  So g spans the face R_{>=0} g, that is, g
    is extreme, exactly when those facets meet the generators in g alone.

    C is pointed exactly when some generator is extreme.  A pointed C
    other than 0 is generated by its extreme rays, and the face that each
    one spans holds a generator.  A nonzero lineality space lies in every
    face and is spanned by at least two generators, so no face is one ray.
    """
    every = (1 << count) - 1
    return [
        i
        for i in range(count)
        if functools.reduce(operator.and_, [f for f in facets if f >> i & 1], every) == 1 << i
    ]


@dataclass(frozen=True)
class Cone:
    """A pointed rational polyhedral cone with its double description.

    `generators` are the primitive extreme rays, sorted; `dual_pair` and
    `facets` are (lines, rays) and the masks of
    `dual_description(generators)`: the lines are a lattice basis of
    span(generators)^perp, the rays generate the dual cone modulo them, and
    bit i of `facets[k]` is set when rays[k] vanishes on generator i.  A
    face is the intersection of the facets containing it, and its span is
    cut out by their normals and the lines (Ziegler, *Lectures on
    Polytopes*, 1995, section 2.2).  Equality and hashing use the
    generators only.  Build cones with `Cone.from_generators` or
    `dual_cone`, which establish all three.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    dual_pair: tuple[list, list] = field(compare=False, repr=False)
    facets: list[int] = field(compare=False, repr=False)

    @staticmethod
    def from_generators(ambient_rank, generators):
        """The cone the generators span, which must be pointed.

        This is the one place where generators are checked and made
        canonical: each must be a nonzero vector of `ambient_rank`
        integers; each is made primitive, repeats are dropped and the rest
        are sorted.  Everything below works on these plain tuples.
        `dual_description` sweeps them as given, with one mask bit per
        generator, so bit i of a facet mask is generator i.
        `_extreme_rays` relies on the generators being distinct, since a
        repeated ray is never alone on its face.  The dual rays modulo
        lineality depend on the order swept, and sorting makes them
        canonical.  Generators that are not extreme are dropped: their
        bits leave the facet table, or, when the cone has dual lines, the
        extreme rays are swept again.

        Two error classes, both ValueError: a generator with an entry that
        is not an int, or of a rank other than `ambient_rank`, raises
        LatticeError (from `as_vector`); an ambient rank that is not a
        positive int, a zero generator, no generator at all or a cone that
        is not pointed raises ConeError.
        """
        if type(ambient_rank) is not int:
            raise ConeError(f"ambient rank must be an integer, got {ambient_rank!r}")
        n = ambient_rank
        if n < 1:
            raise ConeError("ambient rank must be positive")
        gens = set()
        for g in generators:
            v = as_vector(g, n)
            if not any(v):
                raise ConeError("zero vector is not a valid ray generator")
            gens.add(primitive(v))
        if not gens:
            raise ConeError("a cone needs at least one generator")
        gens = sorted(gens)
        lines, rays, facets = dual_description(gens, n)
        keep = _extreme_rays(len(gens), facets)
        if not keep:
            raise ConeError("cone is not pointed: it contains a nonzero linear subspace")
        extremes = tuple(gens[i] for i in keep)
        if len(keep) < len(gens) and lines:
            # rays modulo lineality are representatives that depend on the input;
            # sweeping the sorted extreme rays, as when all are extreme, makes them canonical
            lines, rays, facets = dual_description(extremes, n)
        elif len(keep) < len(gens):  # the same facets: keep the bits of the extreme rays
            facets = [sum(1 << j for j, i in enumerate(keep) if m >> i & 1) for m in facets]
        return Cone(n, extremes, (lines, rays), facets)

    def __post_init__(self):
        if not self.generators:
            raise ConeError("a cone needs at least one generator")
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ConeError("generator rank mismatch")

    @property
    def is_full_dimensional(self) -> bool:
        return not self.dual_pair[0]


def dual_cone(c: Cone) -> Cone:
    """The dual cone in the dual lattice, for a full-dimensional cone.

    The dual's generators are c's dual rays, and its dual pair is c's
    generators with no lines: c is pointed, so its dual is full-dimensional.
    Its facet table is c's transposed.
    """
    if not c.is_full_dimensional:
        raise ConeError(
            "dual of a non-full-dimensional cone is not pointed; "
            "split off the torus factor first"
        )
    facets = [sum(1 << k for k, m in enumerate(c.facets) if m >> i & 1) for i in range(len(c.generators))]
    return Cone(c.ambient_rank, tuple(c.dual_pair[1]), ([], list(c.generators)), facets)


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


def pulling_triangulation(c: Cone):
    """The cells of the pulling triangulation of a full-dimensional cone.

    Each cell is a tuple of n linearly independent extreme rays, in
    generator order; the cells cover the cone and their interiors are
    disjoint, and no ray is added (De Loera, Rambau and Santos,
    *Triangulations*, 2010, section 4.3).  Pulling the least ray v of a
    face F cones v over the cells of the facets of F that do not contain v,
    each triangulated the same way, so that two facets induce the same cells
    on the face they share; the empty face has the one empty cell.

    Faces are bitmasks of ray indices, read off the facet table `c.facets`:
    the faces of F are the faces of the cone inside F, each an intersection
    of facets G of the cone, so the facets of F are the inclusion-maximal
    sets F & G other than F.  A facet
    of F not containing v has dimension dim F - 1 and v lies off its span,
    so every cell has as many rays as its dimension, with no rank test.
    """
    if not c.is_full_dimensional:
        raise ConeError("pulling_triangulation needs a full-dimensional cone")
    gens = c.generators
    if len(gens) == c.ambient_rank:  # simplicial: the cone is its one cell
        yield gens
        return
    stack = [((1 << len(gens)) - 1, 0)]  # (face still to triangulate, rays pulled so far)
    while stack:
        face, cell = stack.pop()
        if not face:
            yield tuple(g for i, g in enumerate(gens) if cell >> i & 1)
            continue
        v = face & -face
        parts = {face & f for f in c.facets} - {face}
        for part in sorted(parts, reverse=True):
            if not part & v and not any(part & q == part and q != part for q in parts):
                stack.append((part, cell | v))


def resolve_face(c: Cone, f: FaceSpec) -> tuple[int, ...]:
    """Validated tuple of extreme-ray indices spanning the face."""
    if f.supporting_functional is not None:
        u = as_vector(f.supporting_functional, c.ambient_rank)
        if any(pairing(u, v) < 0 for v in c.generators):
            raise FaceError("supporting functional is negative on a generator, not in the dual cone")
        return tuple(i for i, v in enumerate(c.generators) if pairing(u, v) == 0)
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
    # the subset is a face iff it is the intersection of the facets containing it
    s = sum(1 << i for i in subset)
    containing = [m for m in c.facets if m & s == s]
    if not containing:
        raise FaceError(f"no supporting functional vanishes on rays {subset}; not a face")
    extra = functools.reduce(operator.and_, containing) & ~s
    if extra:
        first = (extra & -extra).bit_length() - 1
        raise FaceError(f"rays {subset} do not form a face: the minimal face also contains ray {first}")
    return subset


def face_chart(c: Cone, face: FaceSpec | None = None):
    """The chart of a face: (ray indices, chart, torus rank).

    Near the distinguished point of a face F, the toric variety of c is the
    toric variety of F, taken in the lattice F spans, times a torus of rank
    n - dim F.  The chart is the face's rays expressed in a basis of the
    saturation of their span, a full-dimensional pointed cone; the extreme
    rays of a face are the extreme rays of c lying in it.  The basis is the
    `integer_kernel` of the dual lines and the facet normals through F.
    `face=None` means the whole cone, and a full-dimensional cone comes
    back unchanged with torus rank 0.  The zero face has no chart (None)
    and torus rank n.
    """
    indices = tuple(range(len(c.generators))) if face is None else resolve_face(c, face)
    if not indices:
        return indices, None, c.ambient_rank
    if c.is_full_dimensional and len(indices) == len(c.generators):
        return indices, c, 0
    s = sum(1 << i for i in indices)
    lines, dual_rays = c.dual_pair
    normals = [r for r, m in zip(dual_rays, c.facets) if m & s == s]
    basis = integer_kernel(lines + normals, c.ambient_rank)
    rays = [c.generators[i] for i in indices]
    chart = Cone.from_generators(len(basis), [express_in_basis(basis, r) for r in rays])
    return indices, chart, c.ambient_rank - len(basis)
