"""Exact integer and rational linear algebra for lattice computations.

Lattice vectors are plain tuples of Python ints; the ambient rank is the
tuple length.  Everything here is exact: integer elimination for ranks,
kernels and saturations, ``fractions.Fraction`` for linear solves, and an
exact-pivot simplex for certifying that polytopes are bounded.  No floating
point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class LatticeError(ValueError):
    """Invalid input to a lattice operation (e.g. mismatched ranks)."""


class UnboundedPolytopeError(LatticeError):
    """The polytope handed to an enumeration is unbounded."""


class LimitError(RuntimeError):
    """An internal combinatorial guard tripped (e.g. too many subsets)."""


Vector = tuple[int, ...]


def as_vector(entries, rank=None) -> Vector:
    """Validate a vector of plain ints (bools refused) and return it as a tuple."""
    v = tuple(entries)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        raise LatticeError(f"vector entries must be integers, got {list(v)!r}")
    if rank is not None and len(v) != rank:
        raise LatticeError(f"expected a vector of rank {rank}, got {len(v)} entries")
    return v


def pairing(u, a) -> int:
    """Exact dot product <u, a> of two integer vectors of equal rank."""
    if len(u) != len(a):
        raise LatticeError(f"rank mismatch in pairing: {len(u)} vs {len(a)}")
    return sum(x * y for x, y in zip(u, a))


def vec_add(u, v) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v) -> Vector:
    return tuple(c * x for x in v)


def vec_neg(v) -> Vector:
    return tuple(-x for x in v)


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def content(v) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v) -> Vector:
    """Divide out the gcd of the entries; the zero vector is returned as is."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# Integer elimination: Hermite form, rank, kernel, saturation


def row_hermite(rows) -> list[Vector]:
    """Row Hermite normal form of an integer matrix (list of row tuples).

    Unimodular row operations only, so the row lattice is preserved.  The
    result is in echelon form with positive pivots and reduced entries above
    the pivots; zero rows are dropped.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise LatticeError("ragged matrix")
    top = 0
    for col in range(ncols):
        # gcd cascade: shrink entries in this column below `top` until one remains
        while True:
            nonzero = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda i: abs(mat[i][col]))
            mat[top], mat[piv] = mat[piv], mat[top]
            if mat[top][col] < 0:
                mat[top] = [-x for x in mat[top]]
            done = True
            p = mat[top][col]
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            p = mat[top][col]
            for i in range(top):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            top += 1
            if top == len(mat):
                break
    return [tuple(r) for r in mat[:top]]


def rank_of(vectors) -> int:
    """Rank over the rationals of a family of integer vectors (0 if empty)."""
    vecs = list(vectors)
    if not vecs:
        return 0
    rank = len(vecs[0])
    for v in vecs:
        if len(v) != rank:
            raise LatticeError("vectors of mixed rank")
    return len(row_hermite(vecs))


def integer_kernel(rows) -> list[Vector]:
    """Basis of the saturated lattice {x in Z^n : r . x = 0 for all rows r}.

    Computed from the Hermite form of the transposed matrix augmented with an
    identity block: rows whose constraint part vanishes carry a kernel basis.
    """
    rows = [tuple(r) for r in rows]
    if rows:
        n = len(rows[0])
    else:
        raise LatticeError("integer_kernel needs the ambient rank; pass a nonempty matrix")
    m = len(rows)
    aug = []
    for j in range(n):
        aug.append(tuple(rows[i][j] for i in range(m)) + tuple(1 if k == j else 0 for k in range(n)))
    h = row_hermite(aug)
    return [r[m:] for r in h if all(x == 0 for x in r[:m])]


def kernel_in_rank(rows, n) -> list[Vector]:
    """Like integer_kernel but usable with an empty constraint list."""
    if not rows:
        return [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    return integer_kernel(rows)


def saturate(vectors) -> list[Vector]:
    """Lattice basis of Span_Q(vectors) intersected with Z^n.

    The double integer-kernel of the input: the kernel of a matrix is always
    a saturated lattice, and the orthogonal complement taken twice returns
    the saturation of the row span.  The result has rank_of(vectors) elements
    and every input vector is an integer combination of it.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return []
    n = len(vecs[0])
    for v in vecs:
        if len(v) != n:
            raise LatticeError("vectors of mixed rank")
    perp = kernel_in_rank(vecs, n)
    return kernel_in_rank(perp, n)


def in_row_lattice(rows, x) -> bool:
    """Is x an integer combination of the given rows?"""
    h = row_hermite(list(rows))
    x = list(x)
    for r in h:
        col = next((j for j, e in enumerate(r) if e != 0), None)
        if col is None:
            continue
        if x[col] % r[col] == 0:
            q = x[col] // r[col]
            x = [a - q * b for a, b in zip(x, r)]
    return all(e == 0 for e in x)


def same_lattice(rows_a, rows_b) -> bool:
    return all(in_row_lattice(rows_b, a) for a in rows_a) and all(
        in_row_lattice(rows_a, b) for b in rows_b
    )


# ---------------------------------------------------------------------------
# Small exact dense routines (Fraction based)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise LatticeError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def adjugate(rows) -> list[Vector]:
    """Adjugate matrix: adj(A) @ A = det(A) * I."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 1:
        return [(1,)]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            row.append((-1) ** (i + j) * determinant(minor))
        adj.append(tuple(row))
    return adj


def solve_rational(rows, rhs):
    """Solve A x = rhs exactly over Q for square invertible integer A.

    Returns a tuple of Fractions; raises LatticeError if A is singular.
    """
    n = len(rows)
    mat = [[Fraction(e) for e in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            raise LatticeError("singular system")
        mat[col], mat[piv] = mat[piv], mat[col]
        d = mat[col][col]
        mat[col] = [e / d for e in mat[col]]
        for i in range(n):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def express_in_basis(basis_rows, v) -> Vector:
    """Integer coordinates of v in a full-row-rank basis (rows), exact.

    Raises LatticeError when v is not an integer combination of the rows.
    """
    k = len(basis_rows)
    n = len(v)
    # pick k independent columns of the k x n basis matrix
    cols: list[int] = []
    for j in range(n):
        trial = cols + [j]
        sub = [[basis_rows[i][c] for c in trial] for i in range(k)]
        if rank_of([tuple(r) for r in sub]) == len(trial):
            cols = trial
        if len(cols) == k:
            break
    if len(cols) < k:
        raise LatticeError("basis rows are not independent")
    square = [[basis_rows[i][c] for i in range(k)] for c in cols]
    rhs = [v[c] for c in cols]
    sol = solve_rational(square, rhs)
    if any(x.denominator != 1 for x in sol):
        raise LatticeError("vector is not an integer combination of the basis")
    coords = tuple(int(x) for x in sol)
    check = [sum(coords[i] * basis_rows[i][j] for i in range(k)) for j in range(n)]
    if list(v) != check:
        raise LatticeError("vector lies outside the span of the basis")
    return coords


# ---------------------------------------------------------------------------
# Exact linear programming (simplex with Fraction pivots, Bland's rule)

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"


def solve_lp_max(objective, ineq_rows, ineq_rhs):
    """Maximize objective . x subject to A x >= b, x free.

    Returns (status, value, point) with exact Fractions; value and point are
    None unless status is OPTIMAL.
    """
    m = len(ineq_rows)
    n = len(objective)
    # x = u - w with u, w >= 0; A x - s = b with surplus s >= 0.
    nv = 2 * n + m
    rows = []
    rhs = []
    for i in range(m):
        a = ineq_rows[i]
        row = [Fraction(x) for x in a] + [Fraction(-x) for x in a] + [
            Fraction(-1) if j == i else Fraction(0) for j in range(m)
        ]
        b = Fraction(ineq_rhs[i])
        if b < 0:
            row = [-e for e in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    cost = [Fraction(x) for x in objective] + [Fraction(-x) for x in objective] + [
        Fraction(0)
    ] * m

    # phase 1: artificial basis
    basis = list(range(nv, nv + m))
    tab = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]

    def run_simplex(costvec, total):
        # minimize costvec . vars with Bland's rule; False means unbounded
        while True:
            nrows = len(tab)
            cb = [costvec[b] for b in basis]
            entering = -1
            for j in range(total):
                if j in basis:
                    continue
                red = costvec[j] - sum(cb[i] * tab[i][j] for i in range(nrows))
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return True
            leaving = -1
            best = None
            for i in range(nrows):
                if tab[i][entering] > 0:
                    ratio = tab[i][-1] / tab[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return False
            piv = tab[leaving][entering]
            tab[leaving] = [e / piv for e in tab[leaving]]
            for i in range(nrows):
                if i != leaving and tab[i][entering]:
                    f = tab[i][entering]
                    tab[i] = [a - f * b for a, b in zip(tab[i], tab[leaving])]
            basis[leaving] = entering

    phase_cost = [Fraction(0)] * nv + [Fraction(1)] * m
    run_simplex(phase_cost, nv + m)
    phase1 = sum(tab[i][-1] for i in range(len(tab)) if basis[i] >= nv)
    if phase1 != 0:
        return INFEASIBLE, None, None
    # drive leftover zero-level artificials out of the basis when possible
    for i in range(len(tab)):
        if basis[i] >= nv:
            entering = next((j for j in range(nv) if tab[i][j] != 0), None)
            if entering is None:
                continue
            piv = tab[i][entering]
            tab[i] = [e / piv for e in tab[i]]
            for r in range(len(tab)):
                if r != i and tab[r][entering]:
                    f = tab[r][entering]
                    tab[r] = [a - f * b for a, b in zip(tab[r], tab[i])]
            basis[i] = entering
    # rows still basic in an artificial are redundant (all real coefficients 0)
    keep = [i for i in range(len(tab)) if basis[i] < nv]
    tab = [tab[i][:nv] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: maximize cost = minimize -cost on the artificial-free tableau
    if not run_simplex([-c for c in cost], nv):
        return UNBOUNDED, None, None
    values = [Fraction(0)] * nv
    for i in range(len(tab)):
        values[basis[i]] = tab[i][-1]
    point = tuple(values[j] - values[n + j] for j in range(n))
    value = sum(Fraction(objective[j]) * point[j] for j in range(n))
    return OPTIMAL, value, point


# ---------------------------------------------------------------------------
# Rational polytopes and lattice point enumeration


@dataclass(frozen=True)
class RationalPolytope:
    """Intersection of half-spaces <normal, x> >= offset with integer data."""

    ambient_rank: int
    inequalities: tuple[tuple[Vector, int], ...]

    def __post_init__(self):
        for normal, _offset in self.inequalities:
            if len(normal) != self.ambient_rank:
                raise LatticeError("inequality normal has wrong rank")

    def contains(self, point) -> bool:
        return all(pairing(n, point) >= b for n, b in self.inequalities)


def polytope_bounds(p: RationalPolytope):
    """Exact coordinate-wise bounds of a polytope via linear programming.

    Returns (lower, upper) integer bounds covering all lattice points, or
    None when the polytope is empty.  Raises UnboundedPolytopeError when any
    coordinate is unbounded.
    """
    n = p.ambient_rank
    rows = [ineq[0] for ineq in p.inequalities]
    rhs = [ineq[1] for ineq in p.inequalities]
    lower = []
    upper = []
    for j in range(n):
        direction = tuple(1 if k == j else 0 for k in range(n))
        status, value, _ = solve_lp_max(direction, rows, rhs)
        if status == INFEASIBLE:
            return None
        if status == UNBOUNDED:
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded above")
        hi = value
        status, value, _ = solve_lp_max(vec_neg(direction), rows, rhs)
        if status == UNBOUNDED:
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
        lo = -value
        lower.append(math.ceil(lo))
        upper.append(math.floor(hi))
    return lower, upper


def enumerate_lattice_points(p: RationalPolytope) -> list[Vector]:
    """All lattice points of a bounded polytope, in lexicographic order."""
    bounds = polytope_bounds(p)
    if bounds is None:
        return []
    lower, upper = bounds
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return []
    ranges = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
    return [pt for pt in itertools.product(*ranges) if p.contains(pt)]
