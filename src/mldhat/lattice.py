"""Exact integer linear algebra for lattice computations.

Lattice vectors are plain tuples of Python ints; the ambient rank is the
tuple length.  `as_vector` checks the entries and the rank of one vector
and `primitive` divides out its gcd; there is no layer of vector
arithmetic, so callers write their sums and scalings in place.
Everything else here is integer elimination: the row Hermite form
gives ranks and kernels (a kernel is a saturated lattice, so the
saturation of a span is the kernel of its orthogonal complement), and one
pass along echelon pivots gives coordinates.  No floating point and no
rational arithmetic is used anywhere.  Polyhedral questions are answered
in `cones`, duals and faces by the double description, and in `toric`,
the lattice points of a level slice by Fourier-Motzkin elimination.
"""

from __future__ import annotations

from math import gcd
from operator import mul


class LatticeError(ValueError):
    """Invalid input to a lattice operation (e.g. mismatched ranks)."""


class LimitError(RuntimeError):
    """An internal combinatorial guard tripped (e.g. too many cells or points)."""


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
    return sum(map(mul, u, a))


def primitive(v) -> Vector:
    """Divide out the gcd of the entries; the zero vector is returned as is."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# Integer elimination: Hermite form, rank, kernel


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
    """Rank over the rationals of a family of integer vectors (0 if empty);
    `row_hermite` refuses ragged input with a LatticeError."""
    return len(row_hermite(list(vectors)))


def integer_kernel(rows, n) -> list[Vector]:
    """Basis of the saturated lattice {x in Z^n : r . x = 0 for all rows r}.

    Computed from the Hermite form of the transposed matrix augmented with an
    identity block: rows whose constraint part vanishes carry a kernel basis.
    With no rows every row of the block qualifies, and the kernel Z^n comes
    back as the unit vectors.  The kernel rows come last, so restricted to
    the identity block they are the row Hermite form of the kernel lattice,
    which is unique, in the echelon form `express_in_basis` needs.
    """
    rows = [as_vector(r, n) for r in rows]
    m = len(rows)
    aug = []
    for j in range(n):
        aug.append(tuple(rows[i][j] for i in range(m)) + tuple(1 if k == j else 0 for k in range(n)))
    h = row_hermite(aug)
    return [r[m:] for r in h if all(x == 0 for x in r[:m])]


def express_in_basis(basis_rows, v) -> Vector:
    """Integer coordinates of v in a basis given in echelon form.

    `integer_kernel` and `row_hermite` return their rows in that form.  Each row's
    first nonzero entry, its pivot, lies right of the previous row's, so
    every later row vanishes in that column: reading the coordinate q_i from
    the pivot column of row i, top to bottom, leaves a remainder
    v - sum q_i rows_i that is zero there.  The remainder is zero exactly
    when v is an integer combination of the rows, and then q is its unique
    coordinate vector.  Raises LatticeError when the rows are not in echelon
    form, a rank differs, or v is not an integer combination of the rows.
    """
    x = list(v)
    coords = []
    last = -1
    for r in basis_rows:
        if len(r) != len(x):
            raise LatticeError(f"rank mismatch: row of rank {len(r)}, vector of rank {len(x)}")
        col = next((j for j, e in enumerate(r) if e != 0), len(r))
        if not last < col < len(r):
            raise LatticeError("basis rows are not in echelon form")
        q = x[col] // r[col]
        x = [a - q * b for a, b in zip(x, r)]
        coords.append(q)
        last = col
    if any(x):
        raise LatticeError("vector is not in the lattice of the basis")
    return tuple(coords)
