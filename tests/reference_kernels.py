"""Reference routes for the parallelepiped kernel, kept for the tests.

`reference_numerators` decomposes a ray subset T the way the library did
before one Hermite form of [T | I] replaced it: a rank test by row Hermite
form, a Bareiss determinant and a cofactor adjugate with one determinant
per entry.  `independent_subsets` is the rank-tested subset list that the
brute-force oracles of the tests iterate over.
"""

import functools
import itertools

from mldhat.lattice import LatticeError, rank_of, row_hermite


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


def adjugate(rows):
    """Adjugate matrix: adj(A) @ A = det(A) * I, one cofactor at a time."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 1:
        return [(1,)]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            row.append((-1) ** (i + j) * determinant(minor))
        adj.append(tuple(row))
    return adj


def reference_numerators(rays):
    """|det T| and the list of coefficient numerators of the points of T.

    An odometer over the box on the diagonal of the Hermite form of T keeps
    q = sign * adj(T) @ t for the box point t, and yields q mod |det T|.
    """
    n = len(rays)
    matrix = [[r[j] for r in rays] for j in range(n)]  # columns = rays
    tri = row_hermite([tuple(r) for r in rays])
    if len(tri) != n:
        raise LatticeError("parallelepiped needs linearly independent rays")
    det = determinant(matrix)
    adj = adjugate(matrix)
    sign = 1 if det > 0 else -1
    absdet = abs(det)
    diag = [tri[i][i] for i in range(n)]
    cols = [[sign * adj[i][j] for i in range(n)] for j in range(n)]
    numerators = []
    for t in itertools.product(*(range(d) for d in diag)):
        q = [sum(t[j] * cols[j][i] for j in range(n)) for i in range(n)]
        numerators.append([x % absdet for x in q])
    return absdet, numerators


@functools.cache
def independent_subsets(vectors, n):
    """All rank-n subsets of a tuple of vectors, in combination order.

    Cached: the brute-force oracles ask again for every point of one basis.
    """
    return tuple(combo for combo in itertools.combinations(vectors, n) if rank_of(combo) == n)
