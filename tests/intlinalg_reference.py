"""Reference integer linear algebra for the tests.

The package keeps one integer elimination, the sparse Smith form the
oracle reads (`burnside.intlinalg.sparse_smith_invariants`).  These are
the routines the tests check it and the oracle against:

- `_diagonalize`, a dense diagonalization by row and column operations
  with closures of its own, and `rank` on it: an elimination shared with
  nothing in the package, so the tests' Smith forms and kernel
  dimensions are checked independently;
- `kernel_of_sparse_columns`, the integer kernel: columns go one by one
  into the package's integer row echelon (`_reduce`), each carrying its
  combination of the columns at the indices from `stop` on, and
  `kernel_of_columns`, its dense front end;
- `solve_integer` and `quotient_structure` (kernel lattice modulo image
  lattice), read off that kernel with no elimination of their own;
- `lattice_span_basis`, the package's Hermite echelon as dense rows;
  `smith_invariants`, the sparse Smith form of dense rows; `mat_mul`.

Limit: `kernel_of_sparse_columns` blows up on the 80 x 320 Z-matrix of
A4's bar `d_3` at j = 0 (not done after 100 s, where its Smith form takes
3 ms), so the tests keep it to smaller ones.
"""

from __future__ import annotations

from burnside.errors import InvariantViolation
from burnside.intlinalg import (Echelon, SparseRow, _hermite_echelon, _reduce,
                                sparse_smith_invariants, xgcd)


def _diagonalize(A: list[list[int]], ncols: int):
    """Reduce A to a diagonal matrix D by unimodular row and column operations.

    No divisibility normalization is done.
    """
    D = [row[:] for row in A]
    m = len(D)
    n = ncols

    def row_op(i1, i2, j):
        a, b = D[i1][j], D[i2][j]
        if b == 0:
            return
        if a == 0:
            D[i1], D[i2] = D[i2], D[i1]
        elif b % a == 0:
            q = -(b // a)
            r1, r2 = D[i1], D[i2]
            for jj in range(j, n):
                r2[jj] += q * r1[jj]
        else:
            g, x, y = xgcd(a, b)
            mbg, ag = -(b // g), a // g
            r1, r2 = D[i1], D[i2]
            for jj in range(j, n):
                aa, bb = r1[jj], r2[jj]
                r1[jj] = x * aa + y * bb
                r2[jj] = mbg * aa + ag * bb

    def col_op(j1, j2, i):
        a, b = D[i][j1], D[i][j2]
        if b == 0:
            return
        if a == 0:
            for r in D:
                r[j1], r[j2] = r[j2], r[j1]
        elif b % a == 0:
            q = -(b // a)
            for r in D:
                r[j2] += q * r[j1]
        else:
            g, x, y = xgcd(a, b)
            mbg, ag = -(b // g), a // g
            for r in D:
                aa, bb = r[j1], r[j2]
                r[j1] = x * aa + y * bb
                r[j2] = mbg * aa + ag * bb

    for k in range(min(m, n)):
        while True:
            for i in range(k + 1, m):
                row_op(k, i, k)
            if all(D[k][j] == 0 for j in range(k + 1, n)):
                break
            for j in range(k + 1, n):
                col_op(k, j, k)
            if all(D[i][k] == 0 for i in range(k + 1, m)):
                break
    return D


def rank(A: list[list[int]], ncols: int) -> int:
    """Rank over Q (equivalently over Z up to torsion)."""
    if not A:
        return 0
    D = _diagonalize(A, ncols)
    return sum(1 for j in range(min(len(A), ncols)) if D[j][j] != 0)


def _dense(row: SparseRow, width: int) -> list[int]:
    out = [0] * width
    for k, x in row.items():
        out[k] = x
    return out


def _vec_key(vec):
    for i, x in enumerate(vec):
        if x:
            return (i, abs(x), vec)
    return (len(vec), 0, vec)


def kernel_of_sparse_columns(columns: list[SparseRow]) -> list[list[int]]:
    """Basis of the lattice {x : sum_j x_j * columns[j] = 0}, as dense
    vectors of length len(columns), sorted.

    Columns are inserted one by one into an integer row echelon; column j
    enters with a 1 at index `stop + j`, past every row index, so its row
    carries the combination of the columns it arises from.  Every update is
    a unimodular operation on the rows, so the combinations left when a
    column's matrix part reduces to zero form a genuine Z-basis of the
    kernel, not merely a spanning set.
    """
    ncols = len(columns)
    stop = 1 + max((k for col in columns for k in col), default=-1)
    echelon: Echelon = {}
    kernel = []
    for j, col in enumerate(columns):
        combo = _reduce(echelon, {**col, stop + j: 1}, stop)
        if combo is not None:
            kernel.append(_dense(combo, stop + ncols)[stop:])
    kernel.sort(key=_vec_key)
    return kernel


def kernel_of_columns(A: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the lattice {x in Z^ncols : A @ x = 0} for dense rows A;
    see `kernel_of_sparse_columns`."""
    if any(len(row) != ncols for row in A):
        raise InvariantViolation(f"matrix rows do not all have {ncols} columns")
    columns: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if x:
                columns[j][i] = x
    return kernel_of_sparse_columns(columns)


def smith_invariants(A: list[list[int]], ncols: int) -> list[int]:
    """Nonzero invariant factors of A given by dense rows; see
    `sparse_smith_invariants`."""
    return sparse_smith_invariants(
        [{k: x for k, x in enumerate(row) if x} for row in A], ncols)


def solve_integer(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Solve A @ Y = B where A has full column rank; assert Y is integral.

    Read off integer kernels: A has full column rank exactly when its
    kernel is 0, and then the kernel of [A | -B_j] is 0 (no solution) or
    spanned by one primitive (y, t) with A y = t B_j, t != 0; column j is
    integral exactly when t = +-1, and then Y_j = t y.  Used to express
    lattice vectors (columns of B) in a lattice basis (columns of A).
    """
    r = len(A[0]) if A else 0
    if kernel_of_columns(A, r):
        raise ValueError("matrix does not have full column rank")
    q = len(B[0]) if B else 0
    Y = [[0] * q for _ in range(r)]
    for j in range(q):
        kernel = kernel_of_columns([[*a, -b[j]] for a, b in zip(A, B)], r + 1)
        if not kernel:
            raise ValueError("system is inconsistent")
        *y, t = kernel[0]
        if t not in (1, -1):
            raise ValueError("non-integral solution entry")
        for i, x in enumerate(y):
            Y[i][j] = t * x
    return Y


def lattice_span_basis(vectors: list[list[int]]) -> list[list[int]]:
    """Hermite-reduced basis of the lattice spanned by the given vectors.

    Entries above each pivot are reduced modulo the pivot as rows come
    in; without that normalization the Bezout updates blow coefficients
    up exponentially in the number of insertions.
    """
    width = len(vectors[0]) if vectors else 0
    echelon = _hermite_echelon({k: x for k, x in enumerate(vec) if x}
                               for vec in vectors)
    return [_dense(echelon[lead], width) for lead in sorted(echelon)]


def quotient_structure(kernel_basis: list[list[int]],
                       image_columns: list[list[int]]) -> tuple[int, list[int]]:
    """Structure of (Z-span of kernel_basis) / (Z-span of image_columns).

    Both argument lists hold vectors in the same ambient Z^m, with the
    image contained in the kernel span.  Returns (free_rank, invariants)
    where invariants are the cyclic orders > 1, ascending.
    """
    if not kernel_basis:
        return 0, []
    image = lattice_span_basis(image_columns)
    Y = solve_integer([list(row) for row in zip(*kernel_basis)],
                      [list(row) for row in zip(*image)])
    invs = smith_invariants(Y, len(image))
    return len(kernel_basis) - len(invs), [d for d in invs if d > 1]


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(B)
    q = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * q
        for k, a in enumerate(row):
            if a:
                bk = B[k]
                for j in range(q):
                    acc[j] += a * bk[j]
        out.append(acc)
    return out
