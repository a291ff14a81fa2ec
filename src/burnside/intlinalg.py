"""Exact integer linear algebra: kernels, Smith normal form, lattice solves.

Dense matrices are lists of rows of Python ints, so coefficient growth is
absorbed by arbitrary precision arithmetic.

Integer elimination runs on sparse rows: a row is a `dict[int, int]` from
index to nonzero entry and its lead is `min(row)`.  Besides sign flips, two
helpers do every update: `_add_multiple` (v += q * r in place, dropping
cancelled entries) and `_bezout_pair` (the unimodular pair
(x*u + y*v, ag*v - bg*u)).  An echelon maps each lead to one row, and one
reduction loop, `_reduce`, drives both integer echelons: the kernel's
(`kernel_of_sparse_columns`: each row carries its combination of the
columns at the indices from `stop` on, past the matrix) and the Hermite
one (`_hermite_echelon`, with `_reduce_above_pivots`).  The oracle's
differentials have a few nonzeros per column, so a step costs the size of
the rows it touches, not their length.

Production is the Smith core alone: the oracle reads (co)homology off
`sparse_smith_invariants`, which first eliminates every +-1 pivot (most
invariant factors are 1; `_eliminate_units`), then takes the core left
over through the Hermite echelon and the dense `_diagonalize`.

The rest are the references the tests check the oracle against.
`kernel_of_columns` is the dense front end of the sparse kernel, and
`solve_integer` and `quotient_structure` (kernel lattice modulo image
lattice) are read off that kernel, with no elimination of their own.
`rank` stays on the dense `_diagonalize` on purpose, as an independent
check of kernel dimensions.  Limit: `kernel_of_sparse_columns` blows up on
the 80 x 320 Z-matrix of A4's bar `d_3` at j = 0 (not done after 100 s,
where its Smith form takes 3 ms), so the references stay on smaller ones.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvariantViolation

SparseRow = dict[int, int]
Echelon = dict[int, SparseRow]  # lead -> row


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


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


def _add_multiple(v: SparseRow, q: int, r: SparseRow) -> None:
    """v += q * r in place on sparse rows, for q != 0; cancelled entries
    are dropped so that `min(v)` stays the lead."""
    for k, x in r.items():
        y = v.get(k, 0) + q * x
        if y:
            v[k] = y
        else:
            del v[k]


def _bezout_pair(u: SparseRow, v: SparseRow, x: int, y: int,
                 ag: int, bg: int) -> tuple[SparseRow, SparseRow]:
    """The sparse rows (x*u + y*v, ag*v - bg*u).

    With x*a + y*b = g, ag = a/g and bg = b/g this is unimodular, and at
    the common lead (entries a of u, b of v) it leaves g and 0.
    """
    top: SparseRow = {}
    bottom: SparseRow = {}
    for k in u.keys() | v.keys():
        a, b = u.get(k, 0), v.get(k, 0)
        t = x * a + y * b
        if t:
            top[k] = t
        t = ag * b - bg * a
        if t:
            bottom[k] = t
    return top, bottom


def _dense(row: SparseRow, width: int) -> list[int]:
    out = [0] * width
    for k, x in row.items():
        out[k] = x
    return out


def _reduce(echelon: Echelon, vec: SparseRow,
            stop: int | None = None) -> SparseRow | None:
    """Reduce the sparse row `vec` against `echelon` (lead -> row).

    Only the entries before index `stop` (all of them when `stop` is None)
    are eliminated; those from `stop` on ride along through the same
    operations.  Returns what is left of `vec` once its entries before
    `stop` are gone, else None after inserting `vec` under its new lead
    with a positive pivot.  A lead clash whose pivots do not divide
    replaces the echelon row by the Bezout pair's top.
    """
    while vec:
        lead = min(vec)
        if stop is not None and lead >= stop:
            break
        row = echelon.get(lead)
        if row is None:
            if vec[lead] < 0:
                vec = {k: -x for k, x in vec.items()}
            echelon[lead] = vec
            return None
        a, b = row[lead], vec[lead]
        if b % a == 0:
            _add_multiple(vec, -(b // a), row)
        else:
            g, x, y = xgcd(a, b)
            echelon[lead], vec = _bezout_pair(row, vec, x, y, a // g, b // g)
    return vec


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


def _vec_key(vec):
    for i, x in enumerate(vec):
        if x:
            return (i, abs(x), vec)
    return (len(vec), 0, vec)


def rank(A: list[list[int]], ncols: int) -> int:
    """Rank over Q (equivalently over Z up to torsion)."""
    if not A:
        return 0
    D = _diagonalize(A, ncols)
    return sum(1 for j in range(min(len(A), ncols)) if D[j][j] != 0)


def smith_invariants(A: list[list[int]], ncols: int) -> list[int]:
    """Nonzero invariant factors of A given by dense rows; see
    `sparse_smith_invariants`."""
    return sparse_smith_invariants(
        [{k: x for k, x in enumerate(row) if x} for row in A], ncols)


def sparse_smith_invariants(rows: list[SparseRow], ncols: int) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix with these
    sparse rows over `ncols` columns, ascending; `rows` is not modified.

    The longer side is taken as the rows (transposing keeps the Smith
    form).  Every unit pivot is eliminated first (`_eliminate_units`):
    each one splits off an invariant factor 1, and most of the oracle's
    factors are 1.  Only the core left over is compressed to the
    Hermite-reduced basis of its row lattice: rank many rows whose entries
    are bounded by the pivots.  Row operations keep the Smith form, so only
    that small matrix, restricted to the columns it meets, is made dense
    and diagonalized (Cohen, GTM 138, section 2.4).  Diagonalizing the raw
    matrix instead lets entries blow up: it does not finish in minutes on
    a 256 x 64 oracle differential.
    """
    if len(rows) < ncols:
        cols: list[SparseRow] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                cols[j][i] = x
        rows = cols
    units, core = _eliminate_units(rows)
    echelon = _hermite_echelon(core)
    if not echelon:
        return [1] * units
    hermite = [echelon[lead] for lead in sorted(echelon)]
    width = sorted(set().union(*hermite))
    dense = [[row.get(k, 0) for k in width] for row in hermite]
    return [1] * units + _invariant_factors(_diagonalize(dense, len(width)))


def _eliminate_units(rows: list[SparseRow]) -> tuple[int, list[SparseRow]]:
    """Remove every +-1 pivot; return (number removed, rows left).

    For a unit u at (r, c), adding multiples of row r clears column c in
    every other row; column operations would then clear the rest of row r
    without touching any other row, so the matrix is equivalent to
    [u] (+) the rows left without column c (Dumas, Heckenbach, Saunders
    and Welker 2003).  To limit fill-in, each pass walks the rows shortest
    first and takes the unit whose column has the fewest entries; passes
    repeat until no unit is left.  The column -> rows index `where` lets a
    pivot touch only the rows that meet its column, and a row is copied
    the first time it changes, so the caller's rows stay intact.
    """
    work = {i: row for i, row in enumerate(rows) if row}
    where: dict[int, set[int]] = {}
    for i, row in work.items():
        for k in row:
            where.setdefault(k, set()).add(i)
    copied: set[int] = set()
    units = 0
    # a row that has no unit and is not changed by a pass has none after it
    todo = list(work)
    while todo:
        changed: set[int] = set()
        for r in sorted(todo, key=lambda i: (len(work[i]), i)):
            row = work[r]
            c = None
            for k, x in row.items():
                if (x == 1 or x == -1) and (
                        c is None or len(where[k]) < len(where[c])):
                    c = k
            if c is None:
                continue
            units += 1
            del work[r]
            for k in row:
                where[k].discard(r)
            u = row[c]
            rest = [(k, x) for k, x in row.items() if k != c]
            for i in where.pop(c):
                changed.add(i)
                other = work[i]
                if i not in copied:
                    other = work[i] = dict(other)
                    copied.add(i)
                q = -u * other.pop(c)
                for k, x in rest:
                    y = other.get(k)
                    if y is None:
                        other[k] = q * x
                        where[k].add(i)
                    elif y + q * x:
                        other[k] = y + q * x
                    else:
                        del other[k]
                        where[k].discard(i)
        todo = [i for i in changed if i in work]
    return units, [row for row in work.values() if row]


def _invariant_factors(D: list[list[int]]) -> list[int]:
    """Invariant factors of a diagonal matrix, ascending, zeros dropped."""
    diag = [abs(D[j][j]) for j in range(min(len(D), len(D[0])))
            if D[j][j] != 0]
    # fix divisibility: diag(a, b) is equivalent to diag(gcd, lcm)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if b % a != 0:
                    g = xgcd(a, b)[0]
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return sorted(diag)


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


def _hermite_echelon(rows: Iterable[SparseRow]) -> Echelon:
    """The Hermite-reduced echelon of the lattice spanned by sparse rows;
    the rows are copied, not consumed."""
    echelon: Echelon = {}
    for count, row in enumerate(rows):
        _reduce(echelon, dict(row))
        # entries left above the pivots feed every later Bezout step: without
        # this sweep `verify --group D4 --suite oracle` reaches 700,000-bit
        # entries and is not done in 150 s (3.6 s and 17 bits with it; S3,
        # C6, V4 and A4 take the same time either way)
        if count % 8 == 7:
            _reduce_above_pivots(echelon)
    _reduce_above_pivots(echelon)
    return echelon


def _reduce_above_pivots(echelon: Echelon) -> None:
    """Shrink every entry above a pivot modulo that pivot (unimodular).

    Each row is reduced at the pivot columns it meets, left to right:
    subtracting a multiple of the row at pivot p only touches columns
    p and beyond, so columns already normalized stay put and the result
    is the unique Hermite-reduced basis of the row lattice.  Rows are
    taken bottom-up, so every row subtracted is already reduced.
    """
    for u in sorted(echelon, reverse=True):
        row = echelon[u]
        p = u
        while True:
            for p in sorted(k for k in row if k > p and k in echelon):
                base = echelon[p]
                qq = row[p] // base[p]
                if qq:
                    # may create entries at later pivots: rescan past p
                    _add_multiple(row, -qq, base)
                    break
            else:
                break


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
