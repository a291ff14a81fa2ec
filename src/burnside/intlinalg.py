"""Exact integer linear algebra: the Smith normal form of sparse rows.

Integer elimination runs on sparse rows: a row is a `dict[int, int]` from
index to nonzero entry and its lead is `min(row)`, so Python ints absorb
coefficient growth and a step costs the size of the rows it touches, not
their length (the oracle's differentials have a few nonzeros per column).
Besides sign flips, two helpers do every update: `_add_multiple`
(v += q * r in place, dropping cancelled entries) and `_bezout_pair` (the
unimodular pair (x*u + y*v, ag*v - bg*u)).  An echelon maps each lead to
one row, and one reduction loop, `_reduce`, drives the Hermite echelon
(`_hermite_echelon`, with `_reduce_above_pivots`).  Its `stop` argument
serves the tests' integer kernel (`tests/intlinalg_reference.py`), whose
rows carry their combination of the columns past the matrix.

The oracle reads (co)homology off `pruned_smith_invariants`, the one
integer elimination here (`sparse_smith_invariants` is the same on the
longer side of a matrix, with no column dropped).  It first removes
every +-1 pivot (most invariant factors are 1; `_eliminate_units`),
then alternates Hermite echelons of the rows and of the columns of the
core left over until every row holds one entry (Kannan and Bachem, SIAM
J. Comput. 8, 1979; Cohen, GTM 138, section 2.4), and
`_invariant_factors` turns those entries into the invariant factors.  The alternation terminates: each pass's
leading pivot is the gcd of the previous echelon's first row, so it
divides the previous leading pivot, and it stays the same only when that
pivot divides its whole row and its column.  Then the next pass clears
both, the pivot is a summand of its own that no later pass touches, and
the same argument applies to the rest of the matrix, which has lower
rank.
"""

from __future__ import annotations

from collections.abc import Iterable

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


def sparse_smith_invariants(rows: list[SparseRow], ncols: int) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix with these
    sparse rows over `ncols` columns, ascending; `rows` is not modified.

    The longer side is taken as the rows (transposing keeps the Smith
    form).  Every unit pivot is eliminated first (`_eliminate_units`):
    each one splits off an invariant factor 1, and most of the oracle's
    factors are 1.  The core left over is compressed to the Hermite-reduced
    basis of its row lattice: rank many rows whose entries are bounded by
    the pivots.  Column operations keep the Smith form too, so the Hermite
    echelon of the columns comes next, and the two alternate until every
    row holds one entry.  This ends: each pass's leading pivot divides the
    one before, and when it stays the same it divides its row and its
    column, which the pass clears for good, leaving a matrix of lower
    rank.  The Hermite reduction keeps entries small: diagonalizing the
    raw matrix lets them blow up, and does not finish in minutes on a
    256 x 64 oracle differential.
    """
    if len(rows) < ncols:
        rows = _transpose(rows)
    return pruned_smith_invariants(rows, frozenset())[0]


def pruned_smith_invariants(rows: list[SparseRow], drop: frozenset[int]
                            ) -> tuple[list[int], frozenset[int]]:
    """The nonzero invariant factors of these sparse rows without the
    columns in `drop` (`sparse_smith_invariants`), and the indices of the
    rows the unit pass pivoted on.  The rows that meet `drop` lose those
    entries in place; no other row is touched.

    Never transposed, so the pivot rows are rows of `rows` itself: the
    oracle drops them as columns of the next differential (module
    docstring of `oracle`).
    """
    for row in rows:
        if not drop.isdisjoint(row):
            for k in drop.intersection(row):
                del row[k]
    units, core, pivots = _eliminate_units(rows)
    echelon = _hermite_echelon(core)
    while any(len(row) > 1 for row in echelon.values()):
        echelon = _hermite_echelon(
            _transpose(echelon[lead] for lead in sorted(echelon)))
    core_factors = _invariant_factors(
        [x for row in echelon.values() for x in row.values()])
    return [1] * units + core_factors, frozenset(pivots)


def _transpose(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """The nonempty columns of these sparse rows, left to right, each as a
    sparse row indexed by row position."""
    cols: dict[int, SparseRow] = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols.setdefault(j, {})[i] = x
    return [cols[j] for j in sorted(cols)]


def _eliminate_units(rows: list[SparseRow]
                     ) -> tuple[int, list[SparseRow], list[int]]:
    """Remove every +-1 pivot; return (number removed, rows left, indices
    of the rows pivoted on).

    For a unit u at (r, c), adding multiples of row r clears column c in
    every other row; column operations would then clear the rest of row r
    without touching any other row, so the matrix is equivalent to
    [u] (+) the rows left without column c (Dumas, Heckenbach, Saunders
    and Welker 2003).  To limit fill-in, each pass walks the rows shortest
    first and takes the unit whose column has the fewest entries; passes
    repeat until no unit is left.  The column -> rows index `where` lets a
    pivot touch only the rows that meet its column, and a row is copied
    the first time it changes, so the rows passed in stay intact.
    """
    pivots: list[int] = []
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
            pivots.append(r)
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
    return units, [row for row in work.values() if row], pivots


def _invariant_factors(entries: list[int]) -> list[int]:
    """Invariant factors of the diagonal matrix with these diagonal
    entries, ascending, zeros dropped."""
    diag = [abs(x) for x in entries if x]
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
