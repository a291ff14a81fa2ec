"""Reference products and block tables of R/pR for the tests.

`ModPAlgebra.multiples` reads packed products straight off the ring's
`(m, c)` pairs; `_mul` is the plain list product over the same pairs that
the tests check it against, and `nilpotent_span` finds the radical,
which the blocks' maximal ideals span, again by an exhaustive scan of the
algebra, squaring through `_mul`.
`block_by_kernel` builds a block's basis and table through one kernel
over the basis and all s^2 products, the reference for `modp._build_block`,
which reads them off the multiples' coordinates and the ring's (m, c)
pairs with no product of vectors; `dense` spreads one (m, c) table entry
over its s coordinates, and `assert_pairs_table` checks the shape of a
block table.
"""

from __future__ import annotations

from burnside.errors import InvariantViolation, NotLocal
from burnside.fplinalg import fp_lane_kernel_of_columns, unpack
from burnside.modp import ModPAlgebra
from fplinalg_reference import nullspace

Pairs = list[tuple[int, int]]  # the nonzero (m, c) of one basis product


def _mul(table: list[list[list[tuple[int, int]]]], p: int, x: list[int],
         y: list[int]) -> list[int]:
    """x * y mod p, for table[k][l] the nonzero (m, c) of e_k * e_l, as in
    `BRing.structure_constants`.

    The list-product reference for the packed `ModPAlgebra.multiples`; the
    exhaustive `nilpotent_span` scan and `block_by_kernel` multiply
    through it.
    """
    out = [0] * len(table)
    for k, a in enumerate(x):
        if a:
            row = table[k]
            for l, b in enumerate(y):
                if b:
                    ab = a * b
                    for m, c in row[l]:
                        out[m] += ab * c
    return [v % p for v in out]


def nilpotent_span(algebra: ModPAlgebra) -> list[list[int]]:
    """Span of all nilpotent elements, by exhaustive scan (verify mode).

    Exponential in the dimension; intended for cross-checking the radical
    on small algebras only.
    """
    n, p = algebra.dim, algebra.p
    if p ** n > 1 << 16:
        raise ValueError("algebra too large for the exhaustive nilpotency scan")
    sc = algebra.ring.structure_constants()
    ech = algebra.echelon()
    out = []
    coords = [0] * n
    while True:
        x = list(coords)
        y = list(x)
        for _ in range(n + 1):
            y = _mul(sc, p, y, y)
        if not any(y) and any(x) and ech.insert(algebra.pack(x)):
            out.append(x)
        k = 0
        while k < n and coords[k] == p - 1:
            coords[k] = 0
            k += 1
        if k == n:
            break
        coords[k] += 1
    return out


def dense(pairs: Pairs, s: int) -> list[int]:
    """The s coordinates whose nonzero (m, c) are `pairs`."""
    coords = [0] * s
    for m, c in pairs:
        coords[m] = c
    return coords


def assert_pairs_table(block) -> None:
    """`block.mult[a][b]` lists the nonzero (m, c) of e_a e_b in
    increasing m, with 0 < c < p, and is the very list of (b, a)."""
    s, p = block.dim, block.p
    for a in range(s):
        for b in range(s):
            pairs = block.mult[a][b]
            assert pairs is block.mult[b][a]
            ms = [m for m, _ in pairs]
            assert ms == sorted(set(ms)) and all(0 <= m < s for m in ms)
            assert all(0 < c < p for _, c in pairs)


def block_by_kernel(algebra: ModPAlgebra, class_index: int,
                    idem: list[int]) -> tuple[list[list[int]],
                                              list[list[Pairs]]]:
    """(basis, mult) of the block of `idem`, every block through the
    (s + s^2)-column kernel.

    The basis is idem, then the maximal ideal of the span of the idem e_k;
    one kernel over the columns [basis | every product e_a e_b] leaves, as
    the basis is independent, one kernel vector per product inside the
    block, 1 at its own column and minus its coordinates on the basis
    columns, in column order.  `mult[a][b]` holds the nonzero (m, c) of
    those coordinates, the form of `LocalBlock.mult`.
    """
    p, n, w = algebra.p, algebra.dim, algebra.lanes.width
    ech = algebra.echelon()
    multiples = algebra.multiples(enumerate(idem))
    span = [v for v in multiples if ech.insert(v)]
    expected = len(algebra.classes[class_index])
    if len(span) != expected:
        raise InvariantViolation(
            f"block dimension {len(span)} != class size {expected}")
    theta_row = algebra.theta[class_index]
    rows = [[sum(r * c for r, c in zip(theta_row, unpack(v, n, w))) % p
             for v in span]]
    m_coords = nullspace(rows, len(span), p)
    if len(m_coords) != len(span) - 1:
        raise NotLocal("residue field is not one-dimensional")
    columns = [algebra.pack(idem)] + [
        algebra.combine_pairs(enumerate(coord), span) for coord in m_coords]
    basis = [idem] + [unpack(v, n, w) for v in columns[1:]]
    s = len(basis)
    sc = algebra.ring.structure_constants()
    columns += [algebra.pack(_mul(sc, p, x, y)) for x in basis for y in basis]
    kernel = fp_lane_kernel_of_columns(columns, algebra.lanes)
    if len(kernel) != s * s:
        raise InvariantViolation("block is not closed under products")
    pairs = [[(m, -c % p) for m, c in enumerate(unpack(k, s, w)) if c]
             for k in kernel]
    return basis, [pairs[a * s:(a + 1) * s] for a in range(s)]
