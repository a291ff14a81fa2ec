"""Reference products of R/pR for the tests.

`ModPAlgebra` multiplies through one packed table (`combine`, `products`);
`_mul` is the plain list product over the ring's `(m, c)` pairs that the
tests check it against, and `nilpotent_span` finds the radical again by
an exhaustive scan of the algebra, squaring through `_mul`.
"""

from __future__ import annotations

from burnside.modp import ModPAlgebra


def _mul(table: list[list[list[tuple[int, int]]]], p: int, x: list[int],
         y: list[int]) -> list[int]:
    """x * y mod p, for table[k][l] the nonzero (m, c) of e_k * e_l, as in
    `BRing.structure_constants`.

    The list-product reference for the packed `ModPAlgebra.products`; only
    the exhaustive `nilpotent_span` scan multiplies through it.
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
