"""Reference coordinates in a Burnside ring through a dense inverse, the
p-classes read off the congruence matrix, and label and p-class lookups
no command needs.

A `BRing` (its basis lower triangular, as a table of marks is) peels
every vector over the nonzero entries of its rows and never inverts its
basis.  `DenseCoordinates` decomposes through adj = D . basis^-1 from
`_scaled_inverse`, the route every basis took before: the tests check
the peel against it.
`p_classes_by_d` is the route `bring.p_classes` took before it read the
columns' residues: a greedy scan of the full congruence matrix and an n^2
check that p | d(i, j) is transitive.  `d_by_label` and `same_class`
read the congruence matrix and a p-class partition by label and by class
membership.
"""

from __future__ import annotations

import math
from operator import mul

from burnside.bring import PrimeEquivalence
from burnside.errors import InvariantViolation, NonIntegralSolution
from burnside.permgroup import check_prime


def _scaled_inverse(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj, D) with adj = D . matrix^-1 and D > 0 the least such integer.

    Gauss-Jordan over Z on [matrix | I]: a row is cleared by an integer
    combination with the pivot row and then divided by the gcd of its
    entries, which keeps entries small and leaves each row i as
    [d_i e_i | r_i] with gcd(d_i, r_i) = 1.  Row i of the inverse is then
    r_i / d_i in lowest terms, so D = lcm |d_i|.
    """
    n = len(matrix)
    rows = [list(matrix[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        sel = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if sel is None:
            raise ValueError("basis vectors are linearly dependent over Q")
        rows[col], rows[sel] = rows[sel], rows[col]
        pivot_row = rows[col]
        a = pivot_row[col]
        for r in range(n):
            b = rows[r][col]
            if r != col and b != 0:
                g = math.gcd(a, b)
                fa, fb = a // g, b // g
                row = [fa * x - fb * y for x, y in zip(rows[r], pivot_row)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g != 1 else row
    D = math.lcm(*(rows[i][i] for i in range(n)))
    return [[x * (D // rows[i][i]) for x in rows[i][n:]] for i in range(n)], D


class DenseCoordinates:
    """Coordinates over a ring's basis, one dot product with a column of
    adj = D . basis^-1 and one exact division by D each."""

    def __init__(self, ring):
        adj, self.denominator = _scaled_inverse(ring.basis)
        self.labels = ring.labels
        self.columns = [list(col) for col in zip(*adj)]

    def decompose(self, vector) -> list[int]:
        D = self.denominator
        coeffs = [sum(map(mul, vector, col)) for col in self.columns]
        for lab, c in zip(self.labels, coeffs):
            if c % D:
                g = math.gcd(c, D)
                raise NonIntegralSolution(
                    f"coefficient {c // g}/{D // g} at index {lab}: "
                    f"vector lies outside R")
        return [c // D for c in coeffs]

    def idempotent_denominator(self, i: int) -> int:
        D = self.denominator
        return D // math.gcd(D, *(col[i] for col in self.columns))

    def block_idempotent(self, cls: list[int], p: int) -> list[int]:
        """The coordinates mod p of the ghost idempotent 1_C, scaled by the
        p-free part D' of D and by D'^-1 mod p."""
        scale = self.denominator
        while scale % p == 0:
            scale //= p
        ghost = [0] * len(self.labels)
        for i in cls:
            ghost[i] = scale
        inv = pow(scale, -1, p)
        return [c * inv % p for c in self.decompose(ghost)]


def p_classes_by_d(ring, p: int) -> PrimeEquivalence:
    """The partition by p | d(i, j), i's class gathered greedily from the
    ring's congruence matrix, and checked to be transitive."""
    check_prime(p)
    dmat, n = ring.dmat, ring.n

    def same(i, j):
        return i == j or dmat.d(i, j) % p == 0

    assigned = [-1] * n
    classes: list[list[int]] = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, n):
            if assigned[j] < 0 and same(i, j):
                cls.append(j)
                assigned[j] = len(classes)
        classes.append(cls)
    for i in range(n):
        for j in range(n):
            if (assigned[i] == assigned[j]) != same(i, j):
                raise InvariantViolation(
                    "p-divisibility of d is not transitive")
    return PrimeEquivalence(p, classes, assigned, ring)


def d_by_label(dmat, a: str, b: str) -> int:
    """d(a, b) of a `CongruenceMatrix` for two class labels."""
    return dmat.d(dmat.ring.index_of(a), dmat.ring.index_of(b))


def same_class(partition, i: int, j: int) -> bool:
    """Whether a `PrimeEquivalence` puts indices i and j in one class."""
    return partition.class_of[i] == partition.class_of[j]
