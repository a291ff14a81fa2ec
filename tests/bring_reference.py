"""Reference coordinates in a Burnside ring through a dense inverse, and
label and p-class lookups no command needs.

A triangular `BRing` (a table of marks) peels every vector over the
nonzero entries of its rows and never inverts its basis.
`DenseCoordinates` decomposes through adj = D . basis^-1 from
`bring._scaled_inverse`, the route every basis took before, and which
non-triangular bases still take: the tests check the peel against it.
`d_by_label` and `same_class` read the congruence matrix and a p-class
partition by label and by class membership.
"""

from __future__ import annotations

import math
from operator import mul

from burnside.bring import _scaled_inverse
from burnside.errors import NonIntegralSolution


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


def d_by_label(dmat, a: str, b: str) -> int:
    """d(a, b) of a `CongruenceMatrix` for two class labels."""
    return dmat.d(dmat.ring.index_of(a), dmat.ring.index_of(b))


def same_class(partition, i: int, j: int) -> bool:
    """Whether a `PrimeEquivalence` puts indices i and j in one class."""
    return partition.class_of[i] == partition.class_of[j]
