"""Reference elimination over F_p for the tests: list rows, one per vector.

Every mod-p elimination of the package runs on lane-packed ints
(`FpLaneEchelon`, `fp_lane_kernel_of_columns`, and the GF(2) twin);
`FpEchelon` and `fp_rank` reduce plain lists of residues instead, so the
tests that rank, span and compare with them share no code path with what
they check.  `nullspace` is the list entry point to the packed kernel:
it packs the columns of a list matrix, runs `fp_lane_kernel_of_columns`
and unpacks, for the tests that state a kernel as list rows.
"""

from __future__ import annotations

from burnside.fplinalg import FpLanes, fp_lane_kernel_of_columns, pack, unpack


class FpEchelon:
    """Row space in echelon form over F_p; supports reduce/insert/dim."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, list[int]] = {}

    def reduce(self, vec: list[int]) -> list[int]:
        p = self.p
        v = [x % p for x in vec]
        while True:
            lead = -1
            for j, x in enumerate(v):
                if x:
                    lead = j
                    break
            if lead < 0 or lead not in self.rows:
                return v
            c = v[lead]
            row = self.rows[lead]
            for j in range(lead, len(v)):
                v[j] = (v[j] - c * row[j]) % p

    def insert(self, vec: list[int]) -> bool:
        """Add vec to the span; True if the dimension grew."""
        v = self.reduce(vec)
        for j, x in enumerate(v):
            if x:
                inv = pow(x, -1, self.p)
                self.rows[j] = [(inv * y) % self.p for y in v]
                return True
        return False

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[int]]:
        return [self.rows[j] for j in sorted(self.rows)]


def fp_rank(rows: list[list[int]], p: int) -> int:
    ech = FpEchelon(p)
    for r in rows:
        ech.insert(r)
    return ech.dim


def nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {x : A x = 0} mod p for A given by rows of `ncols` entries,
    packed column by column and unpacked around
    `fp_lane_kernel_of_columns`."""
    lanes = FpLanes(p)
    w = lanes.width
    cols = ([pack(col, p, w) for col in zip(*rows)] if rows
            else [0] * ncols)
    return [unpack(c, ncols, w)
            for c in fp_lane_kernel_of_columns(cols, lanes)]
