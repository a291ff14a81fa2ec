"""Dense linear algebra over a prime field F_p.

Every mod-p elimination of the pipeline runs on one packed core: a vector
is one Python int with one fixed-width lane per coordinate (`pack`,
`unpack`, and `pack_pairs`/`unpack_pairs` for sparse (m, c) pairs;
`join_packed` lays packed vectors side by side in blocks of whole bytes),
and `FpLaneEchelon` with `fp_lane_kernel_of_columns` reduces, inserts and
finds kernels for any prime.  `FpLanes` fixes the lane width: 8 bits
while p(p - 1) fits a byte (p <= 13, including 2), so a row operation is
one multiply-add followed by one lane-wise reduction mod p; wider guarded
lanes above.  Every caller passes packed vectors; the tests' list entry
point `nullspace` (in `tests/fplinalg_reference.py`) packs, runs that
kernel and unpacks.  The minimal resolutions over GF(2) use a 1-bit twin
of the core (`Gf2Echelon`, `gf2_kernel_of_columns`), where a row
operation is a single XOR.

Both echelons key their rows by top lane, the highest nonzero one:
`bit_length` finds it without scanning the vector, a shift reads its
coefficient, and a kernel basis comes out with kernel vector j ending in
coefficient 1 at the lane of its own column j.  The minimal resolutions
read their generators off that form.

The tests' list-row reference elimination, `FpEchelon` and `fp_rank`, is
in `tests/fplinalg_reference.py`, apart from the code it checks.
"""

from __future__ import annotations

from itertools import compress
from math import gcd


# GF(2) fast path: a vector is an int, bit i <-> coordinate i.

class Gf2Echelon:
    """Echelon row space over GF(2) with int-packed rows, keyed by top bit."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        rows = self.rows
        while v:
            row = rows.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return v

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.rows[v.bit_length() - 1] = v
            return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def gf2_kernel_of_columns(cols: list[int]) -> list[int]:
    """Combination masks c (bit j <-> column j) with XOR of chosen columns 0.

    The masks form a basis of the nullspace of the matrix whose columns
    are the given ints.  Columns are reduced by top bit, so mask j has its
    top bit at j: the basis is in echelon form by top lane.
    """
    kernel = []
    ech: dict[int, tuple[int, int]] = {}
    for j, v in enumerate(cols):
        combo = 1 << j
        while v:
            top = v.bit_length()
            hit = ech.get(top)
            if hit is None:
                ech[top] = (v, combo)
                break
            v ^= hit[0]
            combo ^= hit[1]
        else:
            kernel.append(combo)
    return kernel


# Any p: a vector is an int, coordinate k in bits [k*w, k*w + w).

class FpLanes:
    """Lane layout and lane-wise reduction mod a prime p.

    Lanes are 8 bits wide while every value a row operation can produce,
    at most (p - 1) + (p - 1)^2 = p(p - 1), fits a byte (p <= 13); then
    `reduce` is one `bytes.translate`.  Wider lanes keep a guard bit on
    top and reduce by lane-parallel compare-and-subtract of p * 2^t,
    t descending.  Either way every lane holding at most `limit` comes
    back as its residue in [0, p), with no Python loop over coordinates,
    and `batch` terms c * v (c, v in [0, p)) can be added to a reduced
    lane before it needs reducing again.
    """

    def __init__(self, p: int):
        self.p = p
        self._masks: dict[int, tuple[int, int]] = {}  # wide lanes only
        if p * (p - 1) < 256:
            self.width = 8
            self.limit = 255
            self._residues = bytes(x % p for x in range(256))
        else:
            self.width = (p * (p - 1)).bit_length() + 1
            self.limit = (1 << (self.width - 1)) - 1
            top = self.limit.bit_length() - p.bit_length()
            self._steps = [p << t for t in range(top, -1, -1)
                           if p << t <= self.limit]
        self.batch = (self.limit - (p - 1)) // (p - 1) ** 2

    def reduce(self, v: int) -> int:
        """Every lane mod p, for lanes holding at most `limit`."""
        if self.width == 8:
            nbytes = (v.bit_length() + 7) >> 3
            return int.from_bytes(
                v.to_bytes(nbytes, "little").translate(self._residues),
                "little")
        w = self.width
        lanes = (v.bit_length() + w - 1) // w
        masks = self._masks.get(lanes)
        if masks is None:
            ones = ((1 << (lanes * w)) - 1) // ((1 << w) - 1)
            masks = self._masks[lanes] = (ones, ones << (w - 1))
        ones, guard = masks
        for m in self._steps:
            ge = ((((v | guard) - m * ones) & guard) >> (w - 1))
            v -= ge * m
        return v


class FpLaneEchelon:
    """Echelon row space over F_p with lane-packed rows, keyed by top lane.

    Rows are stored with top coefficient 1.  Nothing lies above the top
    lane, so a shift reads its coefficient f, and reducing by a row is
    `v + (p - f) * row` followed by one lane-wise reduction.
    """

    __slots__ = ("lanes", "rows")

    def __init__(self, lanes: FpLanes):
        self.lanes = lanes
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        rows, lanes = self.rows, self.lanes
        w, p, mod = lanes.width, lanes.p, lanes.reduce
        while v:
            top = (v.bit_length() - 1) // w
            row = rows.get(top)
            if row is None:
                return v
            v = mod(v + (p - (v >> (top * w))) * row)
        return v

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self._store(v)
            return True
        return False

    def _store(self, v: int) -> None:
        """Add a vector already reduced against the rows, made monic."""
        lanes = self.lanes
        top = (v.bit_length() - 1) // lanes.width
        f = v >> (top * lanes.width)
        if f != 1:
            v = lanes.reduce(v * pow(f, -1, lanes.p))
        self.rows[top] = v

    @property
    def dim(self) -> int:
        return len(self.rows)


def fp_lane_kernel_of_columns(cols: list[int], lanes: FpLanes) -> list[int]:
    """Combinations c (lane j <-> column j) with sum c_j * column_j = 0.

    The combinations form a basis of the nullspace of the matrix whose
    columns are the given packed vectors.  Column j is shifted above
    `len(cols)` lanes and eliminated together with its unit combination
    in lane j below, so one row operation updates both; a column whose
    matrix part vanishes leaves its combination as a kernel vector, with
    coefficient 1 at lane j and nothing above: the basis is in echelon
    form by top lane.
    """
    ech = FpLaneEchelon(lanes)
    w = lanes.width
    shift = len(cols) * w
    kernel = []
    for j, col in enumerate(cols):
        if not col:
            # every pivot lies above `shift`, so no row reduces the unit
            # combination of a zero column
            kernel.append(1 << (j * w))
            continue
        v = ech.reduce(col << shift | 1 << (j * w))
        if v >> shift:
            ech._store(v)
        else:
            kernel.append(v)
    return kernel


def pack(coords, p: int, width: int) -> int:
    """Coordinates mod p, coordinate k in lane k of `width` bits.

    Byte lanes (p <= 13) go through one `bytes` call.
    """
    if width == 8:
        return int.from_bytes(bytes([c % p for c in coords]), "little")
    return sum((c % p) << (k * width) for k, c in enumerate(coords))


def pack_pairs(pairs, p: int, width: int) -> int:
    """The vector whose nonzero coordinates are the (m, c) of `pairs`,
    mod p, coordinate m in lane m of `width` bits: the sparse form of the
    structure constants and of the block tables.  A plain loop: most lists
    are short, and a generator costs more than their terms."""
    v = 0
    for m, c in pairs:
        v += (c % p) << (m * width)
    return v


def block_bytes(n: int, width: int) -> int:
    """Bytes per block of n lanes, padded with zero lanes to whole bytes,
    so blocks laid side by side (`join_packed`) start on a byte boundary
    and on a lane boundary."""
    per_byte = 8 // gcd(width, 8)
    return -(-n // per_byte) * per_byte * width // 8


def join_packed(packed, nbytes: int) -> int:
    """Packed vectors in one int, vector t in bytes [t nbytes, (t + 1)
    nbytes): one join of their byte strings, in time linear in the result."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little")
                                   for v in packed), "little")


def unpack(v: int, n: int, width: int) -> list[int]:
    """The first n lanes of a packed vector."""
    v &= (1 << (n * width)) - 1
    if width == 8:
        return list(v.to_bytes(n, "little"))
    mask = (1 << width) - 1
    return [(v >> (k * width)) & mask for k in range(n)]


def unpack_pairs(v: int, n: int, width: int) -> list[tuple[int, int]]:
    """The nonzero (m, c) of the first n lanes of a packed vector, in
    increasing m: the inverse of `pack_pairs`, with no Python loop over
    the zero lanes."""
    v &= (1 << (n * width)) - 1
    coords = v.to_bytes(n, "little") if width == 8 else unpack(v, n, width)
    return list(zip(compress(range(n), coords), filter(None, coords)))
