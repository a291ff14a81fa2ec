"""The Burnside ring as a full-rank subring of its ghost ring Z^I.

A `BRing` is given by a Z-basis that is lower triangular with a nonzero
diagonal, as every table of marks is: |(G/H)^K| vanishes unless K is
subconjugate to H (tom Dieck, LNM 766, ch. 1).  The table of marks gives
one through `MarksTable.ring`, but any such basis may be tested without
a group.  All arithmetic is integer.  The ring keeps each row's nonzero
entries and peels: coordinates, products and idempotent denominators
come from the highest index down, one exact division by a diagonal entry
per step.  Products come from the one sparse copy of the structure
constants.  The ring answers each congruence number d(i, j) on its own,
from one column difference (`BRing.d`), and p-classes come from the
columns' residues mod p (`p_classes`); the full congruence matrix is
built only for `dmatrix`, which prints it.  Everything downstream
(p-equivalence, blocks, Ext/Tor) only sees this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import mul, sub

from .errors import InvariantViolation, NonIntegralSolution, SeparationFailure
from .permgroup import check_prime


class BRing:
    """A subring R of Z^I with pointwise operations, given by a Z-basis.

    The basis must be square (separation forces R to have full rank) and
    lower triangular, basis_m vanishing past index m, with a nonzero
    diagonal; any other basis raises `ValueError`.  The all-ones vector
    must decompose integrally.  Pairwise basis products must decompose
    integrally as well; their nonzero coordinates are the structure
    constants read by the mod-p and oracle layers.

    Decomposition is integer only.  The ring keeps, for each m, the
    nonzero (j, b) of basis_m left of its diagonal (`_lower`) and the
    diagonal entry, and peels every vector over them;
    `denominator_multiple` is the product T of the |diagonal| entries,
    and T . basis^-1 is integral.
    """

    def __init__(self, labels: list[str], basis: list[list[int]]):
        self.labels = list(labels)
        self.n = len(labels)
        if len(basis) != self.n:
            raise ValueError("basis must have one vector per index")
        if any(len(v) != self.n for v in basis):
            raise ValueError("basis vectors must have one entry per index")
        self.basis = [list(v) for v in basis]
        if any(any(row[m + 1:]) for m, row in enumerate(self.basis)):
            raise ValueError("basis must be lower triangular: basis vector m "
                             "must vanish past index m, as the rows of a "
                             "table of marks do")
        self._diagonal = [row[m] for m, row in enumerate(self.basis)]
        if not all(self._diagonal):
            raise ValueError("basis vectors are linearly dependent over Q")
        self._lower = [[(j, row[j]) for j in compress(range(m), row)]
                       for m, row in enumerate(self.basis)]
        self.unit_coeffs = self.decompose([1] * self.n)
        self._structure: list[list[list[tuple[int, int]]]] | None = None
        self._d: dict[tuple[int, int], int] = {}  # d(i, j) by (i, j), i < j
        # no separation pass: the basis is nonsingular, so no two columns agree
        self._check_closure()

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown index label {label!r}") from None

    def decompose(self, vector) -> list[int]:
        if len(vector) != self.n:
            raise ValueError("vector has the wrong length")
        scale, coeffs = self._scaled_coordinates(vector)
        if scale != 1:
            for lab, c in zip(self.labels, coeffs):
                if c % scale:
                    g = math.gcd(c, scale)
                    raise NonIntegralSolution(
                        f"coefficient {c // g}/{scale // g} at index {lab}: "
                        f"vector lies outside R")
            coeffs = [c // scale for c in coeffs]
        return coeffs

    def _scaled_coordinates(self, vector) -> tuple[int, list[int]]:
        """(s, s . x) for x the rational coordinates of `vector`.

        x is peeled from the highest index down.  Where a division by the
        diagonal leaves a remainder, the vector and the coordinates peeled
        so far are scaled up by the least factor that makes it exact, so s
        is the least positive integer with s . x integral.
        """
        diagonal, lower = self._diagonal, self._lower
        rest, coeffs, s = list(vector), [0] * self.n, 1
        for m in range(self.n - 1, -1, -1):
            x = rest[m]
            if x:
                d = diagonal[m]
                c, r = divmod(x, d)
                if r:
                    t = d // math.gcd(d, x)
                    s *= t
                    rest = [y * t for y in rest]
                    coeffs = [y * t for y in coeffs]
                    c = x * t // d
                coeffs[m] = c
                for j, b in lower[m]:
                    rest[j] -= c * b
        return s, coeffs

    def ghost_of(self, coeffs) -> list[int]:
        out = [0] * self.n
        for h, c in enumerate(coeffs):
            if c:
                row = self.basis[h]
                for j in range(self.n):
                    out[j] += c * row[j]
        return out

    def structure_constants(self) -> list[list[list[tuple[int, int]]]]:
        """c[k][l] = the nonzero (m, c) of basis_k . basis_l = sum c basis_m
        (pointwise product), in increasing m.

        Products commute, so c[l][k] is c[k][l]; the first non-integral
        product met in (k, l) order has l >= k, so only those are peeled
        (`_peel_products`).
        """
        if self._structure is None:
            self._structure = self._peel_products()
        return self._structure

    def _peel_products(self) -> list[list[list[tuple[int, int]]]]:
        """sc[k][l] = sc[l][k] for k <= l, peeled.

        basis_k vanishes past k, so the product lives on the nonzero
        entries of row k that row l shares.  It is written into one
        scratch list of zeros and peeled over the live indices, kept as an
        int bitset: the next index is the top bit, and peeling basis_m
        ORs in the mask of `_lower[m]`.  Every live entry is zeroed when
        it is read, so the scratch list is clean for the next product.
        """
        n, basis, diagonal, lower = self.n, self.basis, self._diagonal, self._lower
        below = [sum(1 << j for j, _ in row) for row in lower]
        support = [mask | 1 << m for m, mask in enumerate(below)]
        rows = [row + [(m, diagonal[m])] for m, row in enumerate(lower)]
        sc = [[None] * n for _ in range(n)]
        scratch = [0] * n
        for k in range(n):
            row_k, support_k = rows[k], support[k]
            for l in range(k, n):
                basis_l = basis[l]
                for j, b in row_k:
                    scratch[j] = b * basis_l[j]
                live = support_k & support[l]
                pairs = []
                while live:
                    m = live.bit_length() - 1
                    live ^= 1 << m
                    x = scratch[m]
                    if x:
                        scratch[m] = 0
                        c, r = divmod(x, diagonal[m])
                        if r:
                            # raises, naming the first coefficient off Z
                            self.decompose(list(map(mul, basis[k], basis_l)))
                            raise InvariantViolation(
                                f"the peel of {self.labels[k]} . "
                                f"{self.labels[l]} left a remainder, but "
                                f"the product decomposes integrally")
                        pairs.append((m, c))
                        for j, b in lower[m]:
                            scratch[j] -= c * b
                        live |= below[m]
                pairs.reverse()
                sc[k][l] = sc[l][k] = pairs
        return sc

    @cached_property
    def denominator_multiple(self) -> int:
        """A positive multiple of `denominator`, so that it times any vector
        of Z^I lies in R: the product T of the |diagonal| entries
        (T . basis^-1 is integral by Cramer's rule)."""
        return math.prod(map(abs, self._diagonal))

    def _check_closure(self) -> None:
        try:
            self.structure_constants()
        except NonIntegralSolution as exc:
            raise SeparationFailure(
                f"Z-span is not closed under products: {exc}") from exc

    def separation_witness(self, i: int, j: int) -> list[int]:
        """A ghost vector of an element r in R with r(i) != 0 and r(j) = 0.

        Preference order: a basis vector that already separates, then
        r(j) . unit - r for the first basis vector r with r(i) != r(j),
        which exists because columns i and j of a nonsingular basis differ.
        """
        if i == j:
            raise ValueError("separation is only defined for distinct indices")
        for vec in self.basis:
            if vec[i] != 0 and vec[j] == 0:
                return list(vec)
        vec = next(v for v in self.basis if v[i] != v[j])
        return [vec[j] - v for v in vec]

    def idempotent_denominator(self, i: int) -> int:
        """Smallest m > 0 with m . e_i in R (e_i the i-th ghost idempotent).

        Every element of R vanishing off i is an integer multiple of that
        minimal m . e_i, so m is the exact annihilator bound used for the
        diagonal Ext exponent.  With (s, s . x) the scaled coordinates of
        e_i, m . x is integral exactly when s / gcd(s, s . x) divides m.
        """
        e_i = [0] * self.n
        e_i[i] = 1
        s, coeffs = self._scaled_coordinates(e_i)
        return s // math.gcd(s, *coeffs)

    @cached_property
    def denominator(self) -> int:
        """The least D > 0 with D . basis^-1 integral: row i of basis^-1
        holds the coordinates of e_i, so D is the lcm of the idempotent
        denominators."""
        return math.lcm(*map(self.idempotent_denominator, range(self.n)))

    def d(self, i: int, j: int) -> int:
        """d(i, j), the congruence number of indices i != j (see
        `CongruenceMatrix`), from one difference of basis columns and
        memoised: a report reads the few of its own pairs, not all n^2."""
        if i == j:
            raise ValueError("d(i, j) is only defined for distinct indices")
        if i > j:
            i, j = j, i
        g = self._d.get((i, j))
        if g is None:
            g = self._d[i, j] = math.gcd(*(row[i] - row[j]
                                           for row in self.basis))
        return g

    def same_p_class(self, i: int, j: int, p: int) -> bool:
        """Whether i == j or p | d(i, j): i and j lie in one p-class.

        `p` must be a prime; callers check it before asking."""
        return i == j or self.d(i, j) % p == 0

    @cached_property
    def dmat(self) -> CongruenceMatrix:
        """The full congruence matrix d(i, j) of this ring, for `dmatrix`
        and `verify --suite dress`; every other reader asks `d`."""
        return congruence_d(self)


class CongruenceMatrix:
    """d(i, j): the largest modulus with r(i) = r(j) mod d for all r in R.

    d(i, j) is the gcd over the basis of r(i) - r(j), one C-level gcd over
    the difference of columns i and j.  The basis is lower triangular, so
    only rows i.. are nonzero in column i, and rows i..j-1 are zero in
    column j (i < j): the difference starts at row j, and column i over
    rows i..j-1 enters as a gcd kept running while j grows.
    """

    def __init__(self, ring: BRing):
        self.ring = ring
        n = ring.n
        self._d = [[0] * n for _ in range(n)]
        cols = list(zip(*ring.basis))
        for i in range(n):
            col_i = cols[i]
            head = 0  # gcd of col_i over rows i..j-1
            for j in range(i + 1, n):
                head = math.gcd(head, col_i[j - 1])
                g = math.gcd(head, *map(sub, col_i[j:], cols[j][j:]))
                if g == 0:
                    raise SeparationFailure(
                        f"indices {ring.labels[i]} and {ring.labels[j]} are "
                        f"indistinguishable; not a B-ring basis")
                self._d[i][j] = self._d[j][i] = g

    def d(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("d(i, j) is only defined for distinct indices")
        return self._d[i][j]

    def check_partition(self, partition: PrimeEquivalence) -> None:
        """Raise unless `partition` is {i ~ j iff p | d(i, j)} as read off
        this matrix: the residue route of `p_classes` checked against the
        congruence numbers it never reads."""
        p, class_of, d = partition.p, partition.class_of, self._d
        for i in range(self.ring.n):
            row, c = d[i], class_of[i]
            for j in range(i + 1, self.ring.n):
                if (class_of[j] == c) != (row[j] % p == 0):
                    labels = self.ring.labels
                    raise InvariantViolation(
                        f"the {p}-classes put {labels[i]} and {labels[j]} "
                        f"{'together' if class_of[j] == c else 'apart'}, "
                        f"but d = {row[j]}")

    def to_json(self) -> dict:
        labels = self.ring.labels
        return {
            "labels": list(labels),
            "d": [
                {"i": labels[i], "j": labels[j], "d": self._d[i][j]}
                for i in range(self.ring.n)
                for j in range(i + 1, self.ring.n)
            ],
        }


def congruence_d(ring: BRing) -> CongruenceMatrix:
    """The gcd over the basis of |r(i) - r(j)| equals the gcd over all of R."""
    return CongruenceMatrix(ring)


@dataclass
class PrimeEquivalence:
    """Partition of the index set by p | d(i, j), reflexively closed.

    `class_of[i]` is the position in `classes` of the class holding i."""

    p: int
    classes: list[list[int]]
    class_of: list[int]
    ring: BRing

    def class_index_of(self, i: int) -> int:
        return self.class_of[i]

    def label_classes(self) -> list[list[str]]:
        return [[self.ring.labels[i] for i in cls] for cls in self.classes]

    def to_json(self) -> dict:
        return {"p": self.p, "classes": self.label_classes()}


def p_classes(ring: BRing, p: int) -> PrimeEquivalence:
    """The p-classes of the indices: i ~_p j when p | d(i, j).

    On any lower-triangular basis, a table of marks or not, p divides
    d(i, j), the gcd over the basis of b(i) - b(j), exactly when columns i
    and j agree mod p.  So each column is keyed by its nonzero
    (row, residue) pairs, read off the rows in one pass, and the classes
    are the groups of equal keys: an equivalence by construction, with no
    d(i, j) read.  Classes come in the order of their least index, and
    each lists its members in increasing order.
    """
    check_prime(p)
    n = ring.n
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, row in enumerate(ring.basis):
        for i in compress(range(n), row):
            r = row[i] % p
            if r:
                columns[i].append((k, r))
    index: dict[tuple, int] = {}
    classes: list[list[int]] = []
    class_of = []
    for i, col in enumerate(columns):
        c = index.setdefault(tuple(col), len(classes))
        if c == len(classes):
            classes.append([i])
        else:
            classes[c].append(i)
        class_of.append(c)
    return PrimeEquivalence(p, classes, class_of, ring)


@dataclass
class SeparatorSystem:
    """Elements s_i with ghost supported exactly at i, and the scale N.

    N . e_i lies in R for every i, exhibiting N . Z^I <= R <= Z^I.
    """

    ring: BRing
    ghosts: list[list[int]]
    coeffs: list[list[int]]
    N: int

    def value_at_index(self, i: int) -> int:
        return self.ghosts[i][i]


def separators(ring: BRing) -> SeparatorSystem:
    """s_i as the product of pairwise separation witnesses r_{i,j}."""
    n = ring.n
    ghosts = []
    coeffs = []
    for i in range(n):
        vec = [1] * n
        for j in range(n):
            if j != i:
                w = ring.separation_witness(i, j)
                vec = [a * b for a, b in zip(vec, w)]
        if any(vec[j] != 0 for j in range(n) if j != i) or vec[i] == 0:
            raise SeparationFailure("separator product has wrong support")
        ghosts.append(vec)
        coeffs.append(ring.decompose(vec))
    N = 1
    for i in range(n):
        N *= ghosts[i][i]
    N = abs(N)
    for i in range(n):
        scaled = [0] * n
        scaled[i] = N
        ring.decompose(scaled)
    return SeparatorSystem(ring, ghosts, coeffs, N)
