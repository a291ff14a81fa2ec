"""The Burnside ring as a full-rank subring of its ghost ring Z^I.

A `BRing` is given by a Z-basis; the table of marks gives one through
`MarksTable.ring`, but any basis may be tested without a group.  All
arithmetic is integer.  A lower triangular basis (a table of marks, whose
diagonal is [N_G(H) : H]) keeps each row's nonzero entries and peels:
coordinates, products and idempotent denominators come from the highest
index down, one exact division per step.  Any other basis (the tests'
changes of basis) decomposes through adj = D . basis^-1.  Products come
from the one sparse copy of the structure constants, and the ring owns
its congruence matrix d(i, j).  Everything downstream (p-equivalence,
blocks, Ext/Tor) only sees this interface.
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
    the all-ones vector must decompose integrally.  Pairwise basis
    products must decompose integrally as well; their nonzero coordinates
    are the structure constants read by the mod-p and oracle layers.

    Decomposition is integer only.  A lower triangular basis keeps, for
    each m, the nonzero (j, b) of basis_m left of its diagonal
    (`_lower`) and the diagonal entry, and peels every vector over them;
    `denominator_multiple` is then the product T of the |diagonal| entries,
    and T . basis^-1 is integral.  Any other basis builds adj = D .
    basis^-1 on first use (`_adjugate`), for the least positive integer D,
    so a coordinate is one integer dot product and an exact division by D.
    """

    def __init__(self, labels: list[str], basis: list[list[int]]):
        self.labels = list(labels)
        self.n = len(labels)
        if len(basis) != self.n:
            raise ValueError("basis must have one vector per index")
        if any(len(v) != self.n for v in basis):
            raise ValueError("basis vectors must have one entry per index")
        self.basis = [list(v) for v in basis]
        if self.triangular:
            self._diagonal = [row[m] for m, row in enumerate(self.basis)]
            if not all(self._diagonal):
                raise ValueError("basis vectors are linearly dependent over Q")
            self._lower = [[(j, row[j]) for j in compress(range(m), row)]
                           for m, row in enumerate(self.basis)]
        self.unit_coeffs = self.decompose([1] * self.n)
        self._structure: list[list[list[tuple[int, int]]]] | None = None
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

        A triangular basis peels x from the highest index down.  Where a
        division by the diagonal leaves a remainder, the vector and the
        coordinates peeled so far are scaled up by the least factor that
        makes it exact, so s is the least positive integer with s . x
        integral.  Any other basis has s = D of `_adjugate`.
        """
        if not self.triangular:
            D, columns = self._adjugate
            return D, [sum(map(mul, vector, col)) for col in columns]
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
        product met in (k, l) order has l >= k, so only those are solved.
        A lower triangular basis (a table of marks) peels each product
        (`_peel_products`); any other basis decomposes it through
        `decompose`.
        """
        if self._structure is None:
            n, basis = self.n, self.basis
            sc = [[None] * n for _ in range(n)]
            if self.triangular:
                self._peel_products(sc)
            else:
                for k in range(n):
                    for l in range(k, n):
                        coords = self.decompose(list(map(mul, basis[k], basis[l])))
                        sc[k][l] = sc[l][k] = [(m, c) for m, c in enumerate(coords)
                                               if c]
            self._structure = sc
        return self._structure

    def _peel_products(self, sc: list[list]) -> None:
        """Fill sc[k][l] = sc[l][k] for k <= l on a triangular basis.

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

    @cached_property
    def triangular(self) -> bool:
        """Whether basis_m vanishes past index m for every m, as the rows
        of a table of marks do."""
        return all(not any(row[m + 1:]) for m, row in enumerate(self.basis))

    @cached_property
    def _adjugate(self) -> tuple[int, list[list[int]]]:
        """(D, the columns of adj = D . basis^-1) for the least D > 0, on a
        basis that is not triangular."""
        adj, D = _scaled_inverse(self.basis)
        return D, [list(col) for col in zip(*adj)]

    @cached_property
    def denominator_multiple(self) -> int:
        """A positive multiple of `denominator`, so that it times any vector
        of Z^I lies in R: on a triangular basis the product T of the
        |diagonal| entries (T . basis^-1 is integral by Cramer's rule), on
        any other the D of `_adjugate`."""
        if self.triangular:
            return math.prod(map(abs, self._diagonal))
        return self._adjugate[0]

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

    @cached_property
    def dmat(self) -> CongruenceMatrix:
        """The congruence matrix d(i, j) of this ring."""
        return congruence_d(self)


def _scaled_inverse(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj, D) with adj = D . matrix^-1 and D > 0 the least such integer.

    Gauss-Jordan over Z on [matrix | I]: a row is cleared by an integer
    combination with the pivot row and then divided by the gcd of its
    entries, which keeps entries small and leaves each row i as
    [d_i e_i | r_i] with gcd(d_i, r_i) = 1.  Row i of the inverse is then
    r_i / d_i in lowest terms, so D = lcm |d_i|.  Only a basis that is
    not triangular comes here; a triangular one is peeled instead.
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


class CongruenceMatrix:
    """d(i, j): the largest modulus with r(i) = r(j) mod d for all r in R.

    d(i, j) is the gcd over the basis of r(i) - r(j), one C-level gcd over
    the difference of columns i and j.  On a lower triangular basis only
    rows i.. are nonzero in column i, and rows i..j-1 are zero in column j
    (i < j): the difference starts at row j, and column i over rows
    i..j-1 enters as a gcd kept running while j grows.
    """

    def __init__(self, ring: BRing):
        self.ring = ring
        n = ring.n
        self._d = [[0] * n for _ in range(n)]
        cols = list(zip(*ring.basis))
        triangular = ring.triangular
        for i in range(n):
            col_i = cols[i]
            head = 0  # gcd of col_i over rows i..j-1 on a triangular basis
            for j in range(i + 1, n):
                start = 0
                if triangular:
                    head = math.gcd(head, col_i[j - 1])
                    start = j
                g = math.gcd(head, *map(sub, col_i[start:], cols[j][start:]))
                if g == 0:
                    raise SeparationFailure(
                        f"indices {ring.labels[i]} and {ring.labels[j]} are "
                        f"indistinguishable; not a B-ring basis")
                self._d[i][j] = self._d[j][i] = g

    def d(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("d(i, j) is only defined for distinct indices")
        return self._d[i][j]

    def same_p_class(self, i: int, j: int, p: int) -> bool:
        """Whether i == j or p | d(i, j): i and j lie in one p-class.

        `p` must be a prime; callers check it before asking."""
        return i == j or self._d[i][j] % p == 0

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
    check_prime(p)
    dmat, n = ring.dmat, ring.n
    assigned = [-1] * n
    classes: list[list[int]] = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, n):
            if assigned[j] < 0 and dmat.same_p_class(i, j, p):
                cls.append(j)
                assigned[j] = len(classes)
        classes.append(cls)
    # transitivity is guaranteed by the definition of d; check anyway
    for i in range(n):
        for j in range(n):
            if (assigned[i] == assigned[j]) != dmat.same_p_class(i, j, p):
                raise InvariantViolation(
                    "p-divisibility of d is not transitive")
    return PrimeEquivalence(p, classes, assigned, ring)


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
