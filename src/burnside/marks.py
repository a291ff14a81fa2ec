"""Table of marks, and Burnside ring elements over its [G/H] basis.

Marks are read off the members of each subgroup class by containment;
the coset action and the double count of `tests/marks_reference.py`
count them again, independently, for the tests.  The arithmetic of the
elements is that of the table's `BRing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .bring import BRing
from .errors import BasisMismatch
from .permgroup import (PermGroup, Subgroup, SubgroupClassTable,
                        subgroup_classes)


class MarksTable:
    """The square matrix M[h][j] = number of cosets in G/H_h fixed by J_j.

    Rows and columns are indexed by the subgroup classes in their fixed
    order, which makes M lower triangular with diagonal [N_G(H) : H].
    Row h is simultaneously the ghost vector of the basis element [G/H_h].
    """

    def __init__(self, class_table: SubgroupClassTable, matrix: list[list[int]]):
        self.class_table = class_table
        self.matrix = [list(row) for row in matrix]
        self.size = len(matrix)

    def labels(self) -> list[str]:
        return self.class_table.labels()

    @cached_property
    def ring(self) -> BRing:
        """The Burnside ring with the rows of this table as its basis."""
        return BRing(self.labels(), self.matrix)

    def basis_element(self, h: int) -> "BurnsideElement":
        coeffs = [0] * self.size
        coeffs[h] = 1
        return BurnsideElement(self, tuple(coeffs))

    def unit(self) -> "BurnsideElement":
        return self.basis_element(self.size - 1)

    def zero(self) -> "BurnsideElement":
        return BurnsideElement(self, (0,) * self.size)

    def element(self, coeffs) -> "BurnsideElement":
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.size:
            raise BasisMismatch("coefficient vector has the wrong length")
        return BurnsideElement(self, coeffs)

    def to_sparse_json(self) -> dict:
        """The compact document the marks cache stores, with no group name.

        Each class is its label, its order and `members`, the
        representative's `Subgroup.rank_mask()`; each row of the table is
        its nonzero [j, mark] pairs, the diagonal last.
        """
        return {
            "classes": [{"label": c.label, "order": c.order,
                         "members": c.representative.rank_mask()}
                        for c in self.class_table],
            # lower triangular: row h is zero past column h
            "rows": [[[j, row[j]] for j in compress(range(h + 1), row)]
                     for h, row in enumerate(self.matrix)],
        }


def dense_matrix(rows: list[list[list[int]]]) -> list[list[int]]:
    """The square table of marks from each row's nonzero [j, mark] pairs."""
    n = len(rows)
    matrix = []
    for pairs in rows:
        row = [0] * n
        for j, mark in pairs:
            row[j] = mark
        matrix.append(row)
    return matrix


def marks_document(group: PermGroup, doc: dict) -> dict:
    """The document `marks --format json` prints, from a compact one
    (`MarksTable.to_sparse_json` plus its "group" name): each
    representative as the image lists of its members in image order, and
    the dense table."""
    return {
        "group": doc["group"],
        "classes": [
            {"label": c["label"], "order": c["order"],
             "representative": [
                 list(g.images) for g in
                 Subgroup.from_rank_mask(group, c["members"]).elements]}
            for c in doc["classes"]
        ],
        "matrix": dense_matrix(doc["rows"]),
    }


@dataclass(frozen=True)
class BurnsideElement:
    """An element of the Burnside ring as coefficients over the [G/H] basis."""

    table: MarksTable
    coeffs: tuple[int, ...]

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        _same_basis(self, other)
        return BurnsideElement(self.table,
                               tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        _same_basis(self, other)
        return BurnsideElement(self.table,
                               tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, k: int) -> "BurnsideElement":
        return BurnsideElement(self.table, tuple(k * a for a in self.coeffs))

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        return multiply(self, other)

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.table is other.table and self.coeffs == other.coeffs)


def _same_basis(x: BurnsideElement, y: BurnsideElement) -> None:
    if x.table is not y.table:
        raise BasisMismatch("elements come from different marks tables")


def table_of_marks(group: PermGroup,
                   class_table: SubgroupClassTable | None = None) -> MarksTable:
    """Compute all marks by containment in the members of each class.

    A coset gH is fixed by J exactly when J <= gHg^-1, and each conjugate
    H' of H is gHg^-1 for [N(H):H] cosets gH, so
    M[h][j] = [N(H):H] . #{H' in class(H) : J <= H'}, with
    [N(H):H] = [G:H] / |class(H)|; each count is one mask test per
    member.  Classes are ordered by order, so only J of smaller order
    dividing |H| are tested: a J of the same order lies in H' only as H'
    itself, which puts [N(H):H] on the diagonal and 0 elsewhere.
    """
    if class_table is None:
        class_table = subgroup_classes(group)
    reps = [c.representative for c in class_table]
    n = len(reps)
    # (j, mask of J_j) for the J_j of order below and dividing each order
    below: dict[int, list[tuple[int, int]]] = {}
    matrix = []
    for h, cls in enumerate(class_table):
        order = cls.order
        if order not in below:
            below[order] = [(j, J.mask) for j, J in enumerate(reps)
                            if J.order < order and order % J.order == 0]
        tests = below[order]
        outside = [~H.mask for H in cls.members]
        weyl = group.order // order // len(outside)
        row = [0] * n
        row[h] = weyl
        for j in [j for o in outside for j, mask in tests if not mask & o]:
            row[j] += weyl
        matrix.append(row)
    return MarksTable(class_table, matrix)


def ghost(x: BurnsideElement) -> list[int]:
    """Evaluate all marks of x: the row vector coeffs^T . M."""
    return x.table.ring.ghost_of(x.coeffs)


def decompose(table: MarksTable, vector) -> BurnsideElement:
    """Inverse of ghost on its image; NonIntegralSolution off the image."""
    if len(vector) != table.size:
        raise BasisMismatch("ghost vector has the wrong length")
    return BurnsideElement(table, tuple(table.ring.decompose(vector)))


def multiply(x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """Product via the ghost embedding: decompose(ghost(x) . ghost(y))."""
    _same_basis(x, y)
    gx, gy = ghost(x), ghost(y)
    return decompose(x.table, [a * b for a, b in zip(gx, gy)])
