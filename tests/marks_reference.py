"""Reference marks for the tests: each mark counted again, twice.

`table_of_marks` reads the marks off the class members by containment;
`CosetAction.fixed_points` counts the cosets of H fixed by J instead,
`double_count_mark` counts |{g : g^-1 J g <= H}| / |H| over the whole
group, and `verify_marks` checks a whole table against the latter.
"""

from __future__ import annotations

from burnside.errors import InvariantViolation
from burnside.marks import MarksTable
from burnside.perm import Permutation
from burnside.permgroup import (PermGroup, Subgroup, SubgroupClassTable,
                                check_subgroup)


class CosetAction:
    """The action of G on the left cosets of H, as permutations of coset indices.

    Cosets are indexed in order of first appearance while scanning the
    group's element list, so the action is deterministic.
    """

    def __init__(self, group: PermGroup, sub: Subgroup):
        check_subgroup(group, sub)
        self.group = group
        self.subgroup = sub
        table, ranks = group.table, group.ranks
        coset_of = [-1] * group.order
        reps = []
        for g in range(group.order):
            if coset_of[g] >= 0:
                continue
            row = table[g]
            coset = [row[h] for h in sub.indices]
            for x in coset:
                coset_of[x] = len(reps)
            reps.append(min(coset, key=ranks.__getitem__))
        self._coset_of = coset_of
        self._reps = reps
        self.points = len(reps)

    def _image(self, g: int) -> tuple[int, ...]:
        row, coset_of = self.group.table[g], self._coset_of
        return tuple([coset_of[row[r]] for r in self._reps])

    def permutation_of(self, g: Permutation) -> Permutation:
        return Permutation._trusted(self._image(self.group.index_of(g)))

    def fixed_points(self, sub: Subgroup) -> int:
        """Number of cosets fixed by every element of the given subgroup."""
        table, coset_of = self.group.table, self._coset_of
        rows = [table[j] for j in sub.gens]
        count = 0
        for t, r in enumerate(self._reps):
            if all(coset_of[row[r]] == t for row in rows):
                count += 1
        return count

    def kernel(self) -> Subgroup:
        fixed = tuple(range(self.points))
        mask = 0
        for g in range(self.group.order):
            if self._image(g) == fixed:
                mask |= 1 << g
        return Subgroup._from_mask(self.group, mask)


def double_count_mark(group: PermGroup, class_table: SubgroupClassTable,
                      h: int, j: int) -> int:
    """Redundant cross-check: |{g : g^-1 J g <= H}| / |H|."""
    H = class_table[h].representative
    J = class_table[j].representative
    table, inverses = group.table, group.inverses
    count = 0
    for g in range(group.order):
        row = table[inverses[g]]
        if all(H.mask >> table[row[x]][g] & 1 for x in J.gens):
            count += 1
    if count % H.order:
        raise InvariantViolation(
            f"double count {count} for marks ({class_table[h].label}, "
            f"{class_table[j].label}) is not a multiple of |H| = {H.order}")
    return count // H.order


def verify_marks(table: MarksTable) -> None:
    """Assert the structural invariants and the double-count formula."""
    group = table.class_table.group
    n = table.size
    for h in range(n):
        for j in range(n):
            expected = double_count_mark(group, table.class_table, h, j)
            if table.matrix[h][j] != expected:
                raise InvariantViolation(
                    f"mark ({h},{j}) fixed-coset count {table.matrix[h][j]} "
                    f"!= double count {expected}")
            if j > h and table.matrix[h][j] != 0:
                raise InvariantViolation("marks table is not lower triangular")
