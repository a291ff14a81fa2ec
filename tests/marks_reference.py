"""Reference marks for the tests: each mark counted again by conjugation.

`table_of_marks` reads the marks off the class members by containment;
`double_count_mark` counts |{g : g^-1 J g <= H}| / |H| over the whole
group instead, and `verify_marks` checks a whole table against it.
"""

from __future__ import annotations

from burnside.errors import InvariantViolation
from burnside.marks import MarksTable
from burnside.permgroup import PermGroup, SubgroupClassTable


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
