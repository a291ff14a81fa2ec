"""Reference periodicity scan of the square-free check for the tests, and
readings of results that no command prints.

`verify_squarefree` builds a report for the first pair of each signature
only; `verify_squarefree_per_pair` is the scan it replaced, one full
`ext_report` for each of the n^2 ordered pairs, which the tests check it
against.  `verdict` names a `SquarefreeResult` and `is_zero` tests a
`ModuleType`.
"""

from __future__ import annotations

from burnside.exttor import (ExtTorContext, ModuleType, SquarefreeResult,
                             ext_report, prime_factors)


def verify_squarefree_per_pair(ctx: ExtTorContext, L: int) -> SquarefreeResult:
    """Ext^l = Ext^{l+2} for 1 <= l <= L-2, checked on every ordered pair."""
    order = ctx.group_order
    if any(order % (p * p) == 0 for p in prime_factors(order)):
        return SquarefreeResult(False, False)
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            report = ext_report(ctx, i, j, L)
            for l in range(1, L - 1):
                a, b = report.cell(l), report.cell(l + 2)
                if a.module is None or b.module is None or not a.same_value(b):
                    return SquarefreeResult(
                        True, False, (ctx.ring.labels[i], ctx.ring.labels[j], l))
    return SquarefreeResult(True, True)


def verdict(result: SquarefreeResult) -> str:
    if not result.applicable:
        return "not-applicable"
    return "pass" if result.passed else "fail"


def is_zero(module: ModuleType) -> bool:
    return module.free_rank == 0 and not module.invariants
