"""Reference mod-p Ext dimensions off the integral oracle, for the tests.

`oracle_ext_simple_dims` resolves Z_i by the oracle's bar resolution,
evaluates it through mark j mod p and counts cohomology dimensions with
the list-row `fp_rank`; the tests compare it with the Betti numbers of
the p-local blocks, so the two routes share no code.
"""

from __future__ import annotations

from burnside.exttor import ExtTorContext
from burnside.oracle import _check_cap, _resolution_for
from fplinalg_reference import fp_rank
from util import evaluation_matrix


def oracle_ext_simple_dims(ctx: ExtTorContext, i: int, j: int, p: int,
                           L: int) -> list[int]:
    """dim_k Ext^l(Z_i, k_j) for l = 0..L, over the prime field at p.

    Resolves the source Z_i, evaluates entries through the j-th mark mod
    p, and counts cohomology dimensions; this realizes the reduction of
    torsion-free sources to the mod-p algebra as a computable check.
    """
    _check_cap(L)
    res = _resolution_for(ctx, i)
    res.extend_to(L + 1)
    dims = []
    for l in range(L + 1):
        up = [[x % p for x in row] for row in evaluation_matrix(res, l + 1, j)]
        ker_dim = res.ranks[l] - fp_rank(up, p)
        if l == 0:
            dims.append(ker_dim)
            continue
        down = [[x % p for x in row] for row in evaluation_matrix(res, l, j)]
        dims.append(ker_dim - fp_rank(down, p))
    return dims
