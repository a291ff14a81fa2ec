"""Reference Tor dimensions of the minimal resolutions, for the tests.

`tor_dims_pair` recomputes dim Tor_l between two simples from the
homology of F_* tensor k, the ranks of the residue-reduced differentials
(`reduced_differential`, `reduced_rank`), and checks it against the Betti
numbers.  Minimality makes those ranks zero; the package checks the same
fact as it resolves, by the mask test of `MinimalResolution._extend_once`
on every kernel ("differential entry outside the maximal ideal").
"""

from __future__ import annotations

from burnside.errors import InvariantViolation
from burnside.fplinalg import pack
from burnside.modp import ModPAlgebra
from burnside.resolution import (MinimalResolution, _resolution_cache,
                                 shared_block)


def residue(res: MinimalResolution, flat: int, i: int) -> int:
    """The residue-field entry (coordinate 0) of component i."""
    ops = res.ops
    return (flat >> (i * ops.s * ops.width)) & ops.lane_mask


def reduced_differential(res: MinimalResolution, l: int) -> list[list[int]]:
    """d_l tensored with k: the matrix of residue-field entries."""
    gens = res.differentials[l - 1]
    return [[residue(res, g, i) for g in gens]
            for i in range(res.betti[l - 1])]


def reduced_rank(res: MinimalResolution, l: int) -> int:
    """Rank of d_l tensored with k (zero whenever minimality holds).

    Zero after one mask test per generator; the rank is computed
    honestly only if some residue entry is non-zero.
    """
    mask = res.ops.lead_mask(res.betti[l - 1])
    if not any(g & mask for g in res.differentials[l - 1]):
        return 0
    ech = res.ops.echelon()
    for row in reduced_differential(res, l):
        ech.insert(pack(row, res.ops.p, res.ops.width))
    return ech.dim


def tor_dims_pair(algebra: ModPAlgebra, i: int, j: int,
                  degree: int) -> list[int]:
    """dim Tor_l between the simples, recomputed from the tensored complex.

    Taking ranks of the residue-reduced differentials recomputes the
    homology of F_* tensor k; minimality makes those ranks zero, and the
    result is asserted equal to the Betti numbers.
    """
    block = shared_block(algebra, i, j)
    if block is None:
        return [0] * (degree + 1)
    res = _resolution_cache(block)
    res.extend_to(degree + 1)
    ranks = [reduced_rank(res, l) for l in range(1, degree + 2)]
    dims = []
    for l in range(degree + 1):
        r_l = ranks[l - 1] if l >= 1 else 0
        dims.append(res.betti[l] - r_l - ranks[l])
    if dims != res.betti[:degree + 1]:
        raise InvariantViolation(
            "tensored homology disagrees with Betti numbers")
    return dims
