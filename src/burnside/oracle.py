"""Brute-force Ext/Tor oracle: integral free resolutions plus Smith form.

Independent of the recurrence path: a (non-minimal) free resolution of a
mark module is built by taking a Z-basis of each kernel lattice as the
next generating set, then Hom or tensor complexes are evaluated through
the relevant mark and their (co)homology is read off exactly.
"""

from __future__ import annotations

from .errors import ResolutionTooLarge
from .exttor import ExtTorContext, ModuleType
from .fplinalg import fp_rank
from .intlinalg import kernel_of_columns, quotient_structure

ORACLE_DEGREE_CAP = 3
DEFAULT_MAX_CELLS = 2_000_000


class IntegralResolution:
    """Free resolution of Z_j over the B-ring, with integer coefficients.

    Stage l is R^{m_l}; the differential columns are elements of the
    previous free module stored as lists of coordinate vectors over the
    ring basis.  Exactness holds by construction because each stage's
    generators form a Z-basis of the previous kernel lattice.
    """

    def __init__(self, ring, j: int, max_cells: int = DEFAULT_MAX_CELLS):
        self.ring = ring
        self.j = j
        self.max_cells = max_cells
        self.ranks = [1]
        self.diffs: list[list[list[list[int]]]] = []
        self.sc = ring.structure_constants()

    @property
    def depth(self) -> int:
        return len(self.ranks) - 1

    def extend_to(self, depth: int) -> None:
        while self.depth < depth:
            self._extend_once()

    def _extend_once(self) -> None:
        n = self.ring.n
        if not self.diffs:
            rows = [[self.ring.basis[k][self.j] for k in range(n)]]
            kernel = kernel_of_columns(rows, n)
            columns = [[vec] for vec in kernel]
        else:
            m_top = self.ranks[-1]
            m_prev = self.ranks[-2]
            rows_dim = m_prev * n
            cols_dim = m_top * n
            if rows_dim * cols_dim > self.max_cells:
                raise ResolutionTooLarge(
                    f"integral stage {len(self.ranks)}: "
                    f"{rows_dim} x {cols_dim} exceeds the cell budget")
            top = self.diffs[-1]
            flat = [[0] * cols_dim for _ in range(rows_dim)]
            for t in range(m_top):
                col = top[t]
                for k in range(n):
                    cidx = t * n + k
                    for s in range(m_prev):
                        e = col[s]
                        # b_k . e expressed in the basis
                        for w, ew in enumerate(e):
                            if ew:
                                target = self.sc[k][w]
                                base = s * n
                                for m, cm in enumerate(target):
                                    if cm:
                                        flat[base + m][cidx] += ew * cm
            kernel = kernel_of_columns(flat, cols_dim)
            columns = [[vec[s * n:(s + 1) * n] for s in range(m_top)]
                       for vec in kernel]
        self.ranks.append(len(columns))
        self.diffs.append(columns)

    def evaluation_matrix(self, l: int, i: int) -> list[list[int]]:
        """[pi_i(entry)] for d_l, shaped (m_l, m_{l-1})."""
        basis = self.ring.basis
        n = self.ring.n
        cols = self.diffs[l - 1]
        out = []
        for col in cols:
            row = []
            for e in col:
                row.append(sum(e[w] * basis[w][i] for w in range(n)))
            out.append(row)
        return out


def _resolution_for(ctx: ExtTorContext, j: int) -> IntegralResolution:
    cache = ctx.integral_resolutions
    if j not in cache:
        cache[j] = IntegralResolution(ctx.ring, j)
    return cache[j]


def _check_cap(L: int) -> None:
    if L > ORACLE_DEGREE_CAP:
        raise ValueError(
            f"integral oracle is capped at degree {ORACLE_DEGREE_CAP}")


def oracle_ext(ctx: ExtTorContext, i: int, j: int, L: int) -> list[ModuleType]:
    """Exact Ext^l(Z_i, Z_j) for l = 0..L by Smith form cohomology.

    Resolves Z_j and applies Hom(-, Z_i); each free summand contributes a
    copy of Z acted on through the i-th mark.
    """
    _check_cap(L)
    res = _resolution_for(ctx, j)
    res.extend_to(L + 1)
    out = []
    for l in range(L + 1):
        up = res.evaluation_matrix(l + 1, i)  # C^l -> C^{l+1}
        kernel = kernel_of_columns(up, res.ranks[l])
        if l == 0:
            out.append(ModuleType(len(kernel), ()))
            continue
        down = res.evaluation_matrix(l, i)  # C^{l-1} -> C^l
        image_cols = [[down[t][s] for t in range(res.ranks[l])]
                      for s in range(res.ranks[l - 1])]
        free, torsion = quotient_structure(kernel, image_cols)
        out.append(ModuleType(free, tuple(torsion)))
    return out


def oracle_tor(ctx: ExtTorContext, i: int, j: int, L: int) -> list[ModuleType]:
    """Exact Tor_l(Z_i, Z_j) for l = 0..L: tensor the same resolution."""
    _check_cap(L)
    res = _resolution_for(ctx, j)
    res.extend_to(L + 1)
    out = []
    for l in range(L + 1):
        if l == 0:
            kernel = [[1 if t == s else 0 for t in range(res.ranks[0])]
                      for s in range(res.ranks[0])]
        else:
            mat = res.evaluation_matrix(l, i)  # rows index F_l generators
            rows = [[mat[t][s] for t in range(res.ranks[l])]
                    for s in range(res.ranks[l - 1])]
            kernel = kernel_of_columns(rows, res.ranks[l])
        nxt = res.evaluation_matrix(l + 1, i)
        image_cols = [[nxt[t][s] for s in range(res.ranks[l])]
                      for t in range(res.ranks[l + 1])]
        free, torsion = quotient_structure(kernel, image_cols)
        out.append(ModuleType(free, tuple(torsion)))
    return out


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
        up = [[x % p for x in row] for row in res.evaluation_matrix(l + 1, j)]
        ker_dim = res.ranks[l] - fp_rank(up, p)
        if l == 0:
            dims.append(ker_dim)
            continue
        down = [[x % p for x in row] for row in res.evaluation_matrix(l, j)]
        dims.append(ker_dim - fp_rank(down, p))
    return dims
