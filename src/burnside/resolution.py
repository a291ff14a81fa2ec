"""Minimal free resolutions of the residue field over a local block.

The Betti number b_l is the rank of the l-th free module, equivalently
dim Ext^l(k, k) = dim Tor_l(k, k).  Construction is the direct one: push a
minimal generating set of each kernel K into the next free module, that
is, kernel vectors whose classes form a basis of K / M.K.

Minimal generators.  The kernel basis comes out of the elimination in
echelon form by top lane (`fplinalg`): vector j ends in coefficient 1 at
lane j, the lane of its own column, and the stage-0 kernel e_1..e_{s-1}
has the same form.  M.K is spanned by the products e_a . kappa, for
kappa in the basis and e_a in the block's multipliers; every nonzero
vector of it has its top lane at a pivot of its echelon keyed by top
lane, and those pivots depend on the span only.  The
basis vectors whose top lane is not a pivot are the generators: any
nonzero combination of them has its top lane off the pivots, so they are
independent modulo M.K, and they number dim K - dim M.K.  No kernel
vector is reduced.

The certificate.  K lies in M.F, so M.K lies in M^2.F, of dimension
n . dim M^2 for n components; each stage first tries to show, one
component at a time, that M.K is all of it.  The kernel comes in increasing top
lane, so it falls into runs by the component i of the top lane, and
nothing of a vector in run i lies above component i.  For such a kappa
with component-i part x (its s lanes at the top), e_a kappa lies in M.K,
vanishes above component i, and has e_a x there: a product of s lanes,
not of the whole free module.  Run i, walked from its top, inserts the
e_a x into an echelon of s lanes until it reaches dim M^2; its pivots
must then be those of M^2 (`LocalBlock.m_squared_lanes`).  If every
component passes, the e_a kappa chosen are block-triangular, their parts
spanning M^2 in each component, so n . dim M^2 of them are independent
and M.K = M^2.F, whose pivots are those of M^2 repeated in each
component.  The pivots of a top-lane echelon are the top lanes of the
nonzero vectors of its span, so the generators, the differentials and
every output are those of the full M.K.  Few top parts x occur, and the
first one usually fills M^2 alone, so whether a part does is kept per
resolution and most components cost a shift and a lookup.
A certified stage then needs no echelon and no set of pivots, only lane
arithmetic: lane t of the free module is an M^2 lane when t mod s is one
of the block's M^2 lanes (a frozenset taken once per resolution), so the
generators are the kernel vectors whose top lane t has t mod s outside
it.  The top lanes of the kernel are distinct, so the pivots of M^2.F
all lie among them exactly when n . dim M^2 of them fall on M^2 lanes,
and that count is the check.  Each top lane is one `bit_length` of its
vector (floor-divided by the lane width for odd p), and the mask test
is one OR over the kernel followed by one AND.
A stage the certificate declines (a component short of dim M^2, or with
other pivots) scans the products e_a . kappa, one multiplier at a time
over the whole kernel, and stops once that echelon reaches n . dim M^2;
a stop is checked, not trusted, against the pivots of M^2.F.  In the
tests every stage of V4, D4, Q8, D6 and D8 at p = 2 and of C3 x C3 at
p = 3 certifies; S4 at p = 2 scans from stage 3 and C2^3 from stage 2.

The multipliers (`LocalBlock.multipliers`) are the e_a independent
modulo M^2 + Ann(M).  Every kernel K lies in M.F, as the mask test on
each of its vectors checks, so Ann(M) kills K, and with L the span of
the multipliers M.K = L.K + M.(M.K); by Nakayama M.K = L.K.  A
square-zero block has M = Ann(M), no multipliers and M.K = 0, so there
every kernel vector is a generator and no product is formed.

Products inside M.  Every vector a stage multiplies lies in M.F: the
kernels pass the mask test, the generators are kernel vectors, and the
stage-0 kernel is e_1..e_{s-1}.  Lane 0 of such a vector is zero in
every component, so the lane table (`_LaneOps.table`) holds the terms
e_a e_b with a >= 1 only, and no product pays for the e_0 lane.  The
differential's columns are the products e_a . g for every generator g
and every a; e_0 is the block idempotent, the unit of the block, so the
column of e_0 is g itself and is taken as such.  An e_b with b >= 1 that
lies in Ann(M) has an empty row, so its column comes back 0 without a
product and leaves the elimination the unit kernel vector of its own
lane at once.  In a square-zero block every row but e_0's is empty: a
stage forms no product, its only nonzero columns are the generators g,
distinct unit vectors, and its kernel is the unit vectors of M.F; M.K is
0 there, so every kernel vector is a generator.

Square-zero blocks.  If M^2 = 0, every syzygy of k^b is M^b = k^{(s-1)b},
so b_l = (s - 1)^l with s = dim S (P(t) = 1/(1 - e t) for e = dim M;
Avramov, "Infinite free resolutions", 1998), and a one-dimensional block
gets 1, 0, 0, ...  The check is `LocalBlock.m_squared_dim() == 0`.
`betti_sequence` takes such a block's numbers in closed form and builds
no resolution.
The budget still holds: stage l of a square-zero block eliminates the
(b_{l-1} s) x ((s - 1) b_{l-1} s) matrix of its kernel's columns, and the
closed form charges each stage it skips that matrix's `matrix_cost`
against `max_matrix_bits` before taking b_l, so it refuses at the same
stage with the same message as `MinimalResolution`
(`_check_stage_budget`).  `MinimalResolution` has no square-zero branch:
it stays the one elimination, which the tests and the `--oracle` check
of `ext` and `tor` (`check_closed_form`) hold the closed form against.

Free ranks of unbounded blocks grow geometrically, so beyond a feasible
window the exact computation is supplemented by a growth certificate: for
any local block S with maximal ideal M, counting dimensions in one stage
of a minimal resolution gives

    b_{l+1} >= (dim S - dim M^2) * b_l - (dim M) * b_{l-1}      (l >= 1)

because b_{l+1} = dim K_l - dim M.K_l with M.K_l <= (M^2)^{b_l} and
dim K_l = (dim S) b_l - dim K_{l-1} with K_{l-1} <= M^{b_{l-1}}.  Once two
consecutive exact values have ratio at least a root r > 1 of
r^2 - A r + B <= 0 (A, B the two coefficients), every later ratio stays
at least r, certifying strictly increasing Betti numbers forever.

Lane layout.  A flat vector of the free module S^n (n components, each a
block element in the basis e_0 = idempotent, e_1..e_{s-1} spanning M) is
one Python int with one lane of w bits per coordinate: coordinate a of
component i sits in bits [(i*s + a)*w, (i*s + a)*w + w).  Over GF(2) the
lanes are single bits (w = 1); over odd p they are `FpLanes.width` bits,
8 for p <= 13, and hold residues in [0, p).  Lane 0 of each component is
the residue-field entry, so "all entries lie in M" is one mask test, and
a kernel combination over the columns of a matrix, column j in lane j,
is itself a flat vector of the domain.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import InvariantViolation, ResolutionTooLarge
from .fplinalg import (FpLaneEchelon, Gf2Echelon,
                       fp_lane_kernel_of_columns, gf2_kernel_of_columns,
                       pack_pairs)
from .modp import LocalBlock, ModPAlgebra, blocks

DEFAULT_MATRIX_BITS = 1 << 30


class _LaneOps:
    """Module arithmetic on lane-packed flat vectors (see the module docstring).

    `table[b]` lists, for each basis element a >= 1 of M with
    e_a * e_b != 0, the shift of coordinate a inside a component and the
    packed coordinates of e_a * e_b.  Masking lane a of every component
    and multiplying by that packed product writes the product into each
    component's own s lanes at once, so applying e_b costs at most s - 1
    big-int operations.  The e_0 lane is left out: `column` is only ever
    applied to vectors of M.F, whose lane 0 is zero in every component.
    """

    def __init__(self, block: LocalBlock, width: int):
        self.p = block.p
        self.s = s = block.dim
        self.width = width
        self.lane_mask = (1 << width) - 1
        self.table = [[(a * width, pack_pairs(block.mult[a][b], self.p, width))
                       for a in range(1, s) if block.mult[a][b]]
                      for b in range(s)]

    def lead_mask(self, n_components: int) -> int:
        """The full lane of coordinate 0 in each of n components; callers
        take it once per stage."""
        stride = self.s * self.width
        ones = ((1 << (n_components * stride)) - 1) // ((1 << stride) - 1)
        return ones * self.lane_mask

    def top_lane(self, flat: int) -> int:
        """The highest nonzero lane of a nonzero vector.  `_extend_once`
        writes this formula inline on purpose: it reads one top lane per
        kernel vector, and the method call costs more than the formula."""
        return (flat.bit_length() - 1) // self.width


class _Gf2Ops(_LaneOps):
    """GF(2): one-bit lanes, so lanes add by XOR without carries."""

    def __init__(self, block: LocalBlock):
        super().__init__(block, 1)

    def column(self, gen: int, mask: int, basis_idx: int) -> int:
        """The flat image of (basis element) * gen, componentwise, for gen
        in M.F; `mask` is `lead_mask` of gen's number of components."""
        out = 0
        for shift, prod in self.table[basis_idx]:
            out ^= ((gen >> shift) & mask) * prod
        return out

    def kernel_of_columns(self, cols: list[int]) -> list[int]:
        return gf2_kernel_of_columns(cols)

    def echelon(self):
        return Gf2Echelon()

    @staticmethod
    def matrix_cost(rows_flat_dim: int, ncols: int) -> int:
        return rows_flat_dim * ncols


class _FpOps(_LaneOps):
    """Odd p: lanes of `FpLanes.width` bits, reduced mod p after each
    batch of products that still fits below the lane limit."""

    def __init__(self, block: LocalBlock):
        self.lanes = block.algebra.lanes
        super().__init__(block, self.lanes.width)

    def column(self, gen: int, mask: int, basis_idx: int) -> int:
        """The flat image of (basis element) * gen, componentwise, for gen
        in M.F; `mask` is `lead_mask` of gen's number of components."""
        mod, batch = self.lanes.reduce, self.lanes.batch
        out = 0
        pending = 0
        for shift, prod in self.table[basis_idx]:
            out += ((gen >> shift) & mask) * prod
            pending += 1
            if pending == batch:
                out = mod(out)
                pending = 0
        return mod(out) if pending else out

    def kernel_of_columns(self, cols: list[int]) -> list[int]:
        return fp_lane_kernel_of_columns(cols, self.lanes)

    def echelon(self):
        return FpLaneEchelon(self.lanes)

    @staticmethod
    def matrix_cost(rows_flat_dim: int, ncols: int) -> int:
        return rows_flat_dim * ncols * 16


def _check_stage_budget(matrix_cost, max_matrix_bits: int, degree: int,
                        stage: int, rows_dim: int, cols: int) -> None:
    """Refuse stage `stage`, whose matrix is rows_dim x cols, if its
    `matrix_cost` exceeds the budget; `degree` is the last degree reached.
    The one refusal of `MinimalResolution` and of the square-zero closed
    form, so both word it alike."""
    cost = matrix_cost(rows_dim, cols)
    if cost > max_matrix_bits:
        raise ResolutionTooLarge(
            f"resolution reached degree {degree}; stage {stage} needs a "
            f"{rows_dim} x {cols} matrix, matrix_cost {cost} > "
            f"max_matrix_bits {max_matrix_bits}")


def _check_idempotent_is_identity(block: LocalBlock) -> None:
    """e_0 e_a = e_a e_0 = e_a for every a: the block idempotent is the
    unit of the block."""
    mult = block.mult
    for a in range(block.dim):
        unit = [(a, 1)]
        if mult[0][a] != unit or mult[a][0] != unit:
            raise InvariantViolation(
                f"the block idempotent e_0 is not the identity on e_{a}")


class MinimalResolution:
    """Incrementally extended minimal resolution of k over a local block.

    The kernel of the top differential is computed lazily: extending to
    degree L materializes the generator columns of d_1..d_L but only the
    kernels of d_1..d_{L-1}, which is what minimality of the first L
    stages actually requires.  Each stage keeps, as the columns of the
    next differential, the kernel basis vectors whose top lane is not a
    pivot of M.K (module docstring).  `multipliers` are the indices of the
    e_a that M.K is built from: those independent modulo M^2 + Ann(M),
    which suffice by Nakayama because every kernel lies in M times its
    free module.  A stage first certifies M.K = M^2 times the free module
    from each component's own products, of s lanes each (`_certify_m_k`),
    and then takes as generators the kernel vectors whose top lane is not
    an M^2 lane; only a stage it declines scans the products e_a . kappa,
    and stops once they fill M^2 times the free module (`_scan_m_k`).
    Every product is taken inside M (module docstring): the column of the
    idempotent e_0 in each differential is the generator itself, and is
    taken as such, and that of an e_a in Ann(M) comes back 0 from an empty
    table row.
    """

    def __init__(self, block: LocalBlock, max_matrix_bits: int = DEFAULT_MATRIX_BITS):
        self.block = block
        self.max_matrix_bits = max_matrix_bits
        self.ops = _Gf2Ops(block) if block.p == 2 else _FpOps(block)
        self.multipliers = block.multipliers
        self._fills_alone: dict[int, bool] = {}  # see _certify_m_k
        self._m_squared_set = frozenset(block.m_squared_lanes)
        self.betti = [1]
        self.differentials: list[list[int]] = []  # d_l as generator columns
        # kernel of the augmentation F_0 = S -> k is the maximal ideal,
        # spanned by the unit vectors e_1..e_{s-1} of one component
        kernel = [1 << (a * self.ops.width) for a in range(1, block.dim)]
        self._kernel = kernel          # basis of ker d_(top computed stage)
        self.kernel_dims = [len(kernel)]

    @property
    def computed_degree(self) -> int:
        return len(self.betti) - 1

    def extend_to(self, degree: int) -> None:
        while self.computed_degree < degree:
            self._extend_once()

    def _check_budget(self, stage: int, rows_dim: int, cols: int) -> None:
        _check_stage_budget(self.ops.matrix_cost, self.max_matrix_bits,
                            self.computed_degree, stage, rows_dim, cols)

    def _extend_once(self) -> None:
        if self._kernel is None:
            self._compute_top_kernel()
        ops = self.ops
        kernel = self._kernel
        s = self.block.dim
        n_prev = self.betti[-1]
        self._check_budget(len(self.betti), n_prev * s, len(kernel) * s)
        # K lies in M.F, so Ann(M) kills it and M.K is the sum of e_a K
        # over the multipliers (Nakayama); its echelon keyed by top lane
        # has a pivot at the top lane of every nonzero vector of M.K
        if reduce(or_, kernel, 0) & ops.lead_mask(n_prev):
            raise InvariantViolation(
                "differential entry outside the maximal ideal")
        w = ops.width
        tops = [(kappa.bit_length() - 1) // w for kappa in kernel]
        full = n_prev * self.block.m_squared_dim()
        if self._certify_m_k(kernel, tops, n_prev):
            # the pivots of M.K = M^2.F are the M^2 lanes of every
            # component; the tops are distinct, so they hold all of them
            # when exactly `full` tops fall on M^2 lanes
            m_squared = self._m_squared_set
            gens = [kappa for kappa, t in zip(kernel, tops)
                    if t % s not in m_squared]
            if len(kernel) - len(gens) != full:
                raise InvariantViolation(
                    "M.K has a pivot off the top lanes of the kernel")
        else:
            gens = self._scan_m_k(kernel, tops, n_prev, full)
        # any combination of these has its top lane off the pivots, so
        # they are independent modulo M.K, and they number dim K - dim M.K
        self.betti.append(len(gens))
        self.differentials.append(gens)
        self.kernel_dims.append(len(gens) * s - self.kernel_dims[-1])
        self._kernel = None

    def _scan_m_k(self, kernel: list[int], tops: list[int], n_prev: int,
                  full: int) -> list[int]:
        """The generators of a stage the certificate declines: every
        product e_a . kappa, one multiplier at a time, goes into the
        echelon of M.K until it reaches `full`, the dimension of M^2.F,
        and the kernel vectors whose top lane is not one of its pivots
        are kept."""
        ops = self.ops
        mask = ops.lead_mask(n_prev)
        mk = ops.echelon()
        filled = any(mk.insert(ops.column(kappa, mask, a))
                     and mk.dim >= full
                     for a in self.multipliers for kappa in kernel)
        pivots = mk.rows.keys()
        if not pivots <= set(tops):
            raise InvariantViolation(
                "M.K has a pivot off the top lanes of the kernel")
        if filled and pivots != self._m_squared_lanes(n_prev):
            raise InvariantViolation(
                f"M.K stopped at dimension {len(pivots)} at stage "
                f"{len(self.betti)} without filling M^2 times the free "
                f"module")
        gens = [kappa for kappa, t in zip(kernel, tops) if t not in pivots]
        if len(gens) != len(kernel) - len(pivots):
            raise InvariantViolation("minimal generator count mismatch")
        return gens

    def _certify_m_k(self, kernel: list[int], tops: list[int],
                     n_prev: int) -> bool:
        """Whether M.K = M^2.F, read off each component's own products.

        Component i takes the kernel vectors whose top lane lies in it,
        from the top down, and their component-i parts x (s lanes), and
        inserts the e_a x, a a multiplier, into an echelon of s lanes until
        it reaches dim M^2 (`_fills_m_squared`).  The e_a kappa behind them
        lie in M.K, vanish above component i and span M^2 in it, so over
        all components they are n . dim M^2 independent vectors of M.K,
        which lies in M^2.F of that dimension.  A component that holds no
        top lane, or whose products fall short, declines the certificate.
        The top vector's part alone usually fills M^2, and few parts
        occur, so whether one does is kept per part (`_fills_alone`).
        """
        s = self.block.dim
        stride = s * self.ops.width
        fills_alone = self._fills_alone
        hi = len(kernel)
        for i in reversed(range(n_prev)):
            lo = bisect_left(tops, i * s, 0, hi)
            if lo == hi:
                return False
            shift = i * stride
            top = kernel[hi - 1] >> shift
            alone = fills_alone.get(top)
            if alone is None:
                alone = fills_alone[top] = self._fills_m_squared([top])
            if not (alone or self._fills_m_squared(
                    kernel[j] >> shift for j in range(hi - 1, lo - 1, -1))):
                return False
            hi = lo
        return True

    def _fills_m_squared(self, parts) -> bool:
        """Whether the e_a x, for x in `parts` (vectors of s lanes in M)
        and a a multiplier, fill M^2: inserted in turn until the echelon
        reaches dim M^2, its pivots must be those of M^2
        (`LocalBlock.m_squared_lanes`).  An understated dim M^2 stops the
        echelon short of them, so the stage scans and its check raises."""
        ops, block = self.ops, self.block
        target = block.m_squared_dim()
        mask = ops.lead_mask(1)
        ech = ops.echelon()
        for x in parts:
            if ech.dim >= target:
                break
            for a in self.multipliers:
                if ech.insert(ops.column(x, mask, a)) and ech.dim >= target:
                    break
        return tuple(sorted(ech.rows)) == block.m_squared_lanes

    def _m_squared_lanes(self, n_components: int) -> set[int]:
        """The pivots of M^2 times a free module of n components: those
        of the block's M^2, repeated in each component."""
        s = self.block.dim
        return {i * s + a for i in range(n_components)
                for a in self.block.m_squared_lanes}

    def _compute_top_kernel(self) -> None:
        ops = self.ops
        s = self.block.dim
        top = len(self.betti) - 1
        n_prev = self.betti[top - 1]
        rows_dim = n_prev * s
        self._check_budget(top, rows_dim, self.betti[top] * s)
        if top == 1:
            # once per resolution, before any column is built: the
            # column of e_0 is taken to be the generator itself
            _check_idempotent_is_identity(self.block)
        mask = ops.lead_mask(n_prev)
        columns = []
        for g in self.differentials[top - 1]:
            columns.append(g)  # e_0 . g
            for a in range(1, s):
                columns.append(ops.column(g, mask, a))
        kernel = ops.kernel_of_columns(columns)
        # exactness bookkeeping: rank d_l equals dim ker d_{l-1}, so the
        # kernel dimension matches the rank-nullity recursion
        if len(kernel) != self.kernel_dims[top]:
            raise InvariantViolation(
                f"kernel dimension {len(kernel)} at stage {top} differs "
                f"from the exactness recursion {self.kernel_dims[top]}")
        self._kernel = kernel


def betti_sequence(block: LocalBlock, degree: int) -> list[int]:
    """(b_0, ..., b_degree) for the block's residue field; a square-zero
    block's in closed form (module docstring), any other block's off its
    own resolution."""
    if _is_square_zero(block):
        return _square_zero_betti(block, degree)
    res = _resolution_cache(block)
    res.extend_to(degree)
    return res.betti[:degree + 1]


def _is_square_zero(block: LocalBlock) -> bool:
    """M^2 = 0."""
    return block.m_squared_dim() == 0


def _square_zero_betti(block: LocalBlock, degree: int,
                       max_matrix_bits: int = DEFAULT_MATRIX_BITS) -> list[int]:
    """b_l = (s - 1)^l, l = 0..degree, for a block with M^2 = 0.

    Builds no resolution, but refuses where `MinimalResolution` with the
    same budget would: stage l of a square-zero block has the
    (b_{l-1} s) x ((s - 1) b_{l-1} s) matrix of its kernel's columns, and
    that is charged before b_l is taken, with the same message.  The
    theorem needs e_0 to be the unit of the block, which is checked as
    the resolution checks it.
    """
    s = block.dim
    _check_idempotent_is_identity(block)
    matrix_cost = (_Gf2Ops if block.p == 2 else _FpOps).matrix_cost
    betti = [1]
    for l in range(1, degree + 1):
        rows_dim = betti[-1] * s
        _check_stage_budget(matrix_cost, max_matrix_bits, l - 1, l,
                            rows_dim, (s - 1) * rows_dim)
        betti.append((s - 1) * betti[-1])
    return betti


def check_closed_form(block: LocalBlock, degree: int) -> None:
    """Check a square-zero block's closed-form b_0..b_degree against its
    elimination, the block's own `MinimalResolution`; a block that is
    not square-zero has no closed form to check."""
    if not _is_square_zero(block):
        return
    res = _resolution_cache(block)
    res.extend_to(degree)
    closed = _square_zero_betti(block, degree)
    if res.betti[:degree + 1] != closed:
        raise InvariantViolation(
            f"closed-form Betti numbers {closed} of a square-zero block "
            f"differ from its resolution's {res.betti[:degree + 1]}")


@dataclass(frozen=True)
class GrowthCertificate:
    """Proof that b_{l+1} > b_l for every l >= start.

    Derived from the stage inequality in the module docstring with
    A = dim S - dim M^2 and B = dim M, witnessed by the exact values
    b_{start} and b_{start+1} whose ratio reaches r.
    """

    start: int
    ratio: Fraction
    A: int
    B: int
    b_lo: int
    b_hi: int


def betti_growth_certificate(block: LocalBlock, resolution: MinimalResolution,
                             probe_limit: int = 8) -> GrowthCertificate | None:
    """Certify strict Betti growth from exact low-degree values, if possible."""
    A = block.dim - block.m_squared_dim()
    B = block.dim - 1
    l = 1
    while True:
        if resolution.computed_degree < l:
            try:
                resolution.extend_to(l)
            except ResolutionTooLarge:
                return None
        b_lo, b_hi = resolution.betti[l - 1], resolution.betti[l]
        if b_lo > 0 and b_hi > 0:
            q = Fraction(b_hi, b_lo)
            for r in (q, Fraction(A, 2), (1 + q) / 2):
                if 1 < r <= q and r * r - A * r + B <= 0:
                    return GrowthCertificate(l - 1, r, A, B, b_lo, b_hi)
        if l >= probe_limit:
            return None
        l += 1


def _resolution_cache(block: LocalBlock) -> MinimalResolution:
    """The block's default-budget resolution, built on first use and kept
    in `block.resolution`."""
    if block.resolution is None:
        block.resolution = MinimalResolution(block)
    return block.resolution


def shared_block(algebra: ModPAlgebra, i: int, j: int) -> LocalBlock | None:
    """The block whose simple both indices name, or None across blocks."""
    part = algebra.partition
    ci, cj = part.class_index_of(i), part.class_index_of(j)
    if ci != cj:
        return None
    return blocks(algebra)[ci]


def ext_dims_pair(algebra: ModPAlgebra, i: int, j: int,
                  degree: int) -> list[int]:
    """dim Ext^l between the simples of indices i and j, l = 0..degree."""
    block = shared_block(algebra, i, j)
    if block is None:
        return [0] * (degree + 1)
    return betti_sequence(block, degree)

