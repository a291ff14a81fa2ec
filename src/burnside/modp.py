"""The algebra R/pR: evaluation map and local block summands.

Commutativity is checked once, on the ring's structure constants when a
`ModPAlgebra` is built (`_check`); every product path here relies on it.
Every product is read straight off the ring's (m, c) pairs
(`ModPAlgebra.multiples`), with no table of its own.  Every block, of any
dimension, is read off its idempotent's multiples e_C e_k: its basis is
e_C and the independent e_C e_k - theta_C(e_k) e_C, and its table, kept
as nonzero (m, c) pairs like the ring's structure constants, combines
the multiples' coordinates over the ring's pairs.  The radical of R/pR,
the kernel of theta, is the sum of the blocks' maximal ideals:
`basis[1:]` of each `LocalBlock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bring import BRing, p_classes
from .errors import InvariantViolation, NotLocal
from .fplinalg import (FpLaneEchelon, FpLanes, block_bytes,
                       fp_lane_kernel_of_columns, join_packed, pack,
                       pack_pairs, unpack, unpack_pairs)
from .permgroup import check_prime


class ModPAlgebra:
    """R tensor F_p in the ghost basis, with the evaluation map theta.

    theta sends an element to its ghost values mod p, one coordinate per
    p-equivalence class; it is a surjective algebra map whose kernel is
    the radical.  The p-classes come from the residues of the ring's
    basis columns mod p (`bring.p_classes`); a partition that is too coarse
    fails the evaluation check below, one that is too fine the surjectivity
    of theta in `_check`.
    """

    def __init__(self, ring: BRing, p: int):
        check_prime(p)
        self.ring = ring
        self.p = p
        self.dim = ring.n
        self.lanes = FpLanes(p)
        self.partition = p_classes(ring, p)
        self.classes = self.partition.classes
        for cls in self.classes:
            if len(cls) < 2:
                continue  # one value, whatever it is
            for k in range(self.dim):
                if len({ring.basis[k][i] % p for i in cls}) != 1:
                    raise InvariantViolation(
                        "evaluation map is not constant on a p-class")
        reps = [cls[0] for cls in self.classes]
        self.theta = [[ring.basis[k][i] % p for k in range(self.dim)]
                      for i in reps]
        self.unit = [c % p for c in ring.unit_coeffs]
        self._blocks: list[LocalBlock] | None = None  # filled by blocks()
        self._check()

    def pack(self, coords: list[int]) -> int:
        return pack(coords, self.p, self.lanes.width)

    def echelon(self) -> FpLaneEchelon:
        return FpLaneEchelon(self.lanes)

    def _check(self) -> None:
        """Unit, commutativity and surjectivity of theta (cheap checks).

        The unit's `multiples` must be the unit vectors.  Commutativity is
        checked on the ring's (m, c) pairs that every product reads: e_k e_l
        and e_l e_k must have the same pairs, over Z and so mod p.

        The basis is lower triangular, so the minor theta[C][r_D] over the
        classes' representatives r_C is basis[r_D][r_C] mod p, zero for
        r_C > r_D: triangular up to the order of the classes, with diagonal
        basis[r_C][r_C] mod p.  Where no diagonal entry vanishes mod p,
        theta is surjective and no echelon is built; otherwise the rank of
        theta is taken in an echelon.  The test only ever proves
        surjectivity, so a partition that is too fine still fails: if it
        splits i ~_p j with i < j, then basis[i][i] = basis[i][j] = 0 mod p.
        """
        n, w = self.dim, self.lanes.width
        if self.multiples(enumerate(self.unit)) != [1 << (m * w)
                                                    for m in range(n)]:
            raise InvariantViolation("unit element fails on the basis")
        sc = self.ring.structure_constants()
        if any(sc[k][l] != sc[l][k]
               for k in range(n) for l in range(k + 1, n)):
            raise InvariantViolation("structure constants not commutative")
        basis, p = self.ring.basis, self.p
        if all(basis[i][i] % p for i in (cls[0] for cls in self.classes)):
            return
        ech = self.echelon()
        for row in self.theta:
            ech.insert(self.pack(row))
        if ech.dim != len(self.classes):
            raise InvariantViolation("theta is not surjective")

    def check_associative(self) -> None:
        """(e_k e_l) e_m == e_k (e_l e_m) mod p for every basis triple.

        For each l, row k holds the `multiples` of e_k e_l, so entry m is
        (e_k e_l) e_m.  Entry k of row m is (e_m e_l) e_k, which is
        e_k (e_l e_m) as the algebra is commutative (`_check`), so the
        rows are symmetric exactly when every triple associates.  Products
        repeat, so the multiples of each distinct one are taken once: in
        the Burnside ring of C2^3, 17, 31 and 40 of the 256 products are
        distinct at p = 2, 3 and 5.  It runs in `verify --suite blocks`
        and the tests, not on every construction.
        """
        n, p, w = self.dim, self.p, self.lanes.width
        sc = self.ring.structure_constants()
        memo: dict[int, tuple[int, ...]] = {}

        def row(pairs) -> tuple[int, ...]:
            key = pack_pairs(pairs, p, w)
            multiples = memo.get(key)
            if multiples is None:
                multiples = memo[key] = tuple(self.multiples(pairs))
            return multiples

        for l in range(n):
            rows = [row(sc[k][l]) for k in range(n)]
            if rows != list(zip(*rows)):
                raise InvariantViolation("structure constants not associative")

    def multiples(self, pairs) -> list[int]:
        """The n packed products x e_k of the x whose coordinates are the
        (j, x_j) of `pairs`, read off the ring's pairs:
        x e_k = sum_j x_j sum_{(m, c) in sc[j][k]} c e_m.

        Each term x_j c is reduced mod p before it goes into its lane, and
        the m of sc[j][k] are distinct, so a lane gains at most p - 1 per
        nonzero x_j, less than a `lanes.batch` term: the lanes are reduced
        once every `lanes.batch` nonzero x_j, and at the end unless there
        was only one, whose terms are reduced already.
        """
        p, lanes = self.p, self.lanes
        w, batch, reduce = lanes.width, lanes.batch, lanes.reduce
        sc = self.ring.structure_constants()
        out = [0] * self.dim
        count = 0
        for j, a in pairs:
            a %= p
            if not a:
                continue
            for k, products in enumerate(sc[j]):
                for m, c in products:
                    out[k] += a * c % p << m * w
            count += 1
            if count % batch == 0:
                out = [reduce(v) for v in out]
        return [reduce(v) for v in out] if count > 1 else out

    def combine_pairs(self, pairs, table: list[int]) -> int:
        """sum c * table[a] over the (a, c) of `pairs`, each c reduced mod p
        before it multiplies a lane; the lanes of `table` are reduced, so
        `lanes.batch` terms go in between two reductions."""
        acc = pending = 0
        p, lanes = self.p, self.lanes
        batch, reduce = lanes.batch, lanes.reduce
        for a, c in pairs:
            c %= p
            if c:
                acc += c * table[a]
                pending += 1
                if pending == batch:
                    acc = reduce(acc)
                    pending = 0
        return reduce(acc) if pending else acc


@dataclass
class LocalBlock:
    """One indecomposable summand of R/pR, a commutative local algebra.

    Internal coordinates put the block idempotent first, then a basis of
    the maximal ideal, so the residue map is projection on coordinate 0.
    `mult[a][b]` holds the nonzero (m, c) of e_a e_b in these coordinates,
    in increasing m with 0 < c < p, one list for (a, b) and (b, a): the
    shape of `BRing.structure_constants`.
    """

    algebra: ModPAlgebra
    class_index: int
    idempotent: list[int]
    basis: list[list[int]] = field(repr=False)
    mult: list[list[list[tuple[int, int]]]] = field(repr=False)
    # the MinimalResolution of the block's residue field, set on first use
    # by resolution._resolution_cache; its one cache
    resolution: object = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def labels(self) -> list[str]:
        ring = self.algebra.ring
        return [ring.labels[i] for i in self.algebra.classes[self.class_index]]

    def _m_squared_echelon(self) -> FpLaneEchelon:
        """An echelon of M^2, the span of the e_a e_b (a, b >= 1), in block
        coordinates."""
        algebra, s = self.algebra, self.dim
        p, w = algebra.p, algebra.lanes.width
        ech = algebra.echelon()
        for a in range(1, s):
            for b in range(a, s):
                ech.insert(pack_pairs(self.mult[a][b], p, w))
        return ech

    def _independent_modulo(self, ideal) -> tuple[int, ...]:
        """The indices a >= 1 whose e_a are independent modulo M^2 plus the
        span of `ideal` (block coordinates), least first.

        One echelon holds M^2 and `ideal`; each e_a it does not yet contain
        joins it.
        """
        algebra, s = self.algebra, self.dim
        ech = self._m_squared_echelon()
        for x in ideal:
            ech.insert(algebra.pack(x))
        w = algebra.lanes.width
        return tuple(a for a in range(1, s) if ech.insert(1 << (a * w)))

    @cached_property
    def m_generators(self) -> tuple[int, ...]:
        """The indices a >= 1 whose e_a span M modulo M^2, least first.

        By Nakayama these e_a generate M.
        """
        return self._independent_modulo(())

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        """The indices a >= 1 whose e_a are independent modulo
        M^2 + Ann(M), least first; a subset of `m_generators`.

        For a submodule K of M.F (F free), Ann(M) kills K, so with L the
        span of these e_a, M.K = L.K + M^2.K = L.K + M.(M.K), and by
        Nakayama M.K = L.K, the sum of the e_a K.  Square-zero blocks have
        M = Ann(M), hence no multipliers: there M.K = 0.
        """
        return self._independent_modulo(self.socle)

    def m_squared_dim(self) -> int:
        return self.dim - 1 - len(self.m_generators)

    @cached_property
    def m_squared_lanes(self) -> tuple[int, ...]:
        """The pivots of M^2's echelon keyed by top lane, least first.

        They are the top lanes of the nonzero elements of M^2, so they
        depend on the span only, not on the order of insertion.
        """
        return tuple(sorted(self._m_squared_echelon().rows))

    @cached_property
    def socle(self) -> list[list[int]]:
        """Basis of Ann(M) inside the block, in block coordinates.

        By Nakayama M = sum e_a S over the a of `m_generators`, so x.M = 0
        exactly when x * e_a = 0 for those a; for a one-dimensional block
        there are none, and the socle is the whole block.  Column b of
        that system holds e_b e_a for the t-th generator a in block t:
        the products of `mult[b]`, packed from their pairs and laid side
        by side in blocks of whole bytes (`join_packed`).
        """
        s, lanes, gens = self.dim, self.algebra.lanes, self.m_generators
        p, w = lanes.p, lanes.width
        nbytes = block_bytes(s, w)
        cols = [join_packed((pack_pairs(row[a], p, w) for a in gens), nbytes)
                for row in self.mult]
        return [unpack(v, s, w)
                for v in fp_lane_kernel_of_columns(cols, lanes)]

    def socle_dim(self) -> int:
        """dim of the annihilator of the maximal ideal inside the block."""
        return len(self.socle)

    def invariants(self) -> dict:
        m_mod_m2 = len(self.m_generators)
        socle = self.socle_dim()
        return {
            "dim": self.dim,
            "m_mod_m2_dim": m_mod_m2,
            "socle_dim": socle,
            "is_symmetric": socle == 1,
            "tor_bounded": m_mod_m2 <= 1,
        }


def blocks(algebra: ModPAlgebra) -> list[LocalBlock]:
    """Block idempotents in closed form, one block per p-class C.

    The block idempotent is the image of the ghost idempotent 1_C (Dress,
    Yoshida).  1_C lies in R tensor Z_(p), so m . 1_C is in R for some m
    prime to p; T . 1_C is in R for T the ring's `denominator_multiple`
    (the product of the diagonal of its basis) too, so gcd(m, T) . 1_C
    is, and with it D' . 1_C for D' the p-free part of T.
    Hence e_C = D'^-1 . decompose(D' . 1_C) mod p, one exact decomposition
    per class (`NonIntegralSolution` if 1_C were not p-integral); it is
    the reduction of the coordinates of 1_C in R tensor Z_(p), so every
    such D' gives the same e_C.  `ModPAlgebra.multiples` reads the
    multiples e_C e_k of each e_C, for every k, off the ring's pairs, and
    each block is built from its own.

    Only the sum and the dimensions are checked; idempotence and
    orthogonality follow from them.  The e_C sum to 1, so every x is
    sum_C e_C x and R/pR = sum_C e_C R.  `_build_block` checks that
    dim e_C R = |C|, its basis e_C and the independent
    e_C e_k - theta(e_k) e_C spanning e_C R, and the |C| add up to
    n = dim R/pR, so that sum is direct.  R/pR is commutative (checked
    when `ModPAlgebra` is built), so for a != b the product e_a e_b lies
    in e_a R and in e_b R, whose intersection is 0, and then
    e_a = e_a . sum_b e_b = e_a^2.

    Memoized on the algebra: blocks are immutable and later layers keep
    their resolutions on them.
    """
    if algebra._blocks is not None:
        return algebra._blocks
    ring, p, n = algebra.ring, algebra.p, algebra.dim
    scale = ring.denominator_multiple
    while scale % p == 0:
        scale //= p
    inv_scale = pow(scale, -1, p)
    idempotents = []
    for cls in algebra.classes:
        ghost = [0] * n
        for i in cls:
            ghost[i] = scale
        idempotents.append([c * inv_scale % p for c in ring.decompose(ghost)])
    multiples = [algebra.multiples(enumerate(e)) for e in idempotents]
    if [sum(col) % p for col in zip(*idempotents)] != algebra.unit:
        raise InvariantViolation("block idempotents do not sum to the unit")
    out = [_build_block(algebra, ci, e, multiples[ci])
           for ci, e in enumerate(idempotents)]
    if sum(b.dim for b in out) != n:
        raise InvariantViolation(
            "block dimensions do not add up to dim R/pR")
    algebra._blocks = out
    return out


def _build_block(algebra: ModPAlgebra, class_index: int, idem: list[int],
                 multiples: list[int]) -> LocalBlock:
    """The block of e = `idem` from its packed multiples m_k = e e_k: its
    basis (e, then a basis x_a of its maximal ideal M) and its table.

    theta = theta_C has theta(e) = 1 (e is idempotent, theta(e) != 0), so
    m_k is theta(e_k) e plus an element of M.  An m_k other than that is
    reduced in an echelon of the basis (formed on the first such m_k), each
    vector shifted above s lanes over its unit lane; if something is left
    above the shift, x = m_k - theta(e_k) e joins the basis.  The
    coordinates phi(k) of m_k must have theta(e_k) at e.  For x_a, x_b from
    m_k, m_l, x_a x_b = e e_k e_l - theta(e_l) m_k - theta(e_k) m_l
    + theta(e_k) theta(e_l) e, with e e_k e_l = sum c m_m over the ring's
    (m, c) of e_k e_l: each entry is one `combine_pairs` of the phi.
    """
    p, n, w = algebra.p, algebra.dim, algebra.lanes.width
    reduce = algebra.lanes.reduce
    theta_row = algebra.theta[class_index]
    s = len(algebra.classes[class_index])
    wrong_dim = (f"block of the p-class of "
                 f"{algebra.ring.labels[algebra.classes[class_index][0]]} "
                 f"is not {'one' if s == 1 else s}-dimensional")
    if not sum(t * c for t, c in zip(theta_row, idem)) % p:
        raise NotLocal("residue field is not one-dimensional")
    e = algebra.pack(idem)
    scaled = {t: reduce(t * e) for t in set(theta_row)}
    shift = s * w
    # p in each of the s low lanes; p - c, reduced, negates coordinate c
    negate = p * (((1 << shift) - 1) // ((1 << w) - 1))
    ech = None
    basis, sources, phi = [idem], [], []  # x_a from (k, t) = sources[a - 1]
    for k, (t, m) in enumerate(zip(theta_row, multiples)):
        if m == scaled[t]:
            phi.append(t)
            continue
        if ech is None:
            ech = algebra.echelon()
            ech.insert(e << shift | 1)
        v = ech.reduce(m << shift)
        if v >> shift:
            a = len(basis)
            if a == s:
                raise InvariantViolation(wrong_dim)
            # v holds minus the coordinates of m - (v >> shift); adding
            # those of m, t at e and 1 at x_a, leaves x_a's own
            ech.insert(reduce(v + t + (1 << (a * w))))
            basis.append(unpack(reduce(m + (-t % p) * e), n, w))
            sources.append((k, t))
            phi.append(t + (1 << (a * w)))
            continue
        phi.append(reduce(negate - v))
        if phi[-1] & ((1 << w) - 1) != t:
            raise InvariantViolation(wrong_dim)
    if len(basis) != s:
        raise InvariantViolation(wrong_dim)
    phi.append(1)  # phi[n]: the coordinates of e
    sc = algebra.ring.structure_constants()
    first = [[(b, 1)] for b in range(s)]  # e x_b = x_b
    mult = [first] + [[first[a]] + [None] * (s - 1) for a in range(1, s)]
    for b, (l, tl) in enumerate(sources, 1):
        for a, (k, tk) in enumerate(sources[:b], 1):
            mult[a][b] = mult[b][a] = unpack_pairs(algebra.combine_pairs(
                sc[l][k] + [(k, -tl), (l, -tk), (n, tk * tl)], phi), s, w)
    return LocalBlock(algebra, class_index, idem, basis, mult)


def blocks_report(algebra: ModPAlgebra) -> dict:
    out = {
        "p": algebra.p,
        "classes": algebra.partition.label_classes(),
        "blocks": [],
    }
    for b in blocks(algebra):
        inv = b.invariants()
        out["blocks"].append({
            "class": b.labels,
            "dim": inv["dim"],
            "m_mod_m2": inv["m_mod_m2_dim"],
            "socle": inv["socle_dim"],
            "symmetric": inv["is_symmetric"],
            "bounded": inv["tor_bounded"],
        })
    return out
