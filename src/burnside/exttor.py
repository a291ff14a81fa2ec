"""Integral Ext and Tor between the mark modules Z_i over a B-ring.

Degree 0 comes from closed formulas, higher degrees from the long exact
sequence recurrence a_{l+1} = b_l - a_l driven by the block Betti numbers,
with Tor obtained through z_l = a_{l+1}.  Exponent bounds come from the
congruence numbers d(i, j) and the minimal idempotent multiples; a p-part
is pinned down exactly as (Z/p)^rank whenever its bound has p-valuation 1.

Above degree 0 a pair enters only through three things: the p-block of
R/pR that i and j share at each prime p, whether i = j, and the
p-valuation of its exponent bound.  So the work is shared, on the
`ExtTorContext` that owns the data and for as long as it lives: one
resolution per block that is not square-zero, kept on the block
(`resolution._resolution_cache`; a square-zero block's Betti numbers come
in closed form), one p-rank sequence per (p, block, i == j) in
`ext_ranks`, and one frozen `DegreeCell` per degree and p-parts.  A
report does only its pair's own work: the labels, degree 0 and the check
that no p-rank sits at a prime coprime to the annihilator, and
`verify_squarefree` builds one report per pair signature, the three
things above, instead of one per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bring import BRing
from .errors import InvariantViolation, NegativeRank
from .marks import MarksTable
from .modp import ModPAlgebra
from .permgroup import check_prime
from .resolution import ext_dims_pair


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    n = abs(n)
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0 and n:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class ModuleType:
    """A finitely generated abelian group in invariant factor form."""

    free_rank: int
    invariants: tuple[int, ...]  # each > 1, ascending divisibility chain

    @classmethod
    def zero(cls) -> "ModuleType":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "ModuleType":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "ModuleType":
        return cls(0, (n,)) if n > 1 else cls.zero()

    @classmethod
    def from_p_ranks(cls, p_ranks: dict[int, int]) -> "ModuleType":
        """Direct sum over p of (Z/p)^rank, combined into invariant factors."""
        height = max(p_ranks.values(), default=0)
        factors = []
        for t in range(height, 0, -1):
            m = 1
            for p, r in p_ranks.items():
                if r >= t:
                    m *= p
            if m > 1:
                factors.append(m)
        return cls(0, tuple(factors))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariants)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PPart:
    p: int
    rank: int
    exponent_bound: int  # a power of p dividing the annihilator
    exact: bool          # True when the part is (Z/p)^rank on the nose

    def to_json(self) -> dict:
        return {"p": self.p, "rank": self.rank,
                "exponent_bound": self.exponent_bound}


@dataclass(frozen=True)
class DegreeCell:
    l: int
    p_parts: tuple[PPart, ...]
    module: ModuleType | None
    provenance: str

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "p_parts": [pp.to_json() for pp in self.p_parts],
            "module": None if self.module is None else str(self.module),
            "provenance": self.provenance,
        }

    def same_value(self, other: "DegreeCell") -> bool:
        return (self.p_parts == other.p_parts
                and self.module == other.module)


@dataclass
class ExtTorReport:
    kind: str  # "ext" or "tor"
    group: str
    source: str
    target: str
    degrees: list[DegreeCell] = field(default_factory=list)

    def cell(self, l: int) -> DegreeCell:
        return self.degrees[l]

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "source": self.source,
            "target": self.target,
            "degrees": [c.to_json() for c in self.degrees],
        }


class ExtTorContext:
    """Shared caches for one B-ring: mod-p algebras (which keep the block
    resolutions), rank sequences and degree cells."""

    def __init__(self, ring: BRing, group_name: str, group_order: int):
        self.ring = ring
        self.group_name = group_name
        self.group_order = group_order
        self._algebras: dict[int, ModPAlgebra] = {}
        # a_1, a_2, .. of ext_ranks by (p, class index, i == j)
        self._ranks: dict[tuple[int, int, bool], list[int]] = {}
        # DegreeCell by (l, its p-parts as (p, rank, bound, exact) tuples)
        self._cells: dict[tuple, DegreeCell] = {}
        # oracle.IntegralResolution of Z_j by j, filled by the oracle
        self.integral_resolution_of: dict = {}

    @classmethod
    def from_marks(cls, table: MarksTable, group_name: str) -> "ExtTorContext":
        return cls(table.ring, group_name, table.class_table.group.order)

    @cached_property
    def primes(self) -> list[int]:
        """The primes dividing |G|, which are those dividing some d(i, j):
        every d(i, j) divides |G|, as |G| e_i lies in R, and 1 ~_p C_p for
        each p | |G| (Dress).  All other p-parts vanish."""
        return prime_factors(self.group_order)

    def algebra(self, p: int) -> ModPAlgebra:
        if p not in self._algebras:
            self._algebras[p] = ModPAlgebra(self.ring, p)
        return self._algebras[p]

    def exponent_bound(self, i: int, j: int) -> int:
        """Annihilator of Ext^l (l >= 1): d(i, j) off the diagonal, else the
        minimal m with m.e_i in R (both act as zero on every Ext group)."""
        if i == j:
            return self.ring.idempotent_denominator(i)
        return self.ring.d(i, j)


def hom_base(i: int, j: int) -> ModuleType:
    """Hom(Z_i, Z_j): Z on the diagonal, zero otherwise."""
    return ModuleType.free(1) if i == j else ModuleType.zero()


def tensor_base(ctx: ExtTorContext, i: int, j: int) -> ModuleType:
    """Z_i tensor Z_j: Z on the diagonal, Z/d(i, j) otherwise."""
    if i == j:
        return ModuleType.free(1)
    return ModuleType.cyclic(ctx.ring.d(i, j))


def ext_ranks(ctx: ExtTorContext, i: int, j: int, p: int, L: int) -> list[int]:
    """p-ranks a_1..a_L of Ext^l(Z_i, Z_j) via a_{l+1} = b_l - a_l.

    Zero across p-classes, read off the pair's own d(i, j); R/pR is built
    only for a pair that shares a block.  Within a block the b_l are its
    Betti numbers and a_1 is 0 on the diagonal, 1 off it, so the sequence
    depends on the pair only through (p, block, i == j).  The context
    keeps one per key, which is prefix-stable in L: a larger L extends it,
    and every caller gets a fresh list of its first L terms.
    """
    check_prime(p)
    if not ctx.ring.same_p_class(i, j, p):
        return [0] * L
    if L < 1:
        return []
    algebra = ctx.algebra(p)
    key = (p, algebra.partition.class_index_of(i), i == j)
    a = ctx._ranks.get(key)
    if a is None or len(a) < L:
        b = ext_dims_pair(algebra, i, j, max(L - 1, 1))
        if a is None:
            a = ctx._ranks[key] = [0 if i == j else 1]
        for l in range(len(a), L):
            nxt = b[l] - a[-1]
            if nxt < 0:
                raise NegativeRank(
                    f"a_{l + 1} = {nxt} from b_{l} = {b[l]}, a_{l} = {a[-1]}")
            a.append(nxt)
    return a[:L]


def tor_ranks(ctx: ExtTorContext, i: int, j: int, p: int, L: int) -> list[int]:
    """p-ranks z_1..z_L of Tor_l(Z_i, Z_j) through z_l = a_{l+1}."""
    return ext_ranks(ctx, i, j, p, L + 1)[1:]


def _degree_cells(ctx: ExtTorContext, i: int, j: int, L: int,
                  rank_fn) -> list[DegreeCell]:
    """Degrees 1..L from the given rank sequence per prime.

    The checks are the pair's own; each cell comes from the context's
    cache, keyed by its degree and p-parts, in increasing p as
    `ctx.primes` is sorted.
    """
    per_degree: list[list[tuple]] = [[] for _ in range(L)]
    bound = ctx.exponent_bound(i, j)
    for p in ctx.primes:
        ranks = rank_fn(p)  # zero for a pair that p does not join
        v = p_valuation(bound, p)
        for l, r in enumerate(ranks, 1):
            if r < 0:
                raise NegativeRank(f"negative rank at degree {l}")
            if r:
                if v == 0:
                    raise InvariantViolation(
                        "nonzero p-rank with p-coprime annihilator")
                per_degree[l - 1].append((p, r, p ** v, v == 1))
    cells = ctx._cells
    out = []
    for l, parts in enumerate(per_degree, 1):
        key = (l, tuple(parts))
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _degree_cell(l, parts)
        out.append(cell)
    return out


def _degree_cell(l: int, parts: list[tuple]) -> DegreeCell:
    p_parts = tuple(PPart(*part) for part in parts)
    if all(pp.exact for pp in p_parts):
        module = ModuleType.from_p_ranks({pp.p: pp.rank for pp in p_parts})
        return DegreeCell(l, p_parts, module, "closed-form")
    return DegreeCell(l, p_parts, None, "recurrence")


def ext_report(ctx: ExtTorContext, i: int, j: int, L: int) -> ExtTorReport:
    report = ExtTorReport("ext", ctx.group_name,
                          ctx.ring.labels[i], ctx.ring.labels[j])
    base = hom_base(i, j)
    report.degrees.append(DegreeCell(0, (), base, "closed-form"))
    report.degrees.extend(_degree_cells(
        ctx, i, j, L, lambda p: ext_ranks(ctx, i, j, p, L)))
    return report


def tor_report(ctx: ExtTorContext, i: int, j: int, L: int) -> ExtTorReport:
    report = ExtTorReport("tor", ctx.group_name,
                          ctx.ring.labels[i], ctx.ring.labels[j])
    base = tensor_base(ctx, i, j)
    parts = []
    if i != j:
        d = ctx.ring.d(i, j)
        for p in prime_factors(d):
            v = p_valuation(d, p)
            parts.append(PPart(p, 1, p ** v, v == 1))
    report.degrees.append(
        DegreeCell(0, tuple(parts), base, "closed-form"))
    report.degrees.extend(_degree_cells(
        ctx, i, j, L, lambda p: tor_ranks(ctx, i, j, p, L)))
    return report


@dataclass
class SquarefreeResult:
    applicable: bool
    passed: bool
    counterexample: tuple[str, str, int] | None = None


def verify_squarefree(ctx: ExtTorContext, L: int) -> SquarefreeResult:
    """Check Ext^l = Ext^{l+2} exactly for 1 <= l <= L-2, all ordered pairs.

    Only applicable when the group order is square-free; degree 0 is a
    Hom group and stays outside the periodicity claim.  Degrees 1 and up
    of a pair, their cells and their checks, are fixed by its signature
    (`_pair_signature`), so pairs are scanned in (i, j) order and a report
    is built for the first pair of each signature only: a later pair of
    a seen signature passes as that one did, and the first failing pair
    is the one a scan of every pair finds.
    """
    order = ctx.group_order
    if any(order % (p * p) == 0 for p in prime_factors(order)):
        return SquarefreeResult(False, False)
    n = ctx.ring.n
    seen = set()
    for i in range(n):
        for j in range(n):
            signature = _pair_signature(ctx, i, j)
            if signature in seen:
                continue
            seen.add(signature)
            report = ext_report(ctx, i, j, L)
            for l in range(1, L - 1):
                a, b = report.cell(l), report.cell(l + 2)
                if a.module is None or b.module is None or not a.same_value(b):
                    return SquarefreeResult(
                        True, False, (ctx.ring.labels[i], ctx.ring.labels[j], l))
    return SquarefreeResult(True, True)


def _pair_signature(ctx: ExtTorContext, i: int, j: int) -> tuple:
    """What degrees 1 and up of Ext(Z_i, Z_j) depend on (module docstring):
    whether i == j and, for each prime of `ctx.primes`, the index of the
    p-class the pair shares (None across classes) and the p-valuation of
    the exponent bound."""
    bound = ctx.exponent_bound(i, j)
    ring = ctx.ring
    return (i == j, tuple(
        (ctx.algebra(p).partition.class_index_of(i)
         if ring.same_p_class(i, j, p) else None, p_valuation(bound, p))
        for p in ctx.primes))
