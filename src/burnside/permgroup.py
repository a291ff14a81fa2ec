"""Finite permutation groups: closure, subgroup classes, normalizers, O^p.

The action of G on the cosets of a subgroup, by which the tests count
the marks a second time, is `CosetAction` in `tests/marks_reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from math import gcd

from .errors import CapExceeded, DegreeMismatch, InvalidPrime, InvalidSubgroup
from .perm import Permutation

DEFAULT_ORDER_CAP = 200


# Miller-Rabin over these bases is exact below PSI_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime; refuses p >= PSI_13, where the test is not exact.

    Division by the bases settles every p < 43^2 and every p with a small
    factor; the rest take a strong probable-prime test to each base.
    """
    if p >= PSI_13:
        raise InvalidPrime(f"{p} is too large: primality is decided only "
                           f"below psi_13 = {PSI_13}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise InvalidPrime unless p is prime."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")


class PermGroup:
    """A finite group of permutations, closed from its generators once.

    Element order is the breadth-first closure order from the identity,
    multiplying generators on the right in their given order; it is
    deterministic and reused everywhere downstream.  The closure forms
    each product elements[x] * generators[s] once and keeps its index in
    `_right[s][x]`, so past construction the group layer works on
    indices into `elements`: `table` is the Cayley table, built from
    those indices on first use.  Raises CapExceeded once the closure
    grows past `cap`.
    """

    def __init__(self, degree: int, generators: list[Permutation],
                 cap: int = DEFAULT_ORDER_CAP):
        self.degree = degree
        self.generators = list(generators)
        identity = Permutation.identity(degree)
        self.elements = elements = [identity]
        self._index = index = {identity: 0}
        self.identity_index = 0
        self._right = [[] for _ in self.generators]
        # (y, x, r): element y was first reached as elements[x] * s, where
        # r = _right[s]; `elements` grows while it is scanned, so the scan
        # is first in, first out and visits the elements breadth first
        self._steps = []
        for x, g in enumerate(elements):
            for s, r in zip(self.generators, self._right):
                gs = g * s
                y = index.get(gs)
                if y is None:
                    y = len(elements)
                    if y >= cap:
                        raise CapExceeded(f"group order exceeds cap {cap}")
                    index[gs] = y
                    elements.append(gs)
                    self._steps.append((y, x, r))
                r.append(y)
        self.order = len(elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._index

    def __iter__(self):
        return iter(self.elements)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def index_of(self, g: Permutation) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise InvalidSubgroup(f"{g} is not an element of the group") from None

    @cached_property
    def table(self) -> list[list[int]]:
        """table[a][b] is the index of elements[a] * elements[b].

        Replays the closure: every element y past the identity (index 0)
        was first reached as elements[x] * s for a generator s, so row a
        follows from a * y = (a * x) * s with one lookup in `_right` per
        entry.
        """
        table = []
        for a in range(self.order):
            row = [0] * self.order
            row[0] = a
            for y, x, r in self._steps:
                row[y] = r[row[x]]
            table.append(row)
        return table

    @cached_property
    def inverses(self) -> list[int]:
        e = self.identity_index
        return [row.index(e) for row in self.table]

    @cached_property
    def by_rank(self) -> list[int]:
        """Element indices in lexicographic image order; `ranks` inverts it.

        Unlike closure order, image order does not depend on the order of
        the generators."""
        elements = self.elements
        return sorted(range(self.order), key=lambda i: elements[i].images)

    @cached_property
    def ranks(self) -> list[int]:
        """Position of each element in lexicographic image order."""
        ranks = [0] * self.order
        for r, i in enumerate(self.by_rank):
            ranks[i] = r
        return ranks

    @cached_property
    def element_orders(self) -> list[int]:
        return [g.order() for g in self.elements]

    def join(self, mask: int, gens: list[int]) -> int:
        """Mask of the subgroup generated by `gens`, which must contain
        the subgroup H given by `mask`.

        Grows a union of right cosets H r: a product r * s that lands
        outside adds its whole coset H (r * s), so only coset
        representatives are multiplied by the generators.
        """
        table = self.table
        members = _bits(mask)
        reps = [self.identity_index]
        for r in reps:
            row = table[r]
            for s in gens:
                y = row[s]
                if not mask >> y & 1:
                    for h in members:
                        mask |= 1 << table[h][y]
                    reps.append(y)
        return mask

    def generate(self, indices) -> tuple[int, list[int]]:
        """Mask of the subgroup generated by `indices`, and the members of
        `indices` it keeps as generators (each outside the span of the
        ones before)."""
        mask = 1 << self.identity_index
        gens: list[int] = []
        for i in indices:
            if not mask >> i & 1:
                gens.append(i)
                mask = self.join(mask, gens)
        return mask, gens

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, in increasing order: its binary
    digits, lowest first, as 0/1 bytes that select from a range."""
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def enumerate_elements(generators: list[Permutation], degree: int | None = None,
                       cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Check a generator list and close it into a PermGroup.

    With no generators, `degree` must be given (the trivial group needs a
    point count). Raises CapExceeded once the closure grows past `cap`.
    """
    if generators:
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"generator degrees differ: {sorted(degrees)}")
        degree = degrees.pop()
    elif degree is None:
        degree = 1
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return PermGroup(degree, generators, cap)


class Subgroup:
    """A subgroup given by its full element set, hashable by that set.

    `mask` has bit i set for each member elements[i] of the group;
    `indices` lists the members in lexicographic image order, the order
    of `elements`.  Subgroups of different group objects never compare
    equal.  `gens`, `elements` and `element_set` are computed on first
    use; `cached_property` stores them in the instance dict, past the
    immutability guard of `__setattr__`.
    """

    def __init__(self, group: PermGroup, elements):
        mask = 0
        for g in elements:
            mask |= 1 << group.index_of(g)
        self._init(group, mask)

    @classmethod
    def _from_mask(cls, group: PermGroup, mask: int,
                   gens: list[int] | None = None) -> "Subgroup":
        sub = object.__new__(cls)
        sub._init(group, mask)
        if gens is not None:
            sub.__dict__["gens"] = gens
        return sub

    @classmethod
    def from_rank_mask(cls, group: PermGroup, members: int) -> "Subgroup":
        """The subgroup whose members are the elements of rank r, for each
        bit r set in `members`; the inverse of `rank_mask`.  The members
        must form a subgroup."""
        by_rank = group.by_rank
        mask = 0
        for r in _bits(members):
            mask |= 1 << by_rank[r]
        return cls._from_mask(group, mask)

    def _init(self, group, mask):
        indices = tuple(sorted(_bits(mask), key=group.ranks.__getitem__))
        self.__dict__.update(group=group, mask=mask, order=len(indices),
                             indices=indices)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @cached_property
    def gens(self) -> list[int]:
        """Indices of a generating set."""
        return self.group.generate(self.indices)[1]

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        elements = self.group.elements
        return tuple(elements[i] for i in self.indices)

    @cached_property
    def element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    def rank_mask(self) -> int:
        """The members by rank: bit r is set when the element of rank r
        (`PermGroup.ranks`) lies in this subgroup."""
        ranks = self.group.ranks
        mask = 0
        for i in self.indices:
            mask |= 1 << ranks[i]
        return mask

    def rank_key(self) -> tuple[int, ...]:
        """Ranks of the members; compares as their image tuples do."""
        ranks = self.group.ranks
        return tuple(ranks[i] for i in self.indices)

    def __contains__(self, g: Permutation) -> bool:
        i = self.group._index.get(g)
        return i is not None and bool(self.mask >> i & 1)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group is other.group
                and self.mask == other.mask)

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return f"Subgroup(order={self.order})"


def _sort_key(sub: Subgroup) -> tuple:
    return (sub.order, sub.rank_key())


def check_subgroup(group: PermGroup, sub: Subgroup) -> None:
    if sub.group is not group:
        raise InvalidSubgroup("not a subgroup of the given group")


def _conjugate_mask(group: PermGroup, mask: int, g: int) -> int:
    """Mask of g H g^-1 for the subgroup H given by `mask`."""
    table, ginv = group.table, group.inverses[g]
    row = table[g]
    out = 0
    for x in _bits(mask):
        out |= 1 << table[row[x]][ginv]
    return out


def _conjugates_into(group: PermGroup, sub: Subgroup, g: int, mask: int) -> bool:
    """Whether g H g^-1 lies in the subgroup given by `mask`."""
    table, ginv = group.table, group.inverses[g]
    row = table[g]
    return all(mask >> table[row[x]][ginv] & 1 for x in sub.gens)


def are_conjugate(group: PermGroup, a: Subgroup, b: Subgroup) -> bool:
    if a.order != b.order:
        return False
    return any(_conjugates_into(group, a, g, b.mask) for g in range(group.order))


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups with a stable label."""

    label: str
    order: int
    representative: Subgroup
    members: tuple[Subgroup, ...] = field(repr=False)


class SubgroupClassTable:
    """Conjugacy classes of subgroups, ordered by non-decreasing order.

    Ties within one order are broken by the representative's sorted image
    tuples, and labels follow that order: a bare order when the class is
    unique, otherwise order plus letters in bijective base 26 ("2a", ...,
    "2z", "2aa", "2ab", ...).
    """

    def __init__(self, group: PermGroup, classes: list[SubgroupClass]):
        self.group = group
        self.classes = classes

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i: int) -> SubgroupClass:
        return self.classes[i]

    def labels(self) -> list[str]:
        return [c.label for c in self.classes]


def _prime_of_power(n: int) -> int:
    """p when n = p^a for a prime p and a >= 1, otherwise 0."""
    for p in range(2, n + 1):
        if n % p == 0:  # p is the least prime factor of n
            while n % p == 0:
                n //= p
            return p if n == 1 else 0
    return 0


def _prime_power_cyclics(group: PermGroup):
    """The cyclic subgroups C = <y> of prime-power order p^a > 1.

    Walks the powers of each element through the Cayley table, skipping
    the generators of a cyclic subgroup already walked, so y is the least
    index generating C.  Returns the lists y, p and y^p, one entry per C,
    and `cyclic_of`, the position of <x> for each element x that generates
    one of them (-1 for every other element).
    """
    table, e = group.table, group.identity_index
    ys: list[int] = []
    primes: list[int] = []
    y_ps: list[int] = []
    cyclic_of = [-1] * group.order
    walked = bytearray(group.order)
    walked[e] = 1
    for g in range(group.order):
        if walked[g]:
            continue
        row = table[g]
        powers = [e, g]
        while (x := row[powers[-1]]) != e:
            powers.append(x)
        n = len(powers)
        p = _prime_of_power(n)
        for k in range(1, n):
            if gcd(k, n) == 1:
                walked[powers[k]] = 1
                if p:
                    cyclic_of[powers[k]] = len(ys)
        if p:
            ys.append(g)
            primes.append(p)
            y_ps.append(powers[p % n])
    return ys, primes, y_ps, cyclic_of


def subgroup_classes(group: PermGroup) -> SubgroupClassTable:
    """Every subgroup, grouped into its conjugacy classes.

    A worklist of cyclic extensions that extends one subgroup per class,
    starting from the trivial subgroup.  When a join is new, its whole
    class is found at once as its orbit under conjugation by the group's
    generators, each member keeping the conjugated generators as `gens`,
    and only that join is queued.  A queued subgroup H is joined only with
    the C = <y> that pass three rules, each of which skips only joins
    whose class is already known:

    1. y has prime-power order p^a, y^p lies in H and y does not.  Every
       K != 1 has a maximal subgroup M; some z in K outside M has a
       primary part (a power of z) outside M, and the last p-th power of
       that part still outside M is such a y for M, with <M, y> = K as M
       is maximal.  So every class is reached from a queued member of the
       class of M, by induction on the order.  Whether y^p lies in H does
       not depend on the generator of C.
    2. One C per N_G(H)-orbit: for n in N_G(H), join(H, nCn^-1) =
       n join(H, C) n^-1, and classes are taken whole.  H is normal
       exactly when its class has one member; then the orbits are those
       of G on the cyclic subgroups, computed once.  Otherwise N_G(H)
       comes from `_normalizer_mask`.
    3. A join J = <H, y> of order p|H| contains H with prime index, so
       <H, y'> = J for every y' in J outside H: a later y' in the union of
       such joins is skipped.

    The members of a class are sorted by the image tuples of their
    elements, and the classes by order, then by their least members,
    which are their representatives.
    """
    table, inverses = group.table, group.inverses
    conjugators = [(g, table[g], inverses[g])
                   for g in map(group.index_of, group.generators)]
    ys, primes, y_ps, cyclic_of = _prime_power_cyclics(group)
    # G-orbits of the C, each named by its least C
    g_orbit = list(range(len(ys)))
    for c in range(len(ys)):
        if g_orbit[c] == c:
            orbit = [c]
            for d in orbit:
                for g, row, ginv in conjugators:
                    x = cyclic_of[table[row[ys[d]]][ginv]]
                    if g_orbit[x] != c:
                        g_orbit[x] = c
                        orbit.append(x)
    found: dict[int, list[int]] = {}
    orbits: list[list[int]] = []
    work: list[tuple[int, bool]] = []

    def add_class(mask: int, gens: list[int]) -> None:
        found[mask] = gens
        orbit = [mask]
        for m in orbit:
            m_gens = found[m]
            for g, row, ginv in conjugators:
                conj = [table[row[x]][ginv] for x in m_gens]
                if all(m >> y & 1 for y in conj):
                    continue  # g normalizes this member
                c = _conjugate_mask(group, m, g)
                if c not in found:
                    found[c] = conj
                    orbit.append(c)
        orbits.append(orbit)
        work.append((mask, len(orbit) == 1))

    add_class(1 << group.identity_index, [])
    while work:
        mask, normal = work.pop()
        gens = found[mask]
        order = mask.bit_count()
        covered = mask  # H and every join of prime index over it
        if not normal:
            normalizer_rows = [
                (table[n], inverses[n])
                for n in _bits(_normalizer_mask(group, mask, gens))]
        # G-orbits (H normal), or N(H)-orbits by member, of the C joined
        seen: set[int] = set()
        for c, y in enumerate(ys):
            if covered >> y & 1 or not mask >> y_ps[c] & 1:
                continue
            if normal:
                if g_orbit[c] in seen:
                    continue
                seen.add(g_orbit[c])
            else:
                if c in seen:
                    continue
                seen.update(cyclic_of[table[row[y]][ninv]]
                            for row, ninv in normalizer_rows)
            join_gens = gens + [y]
            join = group.join(mask, join_gens)
            if join not in found:
                add_class(join, join_gens)
            if join.bit_count() == primes[c] * order:
                covered |= join

    raw_classes: list[tuple[Subgroup, tuple[Subgroup, ...]]] = []
    for orbit in orbits:
        members = sorted((Subgroup._from_mask(group, m, found[m]) for m in orbit),
                         key=_sort_key)
        raw_classes.append((members[0], tuple(members)))
    raw_classes.sort(key=lambda rc: _sort_key(rc[0]))

    by_order: dict[int, int] = {}
    for rep, _ in raw_classes:
        by_order[rep.order] = by_order.get(rep.order, 0) + 1
    counter: dict[int, int] = {}
    classes = []
    for rep, members in raw_classes:
        k = counter.get(rep.order, 0)
        counter[rep.order] = k + 1
        if by_order[rep.order] == 1:
            label = str(rep.order)
        else:
            label = f"{rep.order}{_letters(k)}"
        classes.append(SubgroupClass(label, rep.order, rep, members))
    return SubgroupClassTable(group, classes)


def _letters(k: int) -> str:
    """Bijective base 26: a, ..., z, aa, ab, ..., az, ba, ..., zz, aaa, ..."""
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def _normalizer_mask(group: PermGroup, mask: int, gens: list[int]) -> int:
    """Mask of N_G(H) for the subgroup H given by `mask` and generated by
    `gens`: the g with g x g^-1 in H for every generator x.

    N_G(H) contains H, so it is a union of left cosets gH: one g per coset
    is tested, and the coset is then taken or left whole.
    """
    table, inverses = group.table, group.inverses
    members = _bits(mask)
    out = seen = mask
    for g in range(group.order):
        if seen >> g & 1:
            continue
        row, ginv = table[g], inverses[g]
        coset = 0
        for h in members:
            coset |= 1 << row[h]
        seen |= coset
        if all(mask >> table[row[x]][ginv] & 1 for x in gens):
            out |= coset
    return out


def normalizer(group: PermGroup, sub: Subgroup) -> Subgroup:
    """N_G(H) = {g : gHg^-1 = H}, by `_normalizer_mask`, the routine
    `subgroup_classes` calls for each subgroup it extends that is not
    normal."""
    check_subgroup(group, sub)
    mask = _normalizer_mask(group, sub.mask, sub.gens)
    return Subgroup._from_mask(group, mask)


def o_p(sub: Subgroup, p: int) -> Subgroup:
    """Smallest normal subgroup of H with p-group quotient.

    Equals the subgroup generated by all elements of H of order coprime
    to p: every such element dies in any p-group quotient, and the
    quotient by their closure has p-power order by Cauchy.
    """
    check_prime(p)
    group = sub.group
    orders = group.element_orders
    mask, gens = group.generate(h for h in sub.indices if gcd(orders[h], p) == 1)
    return Subgroup._from_mask(group, mask, gens)

