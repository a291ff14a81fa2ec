"""Finite permutation groups: closure, subgroup classes, normalizers, O^p."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .errors import CapExceeded, DegreeMismatch, InvalidPrime, InvalidSubgroup
from .perm import Permutation

DEFAULT_ORDER_CAP = 200


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
    def ranks(self) -> list[int]:
        """Position of each element in lexicographic image order."""
        by_images = sorted(range(self.order), key=lambda i: self.elements[i].images)
        ranks = [0] * self.order
        for r, i in enumerate(by_images):
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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, in increasing order."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


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


def subgroup_classes(group: PermGroup) -> SubgroupClassTable:
    """Every subgroup, grouped into its conjugacy classes.

    A worklist of joins with cyclic subgroups that joins one subgroup per
    class.  It starts from the cyclic subgroups.  When a join is new, its
    whole class is found at once as its orbit under conjugation by the
    group's generators, each member keeping the conjugated generators as
    `gens`, and only that join is queued, to be joined once with every
    cyclic subgroup it does not contain.  Nothing is missed: every
    subgroup is a join of cyclic ones, g join(H, C) g^-1 =
    join(gHg^-1, gCg^-1), and the cyclic subgroups are closed under
    conjugation.  The members of a class are sorted by the image tuples
    of their elements, and the classes by order, then by their least
    members, which are their representatives.
    """
    table, inverses = group.table, group.inverses
    conjugators = [(g, table[g], inverses[g])
                   for g in map(group.index_of, group.generators)]
    found: dict[int, list[int]] = {}
    orbits: list[list[int]] = []
    work: list[int] = []

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
        work.append(mask)

    cyclic: dict[int, int] = {}
    for g in range(group.order):
        mask, _ = group.generate([g])
        cyclic.setdefault(mask, g)
    for mask, g in cyclic.items():
        if mask not in found:
            add_class(mask, [g])
    while work:
        mask = work.pop()
        gens = found[mask]
        for cmask, c in cyclic.items():
            if cmask & ~mask:
                join_gens = gens + [c]
                join = group.join(mask, join_gens)
                if join not in found:
                    add_class(join, join_gens)

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


def normalizer(group: PermGroup, sub: Subgroup) -> Subgroup:
    """N_G(H) = {g : gHg^-1 = H}, by direct conjugation test over all g."""
    check_subgroup(group, sub)
    mask = 0
    for g in range(group.order):
        if _conjugates_into(group, sub, g, sub.mask):
            mask |= 1 << g
    return Subgroup._from_mask(group, mask)


def o_p(sub: Subgroup, p: int) -> Subgroup:
    """Smallest normal subgroup of H with p-group quotient.

    Equals the subgroup generated by all elements of H of order coprime
    to p: every such element dies in any p-group quotient, and the
    quotient by their closure has p-power order by Cauchy.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    group = sub.group
    orders = group.element_orders
    mask, gens = group.generate(h for h in sub.indices if gcd(orders[h], p) == 1)
    return Subgroup._from_mask(group, mask, gens)


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
