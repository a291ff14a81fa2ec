"""Reference subgroup lattice for the tests: every subgroup joined with
every cyclic subgroup, then the conjugacy classes found in a second pass.

`subgroup_classes` joins one subgroup per class and takes each class
whole from the enumeration; this is the slower route it replaced, kept to
check that classes, their order, labels, representatives and members
agree.
"""

from burnside.permgroup import (Subgroup, SubgroupClass, SubgroupClassTable,
                                _conjugate_mask, _letters, _sort_key)


def all_subgroups(group) -> list[Subgroup]:
    """Every subgroup, by a worklist of joins with cyclic subgroups.

    Starts from the cyclic subgroups; each subgroup found is joined once
    with every cyclic subgroup it does not contain.  Every subgroup is a
    join of cyclic ones, so nothing is missed.  Output is sorted by
    order, then by the image tuples of the members.
    """
    cyclic: dict[int, int] = {}
    for g in range(group.order):
        mask, _ = group.generate([g])
        cyclic.setdefault(mask, g)
    found = {mask: [g] for mask, g in cyclic.items()}
    work = list(found)
    while work:
        mask = work.pop()
        gens = found[mask]
        for cmask, c in cyclic.items():
            if cmask & ~mask:
                join_gens = gens + [c]
                join = group.join(mask, join_gens)
                if join not in found:
                    found[join] = join_gens
                    work.append(join)
    subs = [Subgroup._from_mask(group, mask, gens) for mask, gens in found.items()]
    return sorted(subs, key=_sort_key)


def reference_classes(group) -> SubgroupClassTable:
    """Classes as orbits of `all_subgroups` under conjugation by the
    group's generators, in the order of their least members."""
    subs = all_subgroups(group)
    by_mask = {s.mask: s for s in subs}
    gens = [group.index_of(g) for g in group.generators]
    assigned: set[int] = set()
    raw_classes: list[tuple[Subgroup, tuple[Subgroup, ...]]] = []
    for sub in subs:
        if sub.mask in assigned:
            continue
        orbit = [sub.mask]
        assigned.add(sub.mask)
        for mask in orbit:
            for g in gens:
                conj = _conjugate_mask(group, mask, g)
                if conj not in assigned:
                    assigned.add(conj)
                    orbit.append(conj)
        ordered = sorted((by_mask[m] for m in orbit), key=_sort_key)
        # subs is sorted, so the first member met is the least of its class
        raw_classes.append((sub, tuple(ordered)))

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
