import pytest

from burnside.errors import (CapExceeded, DegreeMismatch, InvalidPrime,
                             InvalidSubgroup)
from burnside.perm import Permutation
from burnside.permgroup import (PSI_13, Subgroup, check_prime,
                                enumerate_elements, is_prime, normalizer, o_p)
from marks_reference import CosetAction
from util import get_classes, get_group


def test_permutation_basics():
    a = Permutation([1, 2, 0])
    b = Permutation([1, 0, 2])
    assert (a * b).images == (2, 1, 0)
    assert a.inverse() * a == Permutation.identity(3)
    assert a.order() == 3
    assert Permutation([1, 0, 3, 2]).cycle_string() == "(1 2)(3 4)"
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_enumerate_s3():
    g = enumerate_elements([Permutation([1, 2, 0]), Permutation([1, 0, 2])])
    assert g.order == 6
    assert g.elements[0].is_identity()


def test_enumerate_trivial_and_c4():
    assert enumerate_elements([], degree=3).order == 1
    assert enumerate_elements([Permutation([1, 2, 3, 0])]).order == 4


def test_closure_under_product_and_inverse():
    import math
    for name in ("S3", "D4", "Q8"):
        group = get_group(name)
        elems = set(group.elements)
        assert len(elems) == group.order
        assert math.factorial(group.degree) % group.order == 0
        for a in group.elements:
            assert a.inverse() in elems
            for b in group.generators:
                assert a * b in elems


def test_enumerate_errors():
    with pytest.raises(DegreeMismatch):
        enumerate_elements([Permutation([1, 0]), Permutation([1, 2, 0])])
    with pytest.raises(CapExceeded):
        enumerate_elements([Permutation([1, 0, 2]), Permutation([0, 2, 1])],
                           cap=5)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "D10"])
def test_closure_order_is_breadth_first(name):
    # element indices, ranks and labels all rest on this order: level by
    # level from the identity, generators on the right in their order
    group = get_group(name)
    identity = Permutation.identity(group.degree)
    expected, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        new = []
        for x in frontier:
            for s in group.generators:
                y = x * s
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        expected += new
        frontier = new
    assert group.elements == expected
    for a, row in enumerate(group.table):
        assert [group.elements[b] for b in row] == [
            group.elements[a] * g for g in group.elements]


@pytest.mark.parametrize("name", ["S3", "Q8", "A4", "D10"])
def test_cap_boundary(name):
    group = get_group(name)
    assert enumerate_elements(group.generators,
                              cap=group.order).elements == group.elements
    with pytest.raises(CapExceeded):
        enumerate_elements(group.generators, cap=group.order - 1)


def test_subgroup_outside_the_group_is_rejected():
    s3 = get_group("S3")
    with pytest.raises(InvalidSubgroup):
        Subgroup(s3, [Permutation([1, 2, 0]), Permutation([0, 2, 1, 3])])
    # a subgroup belongs to the group object it was built from
    other = enumerate_elements(list(s3.generators))
    h = get_classes("S3")[1].representative
    with pytest.raises(InvalidSubgroup):
        CosetAction(other, h)
    with pytest.raises(InvalidSubgroup):
        normalizer(other, h)


@pytest.mark.parametrize("name,count,orders", [
    ("S3", 4, [1, 2, 3, 6]),
    ("C4", 3, [1, 2, 4]),
    ("S4", 11, None),
    ("V4", 5, [1, 2, 2, 2, 4]),
    ("D4", 8, None),
    ("Q8", 6, [1, 2, 4, 4, 4, 8]),
    ("C6", 4, [1, 2, 3, 6]),
])
def test_subgroup_class_counts(name, count, orders):
    table = get_classes(name)
    assert len(table) == count
    if orders is not None:
        assert [c.order for c in table] == orders
    assert table[0].order == 1
    assert table[-1].order == get_group(name).order


def test_class_labels_deterministic():
    labels = get_classes("D4").labels()
    assert labels[0] == "1"
    assert labels[-1] == "8"
    # three classes of order 2 and three of order 4 in D4
    assert [l for l in labels if l.startswith("2")] == ["2a", "2b", "2c"]
    assert [l for l in labels if l.startswith("4")] == ["4a", "4b", "4c"]


def test_classes_partition_and_conjugation_closure():
    for name in ("S3", "C4", "V4", "D4", "Q8", "S4"):
        group = get_group(name)
        table = get_classes(name)
        seen = set()
        for cls in table:
            for member in cls.members:
                assert member.element_set not in seen
                seen.add(member.element_set)
        # conjugation permutes each class into itself
        for cls in table:
            for g in group.elements:
                ginv = g.inverse()
                conj = Subgroup(group, (g * h * ginv
                                        for h in cls.representative.elements))
                assert conj in cls.members


def test_class_size_equals_normalizer_index():
    for name in ("S3", "D4", "S4", "Q8"):
        group = get_group(name)
        for cls in get_classes(name):
            n = normalizer(group, cls.representative)
            assert len(cls.members) == group.order // n.order


def test_normalizer_examples():
    s3 = get_group("S3")
    table = get_classes("S3")
    c2 = table[1].representative
    assert normalizer(s3, c2) == c2
    whole = table[-1].representative
    assert normalizer(s3, whole).order == 6
    # the normal Klein four-subgroup of S4 has normalizer S4
    s4 = get_group("S4")
    v4_normal = next(c for c in get_classes("S4")
                     if c.order == 4 and len(c.members) == 1)
    assert normalizer(s4, v4_normal.representative).order == 24


def test_o_p_examples():
    s3 = get_group("S3")
    table = get_classes("S3")
    whole = table[-1].representative
    a3 = o_p(whole, 2)
    assert a3.order == 3
    assert o_p(whole, 3).order == 6
    c2 = table[1].representative
    assert o_p(c2, 2).order == 1
    with pytest.raises(InvalidPrime):
        o_p(c2, 4)


def _is_prime_by_division(p):
    # the trial division that `is_prime` replaced, kept as its reference
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(p) == _is_prime_by_division(p) for p in range(10**5))


@pytest.mark.parametrize("n", [
    561, 2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_carmichael_and_strong_pseudoprimes(n):
    # 561 is a Carmichael number; the rest are psi_1..psi_12, the least
    # strong pseudoprimes to the first 1..12 prime bases
    assert not is_prime(n)
    with pytest.raises(InvalidPrime, match=f"^{n} is not prime$"):
        check_prime(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 10**18 + 3])
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p)
    check_prime(p)


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 1, 10**30])
def test_is_prime_refuses_from_psi_13_on(n):
    assert PSI_13 == 3317044064679887385961981
    bound = f"decided only below psi_13 = {PSI_13}"
    for check in (is_prime, check_prime):
        with pytest.raises(InvalidPrime, match=bound):
            check(n)


def test_o_p_idempotent_and_minimal():
    # exhaustive on groups of modest order: quotient is a p-group and no
    # smaller normal subgroup with p-power quotient exists
    for name in ("S3", "C4", "V4", "D4", "C6", "Q8"):
        group = get_group(name)
        table = get_classes(name)
        for p in (2, 3):
            for cls in table:
                h = cls.representative
                k = o_p(h, p)
                assert o_p(k, p) == k
                quotient = h.order // k.order
                while quotient % p == 0:
                    quotient //= p
                assert quotient == 1
                # minimality among normal subgroups with p-power quotient
                for other_cls in table:
                    for cand in other_cls.members:
                        if not cand.element_set <= h.element_set:
                            continue
                        normal = all(
                            (g * x * g.inverse()) in cand
                            for g in h.elements for x in cand.elements)
                        if not normal:
                            continue
                        q = h.order // cand.order
                        while q % p == 0:
                            q //= p
                        if q == 1:
                            assert k.element_set <= cand.element_set


def test_coset_action_examples():
    s3 = get_group("S3")
    table = get_classes("S3")
    regular = CosetAction(s3, table[0].representative)
    assert regular.points == 6
    assert regular.kernel().order == 1
    on3 = CosetAction(s3, table[1].representative)
    assert on3.points == 3
    assert on3.kernel().order == 1
    c4 = get_group("C4")
    t4 = get_classes("C4")
    on2 = CosetAction(c4, t4[1].representative)
    assert on2.points == 2
    assert on2.kernel() == t4[1].representative


def test_coset_action_kernel_is_core():
    for name in ("S3", "D4", "Q8"):
        group = get_group(name)
        for cls in get_classes(name):
            h = cls.representative
            action = CosetAction(group, h)
            core = set(group.elements)
            for g in group.elements:
                ginv = g.inverse()
                core &= {g * x * ginv for x in h.elements}
            assert action.kernel().element_set == frozenset(core)


def test_coset_action_is_homomorphism():
    s4 = get_group("S4")
    h = get_classes("S4")[3].representative
    action = CosetAction(s4, h)
    for a in s4.elements[:8]:
        for b in s4.elements[:8]:
            assert (action.permutation_of(a) * action.permutation_of(b)
                    == action.permutation_of(a * b))
