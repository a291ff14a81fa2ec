"""Regression tests of the subgroup lattice: golden marks output, counts,
labels past z, and the Cayley table against permutation products."""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from burnside.cli import main
from burnside.errors import CapExceeded
from burnside.groups import parse_group
from burnside.perm import Permutation
from burnside.permgroup import (PermGroup, _prime_of_power,
                                enumerate_elements, subgroup_classes)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "marks_golden.json").read_text())
C2_4 = "(1 2),(3 4),(5 6),(7 8)"


def _golden_id(case):
    """The group spec for marks entries; the whole argv otherwise, since
    several reports share one group."""
    argv = case["argv"]
    return argv[2] if argv[0] == "marks" else " ".join(argv)


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_marks_json_is_byte_identical(capsys, tmp_path, case):
    assert main(case["argv"] + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_warm_marks_json_is_byte_identical(capsys, tmp_path, case):
    # a warm `marks` expands the representatives from the entry's member
    # masks and the table from its pairs
    argv = case["argv"] + ["--cache-dir", str(tmp_path)]
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("spec,subgroups,classes", [
    ("S4", 30, 11),
    ("D20", 48, 16),
    ("A5", 59, 9),
    ("S5", 156, 19),
    (C2_4, 67, 67),
])
def test_subgroup_and_class_counts(spec, subgroups, classes):
    table = subgroup_classes(parse_group(spec))
    assert len(table) == classes
    assert sum(len(c.members) for c in table) == subgroups


def test_labels_continue_past_z(capsys, tmp_path):
    code = main(["marks", "--gens", C2_4, "--format", "json",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    labels = [c["label"] for c in json.loads(capsys.readouterr().out)["classes"]]
    assert len(labels) == 67
    # C2^4 has 35 subgroups of order 4 and 15 of orders 2 and 8
    fours = [l for l in labels if l.startswith("4")]
    assert fours[:3] == ["4a", "4b", "4c"]
    assert fours[25:28] == ["4z", "4aa", "4ab"]
    assert fours[-1] == "4ai"
    assert len(set(labels)) == len(labels)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["C1", "C7", "S3", "S4", "D6", "A4", "Q8", "V4",
                             "D10", "A5"]),
       data=st.data())
def test_cayley_table_matches_products(name, data):
    group = parse_group(name)
    elements = group.elements
    index = st.integers(0, group.order - 1)
    for _ in range(20):
        a, b = data.draw(index), data.draw(index)
        assert elements[group.table[a][b]] == elements[a] * elements[b]
    a = data.draw(index)
    assert elements[group.inverses[a]] == elements[a].inverse()
    ranked = sorted(range(group.order), key=group.ranks.__getitem__)
    assert [elements[i] for i in ranked] == sorted(elements)


def test_double_count_raises_on_inconsistent_data():
    # {(), (1 2 3)} is not closed: exactly three elements of S3 conjugate
    # A3 into it, and 3 is not a multiple of |H| = 2
    from burnside.errors import InvariantViolation
    from marks_reference import double_count_mark
    from burnside.perm import Permutation
    from burnside.permgroup import Subgroup, SubgroupClass

    group = parse_group("S3")
    c3 = Permutation([1, 2, 0])
    fake = Subgroup(group, [group.identity(), c3])
    j = Subgroup(group, [group.identity(), c3, c3 * c3])
    table = [SubgroupClass("H", 2, fake, (fake,)),
             SubgroupClass("J", 3, j, (j,))]
    with pytest.raises(InvariantViolation):
        double_count_mark(group, table, 0, 1)


@pytest.mark.parametrize("spec", ["S4", "D20", "A5", "S5",
                                  "(1 2 3),(2 3 4),(5 6)",
                                  "(1 2 3 4),(1 3),(5 6 7)", C2_4])
def test_classes_match_the_all_joins_reference(spec):
    # one join per class, each class taken whole from the enumeration,
    # against every subgroup joined and the classes found afterwards
    from lattice_reference import reference_classes

    group = parse_group(spec)
    table = subgroup_classes(group)
    reference = reference_classes(group)

    def digest(classes):
        return [(c.label, c.order, c.representative.mask,
                 [m.mask for m in c.members]) for c in classes]

    assert digest(table) == digest(reference)
    for cls in table:
        assert cls.representative is cls.members[0]
        for member in cls.members:
            assert group.generate(member.gens)[0] == member.mask


C2_5 = "(1 2),(3 4),(5 6),(7 8),(9 10)"


def _digest(table):
    return [(c.label, c.order, c.representative.mask,
             [m.mask for m in c.members]) for c in table]


def _assert_matches_reference(group):
    from lattice_reference import reference_classes

    table = subgroup_classes(group)
    assert _digest(table) == _digest(reference_classes(group))
    for cls in table:
        for member in cls.members:
            assert group.generate(member.gens)[0] == member.mask


@pytest.mark.parametrize("spec", [
    # the cyclic 2- and 3-groups, where only y with y^p in H extend H
    "C8", "C9", "C27",
    # elements of composite order, which no extension joins
    "C12", "(1 2 3 4),(5 6)",
    "Q8", "D10",
    # non-normal subgroups with large normalizers: orbits under N(H)
    "A5", "D50",
    # every subgroup normal: only the prime-index joins prune
    C2_5,
])
def test_cyclic_extensions_match_the_all_joins_reference(spec):
    _assert_matches_reference(parse_group(spec))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_random_groups_match_the_all_joins_reference(data):
    degree = data.draw(st.integers(1, 7), label="degree")
    perms = st.permutations(range(degree)).map(Permutation)
    gens = data.draw(st.lists(perms, min_size=1, max_size=3), label="gens")
    try:
        group = enumerate_elements(gens)
    except CapExceeded:
        assume(False)
    _assert_matches_reference(group)


@pytest.mark.parametrize("spec,joins", [
    # the all-joins worklist took 350, 1,198 and 9,548 joins here
    ("D20", 55),
    ("S5", 118),
    (C2_5, 2077),
])
def test_each_join_extends_by_one_prime_power_element(monkeypatch, spec,
                                                      joins):
    group = parse_group(spec)
    calls = []
    join = PermGroup.join

    def counting_join(self, mask, gens):
        calls.append((mask, list(gens)))
        return join(self, mask, gens)

    monkeypatch.setattr(PermGroup, "join", counting_join)
    subgroup_classes(group)
    monkeypatch.undo()
    assert len(calls) == joins
    for mask, gens in calls:
        *h_gens, y = gens
        assert group.generate(h_gens)[0] == mask
        assert not mask >> y & 1
        # y has order p^a, a >= 1, and y^p lies in H
        order = group.element_orders[y]
        p = min(q for q in range(2, order + 1) if order % q == 0)
        while order % p == 0:
            order //= p
        assert order == 1
        power = group.identity()
        for _ in range(p):
            power = power * group.elements[y]
        assert mask >> group.index_of(power) & 1


@pytest.mark.parametrize("n,p", [
    (1, 0), (2, 2), (3, 3), (5, 5), (7, 7), (97, 97), (199, 199),
    (4, 2), (8, 2), (9, 3), (27, 3), (25, 5), (49, 7), (128, 2), (243, 3),
    (6, 0), (10, 0), (12, 0), (36, 0), (100, 0), (200, 0),
])
def test_prime_of_power(n, p):
    assert _prime_of_power(n) == p
