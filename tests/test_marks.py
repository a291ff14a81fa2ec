import json

import pytest

from burnside.errors import BasisMismatch, NonIntegralSolution
from burnside.marks import decompose, ghost, marks_document, multiply
from burnside.permgroup import Subgroup, are_conjugate, normalizer
from marks_reference import CosetAction, double_count_mark, verify_marks
from util import get_group, get_marks

S3_MATRIX = [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0], [1, 1, 1, 1]]
C4_MATRIX = [[4, 0, 0], [2, 2, 0], [1, 1, 1]]


def test_frozen_tables():
    assert get_marks("S3").matrix == S3_MATRIX
    assert get_marks("C4").matrix == C4_MATRIX


def test_verify_by_double_count():
    verify_marks(get_marks("S3"))
    verify_marks(get_marks("C4"))
    verify_marks(get_marks("V4"))


@pytest.mark.parametrize("name", ["S3", "C4", "C6", "V4", "D4", "Q8", "S4"])
def test_structural_invariants(name, ):
    table = get_marks(name)
    group = get_group(name)
    n = table.size
    for h in range(n):
        cls = table.class_table[h]
        # first column counts all cosets, the diagonal is the Weyl index
        assert table.matrix[h][0] == group.order // cls.order
        nrm = normalizer(group, cls.representative)
        assert table.matrix[h][h] == nrm.order // cls.order
        for j in range(h + 1, n):
            assert table.matrix[h][j] == 0
    assert table.matrix[n - 1] == [1] * n


@pytest.mark.parametrize("name", ["S3", "C4", "D4", "S4"])
def test_nonzero_iff_subconjugate(name):
    table = get_marks(name)
    group = get_group(name)
    n = table.size
    for h in range(n):
        big = table.class_table[h].representative
        for j in range(n):
            small = table.class_table[j].representative
            subconj = any(
                all(g * x * g.inverse() in big for x in small.elements)
                for g in group.elements)
            assert (table.matrix[h][j] != 0) == subconj


@pytest.mark.parametrize("name", ["S3", "C4", "Q8"])
def test_marks_count_fixed_points_of_coset_action(name):
    group = get_group(name)
    table = get_marks(name)
    for h in range(table.size):
        action = CosetAction(group, table.class_table[h].representative)
        for j in range(table.size):
            small = table.class_table[j].representative
            assert action.fixed_points(small) == table.matrix[h][j]
            assert table.matrix[h][j] == double_count_mark(
                group, table.class_table, h, j)


def test_ghost_examples():
    table = get_marks("S3")
    assert ghost(table.basis_element(1)) == [3, 1, 0, 0]
    assert ghost(table.unit()) == [1, 1, 1, 1]
    assert ghost(table.zero()) == [0, 0, 0, 0]


def test_decompose_examples():
    table = get_marks("S3")
    elt = decompose(table, [9, 1, 0, 0])
    assert elt.coeffs == (1, 1, 0, 0)
    assert decompose(table, [1, 1, 1, 1]).coeffs == (0, 0, 0, 1)
    with pytest.raises(NonIntegralSolution):
        decompose(table, [1, 0, 0, 0])


def test_decompose_inverts_ghost():
    for name in ("S3", "C4", "D4", "S4"):
        table = get_marks(name)
        for h in range(table.size):
            x = table.basis_element(h)
            assert decompose(table, ghost(x)) == x
        # the additive group: subtraction undoes addition, scaling is
        # pointwise on marks
        x = table.element(range(1, table.size + 1))
        y = table.element([(-2) ** k for k in range(table.size)])
        assert (x - y) + y == x
        assert x - x == table.zero()
        for k in (-3, 0, 2):
            assert ghost(x.scale(k)) == [k * m for m in ghost(x)]


def test_multiply_examples():
    table = get_marks("S3")
    c2 = table.basis_element(1)
    assert multiply(c2, c2).coeffs == (1, 1, 0, 0)
    c3 = table.basis_element(2)
    assert multiply(c3, c3).coeffs == (0, 0, 2, 0)
    for h in range(4):
        x = table.basis_element(h)
        assert multiply(table.unit(), x) == x


def _orbit_decomposition(group, table, h, j):
    """Brute force: orbits of G on (G/H) x (G/J), classified by stabilizer."""
    ah = CosetAction(group, table.class_table[h].representative)
    aj = CosetAction(group, table.class_table[j].representative)
    points = [(a, b) for a in range(ah.points) for b in range(aj.points)]
    coeffs = [0] * table.size
    remaining = set(points)
    while remaining:
        seed = min(remaining)
        orbit = set()
        frontier = [seed]
        while frontier:
            pt = frontier.pop()
            if pt in orbit:
                continue
            orbit.add(pt)
            for g in group.generators:
                ph = ah.permutation_of(g)
                pj = aj.permutation_of(g)
                frontier.append((ph(pt[0]), pj(pt[1])))
        remaining -= orbit
        stab = Subgroup(group, (g for g in group.elements
                                if ah.permutation_of(g)(seed[0]) == seed[0]
                                and aj.permutation_of(g)(seed[1]) == seed[1]))
        for idx in range(table.size):
            if are_conjugate(group, stab, table.class_table[idx].representative):
                coeffs[idx] += 1
                break
        else:
            raise AssertionError("stabilizer matches no class")
    return tuple(coeffs)


@pytest.mark.parametrize("name", ["S3", "C4", "C6", "V4"])
def test_multiply_matches_orbit_counting(name):
    group = get_group(name)
    table = get_marks(name)
    for h in range(table.size):
        for j in range(h, table.size):
            expected = _orbit_decomposition(group, table, h, j)
            got = multiply(table.basis_element(h), table.basis_element(j))
            assert got.coeffs == expected


def test_json_emission():
    table = get_marks("S3")
    doc = marks_document(get_group("S3"),
                         {**table.to_sparse_json(), "group": "S3"})
    assert doc["group"] == "S3"
    assert doc["matrix"] == S3_MATRIX
    assert [c["label"] for c in doc["classes"]] == ["1", "2", "3", "6"]
    # canonical representative is the lexicographically least in its class
    assert doc["classes"][1]["representative"] == [[0, 1, 2], [0, 2, 1]]
    json.dumps(doc)  # serializable


@pytest.mark.parametrize("name", ["S3", "C4", "D4", "S4"])
def test_decompose_agrees_with_ring(name):
    table = get_marks(name)
    for h in range(table.size):
        for j in range(h, table.size):
            vec = [a * b + c for a, b, c in zip(table.matrix[h], table.matrix[j],
                                                 table.matrix[-1])]
            assert decompose(table, vec).coeffs == tuple(
                table.ring.decompose(vec))
    off = [1] + [0] * (table.size - 1)
    with pytest.raises(NonIntegralSolution) as via_marks:
        decompose(table, off)
    with pytest.raises(NonIntegralSolution) as via_ring:
        table.ring.decompose(off)
    assert str(via_marks.value) == str(via_ring.value)


def test_basis_mismatch():
    s3, c6 = get_marks("S3"), get_marks("C6")
    assert s3.size == c6.size == 4
    x, y = s3.element([1, 0, 0, 0]), c6.element([1, 0, 0, 0])
    with pytest.raises(BasisMismatch):
        x + y
    with pytest.raises(BasisMismatch):
        x - y
    with pytest.raises(BasisMismatch):
        x * y
    with pytest.raises(BasisMismatch):
        s3.element([1, 0, 0])
    with pytest.raises(BasisMismatch):
        decompose(s3, [6, 3, 2, 1, 0])


@pytest.mark.parametrize("name", ["S4", "D20", "(1 2 3),(2 3 4),(5 6)", "A5",
                                  "(1 2 3 4),(1 3),(5 6 7)"])
def test_marks_by_containment_match_coset_counts(name):
    # table_of_marks counts the conjugates of H containing J; the coset
    # action and the double count are two independent routes to the same
    # number
    group = get_group(name)
    table = get_marks(name)
    classes = table.class_table
    for h in range(table.size):
        action = CosetAction(group, classes[h].representative)
        for j in range(table.size):
            mark = table.matrix[h][j]
            assert mark == action.fixed_points(classes[j].representative)
            assert mark == double_count_mark(group, classes, h, j)
