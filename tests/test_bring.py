import math

import pytest
from hypothesis import given, settings, strategies as st

from burnside import bring
from burnside.bring import BRing, congruence_d, p_classes, separators
from burnside.cli import main
from burnside.errors import (InvalidPrime, NonIntegralSolution,
                             SeparationFailure)
from burnside.exttor import prime_factors
from burnside.modp import blocks
from burnside.permgroup import are_conjugate, o_p
from bring_reference import DenseCoordinates, d_by_label
from util import (get_classes, get_context, get_group, get_marks,
                  unimodular_change)

CORPUS = ["S3", "C4", "C6", "V4", "D4", "Q8", "S4"]


def test_from_marks_s3():
    ring = get_marks("S3").ring
    assert ring.labels == ["1", "2", "3", "6"]
    assert ring.unit_coeffs == [0, 0, 0, 1]


def test_trivial_group_ring():
    ring = get_marks("C1").ring
    assert ring.n == 1
    assert ring.basis == [[1]]
    sep = separators(ring)
    assert sep.N == 1
    assert sep.ghosts == [[1]]


def test_congruence_examples():
    d3 = get_context("S3").dmat
    assert d_by_label(d3, "1", "2") == 2
    assert d_by_label(d3, "1", "3") == 3
    assert d_by_label(d3, "3", "6") == 2
    assert d_by_label(d3, "1", "6") == 1
    d4 = get_context("C4").dmat
    assert d_by_label(d4, "1", "2") == 4
    assert d_by_label(d4, "1", "4") == 2
    assert d_by_label(d4, "2", "4") == 2
    with pytest.raises(ValueError):
        d3.d(1, 1)


@pytest.mark.parametrize("name", CORPUS)
def test_d_divides_group_order(name):
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(i + 1, n):
            assert ctx.group_order % ctx.dmat.d(i, j) == 0


def test_p_classes_examples():
    ctx = get_context("S3")
    assert p_classes(ctx.ring, 2).label_classes() == [["1", "2"], ["3", "6"]]
    assert p_classes(ctx.ring, 3).label_classes() == [["1", "3"], ["2"], ["6"]]
    assert p_classes(ctx.ring, 5).label_classes() == [["1"], ["2"], ["3"], ["6"]]
    ctx4 = get_context("C4")
    assert p_classes(ctx4.ring, 2).label_classes() == [["1", "2", "4"]]
    with pytest.raises(InvalidPrime):
        p_classes(ctx.ring, 6)


@pytest.mark.parametrize("name", CORPUS)
def test_p_discrete_off_group_order(name):
    ctx = get_context(name)
    for p in (11, 13):
        if ctx.group_order % p:
            part = p_classes(ctx.ring, p)
            assert all(len(c) == 1 for c in part.classes)


@pytest.mark.parametrize("name", CORPUS)
def test_dress_congruence(name):
    group = get_group(name)
    table = get_classes(name)
    ctx = get_context(name)
    for p in prime_factors(group.order):
        ops = [o_p(c.representative, p) for c in table]
        for i in range(len(table)):
            for j in range(i + 1, len(table)):
                assert (ctx.dmat.d(i, j) % p == 0) == are_conjugate(
                    group, ops[i], ops[j])


@pytest.mark.parametrize("name", ["S3", "C4", "V4", "D4", "Q8", "S4", "C30"])
def test_separators(name):
    ctx = get_context(name)
    ring = ctx.ring
    sep = separators(ring)
    n = ring.n
    for i in range(n):
        for j in range(n):
            if i == j:
                assert sep.ghosts[i][j] != 0
            else:
                assert sep.ghosts[i][j] == 0
        scaled = [0] * n
        scaled[i] = sep.N
        ring.decompose(scaled)  # must stay integral
        # the optimal annihilator divides the constructed separator value
        assert sep.value_at_index(i) % ring.idempotent_denominator(i) == 0


def test_separator_annihilates_off_support():
    # s_i . x = 0 whenever the ghost of x vanishes at i
    ring = get_context("S3").ring
    sep = separators(ring)
    kernel_vec = [0, 2, 0, 0]  # vanishes away from index 1
    prod = [a * b for a, b in zip(sep.ghosts[0], kernel_vec)]
    assert prod == [0, 0, 0, 0]


def test_idempotent_denominators_s3():
    ring = get_context("S3").ring
    assert [ring.idempotent_denominator(i) for i in range(4)] == [6, 2, 6, 2]


def test_generic_basis_accepted():
    ring = BRing(["a", "b"], [[1, 1], [0, 2]])
    d = congruence_d(ring)
    assert d.d(0, 1) == 2
    assert p_classes(ring, 2).classes == [[0, 1]]
    assert p_classes(ring, 3).classes == [[0], [1]]
    sep = separators(ring)
    assert sep.ghosts[0][1] == 0 and sep.ghosts[0][0] != 0


def test_generic_basis_rejections():
    with pytest.raises(ValueError):
        BRing(["a", "b"], [[1, 1]])  # not square
    with pytest.raises(ValueError):
        BRing(["a", "b"], [[1, 1], [2, 2]])  # dependent
    with pytest.raises(NonIntegralSolution):
        BRing(["a", "b"], [[2, 0], [0, 3]])  # unit not in the span
    with pytest.raises(SeparationFailure):
        BRing(["a", "b", "c"],
              [[1, 1, 1], [0, 2, 1], [0, 0, 3]])  # products escape the span


def test_ghost_of_matches_marks_rows():
    ring = get_context("D4").ring
    for h in range(ring.n):
        coeffs = [0] * ring.n
        coeffs[h] = 1
        assert ring.ghost_of(coeffs) == ring.basis[h]


D4_C3 = "(1 2 3 4),(1 3),(5 6 7)"


def _fraction_idempotent_denominator(ring, i):
    """lcm of the denominators of e_i's coordinates, solved over Q."""
    from fractions import Fraction
    n = ring.n
    rows = [[Fraction(ring.basis[k][m]) for k in range(n)] + [Fraction(m == i)]
            for m in range(n)]  # coeffs^T . basis = e_i, one row per index
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return math.lcm(*(row[n].denominator for row in rows))


@pytest.mark.parametrize("name", CORPUS + [D4_C3, None])
def test_idempotent_denominator_matches_rational_solve(name):
    ring = (BRing(["a", "b"], [[1, 1], [0, 2]]) if name is None
            else get_context(name).ring)
    for i in range(ring.n):
        assert (ring.idempotent_denominator(i)
                == _fraction_idempotent_denominator(ring, i))


def test_ring_owns_its_congruence_matrix():
    ctx = get_context("S4")
    assert ctx.dmat is ctx.ring.dmat
    assert ctx.ring is get_marks("S4").ring


@pytest.mark.parametrize("change", ["marks", "unimodular"])
@pytest.mark.parametrize("name", CORPUS + ["(1 2 3),(4 5 6),(7 8 9)"])
def test_congruence_matrix_matches_the_per_row_gcd(name, change):
    # the column-wise gcd, with its triangular shortcut on a marks basis,
    # against the plain gcd over every basis row
    ring = get_context(name).ring
    if change == "unimodular":
        ring = unimodular_change(ring)
    assert ring.triangular == (change == "marks")
    dmat = congruence_d(ring)
    for i in range(ring.n):
        for j in range(i + 1, ring.n):
            g = 0
            for vec in ring.basis:
                g = math.gcd(g, abs(vec[i] - vec[j]))
            assert dmat.d(i, j) == dmat.d(j, i) == g, (name, i, j)


@pytest.mark.parametrize("change", ["marks", "unimodular"])
@pytest.mark.parametrize("name", CORPUS)
def test_structure_constants_are_sparse_and_exact(name, change):
    ring = get_context(name).ring
    if change == "unimodular":
        ring = unimodular_change(ring)
    n, basis = ring.n, ring.basis
    sc = ring.structure_constants()
    assert ring.structure_constants() is sc
    for k in range(n):
        for l in range(n):
            pairs = sc[k][l]
            # one list for (k, l) and (l, k), nonzero and in increasing m
            assert pairs is sc[l][k]
            assert all(c != 0 for _, c in pairs)
            ms = [m for m, _ in pairs]
            assert ms == sorted(set(ms)) and set(ms) <= set(range(n))
            # sum c . basis_m is the pointwise product basis_k . basis_l
            ghost = [0] * n
            for m, c in pairs:
                ghost = [g + c * x for g, x in zip(ghost, basis[m])]
            assert ghost == [a * b for a, b in zip(basis[k], basis[l])]


def _dense_structure(ring):
    """Every basis product decomposed through the dense inverse."""
    n, basis, dense = ring.n, ring.basis, DenseCoordinates(ring)
    return [[[(m, c) for m, c in enumerate(dense.decompose(
                [a * b for a, b in zip(basis[k], basis[l])])) if c]
             for l in range(n)] for k in range(n)]


@pytest.mark.parametrize("name", CORPUS + ["(1 2),(3 4),(5 6),(7 8)",
                                           "(1 2 3),(4 5 6),(7 8 9)"])
def test_peeled_constants_match_the_dense_route(name):
    ring = get_context(name).ring
    assert ring.structure_constants() == _dense_structure(ring)


def test_peel_follows_rows_past_the_products_support():
    # b . c = (0, 1, 0) = b - a: peeling b reaches index 0, where neither
    # b . c nor c is nonzero.  On a table of marks the support of every
    # product is closed under subgroups, so no marks ring shows this
    ring = BRing(["a", "b", "c"], [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert ring.structure_constants()[1][2] == [(0, -1), (1, 1)]
    assert ring.structure_constants() == _dense_structure(ring)


def test_peel_raises_the_dense_routes_separation_failure():
    # lower triangular with the unit as its last row, but b . b =
    # (1, 4, 0) = 2 b - 1/3 a lies outside the span
    basis = [[3, 0, 0], [1, 2, 0], [1, 1, 1]]
    with pytest.raises(SeparationFailure,
                       match="coefficient -1/3 at index a: vector lies outside R"):
        BRing(["a", "b", "c"], basis)


def test_only_a_triangular_basis_is_peeled(monkeypatch):
    calls = []
    decompose = BRing.decompose

    def counting(self, vector):
        calls.append(vector)
        return decompose(self, vector)

    monkeypatch.setattr(BRing, "decompose", counting)
    marks = get_marks("S4")
    n = marks.size
    ring = BRing(marks.labels(), marks.matrix)
    assert calls == [[1] * n]  # the unit only
    calls.clear()
    unimodular_change(ring)
    # the unit, then every product with l >= k
    assert len(calls) == 1 + n * (n + 1) // 2


PEELED = CORPUS + [D4_C3, "(1 2),(3 4),(5 6),(7 8)", "(1 2 3),(4 5 6),(7 8 9)"]
_DENSE = {}


def _dense(name):
    if name not in _DENSE:
        _DENSE[name] = DenseCoordinates(get_context(name).ring)
    return _DENSE[name]


def _outcome(decompose, vector):
    try:
        return decompose(vector)
    except NonIntegralSolution as exc:
        return str(exc)


@pytest.mark.parametrize("name", PEELED)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_peeled_decompose_matches_the_dense_route(name, data):
    ring, dense = get_context(name).ring, _dense(name)
    assert ring.triangular
    entries = st.lists(st.integers(-60, 60), min_size=ring.n, max_size=ring.n)
    coeffs = data.draw(entries, label="coefficients")
    inside = ring.ghost_of(coeffs)
    assert ring.decompose(inside) == dense.decompose(inside) == coeffs
    vector = data.draw(entries, label="ghost vector")
    assert _outcome(ring.decompose, vector) == _outcome(dense.decompose, vector)


@pytest.mark.parametrize("name", PEELED)
def test_peeled_denominators_and_blocks_match_the_dense_route(name):
    ctx = get_context(name)
    ring, dense = ctx.ring, _dense(name)
    n = ring.n
    assert ring.unit_coeffs == dense.decompose([1] * n)
    assert ([ring.idempotent_denominator(i) for i in range(n)]
            == [dense.idempotent_denominator(i) for i in range(n)])
    assert ring.denominator == dense.denominator
    primes = prime_factors(ctx.group_order)
    coprime = next(p for p in (5, 7, 11) if ctx.group_order % p)
    for p in primes + [coprime]:
        algebra = ctx.algebra(p)
        assert [b.idempotent for b in blocks(algebra)] == [
            dense.block_idempotent(cls, p) for cls in algebra.classes], p


def test_zero_on_a_triangular_diagonal_is_dependent():
    with pytest.raises(ValueError, match="linearly dependent over Q"):
        BRing(["a", "b", "c"], [[2, 0, 0], [1, 0, 0], [1, 1, 1]])


@pytest.mark.parametrize("spec", [("--group", "S3"), ("--gens", D4_C3)])
def test_marks_path_builds_no_dense_inverse(spec, capsys, tmp_path,
                                            monkeypatch):
    requests = [["dmatrix"], ["blocks", "-p", "2"],
                ["ext", "--source", "1", "--target", "1"],
                ["verify", "--suite", "oracle"]
                + (["--max-degree", "1"] if spec[0] == "--gens" else [])]
    argvs = [req + [*spec, "--cache-dir", str(tmp_path)] for req in requests]

    def outputs():
        out = []
        for argv in argvs:
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    unpatched = outputs()
    assert all(code == 0 for code, _ in unpatched)

    def refuse(matrix):
        raise AssertionError("a triangular basis built a dense inverse")

    monkeypatch.setattr(bring, "_scaled_inverse", refuse)
    assert outputs() == unpatched
