import math

import pytest
from hypothesis import given, settings, strategies as st

from burnside.bring import (BRing, PrimeEquivalence, congruence_d,
                            p_classes, separators)
from burnside.errors import (InvalidPrime, InvariantViolation,
                             NonIntegralSolution, SeparationFailure)
from burnside.exttor import ExtTorContext, prime_factors
from burnside.modp import blocks
from burnside.permgroup import are_conjugate, o_p
from bring_reference import DenseCoordinates, d_by_label, p_classes_by_d
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
    d3 = get_context("S3").ring.dmat
    assert d_by_label(d3, "1", "2") == 2
    assert d_by_label(d3, "1", "3") == 3
    assert d_by_label(d3, "3", "6") == 2
    assert d_by_label(d3, "1", "6") == 1
    d4 = get_context("C4").ring.dmat
    assert d_by_label(d4, "1", "2") == 4
    assert d_by_label(d4, "1", "4") == 2
    assert d_by_label(d4, "2", "4") == 2
    with pytest.raises(ValueError):
        d3.d(1, 1)
    with pytest.raises(ValueError):
        get_context("S3").ring.d(1, 1)


@pytest.mark.parametrize("name", CORPUS)
def test_d_divides_group_order(name):
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(i + 1, n):
            assert ctx.group_order % ctx.ring.d(i, j) == 0


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
                assert (ctx.ring.d(i, j) % p == 0) == are_conjugate(
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
    ring = BRing(["a", "b"], [[2, 0], [1, 1]])
    d = congruence_d(ring)
    assert d.d(0, 1) == 2
    assert p_classes(ring, 2).classes == [[0, 1]]
    assert p_classes(ring, 3).classes == [[0], [1]]
    sep = separators(ring)
    assert sep.ghosts[1][0] == 0 and sep.ghosts[1][1] != 0


def test_generic_basis_rejections():
    with pytest.raises(ValueError, match="one vector per index"):
        BRing(["a", "b"], [[1, 0]])  # not square
    with pytest.raises(ValueError, match="linearly dependent"):
        BRing(["a", "b"], [[1, 0], [2, 0]])  # dependent
    with pytest.raises(ValueError, match="lower triangular"):
        BRing(["a", "b"], [[1, 1], [0, 2]])  # upper triangular
    with pytest.raises(NonIntegralSolution):
        BRing(["a", "b"], [[2, 0], [0, 3]])  # unit not in the span
    with pytest.raises(SeparationFailure):
        BRing(["a", "b", "c"],
              [[3, 0, 0], [1, 2, 0], [1, 1, 1]])  # products escape the span


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
    ring = (BRing(["a", "b"], [[2, 0], [1, 1]]) if name is None
            else get_context(name).ring)
    for i in range(ring.n):
        assert (ring.idempotent_denominator(i)
                == _fraction_idempotent_denominator(ring, i))


def test_ring_owns_its_congruence_matrix():
    ctx = get_context("S4")
    assert ctx.ring.dmat is ctx.ring.dmat
    assert ctx.ring is get_marks("S4").ring
    assert not hasattr(ctx, "dmat")


def test_ring_memoises_each_d_it_is_asked():
    ring = BRing(["a", "b", "c"], [[1, 0, 0], [1, 2, 0], [1, 1, 1]])
    assert ring._d == {}
    assert ring.d(2, 0) == 1 and ring.d(0, 2) == 1
    assert ring._d == {(0, 2): 1}
    assert ring.d(1, 2) == 2 and not ring.same_p_class(0, 1, 2)
    assert ring._d == {(0, 2): 1, (1, 2): 2, (0, 1): 1}
    assert ring.same_p_class(2, 1, 2) and ring.same_p_class(0, 0, 2)


@pytest.mark.parametrize("change", ["marks", "unimodular"])
@pytest.mark.parametrize("name", CORPUS + ["(1 2 3),(4 5 6),(7 8 9)"])
def test_congruence_matrix_matches_the_per_row_gcd(name, change):
    # the column-wise gcd, each difference from row j on and the rows
    # above as a running gcd, against the plain gcd over every basis row
    marks = get_context(name).ring
    ring = marks if change == "marks" else unimodular_change(marks)
    assert (ring.basis == marks.basis) == (change == "marks")
    dmat = congruence_d(ring)
    for i in range(ring.n):
        for j in range(i + 1, ring.n):
            g = 0
            for vec in ring.basis:
                g = math.gcd(g, abs(vec[i] - vec[j]))
            assert dmat.d(i, j) == dmat.d(j, i) == g, (name, i, j)
            assert ring.d(i, j) == ring.d(j, i) == g, (name, i, j)


C2_5 = "(1 2),(3 4),(5 6),(7 8),(9 10)"
S4_C2_3 = "(1 2 3 4),(1 2),(5 6),(7 8),(9 10)"


RESIDUE_CASES = ([(name, change) for name in CORPUS
                  for change in ("marks", "unimodular")]
                 + [("(1 2 3),(4 5 6),(7 8 9)", "marks"),
                    ("(1 2 3),(4 5 6),(7 8 9)", "unimodular"),
                    (C2_5, "marks"), (S4_C2_3, "marks")])
_CHANGED = {}


def _ring_and_order(name, change):
    """The ring of `name` in its marks basis or `unimodular_change`d, and
    |G|; the change is built once per group."""
    ctx = get_context(name)
    if change == "marks":
        return ctx.ring, ctx.group_order
    if name not in _CHANGED:
        _CHANGED[name] = unimodular_change(ctx.ring)
    return _CHANGED[name], ctx.group_order


def _residue_primes(order):
    """The primes dividing `order` and the two least that do not."""
    coprime = [q for q in (2, 3, 5, 7, 11, 13) if order % q][:2]
    return prime_factors(order) + coprime


@pytest.mark.parametrize("name, change", RESIDUE_CASES)
def test_residue_partitions_match_the_d_route(name, change):
    ring, order = _ring_and_order(name, change)
    for p in _residue_primes(order):
        part, reference = p_classes(ring, p), p_classes_by_d(ring, p)
        assert part.classes == reference.classes, p
        assert part.class_of == reference.class_of, p
        ring.dmat.check_partition(part)


@pytest.mark.parametrize("name, change", RESIDUE_CASES)
def test_primes_are_those_dividing_some_d(name, change):
    # every d(i, j) divides |G|, and 1 ~_p C_p for each p | |G| (Dress)
    ring, order = _ring_and_order(name, change)
    dmat, n = ring.dmat, ring.n
    ds = {dmat.d(i, j) for i in range(n) for j in range(i + 1, n)}
    dividing = sorted({p for d in ds for p in prime_factors(d)})
    assert ExtTorContext(ring, name, order).primes == dividing


def test_check_partition_rejects_a_merged_or_split_partition():
    ring = get_context("S3").ring
    good = p_classes(ring, 2)
    assert good.classes == [[0, 1], [2, 3]]
    ring.dmat.check_partition(good)
    merged = PrimeEquivalence(2, [[0, 1, 2, 3]], [0, 0, 0, 0], ring)
    with pytest.raises(InvariantViolation,
                       match="2-classes put 1 and 3 together, but d = 3"):
        ring.dmat.check_partition(merged)
    split = PrimeEquivalence(2, [[0], [1], [2, 3]], [0, 1, 2, 2], ring)
    with pytest.raises(InvariantViolation,
                       match="2-classes put 1 and 2 apart, but d = 2"):
        ring.dmat.check_partition(split)


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


def test_every_basis_is_peeled(monkeypatch):
    # a table of marks and a change of it alike decompose only the unit:
    # every product is peeled, none decomposed
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
    assert calls == [[1] * n]


def test_a_basis_off_the_lower_triangle_is_refused():
    # the rule is the shape of a table of marks: the same ring with its
    # indices reversed, or one row moved up, is refused before any product
    ring = get_marks("S3").ring
    reversed_indices = [row[::-1] for row in ring.basis[::-1]]
    moved = [ring.basis[1], ring.basis[0]] + ring.basis[2:]
    for basis in (reversed_indices, moved):
        with pytest.raises(ValueError, match="basis must be lower triangular"):
            BRing(ring.labels, basis)


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
