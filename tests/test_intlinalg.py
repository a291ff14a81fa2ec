import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from burnside.intlinalg import (_eliminate_units, _invariant_factors,
                                sparse_smith_invariants, xgcd)
from burnside.oracle import IntegralResolution
from fplinalg_reference import fp_rank
from intlinalg_reference import (_diagonalize, kernel_of_columns,
                                 kernel_of_sparse_columns, lattice_span_basis,
                                 mat_mul, quotient_structure, rank,
                                 smith_invariants, solve_integer)
from util import dense_diffs, evaluation_matrix, get_context, r_multiples


def _diagonal(D):
    """The diagonal entries of a matrix given by dense rows."""
    return [row[j] for j, row in enumerate(D) if j < len(row)]


def test_xgcd():
    for a, b in [(12, 18), (0, 5), (5, 0), (-9, 6), (7, 7), (0, 0), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_kernel_of_columns_known():
    # x + 2y + 3z = 0 has a rank-2 kernel
    ker = kernel_of_columns([[1, 2, 3]], 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    # the two vectors must span the whole kernel: (1, 1, -1) decomposes
    free, torsion = quotient_structure(ker, [[1, 1, -1]])
    assert torsion == []


def test_kernel_of_columns_random():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        ker = kernel_of_columns(A, n)
        assert len(ker) == n - rank(A, n)
        for v in ker:
            image = [sum(A[i][j] * v[j] for j in range(n)) for i in range(m)]
            assert not any(image)


def test_smith_invariants():
    assert smith_invariants([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_invariants([[2, 4], [4, 8]], 2) == [2]
    assert smith_invariants([[0, 0]], 2) == []
    assert smith_invariants([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3) == [1, 30, 30]


def test_solve_integer():
    A = [[2, 0], [1, 1], [0, 3]]
    B = [[2], [4], [9]]
    Y = solve_integer(A, B)
    assert mat_mul(A, Y) == B
    with pytest.raises(ValueError):
        solve_integer([[2], [0]], [[1], [0]])  # 1/2 is not integral


def test_solve_integer_names_each_defect():
    # a repeated column: (1, -1) is in the kernel of A
    with pytest.raises(ValueError, match="^matrix does not have full column rank$"):
        solve_integer([[1, 1], [2, 2], [0, 0]], [[1], [2], [0]])
    # more columns than rows
    with pytest.raises(ValueError, match="^matrix does not have full column rank$"):
        solve_integer([[1, 0]], [[1]])
    # (0, 0, 1) is not in the column span of A, over Q or over Z
    with pytest.raises(ValueError, match="^system is inconsistent$"):
        solve_integer([[1, 0], [0, 1], [0, 0]], [[1], [1], [1]])
    # only the second column of B is inconsistent
    with pytest.raises(ValueError, match="^system is inconsistent$"):
        solve_integer([[1], [0]], [[3, 0], [0, 1]])
    # 2y = 3 and 4y = 6: consistent over Q, y = 3/2
    with pytest.raises(ValueError, match="^non-integral solution entry$"):
        solve_integer([[2], [4]], [[3], [6]])
    # the primitive kernel vector of [A | -B] is (1, 1, 2): t = 2
    with pytest.raises(ValueError, match="^non-integral solution entry$"):
        solve_integer([[1, 1], [1, -1]], [[1], [0]])


def test_solve_integer_empty_shapes():
    # r x 0: only B = 0 is consistent, with the 0 x q solution
    assert solve_integer([[], []], [[0, 0], [0, 0]]) == []
    with pytest.raises(ValueError, match="^system is inconsistent$"):
        solve_integer([[], []], [[0], [5]])
    # no right-hand side: r rows of nothing
    assert solve_integer([[1, 0], [0, 3]], [[], []]) == [[], []]
    assert solve_integer([], []) == []
    # the rank check comes first even when B has no columns
    with pytest.raises(ValueError, match="^matrix does not have full column rank$"):
        solve_integer([[2, 4]], [[]])
    # the sign of the kernel vector does not leak into Y
    assert solve_integer([[-1], [2]], [[3], [-6]]) == [[-3]]


def test_quotient_structure_repeated_and_dependent_image():
    idm = [[1, 0], [0, 1]]
    # repeated columns span the same lattice
    assert quotient_structure(idm, [[2, 0], [2, 0], [0, 3], [0, 3]]) == (0, [6])
    # (2, 3) = (2, 0) + (0, 3) adds nothing; (4, 0) neither
    assert quotient_structure(idm, [[2, 0], [0, 3], [2, 3], [4, 0]]) == (0, [6])
    # dependent over Q but not over Z: (2, 0) and (3, 0) span (1, 0)
    assert quotient_structure(idm, [[2, 0], [3, 0]]) == (1, [])
    # zero columns are no image at all
    assert quotient_structure(idm, [[0, 0], [0, 0]]) == (2, [])


def test_quotient_structure_leaves_a_free_part():
    # a kernel basis that is not the standard one, in Z^3
    kernel = [[1, 1, 0], [0, 1, 1]]
    # 3 (1, 1, 0): Z / 3 plus one free summand
    assert quotient_structure(kernel, [[3, 3, 0]]) == (1, [3])
    # (1, 2, 1) = (1, 1, 0) + (0, 1, 1) is primitive: free rank 1 only
    assert quotient_structure(kernel, [[1, 2, 1], [2, 4, 2]]) == (1, [])
    # a rank-3 kernel with a rank-1 image of index 4: Z / 4 + Z^2
    assert quotient_structure([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              [[4, 8, 0], [0, 0, 0]]) == (2, [4])
    # an empty kernel basis: nothing to divide
    assert quotient_structure([], [[1, 0]]) == (0, [])


def test_quotient_structure():
    idm = [[1, 0], [0, 1]]
    free, torsion = quotient_structure(idm, [[2, 0], [0, 3]])
    assert (free, torsion) == (0, [6])
    free, torsion = quotient_structure(idm, [[2, 0]])
    assert (free, torsion) == (1, [2])
    free, torsion = quotient_structure(idm, [])
    assert (free, torsion) == (2, [])
    free, torsion = quotient_structure([[1, 0, 0]], [[5, 0, 0]])
    assert (free, torsion) == (0, [5])


def test_smith_invariants_agree_with_plain_diagonalize():
    # the Hermite step must not change the answer of diagonalizing the raw
    # matrix; low-rank products exercise the compression to rank many rows
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = rng.randint(n, 9)
        if rng.random() < 0.5:
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        else:
            k = rng.randint(1, n)
            A = mat_mul([[rng.randint(-3, 3) for _ in range(k)]
                         for _ in range(m)],
                        [[rng.randint(-4, 4) for _ in range(n)]
                         for _ in range(k)])
        expect = _invariant_factors(_diagonal(_diagonalize(A, n)))
        assert smith_invariants(A, n) == expect
        wide = [list(col) for col in zip(*A)]
        assert smith_invariants(wide, m) == expect


def test_smith_invariants_of_v4_top_oracle_differential():
    # E_4 of V4 is 256 x 64; diagonalizing it without the Hermite step
    # does not finish in minutes
    ctx = get_context("V4")
    res = IntegralResolution(ctx.ring, ctx.ring.index_of("2a"))
    res.extend_to(4)
    i = ctx.ring.index_of("2b")
    E4 = evaluation_matrix(res, 4, i)
    assert (len(E4), len(E4[0])) == (256, 64)
    invs = smith_invariants(E4, 64)
    # Ext^3 has no free part: r_3 + r_4 = m_3
    assert len(invs) == 64 - len(smith_invariants(evaluation_matrix(res, 3, i),
                                                  16))
    # the number of invariant factors divisible by p is the rank drop mod p
    for p in (2, 3):
        reduced = [[x % p for x in row] for row in E4]
        assert sum(d % p == 0 for d in invs) == len(invs) - fp_rank(reduced, p)


def test_smith_alternates_row_and_column_hermite_passes(monkeypatch):
    # no unit pivot; the row Hermite form [[2, 1], [0, 2]] is not diagonal,
    # so the columns' Hermite form must follow before the rows clear
    from burnside import intlinalg

    passes = []
    hermite = intlinalg._hermite_echelon

    def counted(rows):
        passes.append(None)
        return hermite(rows)

    monkeypatch.setattr(intlinalg, "_hermite_echelon", counted)
    assert sparse_smith_invariants([{0: 2, 1: 3}, {1: 2}], 2) == [1, 4]
    assert len(passes) > 1


def test_smith_of_wide_matrices():
    # fewer rows than columns: the columns are taken as the rows
    assert sparse_smith_invariants([{0: 4, 2: 6}, {1: 6, 2: 10}], 3) == [2, 2]
    assert sparse_smith_invariants([{0: 2}, {1: 3}], 3) == [1, 6]
    assert sparse_smith_invariants([{0: 6, 1: 10, 2: 15}], 3) == [1]
    assert sparse_smith_invariants([{1: -4, 3: 6}], 5) == [2]


def test_smith_of_empty_and_zero_matrices():
    assert sparse_smith_invariants([], 0) == []
    assert sparse_smith_invariants([], 3) == []
    assert sparse_smith_invariants([{}, {}], 0) == []
    assert sparse_smith_invariants([{}, {}], 2) == []
    assert sparse_smith_invariants([{}], 4) == []
    assert _invariant_factors([]) == []
    # zeros are dropped, signs too, and divisibility is restored
    assert _invariant_factors([0, -4, 6, 0]) == [2, 12]


# mostly zeros; the nonzeros pair up into leads that do not divide each
# other (2, 3), (4, 6), (6, 10), (9, 15), so Bezout steps run
SPARSE_ENTRIES = [0] * 8 + [1, -1, 2, -3, 4, 6, -6, 9, 10, -15]


@st.composite
def sparse_matrix(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    row = st.lists(st.sampled_from(SPARSE_ENTRIES), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m)), n


@settings(max_examples=150, deadline=None)
@given(sparse_matrix())
def test_sparse_kernel_is_a_saturated_basis(data):
    A, n = data
    ker = kernel_of_columns(A, n)
    for x in ker:
        assert len(x) == n
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in A)
    assert len(ker) == n - rank(A, n)
    # saturated: Z^n / span(ker) is free, so the basis spans every
    # integer kernel vector, not a sublattice of finite index
    if ker:
        assert set(smith_invariants(ker, n)) == {1}
    columns = [{i: row[j] for i, row in enumerate(A) if row[j]}
               for j in range(n)]
    assert kernel_of_sparse_columns(columns) == ker


@settings(max_examples=150, deadline=None)
@given(sparse_matrix())
def test_sparse_hermite_basis_is_reduced(data):
    A, n = data
    basis = lattice_span_basis(A)
    leads = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert leads == sorted(set(leads))
    for t, (row, lead) in enumerate(zip(basis, leads)):
        assert row[lead] > 0
        assert all(0 <= other[lead] < row[lead] for other in basis[:t])
    assert len(basis) == rank(A, n)
    assert lattice_span_basis(basis) == basis


# no entry is +-1, so the unit pass finds no pivot and the Hermite step
# does all the work
UNIT_FREE_ENTRIES = [0] * 8 + [2, -3, 4, 6, -6, 9, 10, -15]


@st.composite
def unit_free_matrix(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    row = st.lists(st.sampled_from(UNIT_FREE_ENTRIES), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m)), n


@st.composite
def unit_rich_matrix(draw):
    """A signed permutation block beside sparse noise, columns shuffled.

    A pivot in row r only adds row r to other rows, and row r is zero in
    every other row's permutation column, so each row keeps its own unit
    whatever is pivoted first: the unit pass alone finds every factor.
    """
    k, extra = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    noise = st.lists(st.sampled_from(SPARSE_ENTRIES), min_size=extra,
                     max_size=extra)
    rows = [[sign if j == i else 0 for j in range(k)] + draw(noise)
            for i, sign in enumerate(signs)]
    order = draw(st.permutations(range(k + extra)))
    return [[row[j] for j in order] for row in rows], k + extra


def _sparse_rows(A):
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def _check_smith_core(A, n):
    """sparse_smith_invariants against plain diagonalization, in both
    orientations, leaving the rows it is given as they were."""
    expect = _invariant_factors(_diagonal(_diagonalize(A, n))) if A else []
    for rows, ncols in ((_sparse_rows(A), n),
                        (_sparse_rows([list(c) for c in zip(*A)]), len(A))):
        before = [dict(row) for row in rows]
        assert sparse_smith_invariants(rows, ncols) == expect
        assert rows == before


@settings(max_examples=150, deadline=None)
@given(sparse_matrix())
def test_sparse_smith_core_matches_diagonalize(data):
    _check_smith_core(*data)


@settings(max_examples=100, deadline=None)
@given(unit_free_matrix())
def test_sparse_smith_core_without_units(data):
    A, n = data
    assert _eliminate_units(_sparse_rows(A))[0] == 0
    _check_smith_core(A, n)


@settings(max_examples=100, deadline=None)
@given(unit_rich_matrix())
def test_sparse_smith_core_on_units_alone(data):
    A, n = data
    units, core, pivots = _eliminate_units(_sparse_rows(A))
    assert (units, core) == (len(A), [])
    assert sorted(pivots) == list(range(len(A)))
    _check_smith_core(A, n)


def test_kernel_edge_cases():
    # no rows: every unit vector is in the kernel
    assert kernel_of_columns([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # all-zero columns are unit kernel vectors
    assert kernel_of_columns([[0, 2, 0], [0, 3, 0]], 3) == [[1, 0, 0],
                                                            [0, 0, 1]]
    # no columns: nothing to combine
    assert kernel_of_columns([[], []], 0) == []
    assert kernel_of_sparse_columns([]) == []
    assert kernel_of_sparse_columns([{}, {0: 4}]) == [[1, 0]]
    # the leads 4 and 6 do not divide: a Bezout step gives (-3, 2)
    assert kernel_of_columns([[4, 6]], 2) == [[-3, 2]]
    assert lattice_span_basis([]) == []
    assert lattice_span_basis([[0, 0], [0, 0]]) == []
    assert lattice_span_basis([[4, 6], [6, 9]]) == [[2, 3]]


# sha256 of json.dumps of `kernel_of_columns` of the stage-4 Z-matrix
# (80 x 320) of each V4 oracle resolution, b_k times each column of d_3
V4_STAGE4_KERNELS = {
    "1": "5439050f458240ecde9ccaa959f8e189abdbf751bbc81e0798323ad5fa8365e0",
    "2a": "44a405b5c281b904203eec45d338d58ccb2e221bf82dbf9fc658e67c93a951a1",
    "2b": "815d5ceef75fc02879e7d88eaddcfc8537332c3ee26f1b08da7674811bbdb03f",
    "2c": "801551c04aefecd59b0a33d4d695f72b6a95b5525a879a6527caf7815431f8d0",
    "4": "d96b9bb5aeaa615e4dbef541599ea5e618656ddd84e55ba88281b05b58dd0c1d",
}


@pytest.mark.parametrize("label", V4_STAGE4_KERNELS)
def test_v4_stage4_oracle_kernel_is_pinned(label):
    ring = get_context("V4").ring
    res = IntegralResolution(ring, ring.index_of(label))
    res.extend_to(4)
    # column t * n + k is b_k times column t of d_3
    columns = r_multiples(ring, dense_diffs(res)[2])
    A = [list(row) for row in zip(*columns)]
    assert (len(A), len(A[0])) == (80, 320)
    kernel = kernel_of_columns(A, 320)
    assert len(kernel) == res.ranks[4] == 256
    digest = hashlib.sha256(json.dumps(kernel).encode()).hexdigest()
    assert digest == V4_STAGE4_KERNELS[label]
    # exactness with saturation: the R-multiples of the columns of d_4
    # span that whole kernel lattice
    assert (lattice_span_basis(r_multiples(ring, dense_diffs(res)[3]))
            == lattice_span_basis(kernel))



# sha256 of json.dumps of each routine's results over the seeded corpus of
# `test_integer_elimination_is_pinned_on_a_seeded_corpus`
CORPUS_DIGESTS = {
    "kernel_of_columns":
        "946a9a7f84c5ba30d8595230b74239f31342c1eccee6a068c0c6fb399ce1a123",
    "lattice_span_basis":
        "0f3a467b0f4da0578f96ab3a2b94f011f9d37bcc77e8b07261f8ef173c232291",
    "sparse_smith_invariants":
        "cb36082ed253db73d2f08bc6c313cd91bf1ee59e93b45ab90cb31151ba4b23f0",
}


def test_integer_elimination_is_pinned_on_a_seeded_corpus():
    # kernels, Hermite bases and Smith forms come out of unimodular steps
    # whose order fixes every entry; 300 sparse matrices over
    # SPARSE_ENTRIES hit lead clashes that do not divide (Bezout steps)
    # throughout, so any change to the elimination that alters an entry
    # shows up here
    rng = random.Random(18)
    corpus = []
    for _ in range(300):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        corpus.append(([[rng.choice(SPARSE_ENTRIES) for _ in range(n)]
                        for _ in range(m)], n))
    results = {
        "kernel_of_columns": [kernel_of_columns(A, n) for A, n in corpus],
        "lattice_span_basis": [lattice_span_basis(A) for A, _ in corpus],
        "sparse_smith_invariants": [
            sparse_smith_invariants(_sparse_rows(A), n) for A, n in corpus],
    }
    digests = {name: hashlib.sha256(json.dumps(value).encode()).hexdigest()
               for name, value in results.items()}
    assert digests == CORPUS_DIGESTS
