import random

import pytest

from burnside.fplinalg import fp_rank
from burnside.intlinalg import (_diagonalize, _invariant_factors,
                                kernel_of_columns, mat_mul, quotient_structure,
                                rank, smith_invariants, solve_integer, xgcd)
from burnside.oracle import IntegralResolution
from util import get_context


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
        expect = _invariant_factors(_diagonalize(A, n))
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
    E4 = res.evaluation_matrix(4, i)
    assert (len(E4), len(E4[0])) == (256, 64)
    invs = smith_invariants(E4, 64)
    # Ext^3 has no free part: r_3 + r_4 = m_3
    assert len(invs) == 64 - len(smith_invariants(res.evaluation_matrix(3, i),
                                                  16))
    # the number of invariant factors divisible by p is the rank drop mod p
    for p in (2, 3):
        reduced = [[x % p for x in row] for row in E4]
        assert sum(d % p == 0 for d in invs) == len(invs) - fp_rank(reduced, p)
