import random

import pytest

from burnside.fplinalg import (FpEchelon, FpLaneEchelon, FpLanes, Gf2Echelon,
                               fp_rank, gf2_kernel_of_columns)


def test_fp_rank_and_nullspace():
    A = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    assert fp_rank(A, 5) == 2
    ns = FpLanes(5).nullspace(A, 3)
    assert len(ns) == 1
    x = ns[0]
    for row in A:
        assert sum(r * v for r, v in zip(row, x)) % 5 == 0


def test_fp_echelon_membership():
    ech = FpEchelon(7)
    assert ech.insert([1, 2, 3])
    assert ech.insert([0, 1, 1])
    assert not ech.insert([1, 3, 4])
    assert ech.dim == 2
    assert ech.contains([2, 4, 6])


def test_gf2_echelon():
    ech = Gf2Echelon()
    assert ech.insert(0b101)
    assert ech.insert(0b011)
    assert not ech.insert(0b110)
    assert ech.dim == 2
    assert ech.reduce(0b101) == 0


def test_gf2_kernel_matches_generic():
    rng = random.Random(3)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        cols = []
        for j in range(ncols):
            v = 0
            for i in range(nrows):
                if rows[i][j]:
                    v |= 1 << i
            cols.append(v)
        combos = gf2_kernel_of_columns(cols)
        assert len(combos) == ncols - fp_rank(rows, 2)
        for combo in combos:
            acc = 0
            for j in range(ncols):
                if (combo >> j) & 1:
                    acc ^= cols[j]
            assert acc == 0


def _pack(values, width):
    return sum(x << (k * width) for k, x in enumerate(values))


def _unpack(v, width, n):
    return [(v >> (k * width)) & ((1 << width) - 1) for k in range(n)]


@pytest.mark.parametrize("p", [3, 5, 13, 17, 31])
def test_fp_lanes_reduce_every_lane(p):
    lanes = FpLanes(p)
    assert (lanes.width == 8) == (p <= 13)
    assert lanes.limit >= p * (p - 1)
    rng = random.Random(p)
    for _ in range(20):
        values = [rng.randint(0, lanes.limit) for _ in range(rng.randint(0, 40))]
        reduced = lanes.reduce(_pack(values, lanes.width))
        assert _unpack(reduced, lanes.width, len(values)) == [
            x % p for x in values]


@pytest.mark.parametrize("p", [3, 7, 17])
def test_fp_lane_echelon_matches_list_echelon(p):
    rng = random.Random(p)
    lanes = FpLanes(p)
    for _ in range(20):
        n = rng.randint(1, 7)
        packed, generic = FpLaneEchelon(lanes), FpEchelon(p)
        for _ in range(rng.randint(1, 9)):
            v = [rng.randrange(p) for _ in range(n)]
            assert packed.insert(_pack(v, lanes.width)) == generic.insert(v)
        assert packed.dim == generic.dim
        for v in generic.basis():
            assert packed.reduce(_pack(v, lanes.width)) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 17])
def test_packed_nullspace_and_solve_agree_with_list_rank(p):
    rng = random.Random(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(0, 7)
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        rank = fp_rank(rows, p)
        kernel = FpLanes(p).nullspace(rows, ncols)
        assert len(kernel) == ncols - rank
        assert fp_rank(kernel, p) == len(kernel)
        for x in kernel:
            assert all(sum(a * c for a, c in zip(row, x)) % p == 0
                       for row in rows)
