import random

import pytest
from hypothesis import given, settings, strategies as st

from burnside.fplinalg import (FpLaneEchelon, FpLanes, Gf2Echelon,
                               fp_lane_kernel_of_columns,
                               gf2_kernel_of_columns, pack, unpack)
from fplinalg_reference import FpEchelon, fp_rank, nullspace


def test_fp_rank_and_nullspace():
    A = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    assert fp_rank(A, 5) == 2
    ns = nullspace(A, 3, 5)
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
        kernel = nullspace(rows, ncols, p)
        assert len(kernel) == ncols - rank
        assert fp_rank(kernel, p) == len(kernel)
        for x in kernel:
            assert all(sum(a * c for a, c in zip(row, x)) % p == 0
                       for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 257]), st.data())
def test_pack_matches_the_generator_form(p, data):
    # byte lanes (p <= 13) take the `bytes` path, the rest the shifts;
    # coordinates may be negative or exceed p, and reduce mod p either way
    width = data.draw(st.sampled_from(sorted({1, FpLanes(p).width})
                                      if p == 2 else [FpLanes(p).width]))
    coords = data.draw(st.lists(st.integers(-3 * p, 3 * p), max_size=70))
    packed = pack(coords, p, width)
    assert packed == sum((c % p) << (k * width) for k, c in enumerate(coords))
    n = data.draw(st.integers(0, len(coords) + 3))
    residues = [c % p for c in coords] + [0] * 3
    assert unpack(packed, n, width) == residues[:n]
    # lanes above the first n never leak into the unpacked ones
    assert unpack(packed | 1 << (n * width), n, width) == residues[:n]


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_kernels_come_in_echelon_form_by_top_lane(p):
    # kernel vector j ends in coefficient 1 at the lane of a column that
    # depends on the columns before it, which the resolutions rely on
    rng = random.Random(10 + p)
    lanes = FpLanes(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 9)
        cols = [[rng.randrange(p) if rng.random() < 0.5 else 0
                 for _ in range(nrows)] for _ in range(ncols)]
        dependent = [j for j in range(ncols)
                     if fp_rank(cols[:j + 1], p) == fp_rank(cols[:j], p)]
        if p == 2:
            kernel = gf2_kernel_of_columns([_pack(c, 1) for c in cols])
            width = 1
        else:
            kernel = fp_lane_kernel_of_columns(
                [_pack(c, lanes.width) for c in cols], lanes)
            width = lanes.width
        tops = [(v.bit_length() - 1) // width for v in kernel]
        assert tops == dependent
        assert all(v >> (t * width) == 1 for v, t in zip(kernel, tops))
