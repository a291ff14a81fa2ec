import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from burnside.bring import BRing
from burnside.cli import main
from burnside.errors import InvariantViolation, ResolutionTooLarge
from burnside.exttor import prime_factors
from burnside.fplinalg import pack
from burnside.modp import ModPAlgebra, blocks
from burnside.resolution import (MinimalResolution, _square_zero_betti,
                                 betti_growth_certificate, betti_sequence,
                                 ext_dims_pair, shared_block)
from fplinalg_reference import fp_rank
from modp_reference import _mul, assert_pairs_table, block_by_kernel, dense
from resolution_reference import (reduced_differential, reduced_rank,
                                  tor_dims_pair)
from util import get_context


def _block(name, p, class_index=0):
    return blocks(get_context(name).algebra(p))[class_index]


def test_betti_square_zero_closed_form():
    # when M^2 = 0 each syzygy doubles per generator of M: b_l = e^l
    block = _block("C4", 2)
    assert block.m_squared_dim() == 0
    assert betti_sequence(block, 8) == [2 ** l for l in range(9)]


def test_betti_dual_numbers_block():
    block = _block("S3", 2)
    assert betti_sequence(block, 12) == [1] * 13


def test_betti_one_dimensional_block():
    block = _block("S3", 3, class_index=1)
    assert betti_sequence(block, 5) == [1, 0, 0, 0, 0, 0]


def test_betti_v4_window():
    assert betti_sequence(_block("V4", 2), 6) == [1, 3, 8, 21, 55, 144, 377]


def test_betti_d4_window():
    assert betti_sequence(_block("D4", 2), 4) == [1, 5, 23, 105, 479]


def test_betti_odd_prime_block():
    block = _block("S3", 3)  # the {1, 3} class block at p = 3
    assert block.p == 3
    assert betti_sequence(block, 10) == [1] * 11


def test_stage_inequality_on_computed_windows():
    # b_{l+1} >= (dim S - dim M^2) b_l - (dim M) b_{l-1}
    for name, p, L in [("V4", 2, 6), ("D4", 2, 4), ("Q8", 2, 4), ("C4", 2, 8)]:
        block = _block(name, p)
        b = betti_sequence(block, L)
        A = block.dim - block.m_squared_dim()
        B = block.dim - 1
        for l in range(1, L):
            assert b[l + 1] >= A * b[l] - B * b[l - 1]


def test_growth_certificates():
    windows = {"C4": 8, "V4": 6, "D4": 5, "Q8": 5}
    for name, window in windows.items():
        block = _block(name, 2)
        res = MinimalResolution(block)
        cert = betti_growth_certificate(block, res)
        assert cert is not None
        assert cert.ratio > 1
        # certificate agrees with every exactly computed value
        res.extend_to(window)
        for l in range(max(cert.start, 1), res.computed_degree):
            assert res.betti[l + 1] > res.betti[l]


def test_no_certificate_for_bounded_blocks():
    block = _block("S3", 2)
    res = MinimalResolution(block)
    assert betti_growth_certificate(block, res, probe_limit=6) is None


def test_resolution_budget_guard():
    block = _block("V4", 2)
    res = MinimalResolution(block, max_matrix_bits=2000)
    with pytest.raises(ResolutionTooLarge):
        res.extend_to(12)


def test_ext_dims_pair():
    ctx = get_context("S3")
    a2 = ctx.algebra(2)
    assert ext_dims_pair(a2, 0, 1, 6) == [1] * 7
    assert ext_dims_pair(a2, 0, 2, 6) == [0] * 7
    assert ext_dims_pair(a2, 0, 0, 0) == [1]
    a4 = get_context("C4").algebra(2)
    assert ext_dims_pair(a4, 0, 0, 6) == [2 ** l for l in range(7)]


def test_tor_dims_match_ext_dims():
    for name, p in [("S3", 2), ("S3", 3), ("C4", 2), ("C6", 2), ("C6", 3)]:
        ctx = get_context(name)
        algebra = ctx.algebra(p)
        n = ctx.ring.n
        for i in range(n):
            for j in range(n):
                assert (tor_dims_pair(algebra, i, j, 6)
                        == ext_dims_pair(algebra, i, j, 6))


def test_minimality_reduced_differentials_vanish():
    ctx = get_context("C4")
    block = blocks(ctx.algebra(2))[0]
    res = MinimalResolution(block)
    res.extend_to(5)
    for l in range(1, 6):
        mat = reduced_differential(res, l)
        assert all(all(x == 0 for x in row) for row in mat)


def test_bounded_verdict_matches_betti_behavior():
    # tor_bounded blocks have eventually constant (or zero) Betti numbers;
    # unbounded ones strictly increase from some degree on
    from burnside.exttor import prime_factors
    for name in ("S3", "C4", "C6", "V4", "D4", "Q8", "S4"):
        ctx = get_context(name)
        for p in prime_factors(ctx.group_order):
            for block in blocks(ctx.algebra(p)):
                bounded = block.invariants()["tor_bounded"]
                window = 8 if block.dim <= 2 else 4
                b = betti_sequence(block, window)
                if bounded:
                    assert b[2:] == [b[2]] * (len(b) - 2), (name, p)
                else:
                    res = _resolution_cache_for(block)
                    cert = betti_growth_certificate(block, res)
                    assert cert is not None and cert.start <= 8, (name, p)
                    increasing_from = next(
                        l for l in range(len(b) - 1)
                        if all(b[t + 1] > b[t] for t in range(l, len(b) - 1)))
                    assert increasing_from <= 8, (name, p)


def _resolution_cache_for(block):
    from burnside.resolution import _resolution_cache
    return _resolution_cache(block)


def test_generic_ring_resolution():
    # dim-2 block of a synthetic basis behaves like dual numbers
    ring = BRing(["a", "b"], [[2, 0], [1, 1]])
    block = blocks(ModPAlgebra(ring, 2))[0]
    assert block.dim == 2
    assert betti_sequence(block, 6) == [1] * 7


def test_square_zero_closed_form_higher_embedding_dim():
    # synthetic one-class ring whose block has M^2 = 0 and e = 3: the
    # syzygies triple every step, b_l = 3^l
    ring = BRing(["a", "b", "c", "d"],
                 [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [1, 1, 1, 1]])
    algebra = ModPAlgebra(ring, 2)
    assert [len(c) for c in algebra.classes] == [4]
    block = blocks(algebra)[0]
    assert block.m_squared_dim() == 0
    assert block.invariants()["m_mod_m2_dim"] == 3
    assert betti_sequence(block, 6) == [3 ** l for l in range(7)]


# one non-semisimple block per prime, for the packed-arithmetic properties
PACKED_BLOCKS = {2: "V4", 3: "C9", 5: "C25", 13: "C169", 17: "D17"}


def _unpack(ops, flat, n_lanes):
    return [(flat >> (k * ops.width)) & ops.lane_mask for k in range(n_lanes)]


def _pairs(coords):
    """The nonzero (m, c) of a coordinate list, the form of a block table."""
    return [(m, c) for m, c in enumerate(coords) if c]


def _bumped(pairs, m, p):
    """A new table entry: `pairs` with coordinate m raised by 1 mod p."""
    coords = dict(pairs)
    coords[m] = (coords.get(m, 0) + 1) % p
    return sorted((k, c) for k, c in coords.items() if c)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PACKED_BLOCKS)), st.booleans(), st.data())
def test_packed_column_matches_mul_coords(p, random_table, data):
    block = _block(PACKED_BLOCKS[p], p)
    s = block.dim
    # p - 1 often, so that products fill their lanes to the brim
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    if random_table:
        # arbitrary structure constants fill the lanes far more than the
        # real blocks do, where e_0 is the unit and most products vanish;
        # each entry is the pairs of a drawn coordinate list
        block = dataclasses.replace(block, mult=[
            [_pairs(data.draw(st.lists(entry, min_size=s, max_size=s)))
             for _ in range(s)] for _ in range(s)])
    ops = MinimalResolution(block).ops
    n = data.draw(st.integers(1, 5))
    # `column` multiplies vectors of M.F only: lane 0 of each component,
    # the residue-field entry, is 0
    comps = [[0] + data.draw(st.lists(entry, min_size=s - 1,
                                      max_size=s - 1))
             for _ in range(n)]
    gen = pack([c for comp in comps for c in comp], p, ops.width)
    for b in range(s):
        eb = [1 if t == b else 0 for t in range(s)]
        expected = [c for comp in comps
                    for c in _mul(block.mult, p, comp, eb)]
        col = ops.column(gen, ops.lead_mask(n), b)
        assert _unpack(ops, col, n * s) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PACKED_BLOCKS)), st.data())
def test_packed_kernel_of_columns(p, data):
    ops = MinimalResolution(_block(PACKED_BLOCKS[p], p)).ops
    nrows = data.draw(st.integers(1, 8))
    ncols = data.draw(st.integers(1, 9))
    entry = st.integers(0, p - 1)
    cols = [data.draw(st.lists(entry, min_size=nrows, max_size=nrows))
            for _ in range(ncols)]
    combos = ops.kernel_of_columns([pack(c, p, ops.width) for c in cols])
    rows = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    assert len(combos) == ncols - fp_rank(rows, p)
    for combo in combos:
        coeffs = _unpack(ops, combo, ncols)
        assert any(coeffs)
        for row in rows:
            assert sum(c * x for c, x in zip(coeffs, row)) % p == 0


@pytest.mark.parametrize("p", sorted(PACKED_BLOCKS))
def test_lane_table_packs_the_reference_table(p):
    # for each b, the terms a >= 1 with e_a e_b != 0: lane a's shift and
    # the dense coordinates of the kernel reference's e_a e_b, packed
    block = _block(PACKED_BLOCKS[p], p)
    _, mult = block_by_kernel(block.algebra, block.class_index,
                              block.idempotent)
    ops = MinimalResolution(block).ops
    s, w = block.dim, ops.width
    coords = [[dense(mult[a][b], s) for b in range(s)] for a in range(s)]
    assert ops.table == [[(a * w, pack(coords[a][b], p, w))
                          for a in range(1, s) if any(coords[a][b])]
                         for b in range(s)]


# the dim-3 blocks have M^2 = 0 and dim M = 2, so b_l = 2^l; the dim-2
# blocks are dual numbers, so b_l = 1
@pytest.mark.parametrize("name, p, i, j, dim, expected", [
    ("C49", 7, 0, 2, 3, [2 ** l for l in range(7)]),
    ("C121", 11, 0, 2, 3, [2 ** l for l in range(7)]),
    ("C169", 13, 0, 2, 3, [2 ** l for l in range(7)]),
    ("C17", 17, 0, 1, 2, [1] * 9),
    ("C19", 19, 0, 1, 2, [1] * 9),
    ("D17", 17, 0, 2, 2, [1] * 7),
])
def test_betti_windows_at_larger_primes(name, p, i, j, dim, expected):
    algebra = get_context(name).algebra(p)
    assert shared_block(algebra, i, j).dim == dim
    degree = len(expected) - 1
    assert ext_dims_pair(algebra, i, j, degree) == expected
    assert tor_dims_pair(algebra, i, j, degree) == expected


def test_budget_message_names_degree_and_cost():
    res = MinimalResolution(_block("V4", 2), max_matrix_bits=2000)
    with pytest.raises(ResolutionTooLarge,
                       match=r"reached degree \d+; stage \d+ needs .*"
                             r"matrix_cost \d+ > max_matrix_bits 2000"):
        res.extend_to(12)


def test_reduced_rank_counts_residue_entries():
    res = MinimalResolution(_block("S3", 3))
    res.extend_to(1)
    assert reduced_rank(res, 1) == 0
    broken = MinimalResolution(_block("S3", 3))
    broken.extend_to(1)
    broken.differentials[0] = [pack([2, 1], 3, broken.ops.width)]
    assert reduced_differential(broken, 1) == [[2]]
    assert reduced_rank(broken, 1) == 1


def _residual_betti(block, degree):
    """Betti numbers by the residual algorithm: M.K spanned from every
    e_1..e_{s-1}, each kernel vector reduced modulo M.K and the residuals
    found so far, and each nonzero residual kept as a generator."""
    ops = MinimalResolution(block).ops
    s = block.dim
    betti = [1]
    kernel = [1 << (a * ops.width) for a in range(1, s)]
    for l in range(degree):
        mask = ops.lead_mask(betti[-1])
        span = ops.echelon()
        for kappa in kernel:
            for a in range(1, s):
                span.insert(ops.column(kappa, mask, a))
        gens = []
        for kappa in kernel:
            residual = span.reduce(kappa)
            if residual:
                gens.append(residual)
                span.insert(residual)
        betti.append(len(gens))
        if l + 1 < degree:
            kernel = ops.kernel_of_columns(
                [ops.column(g, mask, a) for g in gens for a in range(s)])
    return betti


RESIDUAL_CORPUS = [
    ("V4", 2, 6), ("D4", 2, 4), ("Q8", 2, 4), ("C4", 2, 7), ("C8", 2, 5),
    ("S3", 2, 6), ("S3", 3, 6), ("A4", 2, 4), ("S4", 2, 3), ("S4", 3, 5),
    ("C6", 3, 6), ("C12", 2, 4), ("C12", 3, 5), ("D6", 2, 4),
    ("(1 2),(3 4),(5 6)", 2, 3), ("C9", 3, 7), ("C27", 3, 4),
    ("(1 2 3),(4 5 6)", 3, 4), ("C25", 5, 5), ("D5", 5, 6), ("C10", 5, 6),
    ("C49", 7, 4), ("D17", 17, 5),
]


@pytest.mark.parametrize("name, p, degree", RESIDUAL_CORPUS)
def test_betti_numbers_match_the_residual_algorithm(name, p, degree):
    for block in blocks(get_context(name).algebra(p)):
        res = MinimalResolution(block)
        res.extend_to(degree)
        assert res.betti == _residual_betti(block, degree), (name, p)


@pytest.mark.parametrize("name, p, degree", [
    ("V4", 2, 5), ("D4", 2, 3), ("Q8", 2, 4), ("C9", 3, 5),
    ("(1 2 3),(4 5 6)", 3, 3), ("C25", 5, 4), ("D17", 17, 4)])
def test_generators_form_a_basis_of_k_mod_mk(name, p, degree):
    block = _block(name, p)
    res = MinimalResolution(block)
    ops, s = res.ops, block.dim
    for l in range(degree):
        if l:
            res._compute_top_kernel()
        kernel = list(res._kernel)
        res.extend_to(l + 1)
        mask = ops.lead_mask(res.betti[l])
        # M.K from every basis element of M, not only the multipliers
        span = ops.echelon()
        for kappa in kernel:
            for a in range(1, s):
                span.insert(ops.column(kappa, mask, a))
        mk_dim = span.dim
        gens = res.differentials[l]
        assert all(span.insert(g) for g in gens), (name, l)
        assert not any(span.reduce(kappa) for kappa in kernel), (name, l)
        assert span.dim == len(kernel) == mk_dim + len(gens)


# the e_a that survive modulo M^2 + Ann(M); square-zero blocks have none
MULTIPLIER_COUNTS = {"V4": 2, "D4": 4, "Q8": 2, "(1 2 3),(4 5 6)": 3,
                     "C4": 0, "C9": 0}


@pytest.mark.parametrize("name, p, count, dim_m", [
    ("V4", 2, 3, 4), ("D4", 2, 5, 7), ("Q8", 2, 4, 5),
    ("(1 2 3),(4 5 6)", 3, 4, 5), ("C4", 2, 2, 2), ("C9", 3, 2, 2)])
def test_multipliers_are_the_generators_of_m_mod_m_squared(name, p, count,
                                                            dim_m):
    # count generators of M modulo M^2; the multipliers are those of them
    # that stay independent modulo M^2 + Ann(M)
    block = _block(name, p)
    res = MinimalResolution(block)
    assert block.dim - 1 == dim_m
    assert len(block.m_generators) == count
    assert res.multipliers == block.multipliers
    assert len(res.multipliers) == MULTIPLIER_COUNTS[name]
    assert set(res.multipliers) <= set(block.m_generators)
    assert count == block.invariants()["m_mod_m2_dim"]
    assert block.m_squared_dim() == dim_m - count


@pytest.mark.parametrize("name, p, entry", [
    ("V4", 2, (1, 2, 0)), ("C9", 3, (1, 1, 0))])
def test_corrupted_product_raises(name, p, entry):
    # e_a e_b gains a unit coordinate, so M.K leaves K; e_b e_a, the same
    # list in the block's table, stays as it was
    block = _block(name, p)
    a, b, m = entry
    mult = [list(row) for row in block.mult]
    mult[a][b] = _bumped(mult[a][b], m, p)
    broken = dataclasses.replace(block, mult=mult)
    with pytest.raises(InvariantViolation, match="pivot off the top lanes"):
        MinimalResolution(broken).extend_to(4)


@pytest.mark.parametrize("name, p, a, left", [
    ("V4", 2, 2, True), ("V4", 2, 0, False), ("C9", 3, 1, False),
    ("C9", 3, 2, True)])
def test_idempotent_that_is_not_the_identity_raises(name, p, a, left):
    # e_0 e_a (or e_a e_0) gains a coordinate, so the column of e_0 is
    # no longer the generator itself; the other side, the same list in the
    # block's table, stays as it was
    block = _block(name, p)
    mult = [list(row) for row in block.mult]
    if left:
        mult[0][a] = _bumped(mult[0][a], block.dim - 1, p)
    else:
        mult[a][0] = _bumped(mult[a][0], block.dim - 1, p)
    broken = dataclasses.replace(block, mult=mult)
    with pytest.raises(InvariantViolation, match="e_0 is not the identity"):
        MinimalResolution(broken).extend_to(4)


def _stage_kernels(block, degree):
    """(resolution, kernel of d_l, n_l) for l = 0..degree-1, where the
    stage-0 kernel is M inside F_0."""
    res = MinimalResolution(block)
    for l in range(degree):
        if l:
            res._compute_top_kernel()
        kernel = list(res._kernel)
        yield res, kernel, res.betti[l]
        res.extend_to(l + 1)


def _mk_pivots(ops, kernel, n, multipliers):
    span = ops.echelon()
    mask = ops.lead_mask(n)
    for kappa in kernel:
        for a in multipliers:
            span.insert(ops.column(kappa, mask, a))
    return span.rows.keys()


@pytest.mark.parametrize("name, p, degree", RESIDUAL_CORPUS)
def test_block_tables_are_shared_sorted_pairs(name, p, degree):
    for block in blocks(get_context(name).algebra(p)):
        assert_pairs_table(block)


@pytest.mark.parametrize("name, p, degree", RESIDUAL_CORPUS)
def test_multipliers_span_m_k(name, p, degree):
    for block in blocks(get_context(name).algebra(p)):
        for res, kernel, n in _stage_kernels(block, degree):
            assert (_mk_pivots(res.ops, kernel, n, res.multipliers)
                    == _mk_pivots(res.ops, kernel, n, range(1, block.dim)))


@pytest.mark.parametrize("name, p, degree", RESIDUAL_CORPUS)
def test_socle_kills_every_kernel(name, p, degree):
    for block in blocks(get_context(name).algebra(p)):
        lanes = block.algebra.lanes
        for res, kernel, n in _stage_kernels(block, degree):
            mask = res.ops.lead_mask(n)
            for x in block.socle:
                for kappa in kernel:
                    prod = 0
                    for a, c in enumerate(x):
                        if c:
                            col = res.ops.column(kappa, mask, a)
                            prod = (prod ^ col if p == 2
                                    else lanes.reduce(prod + c * col))
                    assert prod == 0, (name, p)


@pytest.mark.parametrize("name, p", [("V4", 2), ("C9", 3), ("S3", 2)])
def test_kernel_vector_with_a_unit_entry_raises(name, p):
    # Ann(M) kills K only if K lies in M.F; a kernel vector with a
    # residue entry is caught before M.K is built without Ann(M)
    res = MinimalResolution(_block(name, p))
    res._kernel = [res._kernel[0] | 1] + res._kernel[1:]
    with pytest.raises(InvariantViolation,
                       match="differential entry outside the maximal ideal"):
        res.extend_to(1)


@pytest.mark.parametrize("name, p, degree", RESIDUAL_CORPUS)
def test_early_stop_keeps_the_generators_of_the_full_m_k(name, p, degree):
    # M.K stops once it fills M^2.F; the generators are those read off
    # an M.K built from every product e_a . kappa, a = 1..s-1
    for block in blocks(get_context(name).algebra(p)):
        picked = []
        for res, kernel, n in _stage_kernels(block, degree):
            pivots = _mk_pivots(res.ops, kernel, n, range(1, block.dim))
            picked.append([kappa for kappa in kernel
                           if res.ops.top_lane(kappa) not in pivots])
        assert res.differentials == picked, (name, p)


def _certified_stages(block, degree, certify=True):
    """Resolve the block to the degree and return, per stage, its kernel,
    its number of components and whether it certified M.K = M^2.F;
    `certify=False` declines every certificate, so each stage scans."""
    res = MinimalResolution(block)
    stages = []
    certificate = res._certify_m_k

    def recording(kernel, tops, n):
        held = certify and certificate(kernel, tops, n)
        stages.append((list(kernel), n, held))
        return held

    res._certify_m_k = recording
    res.extend_to(degree)
    return res, stages


# stages 1..degree that certify M.K = M^2.F, per block that is not
# square-zero; the other stages scan the products e_a . kappa
CERTIFYING_STAGES = {
    ("V4", 2): {1, 2, 3, 4, 5, 6}, ("D4", 2): {1, 2, 3, 4},
    ("Q8", 2): {1, 2, 3, 4}, ("D6", 2): {1, 2, 3, 4},
    ("D8", 2): {1, 2, 3, 4}, ("(1 2 3),(4 5 6)", 3): {1, 2, 3, 4},
    ("S4", 2): {1, 2}, ("(1 2),(3 4),(5 6)", 2): {1},
}
CERTIFICATE_CORPUS = RESIDUAL_CORPUS + [("D8", 2, 4), ("S4", 2, 6)]


@pytest.mark.parametrize("name, p, degree", CERTIFICATE_CORPUS)
def test_certified_pivots_are_those_of_the_full_m_k(name, p, degree):
    # a stage's pivots are the top lanes of its kernel that are not those
    # of a generator; certified or scanned, they are the pivots of M.K
    # built from every product e_a . kappa, a = 1..s-1
    for block in blocks(get_context(name).algebra(p)):
        res, stages = _certified_stages(block, degree)
        assert len(stages) == degree
        for (kernel, n, held), gens in zip(stages, res.differentials):
            pivots = _mk_pivots(res.ops, kernel, n, range(1, block.dim))
            used = ({res.ops.top_lane(kappa) for kappa in kernel}
                    - {res.ops.top_lane(g) for g in gens})
            assert used == pivots, (name, p)
            if held:
                assert res._m_squared_lanes(n) == pivots, (name, p)
        certified = {l for l, (_, _, held) in enumerate(stages, 1) if held}
        if block.m_squared_dim():
            assert certified == CERTIFYING_STAGES[name, p]
        elif block.dim > 1:
            # M.K = 0 = M^2.F, certified by every component at once
            assert certified == set(range(1, degree + 1))


@pytest.mark.parametrize("name, p, degree", CERTIFICATE_CORPUS)
def test_declined_stages_scan_to_the_same_resolution(name, p, degree):
    # a resolution that scans every stage, as one whose certificates all
    # decline, has the same Betti numbers, differentials and kernels
    for block in blocks(get_context(name).algebra(p)):
        res, stages = _certified_stages(block, degree)
        scanned, scans = _certified_stages(block, degree, certify=False)
        assert not any(held for _, _, held in scans)
        assert [kernel for kernel, _, _ in stages] == [
            kernel for kernel, _, _ in scans], (name, p)
        assert res.differentials == scanned.differentials, (name, p)
        assert res.betti == scanned.betti
        assert res.kernel_dims == scanned.kernel_dims


@pytest.mark.parametrize("name, p, degree", [("S4", 2, 6),
                                             ("(1 2),(3 4),(5 6)", 2, 3)])
def test_declined_stages_match_full_elimination(name, p, degree):
    block = next(block for block in blocks(get_context(name).algebra(p))
                 if block.m_squared_dim())
    res, stages = _certified_stages(block, degree)
    assert not all(held for _, _, held in stages)
    kernels, diffs = _full_elimination_stages(block, degree)
    assert [kernel for kernel, _, _ in stages] == kernels
    assert res.differentials == diffs


@pytest.mark.parametrize("name, p", [("V4", 2), ("(1 2 3),(4 5 6)", 3)])
def test_certificate_holds_each_component_to_the_pivots_of_m_squared(name,
                                                                     p):
    # a block whose M^2 claims other pivots certifies no stage, and the
    # scan then finds M.K filling M^2.F with pivots other than the claimed
    block = _block(name, p)
    broken = dataclasses.replace(block)
    lanes = block.m_squared_lanes
    broken.m_squared_lanes = tuple(a + 1 for a in lanes)
    assert broken.m_squared_lanes[-1] < block.dim
    res = MinimalResolution(broken)
    held = []
    certificate = res._certify_m_k

    def recording(*args):
        held.append(certificate(*args))
        return held[-1]

    res._certify_m_k = recording
    with pytest.raises(InvariantViolation,
                       match="without filling M\\^2 times the free module"):
        res.extend_to(6)
    assert held == [False]


def _tampered_stage(name, p, stage, tamper, certify):
    """Resolve the block to `stage - 1`, compute the kernel of the top
    differential, replace it by `tamper(kernel, tops, block)` and run
    stage `stage`; `certify=False` declines its certificate.  Returns
    the resolution and, once the stage has run or raised, the
    certificate's verdicts."""
    block = _block(name, p)
    res = MinimalResolution(block)
    res.extend_to(stage - 1)
    res._compute_top_kernel()
    kernel = res._kernel
    res._kernel = tamper(kernel, [res.ops.top_lane(kappa) for kappa in kernel],
                         block)
    held = []
    certificate = res._certify_m_k

    def recording(*args):
        held.append(certify and certificate(*args))
        return held[-1]

    res._certify_m_k = recording
    return res, held


def _m_squared_top(kernel, tops, block):
    """Index of a kernel vector whose top lane is an M^2 lane and which is
    not the top of its component's run: the run's top part still fills
    M^2 alone, so the certificate holds without it."""
    s = block.dim
    return next(j for j in range(len(kernel) - 1)
                if tops[j] % s in block.m_squared_lanes
                and tops[j + 1] // s == tops[j] // s)


def _without_an_m_squared_top(kernel, tops, block):
    j = _m_squared_top(kernel, tops, block)
    return kernel[:j] + kernel[j + 1:]


def _with_an_m_squared_top_twice(kernel, tops, block):
    j = _m_squared_top(kernel, tops, block)
    return kernel[:j + 1] + kernel[j:]


@pytest.mark.parametrize("name, p, stage", [
    ("V4", 2, 3), ("D4", 2, 3), ("Q8", 2, 4), ("(1 2 3),(4 5 6)", 3, 3)])
def test_certified_stage_counts_the_tops_on_m_squared_lanes(name, p,
                                                             stage):
    # a certified stage's pivots are the M^2 lanes of every component;
    # a kernel lacking one of them as a top lane has fewer than
    # n . dim M^2 tops on M^2 lanes, and the stage raises
    res, held = _tampered_stage(name, p, stage, _without_an_m_squared_top,
                                certify=True)
    with pytest.raises(InvariantViolation,
                       match="M.K has a pivot off the top lanes of the kernel"):
        res.extend_to(stage)
    assert held == [True]


@pytest.mark.parametrize("name, p, stage", [
    ("V4", 2, 3), ("(1 2 3),(4 5 6)", 3, 3)])
@pytest.mark.parametrize("tamper, message", [
    (_without_an_m_squared_top,
     "M.K has a pivot off the top lanes of the kernel"),
    (_with_an_m_squared_top_twice, "minimal generator count mismatch")])
def test_scanned_stage_checks_its_pivots_and_generator_count(
        name, p, stage, tamper, message):
    # the same stages, their certificate declined: the scan finds a
    # pivot of M.K that no kernel vector tops, or, with a vector on a
    # pivot twice, one generator fewer than dim K - dim M.K
    res, held = _tampered_stage(name, p, stage, tamper, certify=False)
    with pytest.raises(InvariantViolation, match=message):
        res.extend_to(stage)
    assert held == [False]


class _CountingEchelon:
    """An echelon that counts the vectors inserted into it."""

    def __init__(self, echelon):
        self.echelon = echelon
        self.inserts = 0

    def insert(self, v):
        self.inserts += 1
        return self.echelon.insert(v)

    @property
    def rows(self):
        return self.echelon.rows

    @property
    def dim(self):
        return self.echelon.dim


# echelons built and products e_a . x inserted for M.K, and the products
# e_a . kappa of a scan without the early stop (every multiplier times
# every kernel vector)
MK_PRODUCTS = [("V4", 8, 2, 3, 11550), ("Q8", 6, 2, 3, 10080),
               ("D4", 5, 4, 13, 16092)]


@pytest.mark.parametrize("name, degree, echelons, formed, without_stop",
                         MK_PRODUCTS)
def test_m_k_products_formed(name, degree, echelons, formed, without_stop):
    block = _block(name, 2)
    res = MinimalResolution(block)
    made = []
    echelon = res.ops.echelon

    def counting():
        made.append(_CountingEchelon(echelon()))
        return made[-1]

    res.ops.echelon = counting
    res.extend_to(degree)
    assert len(made) == echelons
    assert sum(e.inserts for e in made) == formed
    assert (sum(res.kernel_dims[:degree]) * len(block.multipliers)
            == without_stop)
    # every stage of these blocks certifies M.K = M^2.F; each echelon, one
    # per distinct top part, fills M^2
    assert [e.dim for e in made] == [block.m_squared_dim()] * echelons


def _count_multiply_adds(ops):
    """Wrap `ops.column` to record, per call, the table entries it
    applies: one multiply-add each."""
    applied = []
    column = ops.column

    def counting(gen, mask, basis_idx):
        applied.append(len(ops.table[basis_idx]))
        return column(gen, mask, basis_idx)

    ops.column = counting
    return applied


# multiply-adds of `column` while resolving to the degree, over M.K's
# products and the differentials' columns: one per table entry applied
COLUMN_MULTIPLY_ADDS = [("V4", 2, 9, 25080), ("Q8", 2, 6, 6390),
                        ("D4", 2, 5, 9831), ("(1 2 3),(4 5 6)", 3, 5, 3417)]


@pytest.mark.parametrize("name, p, degree, multiply_adds",
                         COLUMN_MULTIPLY_ADDS)
def test_column_multiply_adds(name, p, degree, multiply_adds):
    block = _block(name, p)
    res = MinimalResolution(block)
    ops = res.ops
    # every product is taken inside M, so no row applies the e_0 lane;
    # the row of e_0 itself stays
    assert all(shift for row in ops.table for shift, _ in row)
    assert len(ops.table) == block.dim and ops.table[0]
    applied = _count_multiply_adds(ops)
    res.extend_to(degree)
    assert sum(applied) == multiply_adds


@pytest.mark.parametrize("name, p", [("V4", 2), ("(1 2 3),(4 5 6)", 3)])
def test_understated_m_squared_dim_raises(name, p):
    # a block reporting dim M^2 one too small would stop M.K early and
    # return more generators; the pivots of M^2.F catch it
    block = _block(name, p)
    broken = dataclasses.replace(block)
    broken.m_squared_dim = lambda: block.m_squared_dim() - 1
    with pytest.raises(InvariantViolation,
                       match="without filling M\\^2 times the free module"):
        MinimalResolution(broken).extend_to(6)


def _full_elimination_stages(block, degree):
    """Kernels of stages 0..degree-1 and the differentials d_1..d_degree
    by full elimination: every stage passes all n . s columns e_a . g to
    `kernel_of_columns`, and M.K is spanned from every e_1..e_{s-1}."""
    ops = MinimalResolution(block).ops
    s = block.dim
    kernel = [1 << (a * ops.width) for a in range(1, s)]
    kernels, diffs = [kernel], []
    n = 1  # components of the free module the kernel lies in
    for l in range(degree):
        mask = ops.lead_mask(n)
        span = ops.echelon()
        for kappa in kernel:
            for a in range(1, s):
                span.insert(ops.column(kappa, mask, a))
        gens = [kappa for kappa in kernel
                if ops.top_lane(kappa) not in span.rows]
        diffs.append(gens)
        if l + 1 < degree:
            kernel = ops.kernel_of_columns(
                [ops.column(g, mask, a) for g in gens for a in range(s)])
            kernels.append(kernel)
        n = len(gens)
    return kernels, diffs


# the square-zero blocks, where every e_a with a >= 1 annihilates M
SQUARE_ZERO_CORPUS = [
    ("C4", 2, 7), ("C8", 2, 5), ("C9", 3, 7), ("C27", 3, 5), ("S3", 3, 8),
    ("C25", 5, 7), ("C30", 2, 8), ("C30", 3, 8), ("C30", 5, 8),
]


def _square_zero_blocks(name, p):
    return [block for block in blocks(get_context(name).algebra(p))
            if block.m_squared_dim() == 0]


@pytest.mark.parametrize("name, p, degree",
                         RESIDUAL_CORPUS + SQUARE_ZERO_CORPUS)
def test_stage_kernels_match_full_elimination(name, p, degree):
    # annihilated columns are passed as 0 instead of formed; kernels and
    # differentials are those of eliminating every formed column
    corpus = (blocks(get_context(name).algebra(p))
              if (name, p, degree) in RESIDUAL_CORPUS
              else _square_zero_blocks(name, p))
    assert corpus
    for block in corpus:
        kernels, diffs = _full_elimination_stages(block, degree)
        stages = list(_stage_kernels(block, degree))
        res = stages[0][0]
        res.extend_to(degree)
        assert [kernel for _, kernel, _ in stages] == kernels, (name, p)
        assert res.differentials == diffs, (name, p)
        assert res.betti == [1] + [len(d) for d in diffs]


@pytest.mark.parametrize("name, p", [("C9", 3), ("C4", 2)])
def test_square_zero_stages_form_no_product(name, p):
    block = _block(name, p)
    assert block.m_squared_dim() == 0
    res = MinimalResolution(block)
    ops, s = res.ops, block.dim
    applied = _count_multiply_adds(ops)
    for l in range(8):
        if l:
            res._compute_top_kernel()
        # the kernel is the unit vectors of M.F, in lane order
        assert res._kernel == [1 << ((i * s + a) * ops.width)
                               for i in range(res.betti[l])
                               for a in range(1, s)], (name, l)
        res.extend_to(l + 1)
    # the columns of e_1..e_{s-1} are asked for and come back 0 from
    # empty rows, without a product
    assert applied and sum(applied) == 0
    assert res.betti == [(s - 1) ** l for l in range(9)]


@pytest.mark.parametrize("name, p", sorted(
    {(name, p) for name, p, _ in RESIDUAL_CORPUS + SQUARE_ZERO_CORPUS}))
def test_annihilator_indices_are_the_basis_elements_in_the_socle(name, p):
    # the lane table's row of e_a (a >= 1) is empty exactly when e_a lies
    # in Ann(M); independent route: e_a lies in Ann(M) iff adding it to
    # the socle's basis leaves the rank unchanged
    for block in blocks(get_context(name).algebra(p)):
        socle_rank = fp_rank(block.socle, p)
        in_socle = tuple(
            a for a in range(1, block.dim)
            if fp_rank(block.socle + [[int(m == a) for m in range(block.dim)]],
                       p) == socle_rank)
        table = MinimalResolution(block).ops.table
        empty = tuple(a for a in range(1, block.dim) if not table[a])
        assert empty == in_socle, (name, p)


def _synthetic_e3_block():
    # the one-class ring of test_square_zero_closed_form_higher_embedding_dim
    ring = BRing(["a", "b", "c", "d"],
                 [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [1, 1, 1, 1]])
    return blocks(ModPAlgebra(ring, 2))[0]


@pytest.mark.parametrize("name, p, degree",
                         SQUARE_ZERO_CORPUS + [("e = 3", 2, 6)])
def test_square_zero_closed_form_matches_the_resolution(name, p, degree):
    corpus = ([_synthetic_e3_block()] if name == "e = 3"
              else _square_zero_blocks(name, p))
    assert corpus
    for block in corpus:
        assert block.m_squared_dim() == 0
        res = MinimalResolution(block)
        res.extend_to(degree)
        assert betti_sequence(block, degree) == res.betti, (name, p)


def _outcome(run):
    try:
        return run()
    except ResolutionTooLarge as exc:
        return str(exc)


@pytest.mark.parametrize("name, p", [("C4", 2), ("C8", 2), ("S3", 2),
                                     ("C9", 3), ("C27", 3), ("C25", 5)])
@pytest.mark.parametrize("budget", [100, 5_000, 300_000, 20_000_000])
def test_square_zero_closed_form_refuses_like_the_resolution(name, p,
                                                             budget):
    # the same stage is refused, with the same message, as by elimination;
    # S3's dual numbers (b_l = 1) fit every budget either way
    block = _block(name, p)

    def by_elimination():
        res = MinimalResolution(block, max_matrix_bits=budget)
        res.extend_to(40)
        return res.betti

    closed = _outcome(lambda: _square_zero_betti(block, 40, budget))
    assert closed == _outcome(by_elimination)
    assert isinstance(closed, str) == (name != "S3")


def test_square_zero_closed_form_checks_the_idempotent():
    block = _block("C9", 3)
    mult = [list(row) for row in block.mult]
    assert mult[0][1] == [(1, 1)]
    mult[0][1] = [(1, 1), (2, 1)]
    broken = dataclasses.replace(block, mult=mult)
    with pytest.raises(InvariantViolation, match="e_0 is not the identity"):
        betti_sequence(broken, 4)


def _no_resolution(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a MinimalResolution was built")
    monkeypatch.setattr(MinimalResolution, "__init__", refuse)


@pytest.mark.parametrize("argv", [
    ("ext", "--group", "C9", "--source", "1", "--target", "3",
     "--max-degree", "10"),
    ("tor", "--group", "C9", "--source", "1", "--target", "9",
     "--max-degree", "10"),
    ("growth", "--group", "C9", "-p", "3", "--max-degree", "12"),
    ("ext", "--group", "C4", "--source", "2", "--target", "4",
     "--max-degree", "12"),
    ("tor", "--group", "C4", "--source", "1", "--target", "1",
     "--max-degree", "12"),
    ("growth", "--group", "C4", "-p", "2", "--max-degree", "13"),
])
def test_cli_resolves_no_square_zero_block(capsys, tmp_path, monkeypatch,
                                           argv):
    _no_resolution(monkeypatch)
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "p=" in out or "ranks" in out


def test_cli_refuses_c4_past_the_budget_as_before(capsys, tmp_path,
                                                  monkeypatch):
    _no_resolution(monkeypatch)
    code = main(["ext", "--group", "C4", "--source", "1", "--target", "2",
                 "--max-degree", "40", "--cache-dir", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: resolution reached degree 13; stage 14 needs a 24576 x 49152 "
        "matrix, matrix_cost 1207959552 > max_matrix_bits 1073741824\n")


@pytest.mark.parametrize("argv", [
    ("ext", "--group", "C9", "--source", "1", "--target", "3",
     "--max-degree", "5", "--oracle"),
    ("tor", "--group", "C4", "--source", "2", "--target", "4",
     "--max-degree", "2", "--oracle"),
])
def test_oracle_checks_the_closed_form_against_elimination(
        capsys, tmp_path, monkeypatch, argv):
    import burnside.resolution as resolution
    closed = resolution._square_zero_betti
    monkeypatch.setattr(resolution, "_square_zero_betti",
                        lambda block, degree: closed(block, degree)[:-1] + [7])
    code = main([*argv, "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "closed-form Betti numbers" in capsys.readouterr().err
