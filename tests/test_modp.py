import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from burnside.bring import PrimeEquivalence, p_classes
from burnside.errors import InvalidPrime, InvariantViolation, NotLocal
from burnside.exttor import prime_factors
from burnside import fplinalg, modp
from burnside.fplinalg import FpLaneEchelon
from burnside.modp import ModPAlgebra, blocks, blocks_report
from burnside.permgroup import is_prime
from fplinalg_reference import FpEchelon, nullspace
from modp_reference import (_mul, assert_pairs_table, block_by_kernel, dense,
                            nilpotent_span, socle_by_full_annihilator)
from util import get_context, unimodular_change

CORPUS = ["S3", "C4", "C6", "V4", "D4", "Q8", "S4"]
SQUARE_FREE = ["S3", "C6", "C10", "C30", "D5"]


def test_build_examples():
    ctx = get_context("S3")
    a2 = ctx.algebra(2)
    assert a2.dim == 4 and len(a2.classes) == 2
    a5 = ctx.algebra(5)
    assert len(a5.classes) == 4  # theta bijective
    assert get_context("C1").algebra(2).dim == 1
    with pytest.raises(InvalidPrime):
        ModPAlgebra(ctx.ring, 4)


def _radical(algebra):
    """The maximal ideals of the blocks: basis[1:] of each, together."""
    return [v for b in blocks(algebra) for v in b.basis[1:]]


def test_radical_dimensions():
    ctx = get_context("S3")
    assert len(_radical(ctx.algebra(2))) == 2
    assert len(_radical(ctx.algebra(5))) == 0
    assert len(_radical(get_context("C4").algebra(2))) == 2


# p^n stays at most 2^16 for the exhaustive scan: A4 has n = 5, Q8 n = 6
@pytest.mark.parametrize("name", ["S3", "C4", "V4", "A4", "Q8"])
def test_radical_equals_nilpotent_span(name):
    ctx = get_context(name)
    for p in (2, 3):
        algebra = ctx.algebra(p)
        rad = _radical(algebra)
        nil = nilpotent_span(algebra)
        ech = FpEchelon(p)
        for v in rad:
            ech.insert(v)
        assert len(nil) == len(rad)
        assert all(ech.contains(v) for v in nil)


@pytest.mark.parametrize("name", CORPUS)
def test_block_count_and_dims(name):
    ctx = get_context(name)
    for p in prime_factors(ctx.group_order):
        algebra = ctx.algebra(p)
        bl = blocks(algebra)
        assert len(bl) == len(algebra.classes)
        assert [b.dim for b in bl] == [len(c) for c in algebra.classes]
        assert sum(b.dim for b in bl) == algebra.dim
        # the maximal ideals of all blocks together are independent
        ech = FpEchelon(p)
        assert all(ech.insert(v) for v in _radical(algebra))
        assert ech.dim == algebra.dim - len(algebra.classes)


@pytest.mark.parametrize("name", CORPUS)
def test_semisimple_off_group_order(name):
    ctx = get_context(name)
    for p in (11, 13):
        if ctx.group_order % p:
            assert all(b.dim == 1 for b in blocks(ctx.algebra(p)))


def test_block_examples():
    s3 = get_context("S3")
    assert [b.dim for b in blocks(s3.algebra(2))] == [2, 2]
    assert [b.dim for b in blocks(s3.algebra(3))] == [2, 1, 1]
    c4 = get_context("C4")
    assert [b.dim for b in blocks(c4.algebra(2))] == [3]


def test_block_invariants_examples():
    c4_block = blocks(get_context("C4").algebra(2))[0]
    inv = c4_block.invariants()
    assert inv == {"dim": 3, "m_mod_m2_dim": 2, "socle_dim": 2,
                   "is_symmetric": False, "tor_bounded": False}
    s3_block = blocks(get_context("S3").algebra(2))[0]
    inv = s3_block.invariants()
    assert inv["m_mod_m2_dim"] == 1 and inv["is_symmetric"] and inv["tor_bounded"]
    one_dim = blocks(get_context("S3").algebra(3))[1]
    inv = one_dim.invariants()
    assert inv == {"dim": 1, "m_mod_m2_dim": 0, "socle_dim": 1,
                   "is_symmetric": True, "tor_bounded": True}


@pytest.mark.parametrize("name", CORPUS + SQUARE_FREE)
def test_symmetry_matches_square_freeness(name):
    ctx = get_context(name)
    order = ctx.group_order
    for p in prime_factors(order):
        invs = [b.invariants() for b in blocks(ctx.algebra(p))]
        if order % (p * p) == 0:
            assert any(not i["is_symmetric"] for i in invs)
            assert any(i["socle_dim"] >= 2 and i["m_mod_m2_dim"] >= 2
                       for i in invs)
        else:
            assert all(i["is_symmetric"] for i in invs)
            assert all(i["tor_bounded"] for i in invs)


def test_low_embedding_dim_blocks_are_symmetric():
    # whenever m/m^2 has dimension <= 1 the block must also test symmetric
    for name in CORPUS:
        ctx = get_context(name)
        for p in prime_factors(ctx.group_order):
            for b in blocks(ctx.algebra(p)):
                inv = b.invariants()
                if inv["m_mod_m2_dim"] <= 1:
                    assert inv["is_symmetric"]


def test_idempotents_are_orthogonal_decomposition():
    ctx = get_context("S4")
    algebra = ctx.algebra(2)
    bl = blocks(algebra)
    sc = algebra.ring.structure_constants()
    total = [0] * algebra.dim
    for b in bl:
        sq = _mul(sc, 2, b.idempotent, b.idempotent)
        assert sq == b.idempotent
        total = [(x + y) % 2 for x, y in zip(total, b.idempotent)]
    assert total == algebra.unit


def _lifted_idempotent(algebra, ci):
    """Reference: a preimage u of delta_C under theta, lifted by p-th powers.

    u is read off the kernel of [theta | delta_C]; in every block u is a
    unit or nilpotent, so u^(p^k) reaches the block idempotent once p^k
    passes the nilpotency index, which is at most the dimension.
    """
    p, n = algebra.p, algebra.dim
    sc = algebra.ring.structure_constants()
    rows = [row + [int(k == ci)] for k, row in enumerate(algebra.theta)]
    kernel = nullspace(rows, n + 1, p)
    v = next(v for v in kernel if v[n])
    scale = -pow(v[n], -1, p)
    e = [c * scale % p for c in v[:n]]
    for _ in range(n + 1):
        if _mul(sc, p, e, e) == e:
            return e
        acc, base, k = list(algebra.unit), e, p
        while k:
            if k & 1:
                acc = _mul(sc, p, acc, base)
            base = _mul(sc, p, base, base)
            k >>= 1
        e = acc
    pytest.fail("p-th powers did not stabilize")


def _primes_to_check(order):
    coprime = [q for q in range(2, 100) if is_prime(q) and order % q][:2]
    return prime_factors(order) + coprime


@pytest.mark.parametrize("change", ["marks", "unimodular"])
@pytest.mark.parametrize("name", CORPUS + ["(1 2),(3 4),(5 6)"])
def test_closed_form_idempotents_match_lifting(name, change):
    ctx = get_context(name)
    ring = ctx.ring if change == "marks" else unimodular_change(ctx.ring)
    for p in _primes_to_check(ctx.group_order):
        algebra = ModPAlgebra(ring, p)
        for ci, block in enumerate(blocks(algebra)):
            e = block.idempotent
            assert _mul(ring.structure_constants(), p, e, e) == e
            assert [sum(a * b for a, b in zip(row, e)) % p
                    for row in algebra.theta] == [
                int(k == ci) for k in range(len(algebra.classes))]
            assert e == _lifted_idempotent(algebra, ci)


def _block_by_reference(algebra, ci, idem):
    """The basis of the block of `idem` from list products (`_mul`): its
    span from idem * e_k in order of k, then idem and the maximal ideal."""
    p, n = algebra.p, algebra.dim
    sc = algebra.ring.structure_constants()
    ech = FpEchelon(p)
    span = []
    for k in range(n):
        v = _mul(sc, p, idem, [int(t == k) for t in range(n)])
        if ech.insert(v):
            span.append(v)
    row = [[sum(a * b for a, b in zip(algebra.theta[ci], v)) % p
            for v in span]]
    ideal = [[sum(c * v[t] for c, v in zip(coord, span)) % p
              for t in range(n)]
             for coord in nullspace(row, len(span), p)]
    return [idem] + ideal


@pytest.mark.parametrize("name", ["S3", "(1 2),(3 4),(5 6)",
                                  "(1 2 3 4),(1 3),(5 6 7)"])
def test_packed_block_construction_matches_list_products(name):
    ctx = get_context(name)
    for p in (2, 3, 5):
        algebra = ctx.algebra(p)
        n, sc = algebra.dim, ctx.ring.structure_constants()
        bl = blocks(algebra)
        idempotents = [b.idempotent for b in bl]
        for ci, block in enumerate(bl):
            e = idempotents[ci]
            assert _mul(sc, p, e, e) == e
            assert block.basis == _block_by_reference(algebra, ci, e)
            # mult holds the nonzero (m, c) of each product in the basis
            for a, x in enumerate(block.basis):
                for b, y in enumerate(block.basis):
                    pairs = block.mult[a][b]
                    assert _mul(sc, p, x, y) == [
                        sum(c * block.basis[m][t] for m, c in pairs) % p
                        for t in range(n)]


KERNEL_REFERENCE_CASES = [("C30", 2), ("C30", 3), ("C30", 5), ("A4", 2),
                          ("A4", 3), ("S4", 2), ("S4", 3), ("D4", 2),
                          ("Q8", 2), ("(1 2 3),(4 5 6)", 3),
                          ("(1 2),(3 4),(5 6)", 2), ("(1 2),(3 4),(5 6)", 3),
                          ("(1 2),(3 4),(5 6)", 5), ("D23", 23)]


@pytest.mark.parametrize("name,p", KERNEL_REFERENCE_CASES)
def test_block_tables_match_kernel_reference(name, p):
    # the coordinate solve of each block's products gives the basis and
    # table that one kernel over [basis | all s^2 products] gives
    algebra = ModPAlgebra(get_context(name).ring, p)
    for ci, block in enumerate(blocks(algebra)):
        basis, mult = block_by_kernel(algebra, ci, block.idempotent)
        assert block.basis == basis
        assert block.mult == mult


@pytest.mark.parametrize("name,p", KERNEL_REFERENCE_CASES)
def test_block_tables_are_shared_sorted_pairs(name, p):
    for block in blocks(ModPAlgebra(get_context(name).ring, p)):
        assert_pairs_table(block)


@pytest.mark.parametrize("name,p", KERNEL_REFERENCE_CASES)
def test_socle_matches_nullspace_of_the_reference_table(name, p):
    # row (a, m), a >= 1, holds coordinate m of e_a e_b over the columns b,
    # from the dense coordinates of the kernel reference's table
    algebra = ModPAlgebra(get_context(name).ring, p)
    for ci, block in enumerate(blocks(algebra)):
        _, mult = block_by_kernel(algebra, ci, block.idempotent)
        s = block.dim
        coords = [[dense(mult[a][b], s) for b in range(s)] for a in range(s)]
        rows = [[coords[a][b][m] for b in range(s)]
                for a in range(1, s) for m in range(s)]
        assert block.socle == nullspace(rows, s, p)


@pytest.mark.parametrize("name,p", [
    ("D4", 2), ("Q8", 2), ("(1 2),(3 4),(5 6)", 2),
    ("(1 2),(3 4),(5 6),(7 8)", 2), ("(1 2 3),(4 5 6)", 3), ("C9", 3),
    ("C27", 3)])
def test_p_group_table_is_the_ring_pairs_mod_p(name, p):
    # a p-group at p has one block, e = the unit [G/G]; theta vanishes on
    # every other [G/H], so x_a are those basis vectors themselves and the
    # table is the ring's (m, c) pairs mod p with the unit moved first
    ring = get_context(name).ring
    (block,) = blocks(ModPAlgebra(ring, p))
    unit = ring.unit_coeffs.index(1)
    assert ring.unit_coeffs == [int(k == unit) for k in range(ring.n)]
    order = [unit] + [k for k in range(ring.n) if k != unit]
    at = {k: a for a, k in enumerate(order)}
    assert block.basis == [[int(t == k) for t in range(ring.n)]
                           for k in order]
    sc = ring.structure_constants()
    assert block.mult == [[sorted((at[m], c % p) for m, c in sc[k][l]
                                  if c % p)
                           for l in order] for k in order]


@pytest.mark.parametrize("name,p", [("(1 2),(3 4),(5 6)", 3),
                                    ("(1 2),(3 4),(5 6)", 5), ("C4", 3)])
def test_one_dimensional_blocks_form_no_product_or_kernel(monkeypatch, name,
                                                          p):
    # every class is a singleton at a coprime prime, so every block is
    # F_p e_C with table [[[(0, 1)]]], read off the shared multiples
    algebra = ModPAlgebra(get_context(name).ring, p)
    assert all(len(cls) == 1 for cls in algebra.classes)
    calls = [_count_calls(monkeypatch, attr, owner) for owner, attr in (
        (FpLaneEchelon, "insert"), (FpLaneEchelon, "reduce"),
        (fplinalg, "fp_lane_kernel_of_columns"))]
    bl = blocks(algebra)
    assert all(b.basis == [b.idempotent] and b.mult == [[[(0, 1)]]]
               for b in bl)
    assert calls == [[]] * 3


def _tamper(algebra, edits):
    """Point `algebra`, already built, at a `copy.copy` of its ring whose
    structure constants have sc[k][l] = pairs for each (k, l, pairs) of
    `edits`.

    The rows are copied, so the ring's own constants stay as they are.
    sc[k][l] and sc[l][k] are one list object in the ring; each edit puts
    a new list at (k, l), so it changes that side only.  Commutativity is
    checked when an algebra is built, not after, and `multiples` reads x e_k
    off sc[j][k] for the j of x.
    """
    ring = copy.copy(algebra.ring)
    sc = [list(row) for row in ring.structure_constants()]
    for k, l, pairs in edits:
        sc[k][l] = pairs
    ring._structure = sc
    algebra.ring = ring


def test_blocks_reject_tampered_one_dimensional_block():
    # side (0, 2) only: the pairs claim [C4/1] [C4/C4] = [C4/1] + [C4/C2],
    # so e_1 [C4/C4] leaves F_3 e_1; e_1 = [C4/1] and e_2 have no [C4/C4]
    # coordinate and e_4 no [C4/1] one, so every square and every product
    # e_a e_b (a < b) stays as it was
    algebra = _c4_mod_3()
    assert algebra.ring.structure_constants()[0][2] == [(0, 1)]
    _tamper(algebra, [(0, 2, [(0, 1), (1, 1)])])
    with pytest.raises(InvariantViolation,
                       match="p-class of 1 is not one-dimensional"):
        blocks(algebra)


@pytest.mark.parametrize("added", [
    [0, 1, 0, 0], [0, 0, 1, 0]], ids=["wrong_residue", "third_vector"])
def test_blocks_reject_tampered_multiple(added):
    # the block of 1 at p = 2 has e = [S3/1] + [S3/2] and x_1 = [S3/1];
    # side (0, 2) only: the pairs claim [S3/1] [S3/C3] = `added` (it is
    # 2 [S3/1] = 0 mod 2).  No idempotent has a [S3/C3] coordinate, so
    # each stays idempotent and the two stay orthogonal, but the multiple
    # e [S3/C3], theta 0, becomes [S3/1] + [S3/2] = e ([S3/2] added), not
    # 0 modulo x_1, or [S3/1] + [S3/C3] ([S3/C3] added), a third
    # independent vector beside e and x_1
    algebra = ModPAlgebra(get_context("S3").ring, 2)
    assert algebra.ring.structure_constants()[0][2] == [(0, 2)]
    _tamper(algebra, [(0, 2, [(m, c) for m, c in enumerate(added) if c])])
    with pytest.raises(InvariantViolation,
                       match="p-class of 1 is not 2-dimensional"):
        blocks(algebra)


def test_blocks_report_schema():
    report = blocks_report(get_context("S3").algebra(2))
    assert report["p"] == 2
    assert report["classes"] == [["1", "2"], ["3", "6"]]
    assert report["blocks"][0].keys() == {
        "class", "dim", "m_mod_m2", "socle", "symmetric", "bounded"}


@pytest.mark.parametrize("name", CORPUS)
def test_structure_constants_are_associative(name):
    ctx = get_context(name)
    for p in prime_factors(ctx.group_order):
        ctx.algebra(p).check_associative()


def test_algebra_rejects_wrong_unit():
    ring = copy.copy(get_context("S3").ring)
    ring.unit_coeffs = [1, 0, 0, 0]  # [S3/1], not the unit [S3/S3]
    with pytest.raises(InvariantViolation, match="unit element fails"):
        ModPAlgebra(ring, 2)


def _c4_mod_3():
    """C4 mod 3, its blocks not built yet.

    It is semisimple; in the marks basis [C4/1], [C4/C2], [C4/C4] its
    block idempotents are e_1 = [C4/1], e_2 = 2 [C4/1] + 2 [C4/C2] and
    e_4 = [C4/C2] + [C4/C4], so only e_4 has a [C4/C4] coordinate.
    """
    ring = get_context("C4").ring
    assert [b.idempotent for b in blocks(ModPAlgebra(ring, 3))] == [
        [1, 0, 0], [2, 2, 0], [0, 1, 1]]
    return ModPAlgebra(ring, 3)


def test_blocks_reject_tampered_square():
    # sides (2, m) only, for every m: the pairs claim [C4/C4] e_m = 0, so
    # e_4^2 reads [C4/C2] e_4 = 0; idempotence is not checked on its own
    # (it follows from the unit sum and the block dimensions), and the
    # multiples of e_4 no longer span a one-dimensional block
    algebra = _c4_mod_3()
    _tamper(algebra, [(2, m, []) for m in range(algebra.dim)])
    with pytest.raises(InvariantViolation,
                       match="p-class of 4 is not one-dimensional"):
        blocks(algebra)


def test_blocks_reject_tampered_orthogonality():
    # side (2, 0) only: the pairs claim [C4/C4] [C4/1] = [C4/1] + e_4;
    # e_4 has no [C4/1] coordinate, so every square stays as it was, but
    # e_1 e_4 now reads e_4; orthogonality follows from the unit sum and
    # the block dimensions, and the multiple e_4 [C4/1] breaks the latter
    algebra = _c4_mod_3()
    assert algebra.ring.structure_constants()[2][0] == [(0, 1)]
    _tamper(algebra, [(2, 0, [(0, 1), (1, 1), (2, 1)])])
    with pytest.raises(InvariantViolation,
                       match="p-class of 4 is not one-dimensional"):
        blocks(algebra)


def test_blocks_reject_non_local_block():
    # theta vanishing on the block of C4 leaves no residue field
    algebra = _c4_mod_3()
    algebra.theta[2] = [0, 0, 0]
    with pytest.raises(NotLocal):
        blocks(algebra)


def test_algebra_rejects_non_commutative_constants():
    # [S3/1] [S3/C2] = 3 [S3/1]; the copy claims [S3/C2] [S3/1] =
    # 3 [S3/1] + [S3/C2], which differs mod 2
    ring = copy.copy(get_context("S3").ring)
    sc = [list(row) for row in ring.structure_constants()]
    assert sc[0][1] == [(0, 3)]
    sc[1][0] = [(0, 3), (1, 1)]
    ring._structure = sc
    with pytest.raises(InvariantViolation, match="not commutative"):
        ModPAlgebra(ring, 2)


def test_algebra_rejects_constants_commutative_only_mod_p():
    # the copy claims [S3/C2] [S3/1] = 3 [S3/1] + 2 [S3/C2]: equal to
    # [S3/1] [S3/C2] mod 2, but not in R, whose pairs are checked over Z
    ring = copy.copy(get_context("S3").ring)
    sc = [list(row) for row in ring.structure_constants()]
    assert sc[0][1] == [(0, 3)]
    sc[1][0] = [(0, 3), (1, 2)]
    ring._structure = sc
    with pytest.raises(InvariantViolation, match="not commutative"):
        ModPAlgebra(ring, 2)


def _force_partition(monkeypatch, classes):
    """Make every `ModPAlgebra` built after this take `classes` as its
    p-classes."""
    def forced(ring, p):
        class_of = [0] * ring.n
        for c, cls in enumerate(classes):
            for i in cls:
                class_of[i] = c
        return PrimeEquivalence(p, classes, class_of, ring)
    monkeypatch.setattr(modp, "p_classes", forced)


# every (group, p | |G|) of CORPUS; those of a p-group have one p-class
SEVERAL_CLASSES = [("S3", 2), ("S3", 3), ("C6", 2), ("C6", 3), ("S4", 2),
                   ("S4", 3)]
PARTITION_CASES = SEVERAL_CLASSES + [("C4", 2), ("V4", 2), ("D4", 2),
                                     ("Q8", 2)]


@pytest.mark.parametrize("name, p", SEVERAL_CLASSES)
def test_algebra_rejects_a_merged_partition(monkeypatch, name, p):
    # two p-classes taken as one: some basis vector's ghost values differ
    # mod p on the union, so theta is not defined on it
    ring = get_context(name).ring
    classes = p_classes(ring, p).classes
    merged = [sorted(classes[0] + classes[1])] + classes[2:]
    _force_partition(monkeypatch, merged)
    with pytest.raises(InvariantViolation,
                       match="evaluation map is not constant on a p-class"):
        ModPAlgebra(ring, p)


@pytest.mark.parametrize("name, p", PARTITION_CASES)
def test_algebra_rejects_a_split_partition(monkeypatch, name, p):
    # one p-class taken as two, its least index alone: both halves have
    # the same theta row, so theta misses a coordinate; the halves pass
    # the evaluation check, one of them as a one-member class
    ring = get_context(name).ring
    classes = p_classes(ring, p).classes
    c = next(c for c, cls in enumerate(classes) if len(cls) > 1)
    split = classes[:c] + [classes[c][:1], classes[c][1:]] + classes[c + 1:]
    _force_partition(monkeypatch, split)
    with pytest.raises(InvariantViolation, match="theta is not surjective"):
        ModPAlgebra(ring, p)


@pytest.mark.parametrize("name,p", KERNEL_REFERENCE_CASES + [
    case for case in PARTITION_CASES if case not in KERNEL_REFERENCE_CASES])
def test_socle_over_the_generators_matches_the_full_annihilator(name, p):
    # x.M = 0 exactly when x kills the generators of M (Nakayama)
    for block in blocks(get_context(name).algebra(p)):
        assert block.socle == socle_by_full_annihilator(block), (name, p)


def test_socle_over_the_generators_of_s4_x_c2_cubed():
    # the two 67-dimensional blocks at p = 2 read their socle over 15 of
    # the 66 basis elements of M; the 567-dimensional one (39 of 566) is
    # left to CI, as the full annihilator takes it past 400 MiB
    algebra = get_context("(1 2 3 4),(1 2),(5 6),(7 8),(9 10)").algebra(2)
    small = [b for b in blocks(algebra) if b.dim == 67]
    assert len(small) == 2
    for block in small:
        assert len(block.m_generators) == 15
        assert block.socle == socle_by_full_annihilator(block)


@pytest.mark.parametrize("name, p", [("S3", 5), ("C6", 7), ("S4", 5),
                                     ("(1 2),(3 4),(5 6)", 3)])
def test_coprime_prime_builds_no_surjectivity_echelon(monkeypatch, name, p):
    # every class is one index, whose diagonal entry [N(H):H] divides |G|:
    # theta's minor on the representatives is triangular with units on
    # its diagonal, so theta is surjective with no echelon formed
    ring = get_context(name).ring
    calls = _count_calls(monkeypatch, "insert", owner=FpLaneEchelon)
    algebra = ModPAlgebra(ring, p)
    assert all(len(cls) == 1 for cls in algebra.classes)
    assert calls == []


@pytest.mark.parametrize("name, p", SEVERAL_CLASSES)
def test_a_representative_diagonal_divisible_by_p_runs_the_echelon(
        monkeypatch, name, p):
    # [N(1):1] = |G| at the least representative, 1, so the diagonal test
    # cannot decide and theta's rows go through the echelon, all of them
    ring = get_context(name).ring
    calls = _count_calls(monkeypatch, "insert", owner=FpLaneEchelon)
    algebra = ModPAlgebra(ring, p)
    assert ring.basis[0][0] % p == 0
    assert len(calls) == len(algebra.classes)


BLOCK_COUNT_CASES = [("S3", 2), ("D4", 2), ("A4", 3),
                     ("(1 2),(3 4),(5 6)", 5)]


def _count_calls(monkeypatch, name, owner=ModPAlgebra):
    """Patch owner.<name> (a method of ModPAlgebra by default) to log each
    call; returns the log."""
    calls = []
    method = getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name,p", BLOCK_COUNT_CASES)
def test_construction_cuts_no_blocks(monkeypatch, name, p):
    # no table is packed or cut: the unit check takes the unit's multiples
    # once, off the ring's pairs, and commutativity is checked on the pairs
    # themselves
    ring = get_context(name).ring
    calls = _count_calls(monkeypatch, "multiples")
    ModPAlgebra(ring, p)
    assert len(calls) == 1


@pytest.mark.parametrize("name,p", BLOCK_COUNT_CASES + [
    ("S4", 2), ("(1 2),(3 4),(5 6)", 2), ("(1 2),(3 4),(5 6)", 3)])
def test_blocks_cut_the_multiples_once_per_class(monkeypatch, name, p):
    # the multiples of each idempotent are taken once; each block reads
    # its table off them and the ring's pairs, so no basis vector is
    # multiplied again
    algebra = ModPAlgebra(get_context(name).ring, p)
    calls = _count_calls(monkeypatch, "multiples")
    blocks(algebra)
    assert len(calls) == len(algebra.classes)


@pytest.mark.parametrize("name,p", BLOCK_COUNT_CASES)
def test_check_associative_joins_no_table(monkeypatch, name, p):
    # the scan compares each l's rows with their transpose as tuples of
    # packed products, with no table laid out in byte blocks
    algebra = ModPAlgebra(get_context(name).ring, p)
    calls = []
    monkeypatch.setattr(modp, "join_packed",
                        lambda *args: calls.append(args))
    algebra.check_associative()
    assert calls == []


def test_check_associative_rejects_tampered_constants():
    # in the marks basis of S3 mod 3, [S3/1]^2 = 6 [S3/1] = 0; declaring it
    # the unit [S3/S3] (side (0, 0), the diagonal, one list) gives
    # ([S3/1]^2) [S3/C2] = [S3/C2], while [S3/1] ([S3/1] [S3/C2]) =
    # [S3/1] (3 [S3/1]) = 0
    algebra = ModPAlgebra(get_context("S3").ring, 3)
    assert algebra.ring.structure_constants()[0][0] == [(0, 6)]
    _tamper(algebra, [(0, 0, [(3, 1)])])
    with pytest.raises(InvariantViolation, match="not associative"):
        algebra.check_associative()


@pytest.mark.parametrize("p,distinct", [(2, 17), (3, 31), (5, 40)])
def test_check_associative_combines_each_distinct_product_once(
        monkeypatch, p, distinct):
    # C2^3 has 16 subgroups, so 256 products e_k e_l; the table is
    # commutative, so both sides share the multiples of each distinct
    # product mod p
    algebra = ModPAlgebra(get_context("(1 2),(3 4),(5 6)").ring, p)
    n, w = algebra.dim, algebra.lanes.width
    products = {fplinalg.pack_pairs(pairs, p, w)
                for row in algebra.ring.structure_constants() for pairs in row}
    assert (n, len(products)) == (16, distinct)
    calls = _count_calls(monkeypatch, "multiples")
    algebra.check_associative()
    packed = [fplinalg.pack_pairs(pairs, p, w) for pairs, in calls]
    assert len(packed) == len(set(packed)) == distinct


@pytest.mark.parametrize("p", [2, 3, 13, 17])
def test_combine_reduces_in_batches(p):
    # at least two batches of terms between reductions (254 at p = 2), the
    # first 510 adding the most a term can, (p - 1)^2, to every lane; one
    # term more per batch would overflow a lane.  p = 17 runs on the wide
    # guarded lanes, one term per reduction
    algebra = ModPAlgebra(get_context("S3").ring, p)
    rng = random.Random(p)
    vectors = [[p - 1] * 4] * 510 + [[rng.randrange(p) for _ in range(4)]
                                     for _ in range(100)]
    coeffs = [-1] * 510 + [rng.randrange(-3 * p, 3 * p) for _ in range(100)]
    assert 2 * algebra.lanes.batch <= 510
    table = [algebra.pack(v) for v in vectors]
    assert algebra.combine_pairs(enumerate(coeffs), table) == algebra.pack(
        [sum(c * v[t] for c, v in zip(coeffs, vectors)) for t in range(4)])


# p = 17 runs on the wide guarded lanes, the others on byte lanes
MULTIPLES_CASES = [(name, p) for name in ("S3", "(1 2),(3 4),(5 6)")
                   for p in (2, 3, 5, 17)]


@pytest.mark.parametrize("name,p", MULTIPLES_CASES)
def test_multiples_match_list_products(name, p):
    # x e_k read off the ring's pairs equals the list product, for random
    # sparse x with entries outside [0, p) too, for the dense x with every
    # coordinate nonzero (more than lanes.batch of them at p = 5 and 17 on
    # C2^3 and at p = 17 on S3, so the batch reduction runs), and for
    # pairs that repeat a coordinate past two batches, each term adding
    # the most it can to its lanes
    ring = get_context(name).ring
    algebra = ModPAlgebra(ring, p)
    n, sc, batch = algebra.dim, ring.structure_constants(), algebra.lanes.batch
    basis = [[int(t == k) for t in range(n)] for k in range(n)]

    def expected(x):
        return [algebra.pack(_mul(sc, p, x, e)) for e in basis]

    rng = random.Random(p * n)
    xs = [[rng.randrange(-2 * p, 2 * p) if rng.random() < 0.3 else 0
           for _ in range(n)] for _ in range(20)]
    dense_x = [rng.randrange(1, p) + p * rng.randrange(-2, 3)
               for _ in range(n)]
    xs += [[0] * n, dense_x]
    if (name, p) in (("(1 2),(3 4),(5 6)", 5), ("(1 2),(3 4),(5 6)", 17),
                     ("S3", 17)):
        assert n > batch
    for x in xs:
        assert algebra.multiples((j, c) for j, c in enumerate(x) if c) == (
            expected(x))
    for j in range(n):
        count = 2 * batch + 1
        x = [(p - 1) * count * (t == j) for t in range(n)]
        assert algebra.multiples([(j, p - 1)] * count) == expected(x)


def _associative_by_reference(table, p):
    """The plain triple loop over `_mul`, both sides of every triple, for
    table[k][l] the nonzero (m, c) of e_k e_l."""
    n = len(table)
    basis = [[1 if t == k else 0 for t in range(n)] for k in range(n)]
    dense = [[_mul(table, p, x, y) for y in basis] for x in basis]
    return all(_mul(table, p, dense[k][l], basis[m])
               == _mul(table, p, basis[k], dense[l][m])
               for k in range(n) for l in range(n) for m in range(n))


# p = 17 runs on the wide guarded lanes, the others on byte lanes
ASSOCIATIVITY_TABLES = [(name, p) for name in ("S3", "(1 2),(3 4),(5 6)")
                        for p in (2, 3, 5, 17)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ASSOCIATIVITY_TABLES), st.data())
def test_packed_associativity_scan_matches_reference(table, data):
    name, p = table
    ring = get_context(name).ring
    algebra = ModPAlgebra(ring, p)
    n = algebra.dim
    basis = [[1 if t == k else 0 for t in range(n)] for k in range(n)]
    sc = [[_mul(ring.structure_constants(), p, x, y) for y in basis]
          for x in basis]
    edit = data.draw(st.sampled_from(["none", "entry", "vector", "table"]))
    if edit == "table":
        # a few random structure constants, written symmetrically, and
        # zeros elsewhere: commutative, and associative often enough
        entries = data.draw(st.lists(st.tuples(
            *[st.integers(0, n - 1)] * 3, st.integers(1, p - 1)),
            max_size=6), label="entries")
        sc = [[[0] * n for _ in range(n)] for _ in range(n)]
        for k, l, m, c in entries:
            sc[k][l][m] = sc[l][k][m] = c
    elif edit != "none":
        k = data.draw(st.integers(0, n - 1), label="k")
        l = data.draw(st.integers(0, n - 1), label="l")
        vec = list(sc[k][l])
        if edit == "entry":
            vec[data.draw(st.integers(0, n - 1), label="m")] = data.draw(
                st.integers(0, p - 1), label="value")
        else:
            vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                                     max_size=n), label="e_k e_l")
        # mirrored into e_l e_k: the table stays commutative, as
        # construction checks and the scan relies on
        sc[k][l] = vec
        sc[l][k] = list(vec)
    # the algebra, already built, and the reference read the edited
    # constants as pairs, each side written on its own
    table = [[[(m, c) for m, c in enumerate(v) if c] for v in row]
             for row in sc]
    _tamper(algebra, [(k, l, table[k][l])
                      for k in range(n) for l in range(n)])
    if _associative_by_reference(table, p):
        algebra.check_associative()
    else:
        with pytest.raises(InvariantViolation, match="not associative"):
            algebra.check_associative()
