import pytest

from burnside import exttor
from burnside.errors import InvalidPrime, ResolutionTooLarge
from burnside.exttor import (ExtTorContext, ModuleType, SquarefreeResult,
                             ext_ranks, ext_report, hom_base, prime_factors,
                             tensor_base, tor_ranks, tor_report,
                             verify_squarefree)
from burnside.modp import blocks
from burnside.resolution import (MinimalResolution, _is_square_zero,
                                 _resolution_cache, betti_sequence,
                                 ext_dims_pair)
from bring_reference import same_class
from exttor_reference import is_zero, verdict, verify_squarefree_per_pair
from util import get_context, get_marks


def test_module_type_formatting():
    assert str(ModuleType.zero()) == "0"
    assert str(ModuleType.free(1)) == "Z"
    assert str(ModuleType.free(2)) == "Z^2"
    assert str(ModuleType.cyclic(6)) == "Z/6"
    assert str(ModuleType(1, (2, 6))) == "Z + Z/2 + Z/6"
    assert str(ModuleType.from_p_ranks({2: 1, 3: 1})) == "Z/6"
    assert str(ModuleType.from_p_ranks({2: 2, 3: 1})) == "Z/2 + Z/6"
    assert ModuleType.from_p_ranks({}) == ModuleType.zero()


def test_hom_base():
    assert hom_base(1, 1) == ModuleType.free(1)
    assert hom_base(0, 1) == ModuleType.zero()


def test_tensor_base():
    ctx = get_context("S3")
    assert tensor_base(ctx, 0, 0) == ModuleType.free(1)
    assert tensor_base(ctx, 0, 1) == ModuleType.cyclic(2)
    assert tensor_base(ctx, 0, 3) == ModuleType.zero()  # d = 1


def test_ext_rank_patterns_s3():
    ctx = get_context("S3")
    assert ext_ranks(ctx, 0, 0, 2, 8) == [0, 1, 0, 1, 0, 1, 0, 1]
    assert ext_ranks(ctx, 0, 1, 2, 8) == [1, 0, 1, 0, 1, 0, 1, 0]
    assert ext_ranks(ctx, 0, 2, 2, 8) == [0] * 8
    assert ext_ranks(ctx, 0, 0, 3, 6) == [0, 1, 0, 1, 0, 1]
    assert ext_ranks(ctx, 1, 1, 3, 6) == [0] * 6  # singleton class at p=3


def test_ext_ranks_c4():
    ctx = get_context("C4")
    assert ext_ranks(ctx, 0, 0, 2, 6) == [0, 2, 2, 6, 10, 22]


def test_tor_ranks_shift():
    ctx = get_context("S3")
    assert tor_ranks(ctx, 0, 0, 2, 5) == [1, 0, 1, 0, 1]
    ctx4 = get_context("C4")
    assert tor_ranks(ctx4, 0, 0, 2, 5) == [2, 2, 6, 10, 22]
    for p in (2, 3):
        a = ext_ranks(ctx, 0, 0, p, 7)
        z = tor_ranks(ctx, 0, 0, p, 6)
        assert z == a[1:]


def test_rank_sum_identity():
    # a_l + a_{l+1} = b_l on every in-class pair
    for name, p in [("S3", 2), ("C4", 2), ("V4", 2)]:
        ctx = get_context(name)
        algebra = ctx.algebra(p)
        n = ctx.ring.n
        for i in range(n):
            for j in range(n):
                if not same_class(algebra.partition, i, j):
                    continue
                a = ext_ranks(ctx, i, j, p, 6)
                b = ext_dims_pair(ctx.algebra(p), i, j, 5)
                for l in range(1, 6):
                    assert a[l - 1] + a[l] == b[l]


def test_ext_report_s3_diagonal():
    ctx = get_context("S3")
    report = ext_report(ctx, 0, 0, 8)
    assert str(report.cell(0).module) == "Z"
    for l in range(1, 9):
        cell = report.cell(l)
        assert cell.provenance == "closed-form"
        assert str(cell.module) == ("0" if l % 2 else "Z/6")


def test_ext_report_exponent_bounds():
    ctx = get_context("S3")
    cell = ext_report(ctx, 0, 1, 3).cell(1)
    assert [(pp.p, pp.rank, pp.exponent_bound, pp.exact)
            for pp in cell.p_parts] == [(2, 1, 2, True)]
    # diagonal bound comes from the minimal idempotent multiple
    cell = ext_report(ctx, 2, 2, 2).cell(2)
    assert [(pp.p, pp.exponent_bound) for pp in cell.p_parts] == [(2, 2), (3, 3)]


def test_ext_report_c4_rank_only():
    ctx = get_context("C4")
    report = ext_report(ctx, 0, 0, 4)
    cell = report.cell(2)
    assert cell.module is None
    assert cell.provenance == "recurrence"
    assert [(pp.p, pp.rank, pp.exponent_bound, pp.exact)
            for pp in cell.p_parts] == [(2, 2, 4, False)]


def test_mixed_exactness_c12():
    # 4 divides 12 but 3 does not square-divide: p=3 parts exact, p=2 not
    ctx = get_context("C12")
    i = ctx.ring.index_of("1")
    report = ext_report(ctx, i, i, 4)
    for cell in report.degrees[1:]:
        for pp in cell.p_parts:
            assert pp.exact == (pp.p == 3)


def test_tor_report_examples():
    ctx = get_context("S3")
    report = tor_report(ctx, 0, 0, 5)
    values = [str(c.module) for c in report.degrees]
    assert values == ["Z", "Z/6", "0", "Z/6", "0", "Z/6"]
    report = tor_report(ctx, 0, 1, 2)
    assert str(report.cell(0).module) == "Z/2"
    report = tor_report(ctx, 2, 2, 1)
    assert str(report.cell(0).module) == "Z"


def test_report_json_schema():
    ctx = get_context("S3")
    doc = ext_report(ctx, 0, 1, 2).to_json()
    assert doc["group"] == "S3" and doc["source"] == "1" and doc["target"] == "2"
    cell = doc["degrees"][1]
    assert cell == {"l": 1,
                    "p_parts": [{"p": 2, "rank": 1, "exponent_bound": 2}],
                    "module": "Z/2", "provenance": "closed-form"}


@pytest.mark.parametrize("name", ["S3", "C6", "C10", "D5"])
def test_verify_squarefree_passes(name):
    result = verify_squarefree(get_context(name), 12)
    assert result.applicable and result.passed
    assert verdict(result) == "pass"


@pytest.mark.parametrize("name", ["C30", "D15"])
def test_verify_squarefree_matches_the_per_pair_scan(name, monkeypatch):
    # one report per pair signature, not per ordered pair
    ctx = get_context(name)
    assert verify_squarefree_per_pair(ctx, 12) == SquarefreeResult(True, True)
    built = []
    report = exttor.ext_report

    def counting(ctx, i, j, L):
        built.append((i, j))
        return report(ctx, i, j, L)

    monkeypatch.setattr(exttor, "ext_report", counting)
    assert verify_squarefree(ctx, 12) == SquarefreeResult(True, True)
    n = ctx.ring.n
    signatures = {exttor._pair_signature(ctx, i, j)
                  for i in range(n) for j in range(n)}
    assert len(built) == len(signatures) < n * n


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_squarefree_finds_the_first_failing_pair(p, diagonal):
    # a rank sequence of the last block at p, tampered in a fresh context,
    # breaks periodicity for every pair that reads it, and for no pair of
    # another block; the counterexample is the first such pair in (i, j)
    # order, as in the per-pair scan
    ctx = ExtTorContext.from_marks(get_marks("C30"), "C30")
    n, L = ctx.ring.n, 10
    part = ctx.algebra(p).partition
    pairs = [(i, j) for i in range(n) for j in range(n)
             if (i == j) == diagonal and ctx.ring.same_p_class(i, j, p)]
    last = max(part.class_index_of(i) for i, _ in pairs)
    i, j = next((i, j) for i, j in pairs if part.class_index_of(i) == last)
    key = (p, last, diagonal)
    ranks = ext_ranks(ctx, i, j, p, L)
    ranks[4] += 1
    ctx._ranks[key] = ranks
    result = verify_squarefree(ctx, L)
    assert result == verify_squarefree_per_pair(ctx, L)
    assert not result.passed
    assert result.counterexample[:2] == (ctx.ring.labels[i],
                                         ctx.ring.labels[j])


def test_verify_squarefree_not_applicable():
    result = verify_squarefree(get_context("C4"), 12)
    assert not result.applicable
    assert verdict(result) == "not-applicable"


@pytest.mark.parametrize("p", [0, 1, 4, -3])
@pytest.mark.parametrize("pair", [(0, 0), (0, 1), (0, 2)])
def test_ranks_reject_a_non_prime(p, pair):
    # d(0, 1) = 2 and d(0, 2) = 3: the prime is checked before
    # d(i, j) is read, also for a pair that no prime but 2 or 3 joins
    ctx = get_context("S3")
    with pytest.raises(InvalidPrime):
        ext_ranks(ctx, *pair, p, 4)
    with pytest.raises(InvalidPrime):
        tor_ranks(ctx, *pair, p, 4)


def test_reports_build_algebras_only_where_the_pair_shares_a_block():
    # S3 classes 1 and 2 have d = 2, so only R/2R is needed
    ctx = ExtTorContext.from_marks(get_marks("S3"), "S3")
    assert ctx.primes == [2, 3]
    ext_report(ctx, 0, 1, 4)
    assert sorted(ctx._algebras) == [2]
    tor_report(ctx, 0, 3, 4)  # d = 1: no block is shared at any prime
    assert sorted(ctx._algebras) == [2]
    ext_report(ctx, 0, 0, 4)
    assert sorted(ctx._algebras) == [2, 3]


def test_p_class_lookup_matches_the_d_matrix():
    for name in ("S3", "D4", "S4", "C30"):
        ctx = get_context(name)
        n = ctx.ring.n
        for p in ctx.primes:
            part = ctx.algebra(p).partition
            for i in range(n):
                assert i in part.classes[part.class_index_of(i)]
                for j in range(n):
                    want = i == j or ctx.ring.dmat.d(i, j) % p == 0
                    assert same_class(part, i, j) == want
                    assert ctx.ring.same_p_class(i, j, p) == want


def test_primes_scanned():
    assert get_context("S3").primes == [2, 3]
    assert get_context("C30").primes == [2, 3, 5]
    assert get_context("C1").primes == []


def test_exact_parity_pattern_when_p_exactly_divides_order():
    # for p | |G| with p^2 not dividing |G|, every 2-element class carries
    # p-parts equal to Z/p in even degrees on the diagonal and odd degrees
    # off it, and nothing anywhere else
    for name in ("S3", "C6", "S4", "D5", "C10"):
        ctx = get_context(name)
        for p in prime_factors(ctx.group_order):
            if ctx.group_order % (p * p) == 0:
                continue
            part = ctx.algebra(p).partition
            assert all(len(c) <= 2 for c in part.classes)
            for cls in part.classes:
                if len(cls) != 2:
                    continue
                i, j = cls
                for a, b in [(i, i), (i, j), (j, i), (j, j)]:
                    report = ext_report(ctx, a, b, 6)
                    want_parity = 0 if a == b else 1
                    for l in range(1, 7):
                        pp = [x for x in report.cell(l).p_parts if x.p == p]
                        if l % 2 == want_parity:
                            assert [(x.rank, x.exponent_bound, x.exact)
                                    for x in pp] == [(1, p, True)]
                        else:
                            assert not pp


def test_cross_class_reports_vanish():
    ctx = get_context("S3")
    report = ext_report(ctx, 0, 3, 10)
    for cell in report.degrees:
        assert not cell.p_parts
        assert cell.module is not None and is_zero(cell.module) or cell.l == 0
    assert str(report.cell(0).module) == "0"


def _report_or_error(build, ctx, i, j, L):
    try:
        return build(ctx, i, j, L).to_json()
    except ResolutionTooLarge as exc:  # D4 and Q8 run out of budget below 8
        return str(exc)


@pytest.mark.parametrize(
    "name", ["S3", "C6", "V4", "D4", "Q8", "C9", "C30", "D15"])
def test_reports_from_a_shared_context_match_fresh_ones(name):
    # the shared context answers every pair, each from the longest L down,
    # so its rank sequences, cells and block resolutions serve many pairs
    # and many L; a fresh context per pair shares nothing between pairs
    marks = get_marks(name)
    shared = ExtTorContext.from_marks(marks, name)
    n = shared.ring.n
    degrees = range(8, -1, -1)
    answers = {(i, j): [(_report_or_error(ext_report, shared, i, j, L),
                         _report_or_error(tor_report, shared, i, j, L))
                        for L in degrees]
               for i in range(n) for j in range(n)}
    for (i, j), got in answers.items():
        fresh = ExtTorContext.from_marks(marks, name)
        want = [(_report_or_error(ext_report, fresh, i, j, L),
                 _report_or_error(tor_report, fresh, i, j, L))
                for L in reversed(degrees)]
        assert got == want[::-1], (name, i, j)


def test_each_block_owns_its_resolution():
    ctx = ExtTorContext.from_marks(get_marks("C30"), "C30")
    all_blocks = [b for p in ctx.primes for b in blocks(ctx.algebra(p))]
    assert len(all_blocks) == 12
    assert len({id(_resolution_cache(b)) for b in all_blocks}) == 12
    for block in all_blocks:
        assert _resolution_cache(block) is block.resolution
        assert _resolution_cache(block) is block.resolution
        fresh = MinimalResolution(block)
        fresh.extend_to(12)
        assert betti_sequence(block, 12) == fresh.betti


def test_shared_context_resolves_each_block_once(monkeypatch):
    # every D4 pair for L = 8..0 on one context: each block that is not
    # square-zero is resolved once, on the block, and no other is resolved
    built = []
    init = MinimalResolution.__init__

    def counting_init(self, block, *args, **kwargs):
        built.append(block)
        init(self, block, *args, **kwargs)

    monkeypatch.setattr(MinimalResolution, "__init__", counting_init)
    ctx = ExtTorContext.from_marks(get_marks("D4"), "D4")
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            for L in range(8, -1, -1):
                _report_or_error(ext_report, ctx, i, j, L)
                _report_or_error(tor_report, ctx, i, j, L)
    resolved = [b for p in ctx.primes for b in blocks(ctx.algebra(p))
                if not _is_square_zero(b)]
    assert resolved
    assert sorted(map(id, built)) == sorted(map(id, resolved))
    assert all(b.resolution is not None for b in resolved)


def test_ext_ranks_hand_out_fresh_prefixes():
    ctx = ExtTorContext.from_marks(get_marks("C4"), "C4")
    want = [0, 2, 2, 6, 10, 22, 42, 86]
    ranks = ext_ranks(ctx, 0, 0, 2, 8)
    assert ranks == want
    ranks[:] = [-1] * 9
    assert ext_ranks(ctx, 0, 0, 2, 8) == want
    short = ext_ranks(ctx, 0, 0, 2, 3)
    assert short == want[:3]
    short.append(99)
    assert ext_ranks(ctx, 0, 0, 2, 5) == want[:5]
    assert tor_ranks(ctx, 0, 0, 2, 7) == want[1:]
