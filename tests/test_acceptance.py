"""Acceptance suite: one test per criterion, each printing a PASS line.

Timed criteria construct their contexts inside the measured region so the
stated budgets are honest cold-path numbers.
"""

import time

from burnside.exttor import (ExtTorContext, ModuleType, ext_ranks, ext_report,
                             prime_factors, tor_report, verify_squarefree)
from burnside.groups import parse_group
from burnside.marks import table_of_marks
from burnside.modp import blocks
from burnside.oracle import oracle_ext, oracle_tor
from burnside.bring import separators
from burnside.permgroup import are_conjugate, o_p
from burnside.resolution import (betti_growth_certificate, ext_dims_pair,
                                 shared_block, _resolution_cache)
from bring_reference import same_class
from oracle_reference import oracle_ext_simple_dims
from resolution_reference import tor_dims_pair
from util import get_classes, get_context, get_group

CORPUS = ["S3", "C4", "C6", "V4", "D4", "Q8", "S4"]
SQUARE_FREE = ["S3", "C6", "C10", "C30", "D5"]


def fresh_context(name: str) -> ExtTorContext:
    group = parse_group(name)
    return ExtTorContext.from_marks(table_of_marks(group), name)


def ok(n: int, title: str, detail: str) -> None:
    print(f"criterion {n} ({title}): PASS — {detail}")


# criterion 1: S3 closed forms for all 16 ordered pairs, degrees 1..20.
# The expected pattern is pinned from the published class partitions, not
# from this package's own partition code.
S3_P2_CLASSES = [{"1", "2"}, {"3", "6"}]
S3_P3_CLASSES = [{"1", "3"}, {"2"}, {"6"}]


def _expected_rank(classes, a: str, b: str, l: int) -> int:
    cls_a = next(c for c in classes if a in c)
    if b not in cls_a:
        return 0
    if len(cls_a) == 1:
        return 0
    if a == b:
        return 1 if l % 2 == 0 else 0
    return 1 if l % 2 == 1 else 0


def test_criterion_1_s3_closed_forms():
    start = time.perf_counter()
    ctx = fresh_context("S3")
    labels = ctx.ring.labels
    assert labels == ["1", "2", "3", "6"]
    checked = 0
    for a in labels:
        for b in labels:
            report = ext_report(ctx, ctx.ring.index_of(a),
                                ctx.ring.index_of(b), 20)
            for l in range(1, 21):
                ranks = {2: _expected_rank(S3_P2_CLASSES, a, b, l),
                         3: _expected_rank(S3_P3_CLASSES, a, b, l)}
                expected = ModuleType.from_p_ranks(ranks)
                cell = report.cell(l)
                assert cell.module == expected, (a, b, l)
                assert {pp.p: pp.rank for pp in cell.p_parts} == {
                    p: r for p, r in ranks.items() if r}, (a, b, l)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, "S3 closed forms",
       f"16 pairs x degrees 1..20 ({checked} cells) in {elapsed:.3f}s")


def test_criterion_2_squarefree_periodicity():
    start = time.perf_counter()
    for name in SQUARE_FREE:
        ctx = fresh_context(name)
        result = verify_squarefree(ctx, 18)
        assert result.applicable and result.passed, (name, result)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    ok(2, "square-free periodicity",
       f"{', '.join(SQUARE_FREE)} degrees 1..18 in {elapsed:.2f}s")


def _oracle_p_ranks(module: ModuleType) -> dict:
    out = {}
    for d in module.invariants:
        for p in prime_factors(d):
            out[p] = out.get(p, 0) + 1
    return out


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    cells = 0
    for name in ("S3", "C4"):
        ctx = fresh_context(name)
        n = ctx.ring.n
        for i in range(n):
            for j in range(n):
                er = ext_report(ctx, i, j, 3)
                tr = tor_report(ctx, i, j, 3)
                oe = oracle_ext(ctx, i, j, 3)
                ot = oracle_tor(ctx, i, j, 3)
                assert oe[0] == (ModuleType.free(1) if i == j
                                 else ModuleType.zero())
                assert ot[0] == (ModuleType.free(1) if i == j
                                 else ModuleType.cyclic(ctx.dmat.d(i, j)))
                for l in range(4):
                    cells += 2
                    if l >= 1:
                        assert {pp.p: pp.rank for pp in er.cell(l).p_parts} \
                            == _oracle_p_ranks(oe[l]), (name, i, j, l)
                        assert {pp.p: pp.rank for pp in tr.cell(l).p_parts} \
                            == _oracle_p_ranks(ot[l]), (name, i, j, l)
                        if er.cell(l).module is not None:
                            assert er.cell(l).module == oe[l], (name, i, j, l)
                    if tr.cell(l).module is not None:
                        assert tr.cell(l).module == ot[l], (name, i, j, l)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.3f}s"
    ok(3, "oracle equivalence",
       f"S3 and C4, degrees 0..3 ({cells} cells) in {elapsed:.2f}s")


def test_criterion_4_dress_congruence():
    pairs_checked = 0
    for name in CORPUS:
        group = get_group(name)
        table = get_classes(name)
        ctx = get_context(name)
        for p in prime_factors(group.order):
            ops = [o_p(c.representative, p) for c in table]
            for i in range(len(table)):
                for j in range(i + 1, len(table)):
                    lhs = ctx.dmat.d(i, j) % p == 0
                    rhs = are_conjugate(group, ops[i], ops[j])
                    assert lhs == rhs, (name, p, table[i].label, table[j].label)
                    pairs_checked += 1
    ok(4, "Dress congruence", f"{pairs_checked} (pair, prime) checks over "
                              f"{', '.join(CORPUS)}")


def test_criterion_5_block_structure():
    checks = 0
    for name in CORPUS:
        ctx = get_context(name)
        for p in prime_factors(ctx.group_order):
            algebra = ctx.algebra(p)
            bl = blocks(algebra)
            assert len(bl) == len(algebra.classes), (name, p)
            assert [b.dim for b in bl] == [len(c) for c in algebra.classes]
            checks += 1
        coprime = [q for q in (11, 13, 5, 7) if ctx.group_order % q][:2]
        for p in coprime:
            assert all(b.dim == 1 for b in blocks(ctx.algebra(p))), (name, p)
            checks += 1
    ok(5, "block structure", f"{checks} (group, prime) decompositions")


def test_criterion_6_unbounded_growth():
    ctx4 = get_context("C4")
    assert ext_ranks(ctx4, 0, 0, 2, 6) == [0, 2, 2, 6, 10, 22]
    windows = {"C4": 11, "V4": 6, "D4": 5}
    details = []
    for name, window in windows.items():
        ctx = get_context(name)
        i = ctx.ring.index_of("1")
        block = shared_block(ctx.algebra(2), i, i)
        res = _resolution_cache(block)
        res.extend_to(window)
        cert = betti_growth_certificate(block, res)
        a = ext_ranks(ctx, i, i, 2, window + 1)
        a = [0] + a  # a[l] is now the degree-l rank, a_0 unused
        direct = 0
        for l in range(2, 11):
            if l + 2 <= window + 1:
                assert a[l + 2] > a[l], (name, l)
                direct += 1
            else:
                # a_{l+2} - a_l = b_{l+1} - b_l, certified positive
                assert cert is not None and cert.start <= l, (name, l)
        # every certified step that was also computed exactly must agree
        if cert is not None:
            for l in range(max(cert.start, 1), res.computed_degree):
                assert res.betti[l + 1] > res.betti[l]
        details.append(f"{name}: a_l exact to degree {window + 1}, "
                       f"{direct} direct + certificate from {cert.start}")
    ok(6, "unbounded growth", "; ".join(details))


def test_criterion_7_gustafson_gulliksen():
    square_checks = 0
    free_checks = 0
    for name in CORPUS + [g for g in SQUARE_FREE if g not in CORPUS]:
        ctx = get_context(name)
        order = ctx.group_order
        for p in prime_factors(order):
            invs = [b.invariants() for b in blocks(ctx.algebra(p))]
            if order % (p * p) == 0:
                assert any(v["socle_dim"] >= 2 and v["m_mod_m2_dim"] >= 2
                           for v in invs), (name, p)
                square_checks += 1
            else:
                assert all(v["is_symmetric"] and v["tor_bounded"]
                           for v in invs), (name, p)
                free_checks += 1
    ok(7, "Gustafson/Gulliksen desk check",
       f"{square_checks} non-symmetric-unbounded and {free_checks} "
       f"symmetric-bounded (group, prime) cases")


def test_criterion_8_exttor_and_replace_executables():
    cells = 0
    for name, primes in [("S3", (2, 3)), ("C4", (2,)), ("C6", (2, 3)),
                         ("V4", (2,))]:
        ctx = get_context(name)
        n = ctx.ring.n
        for p in primes:
            algebra = ctx.algebra(p)
            for i in range(n):
                for j in range(n):
                    if not same_class(algebra.partition, i, j):
                        continue
                    y = tor_dims_pair(algebra, i, j, 8)
                    b = ext_dims_pair(algebra, i, j, 8)
                    assert y == b, (name, p, i, j)
                    cells += 9
    ctx = get_context("S3")
    replace_cells = 0
    for p in (2, 3):
        algebra = ctx.algebra(p)
        for i in range(4):
            for j in range(4):
                dims = oracle_ext_simple_dims(ctx, i, j, p, 3)
                assert dims == ext_dims_pair(algebra, i, j, 3), (p, i, j)
                replace_cells += 4
    ok(8, "Tor=Ext and torsion-free reduction",
       f"y=b on {cells} cells (degrees <= 8); {replace_cells} reduction "
       f"cells on S3 (degrees <= 3)")


def test_criterion_9_exponent_bounds():
    divisor_checks = 0
    for name in ("S3", "C4"):
        ctx = get_context(name)
        sep = separators(ctx.ring)
        n = ctx.ring.n
        for i in range(n):
            for j in range(n):
                bound = ctx.exponent_bound(i, j)
                if i == j:
                    # the optimal bound divides the constructed separator value
                    assert sep.value_at_index(i) % bound == 0
                for l in range(1, 4):
                    for module in (oracle_ext(ctx, i, j, 3)[l],
                                   oracle_tor(ctx, i, j, 3)[l]):
                        for d in module.invariants:
                            assert bound % d == 0, (name, i, j, l, d)
                            if i == j:
                                assert sep.value_at_index(i) % d == 0
                            divisor_checks += 1
    ok(9, "exponent bounds",
       f"{divisor_checks} elementary divisors within bounds on S3 and C4")
