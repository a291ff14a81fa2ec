"""Broader invariant sweeps across small group families."""

import random

import pytest

from burnside.exttor import (ExtTorContext, ext_report, prime_factors,
                             tor_report, verify_squarefree)
from burnside.groups import parse_cycles, parse_group
from burnside.marks import ghost, multiply, table_of_marks
from burnside.modp import blocks
from burnside.oracle import oracle_ext, oracle_tor
from burnside.perm import Permutation
from burnside.resolution import betti_growth_certificate, _resolution_cache
from intlinalg_reference import (lattice_span_basis, mat_mul, rank,
                                 solve_integer)
from util import get_context, get_group, get_marks


@pytest.mark.parametrize("n", range(2, 17))
def test_cyclic_pipeline_sweep(n):
    ctx = ExtTorContext.from_marks(table_of_marks(parse_group(f"C{n}")), f"C{n}")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert ctx.ring.n == len(divisors)
    for i in range(ctx.ring.n):
        for j in range(i + 1, ctx.ring.n):
            assert n % ctx.dmat.d(i, j) == 0
    square_free = all(n % (p * p) for p in prime_factors(n))
    result = verify_squarefree(ctx, 10)
    assert result.applicable == square_free
    if square_free:
        assert result.passed
    for p in prime_factors(n):
        algebra = ctx.algebra(p)
        bl = blocks(algebra)
        assert [b.dim for b in bl] == [len(c) for c in algebra.classes]
        if n % (p * p) == 0:
            # some block is Gulliksen-unbounded and certifiably growing
            grow = [b for b in bl if not b.invariants()["tor_bounded"]]
            assert grow
            cert = betti_growth_certificate(grow[0], _resolution_cache(grow[0]))
            assert cert is not None


@pytest.mark.parametrize("n", range(3, 8))
def test_dihedral_pipeline_sweep(n):
    ctx = ExtTorContext.from_marks(table_of_marks(parse_group(f"D{n}")), f"D{n}")
    assert ctx.group_order == 2 * n
    for i in range(ctx.ring.n):
        for j in range(i + 1, ctx.ring.n):
            assert (2 * n) % ctx.dmat.d(i, j) == 0
    for p in prime_factors(2 * n):
        algebra = ctx.algebra(p)
        assert [b.dim for b in blocks(algebra)] == [
            len(c) for c in algebra.classes]


def test_transitive_coset_actions_burnside_count():
    # a transitive action has exactly one orbit: sum of fixed points = |G|
    for name in ("S4", "D4", "Q8"):
        group = get_group(name)
        table = get_marks(name)
        from marks_reference import CosetAction
        for cls in table.class_table:
            action = CosetAction(group, cls.representative)
            total = 0
            for g in group.elements:
                perm = action.permutation_of(g)
                total += sum(1 for t in range(action.points) if perm(t) == t)
            assert total == group.order


@pytest.mark.parametrize("name,degree", [("C6", 3), ("D5", 3), ("V4", 3),
                                         ("C12", 2)])
def test_oracle_agreement_beyond_acceptance_corpus(name, degree):
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            er = ext_report(ctx, i, j, degree)
            tr = tor_report(ctx, i, j, degree)
            oe = oracle_ext(ctx, i, j, degree)
            ot = oracle_tor(ctx, i, j, degree)
            for l in range(degree + 1):
                for cell, module in ((er.cell(l), oe[l]), (tr.cell(l), ot[l])):
                    got = {}
                    for d in module.invariants:
                        for p in prime_factors(d):
                            got[p] = got.get(p, 0) + 1
                    if l >= 1:
                        assert {pp.p: pp.rank for pp in cell.p_parts} == got, \
                            (name, i, j, l)
                    if cell.module is not None and l >= 1:
                        assert cell.module == module, (name, i, j, l)
                    bound = ctx.exponent_bound(i, j)
                    if l >= 1:
                        for d in module.invariants:
                            assert bound % d == 0


def test_ghost_is_ring_homomorphism():
    table = get_marks("D4")
    rng = random.Random(11)
    for _ in range(10):
        x = table.element([rng.randint(-3, 3) for _ in range(table.size)])
        y = table.element([rng.randint(-3, 3) for _ in range(table.size)])
        gx, gy = ghost(x), ghost(y)
        assert ghost(multiply(x, y)) == [a * b for a, b in zip(gx, gy)]
        assert ghost(x + y) == [a + b for a, b in zip(gx, gy)]


def test_solve_integer_random_round_trip():
    rng = random.Random(19)
    for _ in range(20):
        m, r, q = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 3)
        if r > m:
            continue
        # build A with full column rank by planting an identity block
        A = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        for t in range(r):
            A[t][t] += 7
        Y = [[rng.randint(-4, 4) for _ in range(q)] for _ in range(r)]
        B = mat_mul(A, Y)
        assert solve_integer(A, B) == Y


def test_solve_integer_rejects_perturbed_right_hand_sides():
    # the round trip above, with one column of B moved off the lattice
    rng = random.Random(29)
    for _ in range(20):
        m, r, q = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 3)
        if r > m:
            continue
        A = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        for t in range(r):
            A[t][t] += 7
        if rank(A, r) < r:
            continue
        Y = [[rng.randint(-4, 4) for _ in range(q)] for _ in range(r)]
        j, c = rng.randrange(q), rng.randrange(r)
        # doubling column c of A and adding the old column c to B_j moves
        # the unique solution to Y + e_c / 2 in column j
        A2 = [row[:c] + [2 * row[c]] + row[c + 1:] for row in A]
        B = mat_mul(A2, Y)
        for i in range(m):
            B[i][j] += A[i][c]
        with pytest.raises(ValueError, match="^non-integral solution entry$"):
            solve_integer(A2, B)
        if r == m:
            continue
        # a unit vector outside the rational column span of A
        i = next(i for i in range(m)
                 if rank([[*row, int(k == i)] for k, row in enumerate(A)],
                         r + 1) == r + 1)
        B = mat_mul(A, Y)
        B[i][j] += 1
        with pytest.raises(ValueError, match="^system is inconsistent$"):
            solve_integer(A, B)


def test_lattice_span_basis_is_canonical():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(2, 6)
        k = rng.randint(1, 6)
        vecs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)]
        basis = lattice_span_basis(vecs)
        # shuffling and adding integer combinations leaves the span intact
        extra = []
        for _ in range(3):
            combo = [0] * m
            for v in vecs:
                c = rng.randint(-2, 2)
                combo = [x + c * y for x, y in zip(combo, v)]
            extra.append(combo)
        shuffled = vecs[::-1] + extra
        assert lattice_span_basis(shuffled) == basis
        assert lattice_span_basis(basis) == basis
        # entries above pivots are reduced modulo the pivot
        pivots = {next(i for i, x in enumerate(row) if x): row for row in basis}
        for p, row in pivots.items():
            for other in basis:
                if other is not row:
                    assert 0 <= other[p] < row[p] or other[p] == 0


def test_permutation_cycle_string_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 9)
        images = list(range(n))
        rng.shuffle(images)
        perm = Permutation(images)
        text = perm.cycle_string()
        parsed = parse_cycles(text)[0]
        # parsing infers the degree from the largest moved point
        assert parsed.images == perm.images[:parsed.degree]
        assert all(perm(i) == i for i in range(parsed.degree, n))


def test_s4_reports_are_consistent():
    ctx = get_context("S4")
    i = ctx.ring.index_of("1")
    report = ext_report(ctx, i, i, 4)
    # S4 has order 24 = 2^3 * 3: 2-parts carry bounds only, 3-parts are exact
    for cell in report.degrees[1:]:
        for pp in cell.p_parts:
            assert pp.exact == (pp.p == 3)
    from burnside.exttor import ext_ranks, tor_ranks
    a = ext_ranks(ctx, i, i, 2, 5)
    z = tor_ranks(ctx, i, i, 2, 4)
    assert a[0] == 0
    assert z == a[1:]
