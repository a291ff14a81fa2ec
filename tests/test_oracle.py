import pytest

from burnside.bring import BRing
from burnside.cli import main
from burnside.errors import InvariantViolation, ResolutionTooLarge
from burnside.exttor import (ModuleType, ext_report, prime_factors, tor_report)
from burnside.oracle import IntegralResolution, oracle_ext, oracle_tor
from burnside.intlinalg import sparse_smith_invariants
from burnside.resolution import ext_dims_pair
from intlinalg_reference import (kernel_of_columns, mat_mul,
                                 quotient_structure, smith_invariants)
from oracle_reference import oracle_ext_simple_dims
from util import (dense_diffs, evaluation_matrix, get_context, r_multiples,
                  unimodular_change)


def test_integral_resolution_is_exact_complex():
    ctx = get_context("S3")
    res = IntegralResolution(ctx.ring, 1)
    res.extend_to(3)
    n = ctx.ring.n
    # d_1 columns kill the target mark, and consecutive evaluations compose
    # to zero at every index
    for col in dense_diffs(res)[0]:
        assert sum(c * ctx.ring.basis[w][1] for w, c in enumerate(col[0])) == 0
    for i in range(n):
        for l in range(1, 3):
            below = evaluation_matrix(res, l, i)
            above = evaluation_matrix(res, l + 1, i)
            prod = mat_mul(above, below)
            assert all(all(x == 0 for x in row) for row in prod)


def _sparse(vectors):
    return [{k: x for k, x in enumerate(vec) if x} for vec in vectors]


@pytest.mark.parametrize("name", ["S3", "C6", "V4", "Q8", "A4"])
def test_bar_resolution_is_exact_over_z(name):
    # the bar complex is exact by its contracting homotopy, not by
    # construction: check the ranks, d_l d_{l+1} = 0 over R, and that the
    # R-multiples of the columns of d_{l+1} span the whole kernel lattice
    # of d_l (the augmentation R -> Z_j being d_0).  The span lies in the
    # kernel; it is all of it when both have the same rank and the span is
    # saturated, i.e. its Smith invariants are all 1.  (Eliminating the
    # kernel itself with `kernel_of_columns` does not finish in minutes on
    # A4's stage 3 at j = 0.)
    ring = get_context(name).ring
    n = ring.n
    for j in range(n):
        res = IntegralResolution(ring, j)
        res.extend_to(4)
        assert res.ranks == [(n - 1) ** l for l in range(5)]
        diffs = dense_diffs(res)
        # the columns of d_l as a Z-matrix: b_k goes to its mark at j
        below = [[row[j]] for row in ring.basis]
        for l in range(4):
            above = r_multiples(ring, diffs[l])
            for vec in above:
                image = [0] * len(below[0])
                for t, x in enumerate(vec):
                    if x:
                        for r, y in enumerate(below[t]):
                            image[r] += x * y
                assert not any(image), (j, l)
            kernel_rank = len(below) - len(
                sparse_smith_invariants(_sparse(below), len(below[0])))
            invs = sparse_smith_invariants(_sparse(above), len(above[0]))
            assert invs == [1] * kernel_rank, (j, l)
            below = above


def test_bar_resolution_needs_one_in_the_basis():
    ring = get_context("S3").ring
    # the same ring with its basis reversed and then summed pairwise:
    # 1 + [G/H] takes the place of 1, and no basis vector is 1
    other = unimodular_change(BRing(ring.labels, ring.basis[::-1]))
    assert [1] * ring.n not in other.basis
    with pytest.raises(InvariantViolation, match="1 as a basis vector"):
        IntegralResolution(other, 0)


def test_oracle_hom_and_tensor_base():
    ctx = get_context("S3")
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            ext0 = oracle_ext(ctx, i, j, 0)[0]
            assert ext0 == (ModuleType.free(1) if i == j else ModuleType.zero())
            tor0 = oracle_tor(ctx, i, j, 0)[0]
            if i == j:
                assert tor0 == ModuleType.free(1)
            else:
                assert tor0 == ModuleType.cyclic(ctx.dmat.d(i, j))


def test_oracle_examples():
    ctx = get_context("S3")
    assert [str(m) for m in oracle_ext(ctx, 0, 1, 3)] == ["0", "Z/2", "0", "Z/2"]
    assert [str(m) for m in oracle_ext(ctx, 0, 3, 3)] == ["0", "0", "0", "0"]
    assert [str(m) for m in oracle_tor(ctx, 0, 0, 3)] == ["Z", "Z/6", "0", "Z/6"]
    assert [str(m) for m in oracle_tor(ctx, 0, 1, 1)][0] == "Z/2"


def test_ext1_diagonal_has_no_torsion():
    for name in ("S3", "C4", "V4"):
        ctx = get_context(name)
        for i in range(ctx.ring.n):
            assert oracle_ext(ctx, i, i, 1)[1] == ModuleType.zero()


def _p_ranks(module: ModuleType) -> dict:
    out = {}
    for d in module.invariants:
        for p in prime_factors(d):
            out[p] = out.get(p, 0) + 1
    return out


@pytest.mark.parametrize("name", ["S3", "C4", "V4", "A4"])
def test_oracle_matches_reports(name):
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            er = ext_report(ctx, i, j, 3)
            tr = tor_report(ctx, i, j, 3)
            oe = oracle_ext(ctx, i, j, 3)
            ot = oracle_tor(ctx, i, j, 3)
            for l in range(4):
                assert {pp.p: pp.rank for pp in er.cell(l).p_parts} == _p_ranks(oe[l])
                if er.cell(l).module is not None and l >= 1:
                    assert er.cell(l).module == oe[l]
                assert {pp.p: pp.rank for pp in tr.cell(l).p_parts} == _p_ranks(ot[l])
                if tr.cell(l).module is not None:
                    assert tr.cell(l).module == ot[l]
            assert oe[0].free_rank == (1 if i == j else 0)
            for l in range(1, 4):
                assert oe[l].free_rank == 0 and ot[l].free_rank == 0


@pytest.mark.parametrize("name", ["S3", "C4"])
def test_elementary_divisors_divide_bounds(name):
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(n):
            bound = ctx.exponent_bound(i, j)
            for l in range(1, 4):
                for module in (oracle_ext(ctx, i, j, 3)[l],
                               oracle_tor(ctx, i, j, 3)[l]):
                    for d in module.invariants:
                        assert bound % d == 0


@pytest.mark.parametrize("name,primes", [("S3", (2, 3)), ("C4", (2,)),
                                         ("V4", (2,)), ("C6", (2, 3))])
def test_replace_lemma_dims(name, primes):
    ctx = get_context(name)
    n = ctx.ring.n
    for p in primes:
        algebra = ctx.algebra(p)
        for i in range(n):
            for j in range(n):
                dims = oracle_ext_simple_dims(ctx, i, j, p, 3)
                assert dims == ext_dims_pair(algebra, i, j, 3)


def test_oracle_degree_cap():
    ctx = get_context("S3")
    with pytest.raises(ValueError):
        oracle_ext(ctx, 0, 0, 4)


def test_oracle_budget_guard():
    ctx = get_context("S3")
    res = IntegralResolution(ctx.ring, 0, max_cells=100)
    with pytest.raises(ResolutionTooLarge,
                       match=r"reached degree 2;.*max_cells 100$"):
        res.extend_to(4)


def _reference_ext(res, i, L):
    """Ext^l as (kernel lattice of E_{l+1}) / (image lattice of E_l)."""
    out = []
    for l in range(L + 1):
        kernel = kernel_of_columns(evaluation_matrix(res, l + 1, i),
                                   res.ranks[l])
        if l == 0:
            out.append(ModuleType(len(kernel), ()))
            continue
        down = evaluation_matrix(res, l, i)
        image = [list(col) for col in zip(*down)]
        free, torsion = quotient_structure(kernel, image)
        out.append(ModuleType(free, tuple(torsion)))
    return out


def _reference_tor(res, i, L):
    """Tor_l as (kernel lattice of E_l^T) / (image lattice of E_{l+1}^T)."""
    out = []
    for l in range(L + 1):
        if l == 0:
            kernel = [[int(t == s) for t in range(res.ranks[0])]
                      for s in range(res.ranks[0])]
        else:
            down = evaluation_matrix(res, l, i)
            kernel = kernel_of_columns([list(col) for col in zip(*down)],
                                       res.ranks[l])
        image = evaluation_matrix(res, l + 1, i)
        free, torsion = quotient_structure(kernel, image)
        out.append(ModuleType(free, tuple(torsion)))
    return out


# (group, degree, label pairs or None for every pair)
CROSS_CHECK = [
    ("S3", 3, None), ("C4", 3, None), ("C6", 3, None), ("C9", 3, None),
    ("C10", 3, None), ("D5", 2, None),
    ("V4", 3, [("1", "2a"), ("2a", "1")]),
]


@pytest.mark.parametrize("name,L,pairs", CROSS_CHECK,
                         ids=[case[0] for case in CROSS_CHECK])
def test_smith_cache_matches_quotient_route(name, L, pairs):
    ctx = get_context(name)
    n = ctx.ring.n
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(ctx.ring.index_of(a), ctx.ring.index_of(b))
                 for a, b in pairs]
    for i, j in pairs:
        res = IntegralResolution(ctx.ring, j)
        res.extend_to(L + 1)
        assert oracle_ext(ctx, i, j, L) == _reference_ext(res, i, L), (i, j)
        assert oracle_tor(ctx, i, j, L) == _reference_tor(res, i, L), (i, j)


def _reversed_digits(t, digits, base):
    """t with its `digits` base-`base` digits in reverse order."""
    out = 0
    for _ in range(digits):
        t, d = divmod(t, base)
        out = out * base + d
    return out


@pytest.mark.parametrize("name", ["S3", "C6", "V4", "A4"])
def test_reversed_bar_factors_swap_source_and_target(name):
    # [a_1|...|a_l] -> [a_l|...|a_1] takes B(Z_i, R, Z_j) to B(Z_j, R, Z_i):
    # E_l(i, j) is E_l(j, i) with rows and columns digit-reversed (the
    # front factor is the lowest base-(n-1) digit) and some rows negated
    ring = get_context(name).ring
    n = ring.n
    base = n - 1
    resolutions = [IntegralResolution(ring, j) for j in range(n)]
    for res in resolutions:
        res.extend_to(4)
    for i in range(n):
        for j in range(n):
            for l in range(1, 5):
                rows = resolutions[j].evaluation_rows(l, i)
                other = resolutions[i].evaluation_rows(l, j)
                for t, row in enumerate(rows):
                    moved = {_reversed_digits(s, l - 1, base): x
                             for s, x in row.items()}
                    image = other[_reversed_digits(t, l, base)]
                    assert moved in (image, {s: -x for s, x in image.items()}
                                     ), (i, j, l, t)


def _direct_modules(ring, i, j, L):
    """(Ext, Tor) read off Z_j's own resolution at mark i, for l = 0..L."""
    res = IntegralResolution(ring, j)
    res.extend_to(L + 1)
    ext, tor = [], []
    for l in range(L + 1):
        (r, down), (r_up, up) = res.smith_form(l, i), res.smith_form(l + 1, i)
        free = res.ranks[l] - r - r_up
        ext.append(ModuleType(free, down))
        tor.append(ModuleType(free, up))
    return ext, tor


@pytest.mark.parametrize("name", ["S3", "C6", "V4", "A4"])
def test_oracle_reads_swapped_pairs_off_the_larger_index(name):
    # for i > j the oracle evaluates Z_i's resolution at mark j; the
    # modules must be those of Z_j's resolution at mark i
    ctx = get_context(name)
    n = ctx.ring.n
    for i in range(n):
        for j in range(i):
            ext, tor = _direct_modules(ctx.ring, i, j, 3)
            assert oracle_ext(ctx, i, j, 3) == ext, (i, j)
            assert oracle_tor(ctx, i, j, 3) == tor, (i, j)
    # every pair is read at a mark no larger than its resolution's index
    assert all(mark <= j for j, res in ctx.integral_resolution_of.items()
               for _, mark in res.smith)


@pytest.mark.parametrize("name", ["S3", "C6", "V4"])
def test_sparse_evaluation_matches_dense_reference(name):
    ring = get_context(name).ring
    n = ring.n
    for j in range(n):
        res = IntegralResolution(ring, j)
        res.extend_to(4)
        diffs = dense_diffs(res)
        for l in range(1, 5):
            width = res.ranks[l - 1]
            for i in range(n):
                marks = [row[i] for row in ring.basis]
                dots = [[sum(c * x for c, x in zip(e, marks)) for e in col]
                        for col in diffs[l - 1]]
                rows = res.evaluation_rows(l, i)
                assert [[row.get(s, 0) for s in range(width)]
                        for row in rows] == dots
                assert all(0 not in row.values() for row in rows)
                assert evaluation_matrix(res, l, i) == dots
                invs = smith_invariants(dots, width)
                assert res.smith_form(l, i) == (
                    len(invs), tuple(d for d in invs if d > 1))


PRUNING_CORPUS = [("S3", 4), ("C6", 4), ("V4", 4), ("A4", 4), ("D4", 3)]


@pytest.mark.parametrize("name, depth", PRUNING_CORPUS)
def test_pruned_smith_forms_match_the_unpruned(name, depth):
    # E_l drops the columns its predecessor's unit pass pivoted on, which
    # d^2 = 0 makes integer combinations of the others; every Smith form
    # must equal that of the whole E_l, and E_{l+1} E_l = 0 on the rows
    ring = get_context(name).ring
    n = ring.n
    pruned = 0
    for j in range(n):
        res = IntegralResolution(ring, j)
        res.extend_to(depth)
        for i in range(n):
            for l in range(1, depth + 1):
                rows = res.evaluation_rows(l, i)
                invs = sparse_smith_invariants(rows, res.ranks[l - 1])
                assert res.smith_form(l, i) == (
                    len(invs), tuple(d for d in invs if d > 1)), (j, i, l)
                if l > 1:
                    pruned += len(res.unit_rows[l - 1, i])
                    below = res.evaluation_rows(l - 1, i)
                    for row in rows:
                        image = {}
                        for t, x in row.items():
                            for s, y in below[t].items():
                                image[s] = image.get(s, 0) + x * y
                        assert not any(image.values()), (j, i, l)
    assert pruned


# nonempty columns of E_2..E_4 that V4's `verify --suite oracle` drops
# (of 60 Smith forms: 15 pairs (i, j) with i <= j, degrees 1..4)
PRUNED_V4 = 120


def test_verify_oracle_prunes_the_columns_of_the_unit_pivots(
        monkeypatch, tmp_path, capsys):
    # count, per Smith form, the nonempty columns it is asked to drop, and
    # check that none of them is left in the rows it eliminates
    import burnside.oracle as oracle
    dropped = []
    smith = oracle.pruned_smith_invariants

    def counting(rows, drop):
        dropped.append(len(drop & {k for row in rows for k in row}))
        out = smith(rows, drop)
        assert not drop & {k for row in rows for k in row}
        return out

    monkeypatch.setattr(oracle, "pruned_smith_invariants", counting)
    assert main(["verify", "--group", "V4", "--suite", "oracle",
                 "--cache-dir", str(tmp_path)]) == 0
    assert "oracle: ok" in capsys.readouterr().out
    assert len(dropped) == 60
    assert sum(dropped) == PRUNED_V4
