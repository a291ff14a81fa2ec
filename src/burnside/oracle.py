"""Brute-force Ext/Tor oracle: integral free resolutions plus Smith form.

Independent of the recurrence path: Z_j, the integers with R acting through
mark j, is resolved by the normalized bar resolution (Mac Lane, *Homology*,
ch. X)

    ... -> R (x) Rbar^(x)l (x) Z_j -> ... -> R (x) Rbar (x) Z_j -> R -> Z_j,

where Rbar = R / Z.1 has the Z-basis of the b_a other than 1 = [G/G]
(basis index w0), so stage l is R^m_l with m_l = (n-1)^l.  Its generators
are built up one factor at a time: generator (a, y) of stage l+1 puts b_a
in front of generator y of stage l.  The differential needs no
elimination; it is read off the structure constants through the Z-linear
contracting homotopy s(b_w y) = (w, y) (zero for w = w0):

    d_1(a)      = b_a - phi_j(b_a) . 1
    d_{l+1}(a, y) = b_a . y - s(b_a . d_l(y)),

so with d_l(y) = b_c e_z + sum_s k_s e_s, column (a, y) of d_{l+1} is b_a
at coordinate y, minus k_s . 1 at coordinate (a, s) for each s, minus
c_m . 1 at coordinate (m, z) for each nonzero (m, c_m) of b_a . b_c with
m != w0: b_a at one coordinate plus integer multiples of 1.  By induction
d s + s d = id
(s s = 0 because 1 dies in Rbar, and phi_j(1) = 1 starts it), so the
complex is exact over Z, saturation included: every cycle z is d(s z).

Each differential d_l evaluated through mark i is E_l, with the m_l rows
`evaluation_rows(l, i)` over m_{l-1} columns; Hom(-, Z_i) has maps E_l and
- (x) Z_i maps E_l^T.  With r_l = rank E_l and r_0 = 0, both groups are
read off the Smith forms of E_l and E_{l+1}, torsion being the invariant
factors > 1:

    Ext^l = Z^(m_l - r_l - r_{l+1}) + torsion of coker E_l
    Tor_l = Z^(m_l - r_l - r_{l+1}) + torsion of coker E_{l+1}

as torsion of coker E_l lies in the saturated ker E_{l+1}, and a matrix and
its transpose share a Smith form.  E_l evaluates the bar complex
B(Z_i, R, Z_j), and since R is commutative, reversing the bar factors
[a_1|...|a_l] -> [a_l|...|a_1] is an isomorphism onto B(Z_j, R, Z_i): the
E_l of (j, i) is that of (i, j) with the base-(n-1) digits of every row
and column index reversed and some rows negated.  The two share a Smith
form, so the pair (i, j) is read off Z_max(i,j)'s resolution at mark
min(i, j), one Smith form per unordered pair and degree.

Everything runs on the nonzero entries: each stage keeps, per column,
only its multiples of 1 as a sparse row (its index says where b_a sits),
the next stage is built from them, and E_l is those rows plus phi_i(b_a)
at each b_a, handed to `pruned_smith_invariants`, which splits off the
unit pivots, then alternates Hermite echelons of the rows and of the
columns of the core left over until it is diagonal.  The oracle reads
only the structure constants and the marks, no block or p-local data.

Pruning.  E_{l+1} at mark i drops, before its elimination, the columns
T of E_l's unit pivots at the same mark: the rows of E_l that its unit
pass pivoted on (`unit_rows`), which index stage-l generators and so
columns of E_{l+1}.  This keeps the rank and the invariant factors
(Gaussian elimination on chain complexes: Kaczynski, Mrozek and
Slusarek, Comput. Math. Appl. 35, 1998).  Evaluating d_{l+1} d_l = 0
gives E_{l+1} E_l = 0.  Say the pass pivoted on (t_1, y_1), (t_2, y_2),
... with Y the pivot columns.  Each pivot row had only multiples of the
rows pivoted before it added to it, and holds +-1 at its own column and
0 at the earlier ones, so E_l[T, Y] is a unit lower triangular matrix
times a triangular one with +-1 on its diagonal: unimodular.  Then

    E_{l+1}[:, T] = - E_{l+1}[:, T^c] E_l[T^c, Y] E_l[T, Y]^-1

is an integer combination of the other columns, and column operations
clear it.  Dropping columns of E_l keeps E_{l+1} E_l = 0, so the
argument runs up the pruned matrices, l = 1..L+1.  The unit pass of
`pruned_smith_invariants` never transposes, so T indexes rows of E_l
itself, and only the rows of E_{l+1} that meet T are touched.

With Python 3.11.7 on a shared 2-core host, `verify --suite oracle`
takes about 0.1 s per process, warm, for V4 (E_4 is 256 x 64) and
0.77-0.86 s for D4 (E_4 is 2401 x 343; 1.10-1.22 s unpruned), nearly
all of it in the Smith forms.
"""

from __future__ import annotations

from .errors import InvariantViolation, ResolutionTooLarge
from .exttor import ExtTorContext, ModuleType
from .intlinalg import SparseRow, pruned_smith_invariants

ORACLE_DEGREE_CAP = 3
DEFAULT_MAX_CELLS = 2_000_000


class IntegralResolution:
    """The normalized bar resolution of Z_j over the B-ring, over Z.

    Stage l is R^{m_l} with m_l = (n-1)^l.  Generator (a, y) of stage l+1
    has index y * (n-1) + (position of a among the basis indices other
    than 1), so column t of d_l is b_a at coordinate t // (n-1), a the
    basis index at position t % (n-1), plus the integer multiples of 1 in
    `integer_parts[l-1][t]`.  Exactness is the bar complex's contracting
    homotopy (module docstring); the ring's basis must contain 1.
    """

    def __init__(self, ring, j: int, max_cells: int = DEFAULT_MAX_CELLS):
        unit = ring.unit_coeffs
        if sorted(unit) != [0] * (ring.n - 1) + [1]:
            raise InvariantViolation(
                "the bar resolution needs 1 as a basis vector of the ring; "
                f"1 has coordinates {unit}")
        self.ring = ring
        self.j = j
        self.max_cells = max_cells
        # basis index of 1, and the others, the Z-basis of R / Z.1
        self.one = unit.index(1)
        self.bar = [a for a in range(ring.n) if a != self.one]
        self.ranks = [1]
        # per stage, per column of d_l: its coefficients of 1 by coordinate
        self.integer_parts: list[list[SparseRow]] = []
        # (l, i) -> (rank, invariant factors > 1) of evaluation_rows(l, i),
        # filled by smith_form
        self.smith: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        # (l, i) -> the rows of E_l that its unit pass pivoted on, which
        # E_{l+1} at mark i drops as columns (module docstring)
        self.unit_rows: dict[tuple[int, int], frozenset[int]] = {}

    @property
    def depth(self) -> int:
        return len(self.ranks) - 1

    def extend_to(self, depth: int) -> None:
        while self.depth < depth:
            self._extend_once()

    def _extend_once(self) -> None:
        one, bar = self.one, self.bar
        if not self.integer_parts:
            # d_1(a) = b_a - phi_j(b_a) . 1 over the augmentation R -> Z_j
            marks = (self.ring.basis[a][self.j] for a in bar)
            stage = [{0: -mark} if mark else {} for mark in marks]
        else:
            n = self.ring.n
            m_prev, m_top = self.ranks[-2], self.ranks[-1]
            rows_dim = m_prev * n
            cols_dim = m_top * n
            if rows_dim * cols_dim > self.max_cells:
                raise ResolutionTooLarge(
                    f"integral resolution reached degree {self.depth}; "
                    f"stage {self.depth + 1} needs a {rows_dim} x {cols_dim} "
                    f"matrix, {rows_dim * cols_dim} cells > max_cells "
                    f"{self.max_cells}")
            # column (a, y) is b_a at coordinate y minus s(b_a . d(y)), where
            # d(y) = b_c e_z + sum k_s e_s with c = bar[y % (n-1)] and
            # z = y // (n-1); s sends b_m e_s to 1 at coordinate (m, s),
            # index s * (n-1) + pos(m), and kills b_1 e_s
            sc = self.ring.structure_constants()
            width = len(bar)
            pos = {m: k for k, m in enumerate(bar)}
            stage = []
            for y, ints in enumerate(self.integer_parts[-1]):
                c = bar[y % width]
                base = y // width * width
                for k, a in enumerate(bar):
                    col = {s * width + k: -x for s, x in ints.items()}
                    for m, cm in sc[a][c]:
                        if m != one:
                            idx = base + pos[m]
                            x = col.pop(idx, 0) - cm
                            if x:
                                col[idx] = x
                    stage.append(col)
        self.ranks.append(len(stage))
        self.integer_parts.append(stage)

    def evaluation_rows(self, l: int, i: int) -> list[SparseRow]:
        """The rows of E_l, d_l evaluated through mark i, as sparse rows over
        m_{l-1} columns: column t of d_l evaluates to its integer part
        (phi_i(1) = 1) plus phi_i(b_a) at its coordinate of b_a."""
        width = len(self.bar)
        marks = [self.ring.basis[a][i] for a in self.bar]
        rows = []
        for t, ints in enumerate(self.integer_parts[l - 1]):
            row = dict(ints)
            y = t // width
            x = row.pop(y, 0) + marks[t % width]
            if x:
                row[y] = x
            rows.append(row)
        return rows

    def smith_form(self, l: int, i: int) -> tuple[int, tuple[int, ...]]:
        """(rank, invariant factors > 1) of E_l = evaluation_rows(l, i);
        E_0 is the zero map into degree 0.  E_l is eliminated without the
        columns of E_{l-1}'s unit pivots at mark i (module docstring), so
        E_{l-1}'s Smith form is taken first."""
        if l == 0:
            return 0, ()
        key = (l, i)
        if key not in self.smith:
            drop = frozenset()
            if l > 1:
                self.smith_form(l - 1, i)
                drop = self.unit_rows[l - 1, i]
            invs, self.unit_rows[key] = pruned_smith_invariants(
                self.evaluation_rows(l, i), drop)
            self.smith[key] = (len(invs), tuple(d for d in invs if d > 1))
        return self.smith[key]


def _resolution_for(ctx: ExtTorContext, j: int) -> IntegralResolution:
    cache = ctx.integral_resolution_of
    if j not in cache:
        cache[j] = IntegralResolution(ctx.ring, j)
    return cache[j]


def _check_cap(L: int) -> None:
    if L > ORACLE_DEGREE_CAP:
        raise ValueError(
            f"integral oracle is capped at degree {ORACLE_DEGREE_CAP}")


def _smith_forms(ctx: ExtTorContext, i: int, j: int, L: int):
    """(m_l, Smith form of E_l, Smith form of E_{l+1}) for l = 0..L.

    The pair (i, j) is read off Z_max(i,j)'s resolution at mark
    min(i, j): reversing the bar factors makes E_l(j, i) a signed
    permutation of E_l(i, j) (module docstring), so one Smith form serves
    both orders.
    """
    _check_cap(L)
    res = _resolution_for(ctx, max(i, j))
    res.extend_to(L + 1)
    mark = min(i, j)
    for l in range(L + 1):
        yield (res.ranks[l], res.smith_form(l, mark),
               res.smith_form(l + 1, mark))


def oracle_ext(ctx: ExtTorContext, i: int, j: int, L: int) -> list[ModuleType]:
    """Exact Ext^l(Z_i, Z_j) for l = 0..L: Hom(-, Z_i) of Z_j's resolution."""
    return [ModuleType(m - r - r_up, torsion)
            for m, (r, torsion), (r_up, _) in _smith_forms(ctx, i, j, L)]


def oracle_tor(ctx: ExtTorContext, i: int, j: int, L: int) -> list[ModuleType]:
    """Exact Tor_l(Z_i, Z_j) for l = 0..L: tensor the same resolution."""
    return [ModuleType(m - r - r_up, torsion)
            for m, (r, _), (r_up, torsion) in _smith_forms(ctx, i, j, L)]

