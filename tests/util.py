"""Shared caches so tests reuse groups, marks tables, and contexts, a
change of basis of a ring, and dense views of the oracle's differentials."""

from burnside.bring import BRing
from burnside.exttor import ExtTorContext
from burnside.groups import parse_group
from burnside.marks import table_of_marks
from burnside.permgroup import subgroup_classes

_GROUPS = {}
_CLASSES = {}
_MARKS = {}
_CTX = {}


def get_group(name):
    if name not in _GROUPS:
        _GROUPS[name] = parse_group(name)
    return _GROUPS[name]


def get_classes(name):
    if name not in _CLASSES:
        _CLASSES[name] = subgroup_classes(get_group(name))
    return _CLASSES[name]


def get_marks(name):
    if name not in _MARKS:
        _MARKS[name] = table_of_marks(get_group(name), get_classes(name))
    return _MARKS[name]


def get_context(name) -> ExtTorContext:
    if name not in _CTX:
        _CTX[name] = ExtTorContext.from_marks(get_marks(name), name)
    return _CTX[name]


def unimodular_change(ring) -> BRing:
    """basis_k + basis_(k+1), last vector kept: an upper unitriangular
    change of the Z-basis, so the same ring in other coordinates."""
    basis = ring.basis
    return BRing(ring.labels, [[a + b for a, b in zip(basis[k], basis[k + 1])]
                               for k in range(ring.n - 1)] + [basis[-1]])


def dense_diffs(res) -> list[list[list[list[int]]]]:
    """d_1 .. d_depth of an `IntegralResolution`, dense: column t of d_l
    lists its m_{l-1} coordinates, each a vector over the ring basis, with
    b_a at coordinate t // (n-1) and its integer parts at the basis index
    of 1."""
    n, one, bar = res.ring.n, res.one, res.bar
    width = len(bar)
    out = []
    for m_prev, stage in zip(res.ranks, res.integer_parts):
        columns = []
        for t, ints in enumerate(stage):
            col = [[0] * n for _ in range(m_prev)]
            col[t // width][bar[t % width]] = 1
            for s, k in ints.items():
                col[s][one] = k
            columns.append(col)
        out.append(columns)
    return out


def evaluation_matrix(res, l: int, i: int) -> list[list[int]]:
    """E_l of an `IntegralResolution`, dense: [pi_i(entry)] for d_l,
    shaped (m_l, m_{l-1}), from its sparse `evaluation_rows(l, i)`."""
    width = range(res.ranks[l - 1])
    return [[row.get(s, 0) for s in width]
            for row in res.evaluation_rows(l, i)]


def r_multiples(ring, columns) -> list[list[int]]:
    """b_k times each column of a dense differential (as `dense_diffs`
    builds them), as Z-vectors over the index s * n + m of
    b_m e_s: the differential as a Z-matrix, column t * n + k being b_k
    times column t."""
    n = ring.n
    sc = ring.structure_constants()
    out = []
    for col in columns:
        for k in range(n):
            vec = [0] * (len(col) * n)
            for s, e in enumerate(col):
                for w, ew in enumerate(e):
                    if ew:
                        for m, cm in sc[k][w]:
                            vec[s * n + m] += ew * cm
            out.append(vec)
    return out
