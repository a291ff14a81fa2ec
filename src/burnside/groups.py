"""Named group library and cycle-notation parsing."""

from __future__ import annotations

import re

from .errors import ParseError, UnknownName
from .perm import Permutation
from .permgroup import PermGroup, enumerate_elements

_NAME_RE = re.compile(r"^([CSAD])(\d+)$", re.IGNORECASE)

# Quaternion unit layout for the regular action: 1, -1, i, -i, j, -j, k, -k
_Q8_LEFT_I = (2, 3, 1, 0, 6, 7, 5, 4)
_Q8_LEFT_J = (4, 5, 7, 6, 1, 0, 2, 3)


def named_generators(name: str) -> list[Permutation]:
    """Deterministic generators for the built-in names.

    Cn: the n-cycle (1 2 ... n).  Sn: (1 2) and the n-cycle.  An: (1 2 3)
    plus an n-cycle (n odd) or (2 3 ... n) (n even).  Dn, n >= 3: the
    n-cycle and the reflection fixing point 1.  V4: the two double
    transpositions (1 2)(3 4), (1 3)(2 4).  Q8: left translations by i
    and j on the eight unit quaternions.
    """
    m = _NAME_RE.match(name)
    if m:
        family = m.group(1).upper()
        n = int(m.group(2))
        if n < 1:
            raise ParseError(f"group size must be positive in {name!r}")
        if family == "C":
            if n == 1:
                return []
            return [_cycle_perm(n, list(range(n)))]
        if family == "S":
            if n == 1:
                return []
            gens = [_cycle_perm(n, [0, 1])]
            if n > 2:
                gens.append(_cycle_perm(n, list(range(n))))
            return gens
        if family == "A":
            if n <= 2:
                return []
            gens = [_cycle_perm(n, [0, 1, 2])]
            if n > 3:
                if n % 2 == 1:
                    gens.append(_cycle_perm(n, list(range(n))))
                else:
                    gens.append(_cycle_perm(n, list(range(1, n))))
            return gens
        if family == "D":
            if n < 3:
                raise ParseError(f"dihedral {name!r} needs n >= 3")
            rotation = _cycle_perm(n, list(range(n)))
            reflection = Permutation([(n - i) % n for i in range(n)])
            return [rotation, reflection]
    upper = name.upper()
    if upper == "V4":
        return [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])]
    if upper == "Q8":
        return [Permutation(_Q8_LEFT_I), Permutation(_Q8_LEFT_J)]
    raise UnknownName(f"unknown group name {name!r}; "
                      f"known: Cn, Dn, Sn, An, Q8, V4")


def _named_degree(name: str) -> int:
    m = _NAME_RE.match(name)
    if m:
        return max(int(m.group(2)), 1)
    return 4 if name.upper() == "V4" else 8


def _cycle_perm(degree: int, *cycles: list[int]) -> Permutation:
    """The permutation of range(degree) made of the disjoint `cycles`."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(images)


def parse_cycles(text: str) -> list[Permutation]:
    """Parse generators like "(1 2 3)(4 5), (1 2)"; points are 1-based."""
    chunks = _split_generators(text)
    if not chunks:
        raise ParseError("no generators given")
    parsed: list[list[list[int]]] = []
    degree = 0
    for chunk in chunks:
        cycles = []
        rest = chunk.strip()
        if not rest:
            raise ParseError(f"empty generator in {text!r}")
        while rest:
            if not rest.startswith("("):
                raise ParseError(f"expected '(' at {rest!r}")
            close = rest.find(")")
            if close < 0:
                raise ParseError(f"unbalanced parentheses in {chunk!r}")
            body = rest[1:close]
            rest = rest[close + 1:].strip()
            points = []
            for tok in re.split(r"[\s,]+", body.strip()):
                if not tok:
                    continue
                if not tok.isdigit():
                    raise ParseError(f"bad point {tok!r} in {chunk!r}")
                val = int(tok)
                if val < 1:
                    raise ParseError(f"points are 1-based, got {val}")
                points.append(val - 1)
            if len(set(points)) != len(points):
                raise ParseError(f"repeated point inside a cycle: {chunk!r}")
            cycles.append(points)
            if points:
                degree = max(degree, max(points) + 1)
        seen: set[int] = set()
        for c in cycles:
            if seen & set(c):
                raise ParseError(f"point reused across cycles in {chunk!r}")
            seen.update(c)
        parsed.append(cycles)
    degree = max(degree, 1)
    return [_cycle_perm(degree, *cycles) for cycles in parsed]


def _split_generators(text: str) -> list[str]:
    chunks = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if cur:
        chunks.append("".join(cur))
    return [c for c in (c.strip() for c in chunks) if c]


def parse_group(spec: str) -> PermGroup:
    """Resolve a name or a cycle-notation generator list to a group."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group specification")
    if spec.startswith("("):
        return enumerate_elements(parse_cycles(spec))
    gens = named_generators(spec)
    return enumerate_elements(gens, degree=_named_degree(spec))
