"""Command-line front end: report commands and verification suites.

Exit codes: 0 success or verification pass, 1 verification failure,
2 usage or input errors, a failed internal check, a size budget or a
request that ran out of memory.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii as _escape

from . import cache as cache_mod
from .bring import BRing, p_classes
from .errors import BurnsideError, InvariantViolation
from .exttor import (DegreeCell, ExtTorContext, ext_ranks, ext_report,
                     prime_factors, tor_report, verify_squarefree)
from .groups import parse_cycles, parse_group
from .marks import dense_matrix, marks_document, table_of_marks
from .modp import blocks, blocks_report
from .oracle import ORACLE_DEGREE_CAP, oracle_ext, oracle_tor
from .permgroup import (Subgroup, are_conjugate, enumerate_elements, is_prime,
                        o_p)
from .resolution import check_closed_form, shared_block


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except BurnsideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a request too large for this process's memory is refused like
        # one over a size budget, not reported as a failed suite
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state on
    it, since each `parse_args` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="burnside",
        description="Exact Burnside ring reports: marks, congruences, "
                    "mod-p blocks, and Ext/Tor of mark modules.")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def common(p, report=True):
        p.add_argument("--group", help="named group: Cn, Dn, Sn, An, Q8, V4")
        p.add_argument("--gens", help='generators in cycle notation, '
                                      'e.g. "(1 2 3)(4 5), (1 2)"')
        if report:  # verify prints verdict lines only, in one format
            p.add_argument("--format", choices=["table", "json"],
                           default="table")
        p.add_argument("--cache-dir", default=None,
                       help=f"marks cache directory (env: {cache_mod.ENV_VAR})")

    p_marks = sub.add_parser("marks", help="table of marks")
    common(p_marks)
    p_marks.set_defaults(func=cmd_marks)

    p_d = sub.add_parser("dmatrix", help="congruence numbers d(i, j) and "
                                         "the mod-p class partitions")
    common(p_d)
    p_d.set_defaults(func=cmd_dmatrix)

    p_blocks = sub.add_parser("blocks", help="mod-p block decomposition")
    common(p_blocks)
    p_blocks.add_argument("-p", type=int, required=True, dest="prime")
    p_blocks.set_defaults(func=cmd_blocks)

    for kind in ("ext", "tor"):
        p_e = sub.add_parser(kind, help=f"{kind} module report between two "
                                        f"mark modules")
        common(p_e)
        p_e.add_argument("--source", required=True, help="class label")
        p_e.add_argument("--target", required=True, help="class label")
        p_e.add_argument("--max-degree", type=int, default=6)
        p_e.add_argument("--oracle", action="store_true",
                         help=f"attach exact Smith-form values for degrees "
                              f"<= {ORACLE_DEGREE_CAP}")
        p_e.set_defaults(func=cmd_ext_tor, kind=kind)

    p_v = sub.add_parser("verify", help="run a verification suite")
    common(p_v, report=False)
    p_v.add_argument("--suite", required=True,
                     choices=["squarefree", "dress", "blocks", "oracle"])
    p_v.add_argument("--max-degree", type=int, default=None)
    p_v.set_defaults(func=cmd_verify)

    p_g = sub.add_parser("growth", help="p-rank growth of Ext between two "
                                        "mark modules")
    common(p_g)
    p_g.add_argument("-p", type=int, required=True, dest="prime")
    p_g.add_argument("--max-degree", type=int, default=8)
    p_g.add_argument("--source", default="1", help="class label (default 1)")
    p_g.add_argument("--target", default="1", help="class label (default 1)")
    p_g.set_defaults(func=cmd_growth)
    return parser


def _load_group(args):
    if bool(args.group) == bool(args.gens):
        raise BurnsideError("exactly one of --group or --gens is required")
    if args.group:
        return parse_group(args.group), args.group
    return enumerate_elements(parse_cycles(args.gens)), args.gens


def _marks_json(args, group, name: str) -> dict:
    """The compact marks document of `group` (`MarksTable.to_sparse_json`),
    named after this request's spec.

    Specs with the same fingerprint share a cache entry, so the stored
    payload carries no name; the name is added on every read.
    """
    cache_dir = cache_mod.resolve_cache_dir(args.cache_dir)
    doc = cache_mod.load_marks_json(cache_dir, group)
    if doc is None:
        doc = table_of_marks(group).to_sparse_json()
        try:
            cache_mod.store_marks_json(cache_dir, group, doc)
        except OSError:
            pass  # cache is an optimization only
    return {**doc, "group": name}


def _check_max_degree(args, least: int) -> None:
    if args.max_degree is not None and args.max_degree < least:
        raise BurnsideError(
            f"--max-degree must be at least {least}, got {args.max_degree}")


def _context(args) -> ExtTorContext:
    group, name = _load_group(args)
    doc = _marks_json(args, group, name)
    labels = [c["label"] for c in doc["classes"]]
    ring = BRing(labels, dense_matrix(doc["rows"]))
    return ExtTorContext(ring, name, group.order)


def _label_index(ctx: ExtTorContext, label: str) -> int:
    try:
        return ctx.ring.index_of(label)
    except KeyError:
        raise BurnsideError(
            f"unknown class label {label!r}; known: "
            f"{', '.join(ctx.ring.labels)}") from None


def _emit(args, payload: dict, table: Callable[[], Iterable[str]]) -> None:
    """Write `payload` as JSON, or the lines `table()` yields, to the stdout
    current at call time, piece by piece; the table is built only under
    --format table."""
    if args.format == "json":
        _write_json(payload)
    else:
        write = sys.stdout.write
        for line in table():
            write(line + "\n")


def _write_json(doc) -> None:
    """Write `doc` to stdout byte for byte as `print` of `json.dumps` with
    sorted keys and an indent of 2 would, without building the whole string.

    With an indent set the standard library encodes in pure Python; here a
    list of ints or of strs is joined in one C-level call instead. Keys
    must be str; the standard library's coercion of int, float, bool and
    None keys is not reproduced, and such a key raises TypeError.
    """
    write = sys.stdout.write

    def emit(value, pad: str) -> None:
        if isinstance(value, dict):
            if not value:
                write("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key in sorted(value):  # _escape takes str keys only
                write(sep + _escape(key) + ": ")
                emit(value[key], inner)
                sep = "," + inner
            write(pad + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                write("[]")
                return
            inner = pad + "  "
            kinds = set(map(type, value))
            if kinds == {int}:  # a bool's type is bool: json writes true
                body = map(int.__repr__, value)
            elif kinds == {str}:
                body = map(_escape, value)
            else:
                sep = "[" + inner
                for item in value:
                    write(sep)
                    emit(item, inner)
                    sep = "," + inner
                write(pad + "]")
                return
            write("[" + inner + ("," + inner).join(body) + pad + "]")
        elif isinstance(value, str):
            write(_escape(value))
        elif type(value) is int:
            write(int.__repr__(value))
        else:  # bool, None, float (NaN, Infinity) and what json rejects
            write(json.dumps(value))

    emit(doc, "\n")
    write("\n")


def _render(headers: list[str], columns: Iterable[Sequence[str | int]],
            rows: Iterable[Iterable[str | int]]) -> Iterator[str]:
    """The lines of a right-aligned text table, given by its columns for
    the widths and by its rows for the lines. Each column holds strs only
    or ints only; an int column takes its width from its largest and
    smallest value, so each cell is formatted once, on its line."""
    widths = []
    for header, column in zip(headers, columns, strict=True):
        if column and type(column[0]) is int:
            column = (max(column), min(column))
        widths.append(max(len(header), *map(len, map(str, column))))

    def fmt(cells):
        return "  ".join(map(str.rjust, map(str, cells), widths))
    yield fmt(headers)
    yield fmt(["-" * w for w in widths])
    yield from map(fmt, rows)


def cmd_marks(args) -> int:
    group, name = _load_group(args)
    doc = marks_document(group, _marks_json(args, group, name))

    def table():
        classes, matrix = doc["classes"], doc["matrix"]
        labels = [c["label"] for c in classes]
        columns = itertools.chain(
            [labels, [c["order"] for c in classes]], zip(*matrix))
        rows = ((c["label"], c["order"], *row)
                for c, row in zip(classes, matrix))
        yield f"table of marks for {doc['group']}"
        yield from _render(["class", "|H|"] + labels, columns, rows)
    _emit(args, doc, table)
    return 0


def cmd_dmatrix(args) -> int:
    ctx = _context(args)
    labels = ctx.ring.labels
    n = ctx.ring.n
    dmat = ctx.ring.dmat
    partitions = [p_classes(ctx.ring, p).to_json() for p in ctx.primes]
    payload = {"group": ctx.group_name, **dmat.to_json(),
               "partitions": partitions}

    def table():
        # the widths count the diagonal as 0, as wide as its "."
        columns = itertools.chain([labels], (
            [0 if i == j else dmat.d(i, j) for i in range(n)]
            for j in range(n)))
        rows = ([labels[i], *("." if i == j else dmat.d(i, j)
                              for j in range(n))] for i in range(n))
        yield f"congruence numbers d(i, j) for {ctx.group_name}"
        yield from _render([""] + labels, columns, rows)
        for part in partitions:
            classes = " ".join("{" + " ".join(cls) + "}"
                               for cls in part["classes"])
            yield f"~{part['p']} classes: {classes}"
    _emit(args, payload, table)
    return 0


def cmd_blocks(args) -> int:
    ctx = _context(args)
    report = blocks_report(ctx.algebra(args.prime))
    payload = {"group": ctx.group_name, **report}

    def table():
        rows = [[" ".join(b["class"]), b["dim"], b["m_mod_m2"], b["socle"],
                 "yes" if b["symmetric"] else "no",
                 "yes" if b["bounded"] else "no"] for b in report["blocks"]]
        yield f"mod-{args.prime} blocks of {ctx.group_name}"
        yield from _render(["class", "dim", "m/m^2", "socle", "symmetric",
                            "bounded"], zip(*rows), rows)
    _emit(args, payload, table)
    return 0


def cmd_ext_tor(args) -> int:
    _check_max_degree(args, 0)
    ctx = _context(args)
    i = _label_index(ctx, args.source)
    j = _label_index(ctx, args.target)
    L = args.max_degree
    build = ext_report if args.kind == "ext" else tor_report
    report = build(ctx, i, j, L)
    if args.oracle:
        run = oracle_ext if args.kind == "ext" else oracle_tor
        checked = min(L, ORACLE_DEGREE_CAP)
        exact = run(ctx, i, j, checked)
        # a square-zero block's Betti numbers come in closed form; at the
        # degrees the oracle checks, check that against its elimination
        for p in ctx.primes:
            if ctx.dmat.same_p_class(i, j, p):
                check_closed_form(shared_block(ctx.algebra(p), i, j), checked)
        for l, module in enumerate(exact):
            cell = report.degrees[l]
            mismatch = _oracle_mismatch(cell, module)
            if mismatch is not None:
                raise InvariantViolation(mismatch)
            report.degrees[l] = DegreeCell(l, cell.p_parts, module, "oracle")

    def table():
        name = "Ext^l" if args.kind == "ext" else "Tor_l"
        lines = [f"{name}(Z_{args.source}, Z_{args.target}) over "
                 f"{ctx.group_name}, degrees 0..{L}"]
        for cell in report.degrees:
            parts = "; ".join(
                f"p={pp.p}: rank {pp.rank}, exp | {pp.exponent_bound}"
                for pp in cell.p_parts)
            module = (str(cell.module) if cell.module is not None
                      else "(rank data only)")
            suffix = f"  [{parts}]" if parts else ""
            lines.append(f"l={cell.l}: {module}{suffix}  ({cell.provenance})")
        return lines
    _emit(args, report.to_json(), table)
    return 0


def cmd_growth(args) -> int:
    _check_max_degree(args, 1)
    ctx = _context(args)
    i = _label_index(ctx, args.source)
    j = _label_index(ctx, args.target)
    ranks = ext_ranks(ctx, i, j, args.prime, args.max_degree)
    block = (shared_block(ctx.algebra(args.prime), i, j)
             if ctx.dmat.same_p_class(i, j, args.prime) else None)
    bounded = block is None or block.invariants()["tor_bounded"]
    verdict = "bounded" if bounded else "unbounded"
    payload = {"group": ctx.group_name, "p": args.prime,
               "source": args.source, "target": args.target,
               "ranks": ranks, "verdict": verdict}

    def table():
        return [f"p-ranks of Ext^l(Z_{args.source}, Z_{args.target}) at "
                f"p={args.prime}, l=1..{args.max_degree}",
                f"ranks {','.join(map(str, ranks))}",
                f"verdict: {verdict}"]
    _emit(args, payload, table)
    return 0


def cmd_verify(args) -> int:
    suite = args.suite
    if suite in ("dress", "blocks") and args.max_degree is not None:
        raise BurnsideError(
            f"--max-degree is taken only by --suite squarefree and "
            f"--suite oracle, not by --suite {suite}")
    if suite == "squarefree":
        return _verify_squarefree(args)
    if suite == "dress":
        return _verify_dress(args)
    if suite == "blocks":
        return _verify_blocks(args)
    return _verify_oracle(args)


def _verify_squarefree(args) -> int:
    # the suite compares degrees l and l + 2 for l >= 1
    _check_max_degree(args, 3)
    ctx = _context(args)
    L = 18 if args.max_degree is None else args.max_degree
    result = verify_squarefree(ctx, L)
    if not result.applicable:
        print(f"squarefree: not-applicable (|{ctx.group_name}| = "
              f"{ctx.group_order} is not square-free)")
        return 0
    if result.passed:
        print(f"squarefree: pass (all pairs, degrees 1..{L - 2} vs +2)")
        return 0
    print(f"squarefree: FAIL at {result.counterexample}")
    return 1


def _verify_dress(args) -> int:
    group, name = _load_group(args)
    doc = _marks_json(args, group, name)
    classes = doc["classes"]
    dmat = BRing([c["label"] for c in classes],
                 dense_matrix(doc["rows"])).dmat
    reps = [Subgroup.from_rank_mask(group, c["members"]) for c in classes]
    primes = prime_factors(group.order)
    if not primes:
        print(f"dress: not-applicable (|{name}| = {group.order} has no "
              f"prime divisor)")
    ok = True
    for p in primes:
        mismatches = 0
        checked = 0
        ops = [o_p(rep, p) for rep in reps]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                checked += 1
                lhs = dmat.d(i, j) % p == 0
                rhs = are_conjugate(group, ops[i], ops[j])
                if lhs != rhs:
                    mismatches += 1
        status = "ok" if mismatches == 0 else f"{mismatches} MISMATCHES"
        print(f"dress p={p}: {status} ({checked} pairs) [{name}]")
        ok = ok and mismatches == 0
    return 0 if ok else 1


def _verify_blocks(args) -> int:
    """Blocks match the p-classes for each p dividing |G|, and are all
    simple for the two least primes that do not."""
    ctx = _context(args)
    order = ctx.group_order
    coprime = (q for q in itertools.count(2) if is_prime(q) and order % q)
    ok = True
    for p in prime_factors(order) + list(itertools.islice(coprime, 2)):
        algebra = ctx.algebra(p)
        algebra.check_associative()
        dims = [b.dim for b in blocks(algebra)]
        if order % p:
            good = all(d == 1 for d in dims)
            print(f"blocks p={p} (coprime): "
                  f"{'semisimple ok' if good else 'FAIL'}")
        else:
            good = dims == [len(c) for c in algebra.classes]
            print(f"blocks p={p}: {'ok' if good else 'FAIL'} "
                  f"(count {len(dims)}, dims {dims})")
        ok = ok and good
    return 0 if ok else 1


def _verify_oracle(args) -> int:
    _check_max_degree(args, 0)
    ctx = _context(args)
    L = (ORACLE_DEGREE_CAP if args.max_degree is None
         else min(args.max_degree, ORACLE_DEGREE_CAP))
    n = ctx.ring.n
    failures = 0
    cells = 0
    for i in range(n):
        for j in range(n):
            er = ext_report(ctx, i, j, L)
            tr = tor_report(ctx, i, j, L)
            oe = oracle_ext(ctx, i, j, L)
            ot = oracle_tor(ctx, i, j, L)
            for l in range(L + 1):
                cells += 2
                failures += _oracle_mismatch(er.degrees[l], oe[l]) is not None
                failures += _oracle_mismatch(tr.degrees[l], ot[l]) is not None
    status = "ok" if failures == 0 else f"{failures} FAILURES"
    print(f"oracle: {status} ({n * n} pairs, degrees 0..{L}, {cells} cells)")
    return 0 if failures == 0 else 1


def _oracle_mismatch(cell: DegreeCell, module) -> str | None:
    """How the oracle's module disagrees with a report cell, or None.

    The p-rank of the oracle's module is its number of invariant factors
    divisible by p; it must equal the report's rank for every prime, those
    the report leaves out included.  A known report module must equal it.
    """
    reported = {pp.p: pp.rank for pp in cell.p_parts}
    actual: dict[int, int] = {}
    for d in module.invariants:
        for p in prime_factors(d):
            actual[p] = actual.get(p, 0) + 1
    for p in sorted(reported.keys() | actual.keys()):
        if reported.get(p, 0) != actual.get(p, 0):
            return (f"oracle p-rank {actual.get(p, 0)} != report "
                    f"{reported.get(p, 0)} at degree {cell.l}, p = {p}")
    if cell.module is not None and cell.module != module:
        return (f"oracle module {module} != report {cell.module} "
                f"at degree {cell.l}")
    return None


if __name__ == "__main__":
    sys.exit(main())
