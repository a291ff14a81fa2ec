"""Request lists of the benchmark workloads.

Each request is the argv of one `burnside` CLI call, without `--cache-dir`,
which the benchmark appends.  A cold workload gives every request a fresh,
empty cache directory.  A warm workload fills one fresh cache during set-up
by running `marks` once for every group spec its requests name, spelled
exactly as the requests spell it, so that every timed lookup hits.

The lists are cut down from the proposed ones so that one pass through a list
takes about two seconds here; the run then holds several passes, each in a
fresh process, and reports medians.  README.md gives the reasons and the
requests left out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

C2_3 = "(1 2),(3 4),(5 6)"
D4_C3 = "(1 2 3 4),(1 3),(5 6 7)"
A4_C2 = "(1 2 3),(2 3 4),(5 6)"
C3_C3 = "(1 2 3),(4 5 6)"


@dataclass(frozen=True)
class Workload:
    name: str
    warm: bool
    why: str
    requests: tuple[tuple[str, ...], ...]


def _json(*argv: str) -> tuple[str, ...]:
    return (*argv, "--format", "json")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lattice", False,
            "cold cache: subgroup lattice and marks of each group are "
            "computed anew for every request, so the group core dominates",
            (
                _json("marks", "--group", "D20"),
                _json("marks", "--gens", A4_C2),
                _json("dmatrix", "--group", "S4"),
                ("verify", "--group", "S4", "--suite", "dress"),
                ("verify", "--group", "D10", "--suite", "dress"),
                _json("ext", "--group", "S3", "--source", "1", "--target", "2",
                      "--max-degree", "4", "--oracle"),
            )),
        Workload(
            "ring", True,
            "warm cache, many subgroup classes but small order: BRing, "
            "R/pR blocks and the integral oracle dominate",
            (
                _json("dmatrix", "--gens", D4_C3),
                _json("blocks", "-p", "2", "--gens", D4_C3),
                ("verify", "--gens", C2_3, "--suite", "blocks"),
                ("verify", "--group", "S3", "--suite", "oracle"),
                ("verify", "--group", "C6", "--suite", "oracle"),
            )),
        Workload(
            "resolve_gf2", True,
            "warm cache, 2-groups of order <= 8: the packed GF(2) minimal "
            "resolution stages dominate",
            (
                _json("ext", "--group", "V4", "--source", "1", "--target", "1",
                      "--max-degree", "8"),
                _json("ext", "--group", "D4", "--source", "1", "--target", "2a",
                      "--max-degree", "5"),
                _json("growth", "--group", "C4", "-p", "2", "--max-degree", "11"),
                _json("tor", "--group", "V4", "--source", "1", "--target", "2a",
                      "--max-degree", "6", "--oracle"),
                _json("ext", "--group", "Q8", "--source", "1", "--target", "2",
                      "--max-degree", "6"),
            )),
        Workload(
            "resolve_odd", True,
            "warm cache, 3-groups and a square-free group: the tuple-based "
            "F_p resolution stages dominate",
            (
                _json("ext", "--gens", C3_C3, "--source", "1", "--target", "3a",
                      "--max-degree", "5"),
                _json("growth", "--group", "C9", "-p", "3", "--max-degree", "10"),
                _json("tor", "--group", "C27", "--source", "1", "--target", "3",
                      "--max-degree", "5"),
                ("verify", "--group", "C30", "--suite", "squarefree",
                 "--max-degree", "20"),
                _json("tor", "--group", "C9", "--source", "1", "--target", "3",
                      "--max-degree", "4", "--oracle"),
            )),
        # S3-sized requests that reach every traced layer in well under a
        # second; the benchmark's own tests run it.  It is not listed in
        # BENCHMARK.json.
        Workload(
            "smoke", False,
            "S3-sized requests that reach every traced layer",
            (
                _json("marks", "--group", "S3"),
                _json("dmatrix", "--group", "S3"),
                _json("blocks", "-p", "2", "--group", "S3"),
                ("verify", "--group", "S3", "--suite", "dress"),
                ("verify", "--group", "S3", "--suite", "squarefree",
                 "--max-degree", "6"),
                _json("ext", "--group", "S3", "--source", "1", "--target", "2",
                      "--max-degree", "4", "--oracle"),
                _json("tor", "--group", "S3", "--source", "1", "--target", "2",
                      "--max-degree", "3"),
                _json("growth", "--group", "S3", "-p", "2", "--max-degree", "4"),
            )),
    )
}

BENCHMARKED = ("lattice", "ring", "resolve_gf2", "resolve_odd")


def group_spec(argv) -> tuple[str, str]:
    """The (`--group` or `--gens`, value) pair of a request."""
    for flag in ("--group", "--gens"):
        if flag in argv:
            return flag, argv[argv.index(flag) + 1]
    raise ValueError(f"request names no group: {argv}")


def warmup_requests(workload: Workload) -> list[tuple[str, ...]]:
    """One `marks` call per distinct group spec, in first-use order."""
    if not workload.warm:
        return []
    specs = dict.fromkeys(group_spec(r) for r in workload.requests)
    return [_json("marks", flag, value) for flag, value in specs]


def pass_order(workload: Workload, seed: int, pass_index: int) -> list[int]:
    """Request order of one pass; the seed fixes nothing else."""
    order = list(range(len(workload.requests)))
    random.Random(f"{workload.name}:{seed}:{pass_index}").shuffle(order)
    return order
