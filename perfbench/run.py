"""The burnside benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs from the root of a checkout and measures the `burnside` CLI built from
that checkout's `src/`.  One client, one request at a time (a closed loop):
each pass is a fresh Python process (`child.py`) that sends the workload's
request list, in an order fixed by the seed and the pass number, to
`burnside.cli.main(argv)`.  Passes repeat until `--seconds` is used up, with
at least three, and every figure is the median over the passes.

With `--trace 0` it prints, per workload, `wall_s` (the whole request
list), `req_geomean_s` (geometric mean per request), `setup_s`,
`peak_rss_mib` and `failed_ratio`, and the two times again in units of the
reference loop that each pass runs between its requests (`wall_ref`,
`req_geomean_ref`; see `child.reference_loop`).  The result line holds the
steady ones: `wall_ref`, `req_geomean_ref`, `setup_s` and `peak_rss_mib`.
With `--trace 1` untraced and traced passes alternate; the traced ones wrap
each layer's entry points (`spans.py`) and give the per-layer metrics, and
`trace.overhead_s` is the traced minus the untraced median `wall_s`.  Spans
are written as JSON lines under `.perfbench/trace/<workload>/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Any wrong output makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import BENCHMARKED, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench"
MIN_PASSES = 3
DEADLINE_S = 170  # a run of one workload ends within this, or fails
# Every figure printed per workload, with its unit; the result line holds
# the END_TO_END ones.
FIGURES = {"wall_ref": "ref", "req_geomean_ref": "ref", "setup_s": "s",
           "peak_rss_mib": "MiB", "wall_s": "s", "req_geomean_s": "s",
           "reference_s": "s"}
END_TO_END = ("wall_ref", "req_geomean_ref", "setup_s", "peak_rss_mib")


class PassFailed(Exception):
    """A pass process crashed, hung, or printed no result."""


def run_pass(name: str, seed: int, index: int, traced: bool,
             timeout: float) -> dict:
    work = WORK / "work" / f"{name}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    spec = {"workload": name, "seed": seed, "pass": index,
            "work_dir": str(work)}
    if traced:
        spec["trace_path"] = str(WORK / "trace" / name / f"pass-{index}.jsonl")
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(ROOT / "perfbench" / "child.py"),
             json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{name} pass {index}: no result within "
                         f"{timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{name} pass {index} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` is used up; traced and untraced alternate."""
    if trace:
        shutil.rmtree(WORK / "trace" / name, ignore_errors=True)
        (WORK / "trace" / name).mkdir(parents=True)
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        minimum = MIN_PASSES * (2 if trace else 1)
        if len(passes) >= minimum:
            same_kind = [p["elapsed"] for p in passes if p["traced"] == traced]
            if time.monotonic() - start + max(same_kind) > seconds:
                break
        t0 = time.monotonic()
        result = run_pass(name, seed, len(passes), traced,
                          max(1.0, DEADLINE_S - (t0 - start)))
        result["elapsed"] = time.monotonic() - t0
        passes.append(result)
    return passes


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def pass_figures(p: dict) -> dict:
    """End-to-end figures of one pass; `*_ref` are in reference-loop units."""
    wall, gm, ref = sum(p["request_s"]), geomean(p["request_s"]), p["reference_s"]
    return {"wall_ref": wall / ref, "req_geomean_ref": gm / ref,
            "setup_s": p["setup_s"], "peak_rss_mib": p["maxrss_kib"] / 1024,
            "wall_s": wall, "req_geomean_s": gm, "reference_s": ref}


def layer_unit(metric: str) -> str:
    if metric == "cache.hit_ratio":
        return "ratio"
    return "s" if metric.endswith(("_s", ".s")) else "count"


def summarize(name: str, passes: list[dict], trace: bool) -> dict:
    plain = [pass_figures(p) for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        failures.append(f"{name}: outputs differ between passes "
                        f"(traced and untraced outputs must be equal)")
        failed += 1

    print(f"{name}: {len(plain)} passes, closed loop, one client, "
          f"{len(WORKLOADS[name].requests)} requests per pass")
    metrics = {}
    for metric, unit in FIGURES.items():
        q1, med, q3 = statistics.quantiles([f[metric] for f in plain], n=4)
        if metric in END_TO_END:
            metrics[metric] = {"value": med, "unit": unit}
        print(f"  {metric:<16} {med:12.6f} {unit:<4} "
              f"(q1 {q1:.6f}, q3 {q3:.6f}, n={len(plain)})")
    print(f"  {'failed_ratio':<16} {failed / attempted:12.6f}      "
          f"({failed} of {attempted} calls)")

    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {}
        for metric in traced[0]["layers"]:
            layers[metric] = statistics.median(
                p["layers"][metric] for p in traced)
        layers["trace.overhead_s"] = (
            statistics.median(sum(p["request_s"]) for p in traced)
            - statistics.median(f["wall_s"] for f in plain))
        print(f"  per layer, median of {len(traced)} traced passes "
              f"(set-up and requests); Betti numbers checked for "
              f"{traced[0]['betti_checked']} resolutions per pass:")
        metrics = {}
        for metric, value in sorted(layers.items()):
            unit = layer_unit(metric)
            metrics[metric] = {"value": value, "unit": unit}
            print(f"    {metric:<28} {value:14.6f} {unit}")
    for line in failures:
        print(f"  FAILED {line}")
    return {"correct": failed == 0 and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            passes = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            results[name] = summarize(name, passes, bool(args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
