"""One pass of a workload, in a fresh Python process.

    python3 -I perfbench/child.py '<json spec>'

`run.py` starts this once per pass.  The pass imports `burnside.cli` from
the checkout's `src/`, fills a fresh marks cache for a warm workload, then
sends the workload's requests one after another to `burnside.cli.main(argv)`
in the order the seed gives, with the reference loop before the first and
after each request, and afterwards checks every output.  It prints one JSON
object with its timings, its failures and its peak resident memory.

`spec` keys: `workload`, `seed`, `pass`, `spawned_at` (the parent's
`time.monotonic()` just before it started this process), `work_dir` and,
for a traced pass, `trace_path`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = ROOT / "perfbench" / "expected"
REFERENCE_ROUNDS = 3000


def reference_loop() -> float:
    """Seconds for a fixed round of the kinds of work the program does.

    Fractions, big integers, tuples, dicts and lists, with no burnside code.
    The host's speed drifts by a fifth within minutes; run between the
    requests of a pass, this loop drifts with it, so a request time divided
    by the loop's mean time is steady where seconds are not.
    """
    t0 = time.perf_counter()
    acc, seen, x = Fraction(0), {}, 1
    for i in range(REFERENCE_ROUNDS):
        acc += Fraction(i % 13, 7 + i % 5)
        key = tuple(range(i % 9))
        seen[key] = seen.get(key, 0) + 1
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 200)
        x ^= sum([j * i % 11 for j in range(8)])
    return time.perf_counter() - t0


def load_cli():
    """Import `burnside.cli` from this checkout's sources, and only from there."""
    src = ROOT / "src"
    if not (src / "burnside" / "cli.py").is_file():
        raise SystemExit(f"no burnside sources under {src}")
    sys.path.insert(0, str(src))
    from burnside import cli
    if Path(cli.__file__).resolve().parent != (src / "burnside").resolve():
        raise SystemExit(f"burnside imported from {cli.__file__}, not {src}")
    return cli


def run_cli(cli, argv) -> tuple[int | str, str]:
    """Exit code and stdout of one CLI call made in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed request
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_call(argv, rc, stdout: str, expected: dict) -> list[str]:
    """Problems with one call's result; empty when it is correct."""
    problems = []
    if list(argv) != expected["argv"]:
        problems.append(f"recorded argv {expected['argv']} differs")
    if rc != expected["exit"]:
        problems.append(f"exit {rc!r}, expected {expected['exit']}")
    if stdout != expected["stdout"]:
        problems.append("stdout differs from the recorded bytes")
    if rc == 0:
        problems += independent_checks(argv, stdout)
    return problems


def independent_checks(argv, stdout: str) -> list[str]:
    """Checks that hold whatever the recorded output says."""
    if argv[0] == "verify":
        lines = stdout.splitlines()
        bad = [ln for ln in lines
               if not ln.partition(": ")[2].startswith(("ok", "pass",
                                                        "semisimple ok"))]
        return [f"verify line not a pass: {ln!r}" for ln in bad] or (
            [] if lines else ["verify printed nothing"])
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    return marks_problems(doc) if argv[0] == "marks" else []


def marks_problems(doc: dict) -> list[str]:
    """A table of marks is lower triangular with first column |G|/|H|."""
    matrix = doc["matrix"]
    orders = [c["order"] for c in doc["classes"]]
    group_order = matrix[0][0]
    problems = []
    for h, row in enumerate(matrix):
        if len(row) != len(matrix) or any(row[h + 1:]) or row[h] <= 0:
            problems.append(f"marks row {h} is not lower triangular")
        if row[0] * orders[h] != group_order:
            problems.append(f"marks row {h}: first column is not |G|/|H|")
    return problems


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def main(spec: dict) -> dict:
    cli = load_cli()
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, pass_order, warmup_requests

    workload = WORKLOADS[spec["workload"]]
    expected = load_expected(workload.name)
    work = Path(spec["work_dir"])
    recorder = None
    if spec.get("trace_path"):
        from perfbench.spans import Recorder
        recorder = Recorder()
        recorder.install()

    results = []  # (phase, index, argv, rc, stdout, seconds)

    def call(phase, index, argv):
        if recorder is not None:
            recorder.phase, recorder.request, recorder.argv = phase, index, argv
        t0 = time.perf_counter()
        rc, stdout = run_cli(cli, argv)
        results.append((phase, index, argv, rc, stdout,
                        time.perf_counter() - t0))

    shared_cache = work / "cache"
    for index, argv in enumerate(warmup_requests(workload)):
        call("setup", index, (*argv, "--cache-dir", str(shared_cache)))

    order = pass_order(workload, spec["seed"], spec["pass"])
    setup_end = time.monotonic()
    reference_s = [reference_loop()]
    for index in order:
        cache = shared_cache if workload.warm else work / f"cache-{index}"
        call("request", index, (*workload.requests[index], "--cache-dir",
                                str(cache)))
        reference_s.append(reference_loop())
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = []
    failed = 0
    request_s = [0.0] * len(workload.requests)
    digests = [""] * len(workload.requests)
    for phase, index, argv, rc, stdout, seconds in results:
        argv = list(argv[:-2])  # without --cache-dir
        problems = check_call(argv, rc, stdout, expected[phase][index])
        failed += bool(problems)
        failures += [f"{phase} {index} {' '.join(argv)}: {p}" for p in problems]
        if phase == "request":
            request_s[index] = seconds
            digests[index] = digest(rc, stdout)

    out = {"setup_s": setup_end - spec["spawned_at"],
           "reference_s": sum(reference_s) / len(reference_s),
           "request_s": request_s, "digests": digests,
           "attempted": len(results), "failed": failed,
           "failures": failures, "maxrss_kib": maxrss_kib}
    if recorder is not None:
        layers = recorder.layer_metrics()
        layers["trace.unaccounted_s"] = (sum(r[5] for r in results)
                                         - recorder.self_seconds())
        out["layers"] = layers
        out["betti_checked"], mismatches = recorder.check_betti()
        out["failures"] += mismatches
        out["failed"] += len(mismatches)
        recorder.write_jsonl(spec["trace_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
