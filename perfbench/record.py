"""Record the expected exit code and stdout of every benchmark call.

    python3 perfbench/record.py

Runs each workload's set-up and requests once, in list order, and writes
`perfbench/expected/<workload>.json`.  The files in the repository were
recorded at the commit that added the benchmark; re-record only when a
change of output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.child import EXPECTED_DIR, ROOT, load_cli, run_cli  # noqa: E402
from perfbench.workloads import WORKLOADS, warmup_requests  # noqa: E402


def record(cli, workload, work: Path) -> dict:
    doc = {"setup": [], "request": []}

    def call(phase, argv, cache):
        rc, stdout = run_cli(cli, (*argv, "--cache-dir", str(cache)))
        doc[phase].append({"argv": list(argv), "exit": rc, "stdout": stdout})

    for argv in warmup_requests(workload):
        call("setup", argv, work / "cache")
    for index, argv in enumerate(workload.requests):
        call("request", argv,
             work / "cache" if workload.warm else work / f"cache-{index}")
    return doc


def main() -> None:
    cli = load_cli()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        work = ROOT / ".perfbench" / "record" / name
        shutil.rmtree(work, ignore_errors=True)
        try:
            doc = record(cli, workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        bad = [c for c in doc["setup"] + doc["request"] if c["exit"] != 0]
        print(f"{name}: {len(doc['request'])} requests, "
              f"{len(doc['setup'])} set-up calls, {len(bad)} nonzero exits")


if __name__ == "__main__":
    main()
