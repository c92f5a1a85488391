"""Check that the benchmark's output checks catch seeded faults.

    python3 bench/selftest.py

For each fault in faults.py, runs its workload with the fault installed and
requires ``failed`` above 0; a control run of each such workload without a
fault must report ``failed`` = 0.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from faults import FAULTS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1
SECONDS = 2.0


def failed_count(workload: str, fault: str | None) -> tuple[int, int]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    if fault:
        argv += ["--fault", fault]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["failed"], result["attempted"]


def main() -> int:
    ok = True
    for workload in sorted({workload for workload, _ in FAULTS.values()}):
        failed, attempted = failed_count(workload, None)
        good = failed == 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload} without a fault: {failed} of {attempted} failed")
    for fault, (workload, _) in FAULTS.items():
        failed, attempted = failed_count(workload, fault)
        good = failed > 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {fault} on {workload}: {failed} of {attempted} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
