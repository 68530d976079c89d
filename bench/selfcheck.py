#!/usr/bin/env python3
"""Checks the benchmark's failure accounting.

    python3 bench/selfcheck.py

Runs one workload against deliberately wrong references
(``run.py --wrong-reference``): every repetition must then count as failed,
with error class ``CheckFailed``, the run must report ``"correct": false``
and still exit 0 with a result line.  Takes about 40 seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "hea-h4", "--seconds", "1",
         "--wrong-reference"],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = (proc.returncode == 0 and result.get("correct") is False
          and result["attempted"] >= 1
          and result["failed"] == result["attempted"]
          and "errors: " + ", ".join(["CheckFailed"] * result["failed"])
          in proc.stdout)
    print("\n".join(lines[1:-1]))
    print("failure path " + ("detected every wrong answer" if ok
                             else "did NOT behave as expected"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
