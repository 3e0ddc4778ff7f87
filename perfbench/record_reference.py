"""Record test sqrt-PEHE of every workload at every pinned case.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json, against which run.py checks every
operation. Re-record it only with a change that is meant to alter the
numbers, and say so in that change's description.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads = run.load_workloads()
    unrecorded = {name: [None] * w.cases for name, w in workloads.WORKLOADS.items()}
    runner = run.Runner(workloads.WORKLOADS, unrecorded, tracer=None)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        values = []
        for case in range(workload.cases):
            result = runner.run(name, case)
            if result is None or runner.failed:
                raise SystemExit(f"{name} case {case}: an output check failed")
            values.append(result.sqrt_pehe)
            print(f"{name} case {case}: test sqrt_pehe {result.sqrt_pehe!r}", flush=True)
        reference[name] = values
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
