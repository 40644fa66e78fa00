"""Record the reference fidelities of every workload at the default seed.

Run from the repository root, on the commit whose results are the reference::

    python3 perfbench/record_references.py

Runs each workload once, untraced, and rewrites perfbench/references.json
with the command line and the fidelity of every operation (sweep cells in
CSV order).  The benchmark compares default-seed runs against these values
with a tolerance of 1e-6.
"""

import json
import sys

from run import REFERENCES, run_worker
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    references = {}
    for name, workload in WORKLOADS.items():
        argv = workload.argv(DEFAULT_SEED)
        (rep,) = run_worker(workload, argv, seconds=0, trace=False)["reps"]
        if rep["rc"] != 0 or rep["error"] or len(rep["values"]) != workload.cells:
            print(f"{name}: run failed, nothing recorded\n{rep['error'] or ''}", file=sys.stderr)
            return 1
        references[name] = {"argv": argv, "fidelity": rep["values"]}
        print(f"{name}: {len(rep['values'])} values, min {min(rep['values']):.12g}")
    with open(REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
