"""Set-up time of one workload, measured in a fresh process.

Times the import of the CLI (which loads every module of the package) and
the construction of the workload's basis and structure matrices through the
public ``model`` functions, i.e. everything that happens before the first
integration step.  Usage: ``python3 setup_probe.py closed|open``.  Then runs
a calibration kernel a few times for the speed factor of that moment.
Prints ``{"setup_s": ..., "speed_factor": ..., "missing": [...]}``; a
structure builder this version of the package lacks is listed in
``missing`` and skipped.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import cavityghz.cli  # noqa: E402,F401  (the import is part of what is timed)
from cavityghz import model  # noqa: E402

open_system = sys.argv[1] == "open"
params = model.SystemParams()
space = model.build_space(params, open_system=open_system)
builders = ["coupling_structures", "detuning_structure", "laser_couplings"]
if open_system:
    builders.append("channel_structure")
missing = []
for name in builders:
    fn = getattr(model, name, None)
    if fn is None:
        missing.append(f"model.{name}")
    else:
        fn(space)
elapsed = perf_counter() - start

import calibrate  # noqa: E402

# importing is interpreter work, closest to the scalar kernel
factor = calibrate.speed_factor("scalar", [calibrate.kernel("scalar") for _ in range(5)])
print(json.dumps({"setup_s": elapsed, "speed_factor": factor, "missing": missing}))
