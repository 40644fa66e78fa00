"""cavityghz benchmark: wall time, set-up time and memory of one CLI workload.

Run from the repository root::

    python3 perfbench/run.py --workload surface_closed --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer split instead.  Every repetition is checked:
an operation (one sweep cell, or the single run) fails when its value is not
finite, the sidecar lists it in ``cell_errors``, it breaks the workload's
acceptance bound, or, at the default seed, it differs from the stored
reference by more than 1e-6.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED, REFERENCE_TOL, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
SCRATCH = ".bench_tmp"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60
# BLAS is pinned to one thread: the matrices are 11x11 to 40x40, so threads
# only add scheduling noise, and the program itself runs single-threaded.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# Printed with the traced run but kept out of its result object and out of
# BENCHMARK.json: at this commit no workload calls into zeno, and simulate
# writes its CSV from cli, so these read exactly 0 on every run of some
# workload.
PRINTED_ONLY = {"zeno.self_s": "s", "experiments.write_s": "s"}
# Times are reported at reference machine speed: measured time multiplied by
# the speed factor of the calibration kernel run alongside (calibrate.py).
TIME_UNITS = ("s", "ns")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("CAVITYGHZ_OUTDIR", None)
    return env


def git_commit() -> str:
    # the ceiling stops git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_worker(workload, argv: list[str], seconds: float, trace: bool) -> dict:
    out_dir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    spec = {"argv": argv, "seconds": seconds, "trace": trace,
            "kernel": workload.kernel, "out_dir": out_dir}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=child_env(), timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(open_system: bool) -> tuple[float, float, list[str]]:
    """Median set-up time over several fresh processes, measured and scaled."""
    times, scaled, missing = [], [], set()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "open" if open_system else "closed"],
            capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * probe["speed_factor"])
        missing.update(probe["missing"])
    return statistics.median(times), statistics.median(scaled), sorted(missing)


def load_references(workload, argv: list[str]) -> list[float]:
    with open(REFERENCES) as fh:
        stored = json.load(fh)[workload.name]
    if stored["argv"] != argv:
        raise BenchError(f"references.json was recorded for {stored['argv']}, not {argv}")
    return stored["fidelity"]


def check_rep(workload, rep: dict, references: list[float] | None, reasons) -> int:
    """Number of failed operations in one repetition; tallies why in ``reasons``."""
    values = rep["values"]
    if rep["rc"] != 0 or rep["error"] or len(values) != workload.cells:
        reasons["run failed" if rep["rc"] != 0 or rep["error"] else "wrong cell count"] += 1
        return workload.cells
    flagged = set(rep["flagged"])
    failed = 0
    for i, value in enumerate(values):
        if not math.isfinite(value):
            reason = "not finite"
        elif i in flagged:
            reason = "listed in cell_errors"
        elif references is not None and abs(value - references[i]) > REFERENCE_TOL:
            reason = f"differs from reference by more than {REFERENCE_TOL:g}"
        elif not workload.min_fidelity <= value <= workload.max_fidelity:
            reason = f"outside [{workload.min_fidelity:g}, {workload.max_fidelity:g}]"
        else:
            continue
        reasons[reason] += 1
        failed += 1
    return failed


def layer_metrics(reps: list[dict], factor: float, units: dict[str, str]) -> dict[str, float]:
    """Medians over the traced repetitions, each time scaled by its
    repetition's speed factor (``factor`` where it has none)."""
    rows = []
    for r in (r for r in reps if r["traced"]):
        f = r["speed_factor"] or factor
        row = {name: value * f if units[name] in TIME_UNITS else value
               for name, value in r["layers"].items()}
        row["trace.wall_s"] = r["wall_s"] * f
        row["trace.unattributed_s"] = row["trace.wall_s"] - sum(
            v for k, v in row.items() if k.endswith(".self_s")
        )
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        r["wall_s"] * (r["speed_factor"] or factor) for r in reps if not r["traced"]
    )
    return out


def declared_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cavityghz", "cli.py")):
        print("run from the repository root: src/cavityghz/cli.py not found", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    program_argv = workload.argv(args.seed)
    try:
        references = (load_references(workload, program_argv)
                      if args.seed == DEFAULT_SEED else None)
        result = run_worker(workload, program_argv, args.seconds, bool(args.trace))
        setup_s, scaled_setup_s, missing = measure_setup(workload.open_system)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    factor = result["speed_factor"]
    untraced = [r for r in result["reps"] if not r["traced"]]
    measured_wall_s = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        declared = declared_units("per_layer")
        units = declared | PRINTED_ONLY
        metrics = layer_metrics(result["reps"], factor, units)
        measured = layer_metrics([dict(r, speed_factor=1.0) for r in result["reps"]], 1.0, units)
        # the unscaled end-to-end times, so that a change in the scaled ones
        # can be told apart from a change in the speed factor
        for m in (metrics, measured):
            m["measured.wall_s"] = measured_wall_s
            m["measured.setup_s"] = setup_s
        missing = sorted(set(missing) | set(result["absent"]))
    else:
        units = declared = declared_units("end_to_end")
        measured = {
            "wall_s": measured_wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            "wall_s": statistics.median(r["wall_s"] * (r["speed_factor"] or factor)
                                        for r in untraced),
            "setup_s": scaled_setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }

    reasons = collections.Counter()
    reps = result["reps"]
    failed = sum(check_rep(workload, r, references, reasons) for r in reps)
    attempted = workload.cells * len(reps)
    for r in reps:
        if r["error"]:
            print(r["error"], file=sys.stderr)

    environment = dict(result["environment"], commit=git_commit(),
                       blas_pinned_to_one_thread=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "argv": program_argv,
        "reference_checked": references is not None,
        "speed_factor": factor,
        "measured": measured,
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_speed_factor": [r["speed_factor"] for r in reps],
        "rep_traced": [r["traced"] for r in reps],
        "failures": dict(reasons),
        "absent": missing,
        "environment": environment,
    }
    print(json.dumps({"detail": detail}))
    print(f"# {'speed_factor':28s} {factor:14.6g}")
    for name, value in metrics.items():
        print(f"# {name:28s} {value:14.6g} {units[name]:12s} (measured {measured[name]:.6g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
