"""Benchmark worker: repeats one CLI workload in a fresh process and reports it.

Reads a JSON spec on stdin::

    {"argv": [...], "seconds": 10, "trace": false, "kernel": "scalar",
     "out_dir": ".bench_tmp/run-1"}

and calls ``cavityghz.cli.main(argv + ["--out", <rep dir>])`` in-process,
repetition after repetition, until the next repetition would end after
``seconds`` (at least one runs), with the calibration kernel sampling the
machine's speed during each.  With ``trace`` set, untraced and traced
repetitions alternate so that the tracing overhead is measured in the same
process.  Prints one JSON object: per-repetition wall time, the fidelity of
every operation, the cells flagged in the sidecar, bytes written, per-layer
figures of traced repetitions, the calibration times, and the process's
peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

import calibrate
from run import BLAS_THREAD_VARS


def _read_outputs(summary: dict) -> tuple[list[float], list[int]]:
    """Fidelity per operation and the cells flagged in the sidecar.

    A single run whose trajectory CSV holds a non-finite value reports NaN.
    """
    if "final" in summary:  # simulate: one operation, plus the trajectory CSV
        with open(summary["csv"]) as fh:
            next(fh)
            finite = all(math.isfinite(float(x)) for line in fh for x in line.split(","))
        return [summary["final"]["fidelity"] if finite else math.nan], []
    with open(summary["csv"]) as fh:
        next(fh)
        rows = [line.rstrip("\n").split(",") for line in fh]
    values = [float(value) for _, _, observable, value in rows if observable == "fidelity"]
    with open(summary["sidecar"]) as fh:
        diagnostics = json.load(fh)["diagnostics"]
    flagged = [int(err["cell"]) for err in diagnostics.get("cell_errors", [])]
    return values, flagged


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def run_rep(cli, argv: list[str], out_dir: str, sampler) -> dict:
    """One timed call of the CLI; outputs are checked after the clock stops.

    The sampler runs the calibration kernel alongside: the repetition is
    timed on its clock, which leaves the kernel's time out, and its samples
    give the repetition's own speed factor.
    """
    os.makedirs(out_dir)
    captured = io.StringIO()
    rep = {"values": [], "flagged": [], "error": None}
    first_sample = len(sampler.samples)
    start = sampler.work_time()
    try:
        with sampler, contextlib.redirect_stdout(captured):
            rc = cli.main([*argv, "--out", out_dir])
    except Exception:  # a crash of the program is a failed repetition, not a crashed benchmark
        rc = None
        rep["error"] = traceback.format_exc()
    rep["wall_s"] = sampler.work_time() - start
    samples = sampler.samples[first_sample:]
    rep["speed_factor"] = calibrate.speed_factor(sampler.name, samples) if samples else None
    rep["rc"] = rc
    if rc == 0:
        try:
            rep["values"], rep["flagged"] = _read_outputs(
                json.loads(captured.getvalue())
            )
        except (OSError, ValueError, KeyError, StopIteration):
            rep["error"] = traceback.format_exc()
    rep["bytes_written"] = _dir_bytes(out_dir)
    shutil.rmtree(out_dir)
    return rep


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):  # the config layout differs between numpy versions
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.abspath("src")
    import cavityghz.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"cavityghz was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    sampler = calibrate.SpeedSampler(spec["kernel"])
    sampler.samples += [calibrate.kernel(sampler.name) for _ in range(2)]
    tracer = None
    modes = [False]
    if spec["trace"]:
        from tracer import Tracer

        # spans read the sampler's clock, so no span absorbs the kernel's time
        tracer = Tracer(clock=sampler.work_time)
        modes = [False, True]

    reps = []
    start = perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            out_dir = os.path.join(spec["out_dir"], f"rep-{len(reps)}")
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    rep = run_rep(cli, spec["argv"], out_dir, sampler)
                finally:
                    tracer.uninstall()
                rep["layers"] = tracer.metrics()
                rep["layers"]["experiments.bytes_written"] = rep["bytes_written"]
            else:
                rep = run_rep(cli, spec["argv"], out_dir, sampler)
            rep["traced"] = traced
            reps.append(rep)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > spec["seconds"]:
            break

    result = {
        "reps": reps,
        "calibration_s": sampler.samples,
        "speed_factor": calibrate.speed_factor(sampler.name, sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        result["absent"] = tracer.absent()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
