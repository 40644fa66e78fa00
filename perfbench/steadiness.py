"""Steadiness check: repeated benchmark runs of one commit against its own bounds.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --sets 2

Runs the command in BENCHMARK.json ``--runs`` times per workload and set for
``run_seconds`` each, every run with its own seed starting at 1 (workloads
interleaved, so slow periods of the machine hit all of them alike).  For
every workload and end-to-end metric it prints the median, the quartiles and
their distance as a share of the median (the spread), and checks

* that the spread stays within the metric's bound,
* that each set's median differs from the first set's by no more than the
  bound, in either direction.

Exits 1 when a run fails its correctness gate or a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    ok = True
    seed = 1
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                result = run_once(bench["command"], w, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} "
                          "operations failed", file=sys.stderr)
                    ok = False
                values[w][s].append({k: v["value"] for k, v in result["metrics"].items()})
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            seed += 1

    print(f"\n{'workload':16s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s in range(args.sets):
                median, q1, q3, share = spread([run[name] for run in values[w][s]])
                verdicts = []
                if share > bound:
                    verdicts.append("SPREAD OVER BOUND")
                    ok = False
                elif share > bound / 3:
                    verdicts.append("spread over bound/3")
                if first_median is None:
                    first_median = median
                else:
                    moved = median / first_median - 1
                    verdicts.append(f"vs set 1 {moved:+.1%}")
                    if abs(moved) > bound:
                        verdicts.append("MEDIAN MOVED OVER BOUND")
                        ok = False
                print(f"{w:16s} {name:12s} {s + 1:3d} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{share:7.3f} {bound:6.2f}  {'; '.join(verdicts) or 'ok'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
