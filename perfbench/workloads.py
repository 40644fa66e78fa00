"""Workload definitions shared by the benchmark runner and the reference recorder.

Each workload is one CLI invocation.  At the default seed it runs the
registry command whose per-cell fidelities are stored in
``references.json``; any other seed moves ``t_f`` and the sweep axes by a
seeded offset smaller than one grid step and runs the equivalent
``cavityghz sweep`` (or ``simulate``) command, which is then checked against
the physics bounds only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
REFERENCE_TOL = 1e-6
T_F = 72.0
T_F_JITTER = 1.0  # |offset of t_f| at non-default seeds, in 1/g


def _num(x: float) -> str:
    return f"{x:.9g}"


@dataclass(frozen=True)
class Workload:
    name: str
    registry_argv: tuple[str, ...]
    cells: int
    open_system: bool
    kernel: str  # calibration kernel with the shape of this workload's inner loop
    # Acceptance bounds on every cell's fidelity (physics, not reference).
    min_fidelity: float
    max_fidelity: float = 1.0 + 1e-9

    def argv(self, seed: int) -> list[str]:
        """CLI arguments for this seed (the output directory is added later)."""
        if seed == DEFAULT_SEED:
            return list(self.registry_argv)
        rng = random.Random(seed)
        t_f = _num(T_F + rng.uniform(-T_F_JITTER, T_F_JITTER))
        if self.name == "simulate_closed":
            return ["simulate", "--tf", t_f]
        if self.name == "surface_closed":
            # fig10a axes: dg, dv in [-0.1, 0.1] on 11 points, step 0.02
            axes = []
            for axis in ("dg", "dv"):
                shift = rng.uniform(-0.01, 0.01)
                axes += ["--axis", f"{axis}:{_num(-0.1 + shift)}:{_num(0.1 + shift)}:11"]
            return ["sweep", "--tf", t_f, *axes]
        if self.name == "surface_open":
            # fig9a axes: gamma, kappa_c in [0, 0.01] on 5 points, step 0.0025;
            # rates cannot go negative, so the offset only moves them up
            axes = []
            for axis in ("gamma", "kappa_c"):
                shift = rng.uniform(0.0, 0.00125)
                axes += ["--axis", f"{axis}:{_num(shift)}:{_num(0.01 + shift)}:5"]
            return ["sweep", "--open", "--tf", t_f, *axes]
        raise ValueError(f"no seeded form for workload {self.name!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate_closed",
            ("simulate", "--tf", "72"),
            cells=1, open_system=False, kernel="scalar", min_fidelity=0.98,
        ),
        Workload(
            "surface_closed",
            ("scenario", "fig10a", "--grid", "11"),
            cells=121, open_system=False, kernel="closed_batch", min_fidelity=0.95,
        ),
        Workload(
            "surface_open",
            ("scenario", "fig9a", "--grid", "5"),
            cells=25, open_system=True, kernel="open_batch", min_fidelity=0.0,
        ),
    )
}
