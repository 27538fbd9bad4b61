"""The benchmark's workloads: fixed lists of CLI invocations, each with its check.

One operation is one ``dualpairs`` CLI invocation plus the checks on its
artifact.  The seed reaches ``verify``, ``converge`` and ``advect`` only;
``peakon`` reads no seed, so the two simulation workloads are the same for
every seed.  The peakon checks restate the CLI defaults they rely on
(alpha = 1, p = 2, dt = 1e-3, radius = 1; exp1d kernel for points, gaussian
for filaments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("verify", "grid", "peakon-train", "filament")

# Exit code the CLI documents for numeric divergence.
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class Operation:
    """One CLI invocation; ``argv`` ends with ``--out <out>`` inside the round directory.

    ``check`` raises :class:`checks.CheckError` when the artifact is wrong.
    ``diverges`` marks an input on which the solution overflows: the correct
    outcome is the CLI reporting divergence (exit 4).
    """

    argv: tuple[str, ...]
    out: str
    check: Callable[[Path], None] | None = None
    diverges: bool = False

    def command(self, directory: Path) -> list[str]:
        return list(self.argv) + ["--out", str(directory / self.out)]


def _verify(seed: int) -> list[Operation]:
    count, grid = 200, 32

    def check(path):
        checks.check_verify_rows(path)
        checks.check_polyalg_against_sympy(seed, count)

    return [Operation(("verify", "--suite", "all", "--count", str(count), "--grid", str(grid),
                       "--seed", str(seed)), "verify.csv", check)]


def _grid(seed: int) -> list[Operation]:
    grids = (32, 64, 128, 256)
    advects = [("swirl", 256, 100), ("shear", 512, 50)]
    ops = [Operation(("converge", "--op", "all", "--grids", ",".join(map(str, grids)),
                      "--seed", str(seed)), "converge.csv",
                     partial(checks.check_converge, grids=grids))]
    for flow, grid, steps in advects:
        ops.append(Operation(
            ("advect", "--flow", flow, "--grid", str(grid), "--steps", str(steps), "--seed", str(seed)),
            f"advect-{flow}.csv",
            partial(checks.check_advect, seed=seed, grid=grid, steps=steps, flow=flow),
        ))
    return ops


def _point_check(n: int, dt: float, t_final: float):
    q0, p0 = checks.initial_points(n, alpha=1.0, p=2.0)
    return partial(checks.check_peakon, count=n, dim=1, dt=dt, steps=round(t_final / dt),
                   family="exp1d", alpha=1.0, filament=False, q0=q0, p0=p0)


def _peakon_train(seed: int) -> list[Operation]:
    fault = ("peakon", "--method", "rk4", "--dim", "2", "--n", "3", "--alpha", "0.01",
             "--p", "1e200", "--dt", "1", "--t-final", "3")
    return [
        Operation(("peakon", "--n", "2", "--t-final", "20"), "peakon-n2.csv",
                  _point_check(2, 1e-3, 20.0)),
        Operation(("peakon", "--n", "96", "--dt", "1e-3", "--t-final", "0.5"), "peakon-n96.csv",
                  _point_check(96, 1e-3, 0.5)),
        Operation(fault, "peakon-rk4-overflow.csv", diverges=True),
    ]


def _filament(seed: int) -> list[Operation]:
    nodes, dt, t_final = 256, 0.01, 1.5
    q0, p0 = checks.initial_circle(nodes, radius=1.0, p=2.0)
    return [Operation(
        ("peakon", "--filament", "--nodes", str(nodes), "--dt", "0.01", "--t-final", "1.5"),
        "filament.csv",
        partial(checks.check_peakon, count=nodes, dim=2, dt=dt, steps=round(t_final / dt),
                family="gaussian", alpha=1.0, filament=True, q0=q0, p0=p0),
    )]


_BUILDERS = {"verify": _verify, "grid": _grid, "peakon-train": _peakon_train, "filament": _filament}


def prepare(workload: str, seed: int, directory: Path) -> list[Operation]:
    """Import the CLI and build the workload's operations; the set-up the benchmark times."""
    import dualpairs.cli  # noqa: F401  (the import is part of set-up)

    directory.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed)
