"""Command-line runner: verification suites and simulations with CSV artifacts.

Subcommands: ``verify`` (identity suites, one printed row per invariant),
``peakon`` (collective N-body runs, point or filament), ``advect`` (a grid
map advected by a flow on the target, with the conserved momentum pairing
logged), ``converge`` (grid-refinement studies with fitted orders).

Configuration merges three layers, strongest first: command-line flags, a
``key = value`` config file (``--config``), built-in defaults.  Each option
is declared once, in ``_OPTIONS``: that row makes both its flag and its
config key, checks its range and writes its ``--help`` line.  Unknown
config keys are hard errors.  All floats are printed with 17 significant
digits; CSV files are RFC-4180 with a header row, so identical seed and
configuration reproduce identical bytes.

Exit codes: 0 all checks passed, 1 an invariant failed, 2 usage or
configuration error, 3 I/O failure, 4 numeric divergence (the failing step
index goes to stderr), 5 internal error (any other exception; the traceback
goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import traceback

import numpy as np

from . import datagen, fields, peakons, verify
from .errors import SolverDivergenceError
from .fields import (
    GridSource,
    MapField,
    averaged_momentum_pair,
    cell_average,
    format_float,
    nodewise_linear,
)
from .peakons import (
    FilamentState,
    KernelSpec,
    SingularState,
    integrate,
    write_trajectory_csv,
)
from .symplectic import METHODS, FlowSpec, Observable, _states

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

FLOWS = ("shear", "rotation", "swirl")
SUITES = ("exact", "numeric", "all")


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _as_grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


# The only declaration of each option: ``--name`` on the command line and ``name`` in a
# config file.  name -> (parser of both, default, accepted values, help).  Accepted values
# are a tuple of choices, a bound ("positive" or ">= k"; a tuple value meets it entry by
# entry), or None for any value.
_OPTIONS = {
    "verify": {
        "suite": (str, "all", SUITES, "identity suites to run"),
        "seed": (int, 7, None, "random seed"),
        "count": (int, 100, ">= 1", "random draws for the exact suite"),
        "grid": (int, 16, ">= 4", "grid size for the numeric suite"),
        "tol": (float, None, "positive", "override every row tolerance"),
        "out": (str, None, None, "CSV output path"),
    },
    "peakon": {
        "n": (int, None, ">= 1", "number of points of a point run (default 1)"),
        "dim": (int, None, ">= 1", "target dimension of a point run (default 1)"),
        "kernel": (str, None, peakons.KERNEL_FAMILIES, "kernel; exp1d for 1-D points, else gaussian"),
        "alpha": (float, 1.0, "positive", "kernel length scale"),
        "p": (float, 2.0, None, "momentum magnitude"),
        "dt": (float, 1e-3, "positive", "time step"),
        "t_final": (float, 5.0, "positive", "end time"),
        "method": (str, "implicit-midpoint", METHODS, "integrator"),
        "filament": (_as_bool, False, None, "run a closed filament of --nodes nodes"),
        "nodes": (int, None, ">= 3", "node count of a filament run (default 32)"),
        "radius": (float, None, "positive", "radius of a filament run (default 1)"),
        "out": (str, "peakon.csv", None, "CSV output path"),
    },
    "advect": {
        "grid": (int, 16, ">= 4", "grid size"),
        "flow": (str, "shear", FLOWS, "flow on the target"),
        "steps": (int, 100, ">= 0", "advection steps"),
        "dt": (float, 0.0625, "positive", "time step"),
        "amplitude": (float, 0.3, "positive", "amplitude of the initial map"),
        "seed": (int, 7, None, "random seed"),
        "out": (str, "advect.csv", None, "CSV output path"),
    },
    "converge": {
        "op": (str, "all", verify.CONVERGENCE_OPS + ("all",), "convergence study"),
        "grids": (_as_grids, (8, 16, 32), ">= 4", "comma-separated ascending grid sizes"),
        "seed": (int, 7, None, "random seed"),
        "threshold": (float, 1.9, "positive", "required observed order"),
        "out": (str, "converge.csv", None, "CSV output path"),
    },
}


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value
    return fields


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge CLI flags over config-file values over defaults, and check each value against its row."""
    table = _OPTIONS[command]
    raw = _read_config(args.config) if args.config else {}
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {unknown}")
    merged = {}
    for key, (parse, default, accepts, _) in table.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in raw:
            try:
                merged[key] = parse(raw[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        else:
            merged[key] = default
        _check(key.replace("_", "-"), merged[key], parse, accepts)
    return merged


def _check(name: str, value, parse, accepts) -> None:
    """Raise ``ValueError`` unless a set value is finite (if a float) and accepted by its row."""
    if value is None:
        return
    _require(parse is not float or math.isfinite(value), f"{name} must be finite, got {value}")
    if isinstance(accepts, tuple):
        _require(value in accepts, f"{name} must be one of {accepts}, got {value!r}")
    elif isinstance(value, tuple):  # named in the plural of its entries: "grids", each grid
        for entry in value:
            _check(name.removesuffix("s"), entry, parse, accepts)
    elif accepts == "positive":
        _require(value > 0, f"{name} must be positive, got {value}")
    elif accepts is not None:
        _require(value >= int(accepts.removeprefix(">= ")), f"{name} must be {accepts}, got {value}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _write_rows_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["test_id", "N", "residual", "observed_order", "pass"])
        for r in rows:
            writer.writerow(
                [
                    r.test_id,
                    "" if r.n is None else r.n,
                    format_float(r.residual),
                    "" if r.observed_order is None else format_float(r.observed_order),
                    "true" if r.passed else "false",
                ]
            )


def _print_row(row) -> None:
    status = "PASS" if row.passed else "FAIL"
    extra = "" if row.observed_order is None else f" order={row.observed_order:.3f}"
    grid = "" if row.n is None else f" N={row.n}"
    print(f"{status} {row.test_id:<34s} residual={format_float(row.residual)}{grid}{extra}")


# -- subcommands ----------------------------------------------------------------


def _cmd_verify(opt: dict) -> int:
    """run identity suites, one row per invariant"""
    _require_grid_budget(opt["grid"])
    rows = []
    if opt["suite"] in ("exact", "all"):
        rows += verify.exact_suite(opt["seed"], opt["count"])
    if opt["suite"] in ("numeric", "all"):
        rows += verify.numeric_suite(opt["seed"], opt["grid"], opt["tol"])
    for row in rows:
        _print_row(row)
    if opt["out"]:
        _write_rows_csv(opt["out"], rows)
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return EXIT_OK if not failed else EXIT_INVARIANT


def _cmd_converge(opt: dict) -> int:
    """grid-refinement studies with fitted orders"""
    ops = verify.CONVERGENCE_OPS if opt["op"] == "all" else (opt["op"],)
    for grid in opt["grids"]:
        _require_grid_budget(grid)
    rows = []
    for op in ops:
        study = verify.convergence_study(op, opt["grids"], opt["seed"], opt["threshold"])
        rows += study
        _print_row(study[-1])
    if opt["out"]:
        _write_rows_csv(opt["out"], rows)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_INVARIANT


def _require_grid_budget(grid: int) -> None:
    """A grid source of side ``grid`` has grid^2 nodes."""
    _require(
        grid * grid <= fields.MAX_NODES,
        f"grid {grid} needs {grid * grid} nodes, over the limit of {fields.MAX_NODES} "
        f"(fields.MAX_NODES, at most grid {math.isqrt(fields.MAX_NODES)})",
    )


def _require_pair_budget(count: int, kernel: KernelSpec) -> None:
    """One evaluation touches A^2 pairs with the gaussian kernel and A with the exp1d scan."""
    if kernel.family == "exp1d":
        pairs, most = count, peakons.MAX_PAIRS
    else:
        pairs, most = count * count, math.isqrt(peakons.MAX_PAIRS)
    _require(
        pairs <= peakons.MAX_PAIRS,
        f"{count} points need {pairs} kernel pairs with the {kernel.family} kernel, over the "
        f"limit of {peakons.MAX_PAIRS} (peakons.MAX_PAIRS, at most {most} points)",
    )


def _require_trajectory_budget(opt: dict, count: int, dim: int) -> int:
    """The step count; the (steps + 1, 2·A·d) trajectory is kept whole, so it must fit the budget."""
    ratio = opt["t_final"] / opt["dt"]
    steps = round(ratio) if math.isfinite(ratio) else math.inf
    _require(steps > 0, f"t-final / dt = {ratio:.6g} rounds to 0 steps")
    width = 2 * count * dim
    _require(
        (steps + 1) * width <= peakons.MAX_TRAJECTORY_VALUES,
        f"t-final / dt = {steps} steps need steps + 1 rows of 2·A·d = {width} values, over "
        f"the limit of {peakons.MAX_TRAJECTORY_VALUES} trajectory values "
        f"(peakons.MAX_TRAJECTORY_VALUES, at most {peakons.MAX_TRAJECTORY_VALUES // width} rows)",
    )
    return steps


# The options only one peakon mode reads, with their defaults.  Setting one for a run of the
# other mode is a usage error, so that no run silently ignores what it was asked.
_PEAKON_MODES = {"point": {"n": 1, "dim": 1}, "filament": {"nodes": 32, "radius": 1.0}}


def _build_peakon_run(opt: dict) -> tuple[SingularState, FlowSpec]:
    """The initial state and the flow request; both budgets are checked before any array is built."""
    mode, other = ("filament", "point") if opt["filament"] else ("point", "filament")
    for key in _PEAKON_MODES[other]:
        _require(opt[key] is None, f"{key} is an option of {other} runs, not of {mode} runs")
    opt = {**opt, **{key: default for key, default in _PEAKON_MODES[mode].items() if opt[key] is None}}
    if opt["filament"]:
        count, dim, family = opt["nodes"], 2, "gaussian"
    else:
        count, dim = opt["n"], opt["dim"]
        family = "exp1d" if dim == 1 else "gaussian"
    kernel = KernelSpec(opt["kernel"] or family, opt["alpha"])
    _require_pair_budget(count, kernel)
    spec = FlowSpec(opt["method"], opt["dt"], _require_trajectory_budget(opt, count, dim))
    if opt["filament"]:
        s = np.arange(count) / count
        ang = 2.0 * np.pi * s
        q = opt["radius"] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        tangent = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
        p = opt["p"] * tangent
        return FilamentState(q, p, kernel), spec
    q = np.zeros((count, dim))
    p = np.zeros((count, dim))
    for a in range(count):
        q[a, 0] = 2.0 * opt["alpha"] * (a - (count - 1) / 2.0)
        p[a, 0] = opt["p"] * 2.0**-a
    return SingularState(q, p, kernel), spec


def _cmd_peakon(opt: dict) -> int:
    """collective N-body run (point or filament)"""
    state, spec = _build_peakon_run(opt)
    traj = integrate(state, spec)
    energies = write_trajectory_csv(opt["out"], traj)
    drift = abs(energies[-1] - energies[0])
    print(
        f"peakon run: steps={spec.steps} final_q1={format_float(traj.q[-1, 0, 0])} "
        f"H_drift={format_float(drift)} wrote {opt['out']}"
    )
    return EXIT_OK


def _swirl_observable() -> Observable:
    """``h = |z|^4 / 4`` on R^2, with gradient ``|z|^2 z``."""

    def radius2(z):
        # q*q + p*p is einsum("...i,...i->...", z, z) bit for bit: q*q is never -0.0
        q, p = z[..., 0], z[..., 1]
        r2 = q * q
        r2 += p * p
        return r2

    def value(z):
        r2 = radius2(z)
        return 0.25 * r2 * r2

    def gradient(z):
        r2 = radius2(z)
        g = np.empty_like(z)
        np.multiply(r2, z[..., 0], out=g[..., 0])
        np.multiply(r2, z[..., 1], out=g[..., 1])
        return g

    return Observable(value, gradient, name="swirl")


def _pairing_at(f, abar, k: int) -> float:
    """The momentum pairing of ``f``.  One that overflows, say after a step that "converged"
    onto a runaway branch of the implicit equation, is the divergence of step ``k``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            jk = averaged_momentum_pair(f, abar)
        except (OverflowError, ValueError):  # math.fsum met inf - inf, or overflowed
            jk = math.nan
    if not math.isfinite(jk):
        raise SolverDivergenceError(k)
    return jk


def _advected(f: MapField, flow: str, dt: float, steps: int):
    """Yield the map after each advection step.  The swirl's maps are the states of one
    implicit-midpoint run over all steps, each kept by its map without a copy."""
    if flow == "swirl":
        source, states = f.source, _states(_swirl_observable(), f.values, FlowSpec("implicit-midpoint", dt, steps))
        del f  # only the stepping history holds the first map, and lets it go
        for m in states:
            yield MapField(source, m)
        return
    if flow == "shear":
        matrix = np.array([[1.0, 0.0], [-dt, 1.0]])
    else:
        c, s = math.cos(dt), math.sin(dt)
        matrix = np.array([[c, s], [-s, c]])
    for _ in range(steps):
        f = nodewise_linear(f, matrix)
        yield f


def _cmd_advect(opt: dict) -> int:
    """advect a grid map by a flow on the target"""
    _require_grid_budget(opt["grid"])
    rng = np.random.default_rng(opt["seed"])
    src = GridSource(opt["grid"])
    f = datagen.sample_map(src, datagen.trig_vector(rng, 2, amplitude=opt["amplitude"]))
    alpha = datagen.sample_stream(src, datagen.trig_scalar(rng)).zero_mean()
    dt = opt["dt"]
    abar = cell_average(src, alpha.values)
    j0 = _pairing_at(f, abar, 0)
    scale = max(1.0, abs(j0))
    records = [(0.0, j0, 0.0)]
    maps = _advected(f, opt["flow"], dt, opt["steps"])
    del f  # the maps generator holds the only reference, so a step frees the map before the last
    for k, fk in enumerate(maps):
        jk = _pairing_at(fk, abar, k)
        records.append(((k + 1) * dt, jk, abs(jk - j0) / scale))
    with open(opt["out"], "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "jr_pair", "jr_drift"])
        for t, jk, drift in records:
            writer.writerow([format_float(t), format_float(jk), format_float(drift)])
    print(
        f"advect run: flow={opt['flow']} steps={opt['steps']} "
        f"max_jr_drift={format_float(max(r[2] for r in records))} wrote {opt['out']}"
    )
    return EXIT_OK


_RUNNERS = {
    "verify": _cmd_verify,
    "peakon": _cmd_peakon,
    "advect": _cmd_advect,
    "converge": _cmd_converge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpairs",
        description="Verification suites and singular-solution simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        summary = _RUNNERS[command].__doc__
        sp = sub.add_parser(command, help=summary, description=summary)
        sp.add_argument("--config", help="key = value config file; its keys are the options below")
        for key, (parse, _, accepts, text) in table.items():
            if accepts:
                text += f" [{' | '.join(accepts) if isinstance(accepts, tuple) else accepts}]"
            kind = {"action": "store_true", "default": None} if parse is _as_bool else {"type": parse}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **kind)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _resolve(args, args.command)
        return _RUNNERS[args.command](opt)
    except SolverDivergenceError as exc:
        print(f"numeric divergence at step {exc.step}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
