"""Tests of the benchmark itself: its checks reject corrupted artifacts, and
the tracer leaves the package as it found it.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from dualpairs import cli  # noqa: E402


def _cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def _corrupt(path: Path, row: int, column: str) -> Path:
    """Copy of the CSV with one significant digit of one field changed."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    text = rows[row][col]
    digits = [i for i, ch in enumerate(text.split("e")[0]) if ch.isdigit()]
    i = digits[min(3, len(digits) - 1)]
    rows[row][col] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    assert float(rows[row][col]) != float(text)
    bad = path.with_name("corrupt-" + path.name)
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return bad


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    assert _cli("peakon", "--n", 3, "--t-final", 0.2, "--out", out / "points.csv") == 0
    assert _cli("peakon", "--filament", "--nodes", 16, "--dt", 0.01, "--t-final", 0.1,
                "--out", out / "filament.csv") == 0
    assert _cli("converge", "--op", "all", "--grids", "16,32,64", "--seed", 3,
                "--out", out / "converge.csv") == 0
    assert _cli("advect", "--flow", "shear", "--grid", 16, "--steps", 20, "--seed", 3,
                "--out", out / "shear.csv") == 0
    assert _cli("verify", "--count", 4, "--grid", 8, "--seed", 3, "--out", out / "verify.csv") == 0
    return out


def _point_check():
    q0, p0 = checks.initial_points(3, alpha=1.0, p=2.0)
    return partial(checks.check_peakon, count=3, dim=1, dt=1e-3, steps=200, family="exp1d",
                   alpha=1.0, filament=False, q0=q0, p0=p0)


def _filament_check():
    q0, p0 = checks.initial_circle(16, radius=1.0, p=2.0)
    return partial(checks.check_peakon, count=16, dim=2, dt=0.01, steps=10, family="gaussian",
                   alpha=1.0, filament=True, q0=q0, p0=p0)


CASES = {
    # Ptot of the circle is 0 to rounding, so its digits carry no information;
    # the point run has a nonzero Ptot.
    "points": ("points.csv", _point_check, ["H", "Ptot_1", "q_2", "p_3"]),
    "filament": ("filament.csv", _filament_check, ["H", "q_7", "p_20"]),
    "converge": ("converge.csv", lambda: partial(checks.check_converge, grids=(16, 32, 64)),
                 ["residual"]),
    "shear": ("shear.csv", lambda: partial(checks.check_advect, seed=3, grid=16, steps=20,
                                           flow="shear"), ["jr_pair"]),
    "verify": ("verify.csv", lambda: checks.check_verify_rows, ["residual"]),
}


@pytest.mark.parametrize("case", CASES)
def test_check_accepts_the_program_output(artifacts, case):
    name, make, _ = CASES[case]
    make()(artifacts / name)


@pytest.mark.parametrize(
    "case,column,row",
    [(case, column, row) for case, (_, _, columns) in CASES.items() for column in columns
     for row in (1, 3)],
)
def test_check_rejects_one_changed_digit(artifacts, case, column, row):
    name, make, _ = CASES[case]
    bad = _corrupt(artifacts / name, row, column)
    with pytest.raises(checks.CheckError):
        make()(bad)


def test_sympy_cross_check_agrees_with_polyalg():
    checks.check_polyalg_against_sympy(seed=3, count=6, samples=3)


def test_known_fault_counts_as_failed(tmp_path):
    fault = next(op for op in workloads.prepare("peakon-train", 0, tmp_path) if op.diverges)
    code = _cli(*fault.command(tmp_path))
    path = tmp_path / fault.out
    assert run._status(fault, code, path) == "failed: exit 0 with non-finite values in the CSV"
    assert run._status(fault, workloads.EXIT_NUMERIC, path) == "ok"


def _bindings():
    """Every attribute of every dualpairs module and of the classes the tracer patches."""
    from dualpairs.peakons import Trajectory
    from dualpairs.polyalg import RationalPoly
    from dualpairs.symplectic import Observable

    owners = [m for n, m in sys.modules.items() if n == "dualpairs" or n.startswith("dualpairs.")]
    owners += [RationalPoly, Observable, Trajectory]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_inner_calls_and_restores_everything(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        assert _cli("peakon", "--n", 2, "--t-final", 0.05, "--out", tmp_path / "p.csv") == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "peakons.integrate", "symplectic.flow", "symplectic.hamiltonian_vector_field",
            "peakons.field", "peakons.kernel_eval", "peakons.write_trajectory_csv"} <= names
    metrics = layer_metrics(tracer.spans, tracer.counts, tracer.diagnostics_peak_mb())
    assert metrics["peakons.hamiltonians_calls"] == 2
    assert metrics["symplectic.evals_per_step"] > 1
    assert metrics["peakons.kernel_pairs"] > 0
    assert metrics["peakons.diagnostics_peak_mb"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == list(layer_metrics([], Counter(), 0.0)) + ["trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
