"""Extrapolated implicit-midpoint starts against the starts they replaced.

``flow`` and the swirl advection step through ``symplectic._states``, which
starts steps 3 and 4 at the cubic extrapolation of the last four states and
every later step at the quintic extrapolation of the last six.  Two oracles
stand for what came before: the Euler-start loop below is the step every
step used first (and one fresh one-step ``left_act`` per step the swirl
advection), and the cubic-start generator below is ``_states`` before the
quintic start.  Each must agree with ``_states`` to round-off on the
benchmarked runs, and bit for bit over the steps whose start they share;
the Euler-start paths must stop at the same step on collisions, overflows
and divergent solves; and the quintic start must save field evaluations.
"""

import csv

import numpy as np
import pytest

from dualpairs import cli
from dualpairs.errors import SolverDivergenceError
from dualpairs.fields import MapField, left_act
from dualpairs.peakons import SingularState, _canonical_point, _collective_observable
from dualpairs.symplectic import (
    _FIXED_POINT_MAX_ITER,
    _FIXED_POINT_TOL,
    FlowSpec,
    Observable,
    _step_once,
    flow,
    hamiltonian_vector_field,
    phase_point,
)


def euler_start_step(h, m, dt, step_index):
    """One implicit-midpoint step whose fixed-point iteration starts at the Euler predictor."""
    y = hamiltonian_vector_field(h, m)
    y *= dt
    y += m
    mid = np.empty_like(y)
    scratch = np.empty_like(y)
    for _ in range(_FIXED_POINT_MAX_ITER):
        np.add(m, y, out=mid)
        mid *= 0.5
        y_next = hamiltonian_vector_field(h, mid)
        y_next *= dt
        y_next += m
        delta = float(np.abs(np.subtract(y_next, y, out=scratch), out=scratch).max())
        y = y_next
        if delta <= _FIXED_POINT_TOL * (1.0 + float(np.abs(y, out=scratch).max())):
            return y
    raise SolverDivergenceError(step_index)


def euler_start_flow(h, m0, spec):
    """``flow`` for implicit midpoint with an Euler start at every step, on NumPy arrays."""
    m = phase_point(m0)
    out = np.empty((spec.steps + 1, m.size))
    out[0] = m
    for k in range(spec.steps):
        with np.errstate(over="ignore", invalid="ignore"):
            m = euler_start_step(h, m, spec.dt, k)
        if not np.isfinite(m).all():
            raise SolverDivergenceError(k)
        out[k + 1] = m
    return out


def cubic_start_states(h, m0, spec):
    """``symplectic._states`` on NumPy arrays with the cubic start from step 3 on, as before the quintic start."""
    m = np.asarray(m0, dtype=float)
    y1 = y2 = y3 = None
    for k in range(spec.steps):
        start = None
        if k >= 3:
            start = 4.0 * (m + y2) - 6.0 * y1 - y3
        m, y1, y2, y3 = _step_once(h, m, spec, k, start), m, y1, y2
        yield m


def cubic_start_flow(h, m0, spec):
    return np.stack([phase_point(m0), *cubic_start_states(h, m0, spec)])


def counted(h):
    """``h`` with every field evaluation tallied, on whichever driver ``flow`` picks."""
    calls = [0]

    def tally(field):
        def wrapped(z):
            calls[0] += 1
            return field(z)

        return wrapped

    float_field = None if h.float_field is None else tally(h.float_field)
    return Observable(h.value, tally(h.gradient), name=h.name, float_field=float_field), calls


def oscillator():
    return Observable(lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2), lambda z: z.copy(), name="oscillator")


def cli_run(*argv):
    """The collective observable, initial point and flow request of a ``peakon`` command line."""
    opt = cli._resolve(cli._build_parser().parse_args(["peakon", *argv]), "peakon")
    state, spec = cli._build_peakon_run(opt)
    return _collective_observable(state), _canonical_point(state), spec


RUNS = {
    "peakon-n2": lambda: cli_run("--n", "2", "--t-final", "20"),
    "peakon-n96": lambda: cli_run("--n", "96", "--dt", "1e-3", "--t-final", "0.5"),
    "filament-256": lambda: cli_run("--filament", "--nodes", "256", "--dt", "0.01", "--t-final", "1.5"),
    "filament-64": lambda: cli_run("--filament", "--nodes", "64", "--dt", "0.05", "--t-final", "3"),
    "gaussian-2d": lambda: cli_run("--dim", "2", "--n", "6", "--dt", "0.02", "--t-final", "20"),
    "oscillator": lambda: (oscillator(), np.array([0.7, -0.3]), FlowSpec("implicit-midpoint", 0.05, 400)),
}

# field evaluations per step that the extrapolated start must not exceed
# (Euler start: 3.42, 4.0, 5.0, 5.98; cubic start: 2.00, 2.01, 4.02, 4.61)
MOST_EVALS_PER_STEP = {"peakon-n2": 2.05, "peakon-n96": 2.05, "filament-256": 2.15, "gaussian-2d": 3.45}


@pytest.fixture(scope="module")
def runs():
    """Each run once: (trajectory, field evaluations per step, Euler-start and cubic-start trajectories)."""
    done = {}
    for name, build in RUNS.items():
        h, z, spec = build()
        tallied, calls = counted(h)
        path = flow(tallied, z, spec)
        done[name] = path, calls[0] / spec.steps, euler_start_flow(h, z, spec), cubic_start_flow(h, z, spec)
    return done


@pytest.mark.parametrize("name", list(RUNS))
def test_extrapolated_starts_agree_with_the_euler_start_to_round_off(runs, name):
    path, _, oracle, _ = runs[name]
    assert path.shape == oracle.shape
    assert np.array_equal(path[:4], oracle[:4])  # steps 0-2 keep the Euler start
    assert np.abs(path - oracle).max() <= 1e-12 * max(1.0, float(np.abs(oracle).max()))


@pytest.mark.parametrize("name", list(RUNS))
def test_quintic_starts_agree_with_the_cubic_start_to_round_off(runs, name):
    path, _, _, oracle = runs[name]
    assert path.shape == oracle.shape
    assert np.array_equal(path[:6], oracle[:6])  # steps 0-2 keep the Euler start, 3-4 the cubic one
    assert np.abs(path - oracle).max() <= 1e-12 * max(1.0, float(np.abs(oracle).max()))


@pytest.mark.parametrize("name", list(MOST_EVALS_PER_STEP))
def test_extrapolated_starts_save_field_evaluations(runs, name):
    assert runs[name][1] <= MOST_EVALS_PER_STEP[name]


def test_the_euler_start_oracle_counts_its_evaluations():
    # the predictor plus at least one corrector iteration in every step
    h, z, spec = RUNS["peakon-n96"]()
    tallied, calls = counted(h)
    euler_start_flow(tallied, z, spec)
    assert calls[0] / spec.steps >= 3.0


def outcome(run, h, z, spec):
    try:
        run(h, z, spec)
    except SolverDivergenceError as exc:
        return exc.step
    return None


@pytest.mark.parametrize("dt, step", [(1e-3, 3563), (0.05, 69), (0.2, 16)])
def test_peakon_antipeakon_collision_stops_at_the_euler_start_step(dt, step):
    st = SingularState(np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]]), 1.0)
    h, z, spec = _collective_observable(st), _canonical_point(st), FlowSpec("implicit-midpoint", dt, round(4.0 / dt))
    assert outcome(flow, h, z, spec) == outcome(euler_start_flow, h, z, spec) == step


@pytest.mark.parametrize("p", [[1e160, -1e160], [-1e160, 1e160], [1e160, 1e160]])
def test_overflowing_states_stop_at_the_euler_start_step(p):
    st = SingularState(np.array([[0.0], [0.5]]), np.array(p)[:, None], 1.0)
    h, z, spec = _collective_observable(st), _canonical_point(st), FlowSpec("implicit-midpoint", 0.1, 5)
    assert outcome(flow, h, z, spec) == outcome(euler_start_flow, h, z, spec) == 0


def test_rk4_is_not_extrapolated():
    # rk4 has no fixed-point iteration to start: the same 4 evaluations per step as before
    h, z, _ = RUNS["peakon-n96"]()
    tallied, calls = counted(h)
    flow(tallied, z, FlowSpec("rk4", 1e-3, 20))
    assert calls[0] == 80


# -- the swirl advection ------------------------------------------------------------


def euler_start_advected(f, flow, dt, steps):
    """``cli._advected`` for the swirl before the stepping generator: a one-step ``left_act`` per step."""
    assert flow == "swirl"
    swirl = cli._swirl_observable()
    for k in range(steps):
        try:
            f = left_act(f, swirl, FlowSpec("implicit-midpoint", dt, 1))
        except SolverDivergenceError:
            raise SolverDivergenceError(k) from None
        yield f


def cubic_start_advected(f, flow, dt, steps):
    """``cli._advected`` for the swirl before the quintic start: the states of one cubic-start run."""
    assert flow == "swirl"
    for m in cubic_start_states(cli._swirl_observable(), f.values, FlowSpec("implicit-midpoint", dt, steps)):
        yield MapField(f.source, m)


def advect_swirl(monkeypatch, capsys, tmp_path, advected, *argv):
    """Exit code, stderr, jr_pair column and every map of an ``advect --flow swirl`` run stepped by ``advected``."""
    maps = []

    def recorded(*args):
        for g in advected(*args):
            maps.append(g.values)
            yield g

    monkeypatch.setattr(cli, "_advected", recorded)
    path = tmp_path / "swirl.csv"
    code = cli.main(["advect", "--flow", "swirl", *argv, "--out", str(path)])
    column = None
    if code == 0:
        with open(path, newline="") as handle:
            column = np.array([float(row[1]) for row in list(csv.reader(handle))[1:]])
    return code, capsys.readouterr().err, column, maps


def test_swirl_advection_agrees_with_per_step_left_act_to_round_off(monkeypatch, capsys, tmp_path):
    argv = ("--grid", "16", "--steps", "100")
    code, _, column, maps = advect_swirl(monkeypatch, capsys, tmp_path, cli._advected, *argv)
    code_o, _, column_o, maps_o = advect_swirl(monkeypatch, capsys, tmp_path, euler_start_advected, *argv)
    assert code == code_o == 0
    assert len(maps) == len(maps_o) == 100 and column.shape == column_o.shape == (101,)
    assert all(np.array_equal(a, b) for a, b in zip(maps[:3], maps_o[:3]))  # steps 0-2 keep the Euler start
    assert np.abs(maps[-1] - maps_o[-1]).max() <= 1e-12 * max(1.0, float(np.abs(maps_o[-1]).max()))
    assert np.all(np.abs(column - column_o) <= 1e-12 * np.maximum(1.0, np.abs(column_o)))


def test_swirl_advection_agrees_with_the_cubic_start_to_round_off(monkeypatch, capsys, tmp_path):
    argv = ("--grid", "16", "--steps", "100")
    code, _, column, maps = advect_swirl(monkeypatch, capsys, tmp_path, cli._advected, *argv)
    code_o, _, column_o, maps_o = advect_swirl(monkeypatch, capsys, tmp_path, cubic_start_advected, *argv)
    assert code == code_o == 0
    assert len(maps) == len(maps_o) == 100 and column.shape == column_o.shape == (101,)
    assert all(np.array_equal(a, b) for a, b in zip(maps[:5], maps_o[:5]))  # steps 0-4 start alike
    assert all(np.abs(a - b).max() <= 1e-12 * max(1.0, float(np.abs(b).max())) for a, b in zip(maps, maps_o))
    assert np.all(np.abs(column - column_o) <= 1e-12 * np.maximum(1.0, np.abs(column_o)))


@pytest.mark.parametrize("argv", [("--dt", "10"), ("--amplitude", "1", "--dt", "0.2")], ids=["step-0", "step-1"])
def test_divergent_swirl_stops_at_the_per_step_left_act_step(monkeypatch, capsys, tmp_path, argv):
    argv = ("--grid", "16", "--steps", "5", *argv)
    code, err, _, maps = advect_swirl(monkeypatch, capsys, tmp_path, cli._advected, *argv)
    code_o, err_o, _, maps_o = advect_swirl(monkeypatch, capsys, tmp_path, euler_start_advected, *argv)
    assert code == code_o == 4
    assert err == err_o == f"numeric divergence at step {len(maps_o)}\n"
    assert len(maps) == len(maps_o)


def test_swirl_advection_saves_field_evaluations(monkeypatch, capsys, tmp_path):
    per_step = {}
    for advected in (cli._advected, euler_start_advected):
        tallied, calls = counted(cli._swirl_observable())
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_swirl_observable", lambda: tallied)
            assert advect_swirl(patch, capsys, tmp_path, advected, "--grid", "16", "--steps", "100")[0] == 0
        per_step[advected] = calls[0] / 100
    assert per_step[cli._advected] <= 6.6  # 6.16 here; the cubic start made 8.06
    assert per_step[euler_start_advected] >= 9.9
