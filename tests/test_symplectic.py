import weakref

import numpy as np
import pytest

from dualpairs.errors import SolverDivergenceError
from dualpairs.peakons import SingularState, _canonical_point, _collective_observable
from dualpairs.symplectic import FlowSpec, Observable, _states, advance, canonical_omega, flow


def oscillator():
    # H = (q^2 + p^2)/2 on R^2
    return Observable(
        value=lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2),
        gradient=lambda z: z.copy(),
        name="oscillator",
    )


def test_canonical_omega_golden():
    assert canonical_omega((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)) == -16.0


def test_canonical_omega_antisymmetry_batched():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(40, 6))
    v = rng.normal(size=(40, 6))
    w1 = canonical_omega(u, v)
    w2 = canonical_omega(v, u)
    assert w1.shape == (40,)
    # antisymmetry is bitwise: same products, opposite subtraction order
    assert np.array_equal(w1, -w2)


def test_canonical_omega_rejects_odd_dim():
    with pytest.raises(ValueError):
        canonical_omega(np.ones(3), np.ones(3))


def test_oscillator_endpoint_accuracy():
    # exact solution: q(t) = sin t, p(t) = cos t from (0, 1)
    spec = FlowSpec("implicit-midpoint", 1e-3, 2000)
    traj = flow(oscillator(), np.array([0.0, 1.0]), spec)
    t = spec.dt * spec.steps
    assert traj.shape == (2001, 2)
    err = np.abs(traj[-1] - [np.sin(t), np.cos(t)]).max()
    assert err < 1e-6, f"endpoint error {err:.3e}"


def test_midpoint_preserves_quadratic_energy():
    spec = FlowSpec("implicit-midpoint", 0.05, 400)
    h = oscillator()
    traj = flow(h, np.array([0.7, -0.3]), spec)
    e = h.value(traj)
    assert np.abs(e - e[0]).max() < 1e-13


def test_advance_batched_endpoints():
    h = oscillator()
    spec = FlowSpec("implicit-midpoint", 1e-2, 50)
    pts = np.random.default_rng(9).normal(size=(8, 2))
    out = advance(h, pts, spec)
    assert out.shape == pts.shape
    for i in range(8):
        single = advance(h, pts[i], spec)
        assert np.array_equal(out[i], single)


def test_zero_steps_is_identity():
    h = oscillator()
    z0 = np.array([0.25, -1.5])
    out = advance(h, z0, FlowSpec("implicit-midpoint", 1e-2, 0))
    assert np.array_equal(out, z0)


def test_observable_requires_a_gradient():
    # there is no finite-difference fallback: the gradient is part of the observable
    with pytest.raises(TypeError):
        Observable(value=lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2))
    h = oscillator()
    z = np.array([0.3, -1.7])
    assert np.array_equal(h.gradient(z), z)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        FlowSpec("leapfrog-deluxe", 1e-2, 5)


def test_steps_must_be_an_integer():
    # a float, even a whole one, or a bool is refused; a NumPy integer is kept as an int
    for bad in (3.0, 2.5, -1, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="steps must be a nonnegative integer"):
            FlowSpec("implicit-midpoint", 1e-2, bad)
    spec = FlowSpec("implicit-midpoint", 1e-2, np.int64(3))
    assert type(spec.steps) is int and spec == FlowSpec("implicit-midpoint", 1e-2, 3)


def test_divergence_reports_step_index():
    # steep quartic + huge step: the midpoint fixed point iteration blows up
    h = Observable(
        value=lambda z: (z[..., 0] ** 4 + z[..., 1] ** 4),
        gradient=lambda z: 4.0 * z**3,
    )
    with pytest.raises(SolverDivergenceError) as info:
        flow(h, np.array([10.0, 10.0]), FlowSpec("implicit-midpoint", 10.0, 3))
    assert info.value.step >= 0


def test_linear_hamiltonian_flow_is_exact_translation():
    # H = p -> dq/dt = 1, dp/dt = 0; midpoint integrates linear fields exactly
    h = Observable(
        value=lambda z: z[..., 1],
        gradient=lambda z: np.stack([np.zeros_like(z[..., 0]), np.ones_like(z[..., 1])], axis=-1),
    )
    out = advance(h, np.array([0.0, 0.4]), FlowSpec("implicit-midpoint", 0.125, 8))
    assert abs(out[0] - 1.0) < 1e-13
    assert out[1] == 0.4


def collective(q, p):
    st = SingularState(np.array(q), np.array(p), 1.0)
    return _collective_observable(st), _canonical_point(st)


# name -> (observable, initial point, flow request); 40 steps reach the extrapolated starts
GENERATOR_RUNS = {
    "float-driver-exp1d": lambda: (
        *collective([[-1.0], [0.2], [1.5]], [[1.0], [0.5], [-0.3]]),
        FlowSpec("implicit-midpoint", 0.01, 40),
    ),
    "numpy-driver-gaussian-2d": lambda: (
        *collective([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], [[1.0, 0.0], [0.0, -0.5], [0.3, 0.2]]),
        FlowSpec("implicit-midpoint", 0.01, 40),
    ),
    "rk4": lambda: (
        *collective([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], [[1.0, 0.0], [0.0, -0.5], [0.3, 0.2]]),
        FlowSpec("rk4", 0.01, 40),
    ),
}


@pytest.mark.parametrize("name", list(GENERATOR_RUNS))
def test_flow_stores_the_states_the_generator_yields(name):
    h, z, spec = GENERATOR_RUNS[name]()
    assert (h.float_field is not None) == (name == "float-driver-exp1d")
    path = flow(h, z, spec)
    states = list(_states(h, z, spec))
    assert len(states) == spec.steps
    assert np.array_equal(path[0], z)
    assert path[1:].tobytes() == np.stack(states).tobytes()


@pytest.mark.parametrize("name", list(GENERATOR_RUNS))
def test_zero_steps_yield_nothing(name):
    h, z, spec = GENERATOR_RUNS[name]()
    assert list(_states(h, z, FlowSpec(spec.method, spec.dt, 0))) == []


@pytest.mark.parametrize("name", list(GENERATOR_RUNS))
def test_yielded_states_cannot_be_changed(name):
    # the generator extrapolates from the states it yields: read-only arrays, or tuples of Python floats
    h, z, spec = GENERATOR_RUNS[name]()
    start = z.copy()
    states = list(_states(h, z, spec))
    if name == "float-driver-exp1d":
        assert all(type(s) is tuple and len(s) == z.size and all(type(v) is float for v in s) for s in states)
    else:
        assert all(s.flags.owndata and not s.flags.writeable and s.shape == z.shape for s in states)
        assert len({id(s) for s in states}) == len(states)
    assert z.flags.writeable and np.array_equal(z, start)


def test_a_stack_of_points_keeps_the_euler_start_for_three_steps():
    # a stack always steps on NumPy arrays; its first three states are advance's, bit for bit
    h = oscillator()
    pts = np.random.default_rng(4).normal(size=(3, 5, 2))
    states = list(_states(h, pts, FlowSpec("implicit-midpoint", 1e-2, 10)))
    assert all(s.shape == pts.shape and not s.flags.writeable for s in states)
    for k in range(3):
        assert np.array_equal(states[k], advance(h, pts, FlowSpec("implicit-midpoint", 1e-2, k + 1)))
    assert np.abs(states[-1] - advance(h, pts, FlowSpec("implicit-midpoint", 1e-2, 10))).max() <= 1e-12


def test_the_generator_lets_go_of_the_first_state():
    # step 5's quintic start is the last to read the caller's array, which goes before that step's solve
    pts = np.random.default_rng(5).normal(size=(4, 2))
    ref = weakref.ref(pts)
    gone = []  # at each field evaluation, whether the caller's array is gone

    def gradient(z):
        gone.append(ref() is None)
        return z.copy()

    states = _states(Observable(oscillator().value, gradient), pts, FlowSpec("implicit-midpoint", 1e-2, 8))
    del pts
    evals = [len(gone) for _ in states]  # the evaluations made up to each yield
    assert len(evals) == 8 and evals[4] < evals[5]
    assert all(gone[evals[4] :])
