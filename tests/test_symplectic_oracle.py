"""The float implicit-midpoint path against the NumPy driver, bit for bit.

exp1d collective observables carry a ``float_field``, so ``flow`` steps them
on Python floats.  The same observable without it takes the NumPy driver;
both must give the same trajectory, or the same divergence at the same step.
"""

import math

import numpy as np
import pytest

from dualpairs.errors import SolverDivergenceError
from dualpairs.peakons import FilamentState, SingularState, _canonical_point, _collective_observable
from dualpairs.symplectic import FlowSpec, Observable, flow


def numpy_driver(h):
    """The same Hamiltonian without its float field, so ``flow`` runs the NumPy driver."""
    return Observable(h.value, h.gradient, name=h.name)


def outcome(h, z, spec):
    try:
        return flow(h, z, spec), None
    except SolverDivergenceError as exc:
        return None, (exc.step, str(exc))


def assert_same_flow(st, spec):
    """Both drivers agree; returns the divergence (step, message), or None for a full trajectory."""
    h = _collective_observable(st)
    assert h.float_field is not None
    z = _canonical_point(st)
    fast, fast_error = outcome(h, z, spec)
    slow, slow_error = outcome(numpy_driver(h), z, spec)
    assert fast_error == slow_error
    if fast_error is None:
        assert fast.shape == (spec.steps + 1, z.size)
        assert np.array_equal(fast, slow)
    return fast_error


def random_exp1d_state(seed):
    """A from 1 to 64 and momenta of both signs.

    Odd seeds tie positions, on points of weight 1; even seeds keep them
    distinct, on a 1-D filament of weight 1/A, so ``P w`` rounds unless A
    is a power of two.
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 65))
    q = rng.normal(scale=rng.uniform(0.2, 3.0), size=(count, 1))
    for _ in range(count // 8 if seed % 2 else 0):
        a, b = rng.integers(0, count, 2)
        q[a] = q[b]
    p = rng.normal(size=(count, 1))
    return (SingularState if seed % 2 else FilamentState)(q, p, rng.uniform(0.3, 2.0))


def test_random_exp1d_states_match_the_numpy_driver():
    divergent = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        dt = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
        if assert_same_flow(random_exp1d_state(seed), FlowSpec("implicit-midpoint", dt, 60)):
            divergent += 1
    # collisions of opposite momenta stop some runs: both outcomes are compared
    assert 0 < divergent < 40


def test_three_peakons_match_the_numpy_driver_across_each_start():
    # steps 0-2 start at the Euler predictor, 3-4 at the cubic extrapolation, 5-9 at the quintic
    # one; at this dt the start decides the last bits from step 5 on (at 0.05 it does not)
    st = SingularState(np.array([[-1.0], [0.2], [1.5]]), np.array([[1.0], [0.5], [-0.3]]), 1.0)
    assert assert_same_flow(st, FlowSpec("implicit-midpoint", 0.1, 10)) is None


@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.2])
def test_peakon_antipeakon_collision_diverges_at_the_same_step(dt):
    st = SingularState(np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]]), 1.0)
    error = assert_same_flow(st, FlowSpec("implicit-midpoint", dt, round(4.0 / dt)))
    assert error is not None and error[1] == f"implicit solve did not converge at step {error[0]}"


@pytest.mark.parametrize("p", [[1e160, -1e160], [-1e160, 1e160], [1e160, 1e160]])
def test_overflowing_states_diverge_at_the_same_step(p):
    # the predictor overflows to inf, so inf - inf makes the NumPy increment NaN
    st = SingularState(np.array([[0.0], [0.5]]), np.array(p)[:, None], 1.0)
    assert assert_same_flow(st, FlowSpec("implicit-midpoint", 0.1, 5)) == (
        0, "implicit solve did not converge at step 0")


def scripted(fields):
    """A one-degree-of-freedom observable whose field is the next entry of ``fields`` at each call."""
    float_calls, numpy_calls = iter(fields), iter(fields)

    def gradient(z):
        xq, xp = next(numpy_calls)
        return np.array([-xp, xq])

    return Observable(lambda z: 0.0 * z[..., 0], gradient, float_field=lambda u: list(next(float_calls)))


def test_a_nan_increment_is_not_convergence():
    # The predictor is NaN in p only; the next field gives y = u, finite, with increments
    # (0, NaN).  NumPy's max is NaN, so the NumPy driver iterates on and ends at u + dt;
    # Python's max of (0.0, nan) is 0.0, which would stop at u.
    fields = [(0.0, math.nan), (0.0, 0.0)] + [(1.0, 1.0)] * 3
    spec = FlowSpec("implicit-midpoint", 0.5, 1)
    fast = flow(scripted(fields), [1.0, 2.0], spec)
    slow = flow(numpy_driver(scripted(fields)), [1.0, 2.0], spec)
    assert np.array_equal(fast, slow)
    assert fast[1].tolist() == [1.5, 2.5]


def test_a_step_that_converges_onto_inf_diverges():
    # an inf increment is within an inf tolerance, so the solve "converges" to (inf, 2)
    fields = [(0.0, 0.0), (math.inf, 0.0)]
    spec = FlowSpec("implicit-midpoint", 0.5, 1)
    for h in (scripted(fields), numpy_driver(scripted(fields))):
        with pytest.raises(SolverDivergenceError, match="did not converge at step 0"):
            flow(h, [1.0, 2.0], spec)


def test_only_exp1d_observables_take_the_float_path():
    rng = np.random.default_rng(4)
    gaussian = SingularState(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), 1.0)
    assert _collective_observable(gaussian).float_field is None
    assert _collective_observable(random_exp1d_state(4)).float_field is not None


def test_rk4_takes_the_numpy_driver():
    st = random_exp1d_state(6)

    def refused(u):
        raise AssertionError("rk4 stepped on the float field")

    h = _collective_observable(st)
    h.float_field = refused
    path = flow(h, _canonical_point(st), FlowSpec("rk4", 0.01, 5))
    assert np.array_equal(path, flow(numpy_driver(h), _canonical_point(st), FlowSpec("rk4", 0.01, 5)))
