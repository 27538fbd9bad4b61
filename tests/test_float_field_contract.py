"""Every ``float_field`` the package sets is its gradient's field, bit for bit.

``Observable.float_field`` promises the doubles of ``hamiltonian_vector_field``
at the same point, so ``flow`` may step on Python floats instead of NumPy
arrays.  The package sets it on ``verify``'s oscillator and on exp1d
collective observables; both are checked at random points, at points with
signed zeros, and at points from 1e150 to 1e156, where exp1d forces
overflow.  The oscillator's ``verify`` flow is then checked against the
NumPy driver, and shown to take the float path.
"""

import math

import numpy as np
import pytest

from dualpairs import verify
from dualpairs.peakons import SingularState, _collective_observable
from dualpairs.symplectic import FlowSpec, Observable, flow, hamiltonian_vector_field


def assert_same_doubles(got, want):
    """Equal values, NaN where NaN is expected, and the same sign on every zero."""
    got, want = np.array(got), np.array(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def contract_points(rng, size, ties):
    """Random points, points whose entries are all ±0.0 or carry some, and points from 1e150 to 1e156.

    With ``ties``, every other point has its first half (the exp1d positions) tied to its first entry.
    """
    points = [rng.normal(scale=s, size=size) for s in (0.3, 1.0, 5.0) for _ in range(4)]
    for _ in range(8):
        u = rng.normal(size=size)
        zero = rng.random(size) < 0.5
        u[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        points.append(u)
    points.append(np.zeros(size))
    points.append(-np.zeros(size))
    for whole in (True, False) * 3:
        u = rng.normal(size=size)
        big = slice(None) if whole else slice(size // 2, None)  # all entries, or only the momenta
        u[big] = rng.choice([-1.0, 1.0], size=len(u[big])) * 10.0 ** rng.uniform(150.0, 156.0, size=len(u[big]))
        points.append(u)
    if ties:
        for u in points[::2]:
            u[1 : size // 2] = u[0]
    return points


def assert_float_field_contract(h, points):
    """Returns the fields, for the callers to check what the points reached."""
    fields = [h.float_field(u.tolist()) for u in points]
    for u, x in zip(points, fields):
        assert_same_doubles(x, hamiltonian_vector_field(h, np.array(u)))
    return np.array(fields)


def test_oscillator_float_field_is_its_gradient_field():
    h = verify._oscillator()
    assert h.float_field is not None
    rng = np.random.default_rng(3)
    points = contract_points(rng, 2, ties=False)
    points += [np.array(u) for u in ([0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0], [-0.0, -0.0])]
    assert_float_field_contract(h, points)


@pytest.mark.parametrize("count", [1, 2, 5])
def test_exp1d_float_field_is_its_gradient_field(count):
    rng = np.random.default_rng(count)
    fields = []
    for alpha in (0.4, 1.0, 2.5):
        st = SingularState(np.zeros((count, 1)), np.zeros((count, 1)), alpha)
        h = _collective_observable(st)
        assert h.float_field is not None
        fields.append(assert_float_field_contract(h, contract_points(rng, 2 * count, ties=True)))
    fields = np.concatenate(fields)
    # the points reach zeros of both signs, and forces that overflow (a lone point feels none)
    assert np.signbit(fields[fields == 0.0]).any() and not np.signbit(fields[fields == 0.0]).all()
    assert np.isinf(fields).any() == (count > 1)


def numpy_driver(h):
    """The same Hamiltonian without its float field, so ``flow`` runs the NumPy driver."""
    return Observable(h.value, h.gradient)


# 2 steps start at the Euler predictor only, 3 and 4 switch to the cubic start, 5 and 6
# to the quintic one, and 6283 are the verify row's orbit
@pytest.mark.parametrize("steps", [2, 3, 4, 5, 6, 6283])
def test_oscillator_flow_equals_the_numpy_driver(steps):
    spec = FlowSpec("implicit-midpoint", 1e-3, steps)
    h = verify._oscillator()
    fast = flow(h, [1.0, 0.0], spec)
    slow = flow(numpy_driver(h), [1.0, 0.0], spec)
    assert fast.shape == (steps + 1, 2)
    assert np.array_equal(fast, slow)


def refused(z):
    raise AssertionError("the oscillator stepped on the NumPy driver")


def test_verify_oscillator_takes_the_float_path(monkeypatch):
    osc = verify._oscillator()
    spec = FlowSpec("implicit-midpoint", 1e-3, 6283)
    fast = flow(Observable(osc.value, refused, float_field=osc.float_field), [1.0, 0.0], spec)
    assert np.array_equal(fast, flow(numpy_driver(osc), [1.0, 0.0], spec))
    # the verify row builds its oscillator with _oscillator and passes on the float path
    want = {r.test_id: r for r in verify.numeric_suite(seed=7, n=8)}["oscillator-endpoint"]
    monkeypatch.setattr(
        verify, "_oscillator", lambda: Observable(osc.value, refused, float_field=osc.float_field)
    )
    got = {r.test_id: r for r in verify.numeric_suite(seed=7, n=8)}["oscillator-endpoint"]
    assert got == want and got.passed
    target = np.array([math.cos(6.283), -math.sin(6.283)])
    assert got.residual == float(np.max(np.abs(fast[-1] - target)))
