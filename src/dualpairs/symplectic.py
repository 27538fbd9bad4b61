"""Canonical symplectic linear algebra on R^(2n) and Hamiltonian flows.

Conventions, fixed once and verified by the test suite:

* coordinates are ordered ``(q1..qn, p1..pn)``;
* ``omega = sum_i dq^i wedge dp_i``;
* ``i_{X_h} omega = dh``, hence ``X_h = (dh/dp, -dh/dq)``;
* ``{g, h} = omega(X_g, X_h) = sum_i (dg/dq^i dh/dp_i - dg/dp_i dh/dq^i)``.

Under these conventions the Jacobi-Lie bracket of Hamiltonian fields
satisfies ``[X, Y] = -X_{omega(X, Y)}``; the exact-arithmetic module
asserts that relation on polynomial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SolverDivergenceError, _integer

__all__ = [
    "METHODS",
    "FlowSpec",
    "Observable",
    "advance",
    "canonical_omega",
    "flow",
    "hamiltonian_vector_field",
    "phase_point",
    "poisson_bracket_value",
]

METHODS = ("implicit-midpoint", "rk4")

_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 50


def phase_point(coords: Sequence[float]) -> np.ndarray:
    """Validate canonical coordinates ``(q1..qn, p1..pn)``.

    Returns a float copy.  The length must be even and at least 2.
    """
    m = np.array(coords, dtype=float)
    if m.ndim != 1 or m.size < 2 or m.size % 2 != 0:
        raise ValueError(
            f"phase point must be a flat even-length vector of length >= 2, got shape {m.shape}"
        )
    return m


class Observable:
    """A scalar function on R^(2n) together with its gradient.

    Parameters
    ----------
    value:
        Callable mapping arrays of shape ``(..., 2n)`` to shape ``(...)``.
        Vectorization over leading axes is part of the contract; everything
        the package constructs (polynomial observables, momentum functions)
        satisfies it.
    gradient:
        Callable of the same broadcasting shape returning ``(..., 2n)``,
        the exact gradient of ``value``.
    float_field:
        Optional callable mapping one point, a list of 2n Python floats, to
        ``X_h`` there as a list of 2n floats, bit for bit the field that
        ``gradient`` gives.  With it, :func:`_states` runs implicit midpoint on
        Python floats instead of NumPy arrays, with the same arithmetic.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        gradient: Callable[[np.ndarray], np.ndarray],
        *,
        name: str = "",
        float_field: Callable[[list], list] | None = None,
    ):
        self._value = value
        self._gradient = gradient
        self.name = name
        self.float_field = float_field

    def value(self, m) -> np.ndarray:
        return np.asarray(self._value(np.asarray(m, dtype=float)), dtype=float)

    def gradient(self, m) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(m, dtype=float)), dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "<callable>"
        return f"Observable({label})"


@dataclass(frozen=True)
class FlowSpec:
    """Time-stepping request: method, step size, number of steps."""

    method: str = "implicit-midpoint"
    dt: float = 1e-3
    steps: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (float(self.dt) > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "steps", _integer(self.steps, "steps must be a nonnegative integer", 0))


def _split(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = u.shape[-1] // 2
    return u[..., :n], u[..., n:]


def canonical_omega(u, v) -> float | np.ndarray:
    """Evaluate ``omega(u, v) = sum_i (u_q^i v_p_i - u_p_i v_q^i)``.

    Accepts single vectors or stacks of vectors (shape ``(..., 2n)``);
    bilinear and antisymmetric.  Mismatched or odd lengths raise
    ``ValueError``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.shape[-1] % 2 != 0 or u.shape[-1] < 2:
        raise ValueError(f"vectors must have even length >= 2, got {u.shape[-1]}")
    uq, up = _split(u)
    vq, vp = _split(v)
    w = np.einsum("...i,...i->...", uq, vp) - np.einsum("...i,...i->...", up, vq)
    return float(w) if w.ndim == 0 else w


def hamiltonian_vector_field(h: Observable, m) -> np.ndarray:
    """Return ``X_h(m) = (dh/dp, -dh/dq)``; broadcasts over stacked points."""
    m = np.asarray(m, dtype=float)
    g = h.gradient(m)
    gq, gp = _split(g)
    x = np.empty_like(g)
    xq, xp = _split(x)
    xq[...] = gp
    np.negative(gq, out=xp)
    return x


def poisson_bracket_value(g: Observable, h: Observable, m) -> float | np.ndarray:
    """Canonical bracket ``{g, h}(m) = omega(X_g(m), X_h(m))``."""
    return canonical_omega(hamiltonian_vector_field(g, m), hamiltonian_vector_field(h, m))


def _corrected(h: Observable, m: np.ndarray, y: np.ndarray, dt: float, mid: np.ndarray) -> np.ndarray:
    # One corrector iteration, m + dt * X_h((m + y) / 2), with ``mid`` as scratch.
    # hamiltonian_vector_field returns a fresh array, so it is formed in place on it.
    np.add(m, y, out=mid)
    mid *= 0.5
    y = hamiltonian_vector_field(h, mid)
    y *= dt
    y += m
    return y


def _midpoint_step(h: Observable, m: np.ndarray, dt: float, step_index: int, start=None) -> np.ndarray:
    # Fixed-point iteration for m' = m + dt * X_h((m + m') / 2), started at
    # ``start`` (_states' cubic or quintic extrapolation) or else at the
    # Euler predictor m + dt * X_h(m).  An extrapolated start is close enough
    # that the first iterate usually passes the test while still off by about
    # dt * |X_h'| times the extrapolation error, so such a step returns the
    # iterate one corrector iteration past the first passing one; quadratic
    # invariants then keep the Euler start's round-off level.
    # The convergence test is the max-norm over the whole batch, so the
    # iteration count depends only on the multiset of states; permuting a
    # batch commutes with this map bit for bit.
    y = start
    if y is None:
        y = hamiltonian_vector_field(h, m)
        y *= dt
        y += m
    mid = np.empty_like(y)
    scratch = np.empty_like(y)
    for _ in range(_FIXED_POINT_MAX_ITER):
        y_next = _corrected(h, m, y, dt, mid)
        delta = float(np.abs(np.subtract(y_next, y, out=scratch), out=scratch).max())
        y = y_next
        if delta <= _FIXED_POINT_TOL * (1.0 + float(np.abs(y, out=scratch).max())):
            return y if start is None else _corrected(h, m, y, dt, mid)
    raise SolverDivergenceError(step_index)


def _midpoint_step_floats(field: Callable[[list], list], u: list, dt: float, step_index: int, start=None) -> list:
    # _midpoint_step and _step_once's finite check for one state held as a
    # list of Python floats: the same operations in the same order give the
    # same doubles.  NumPy's max is NaN when any increment is NaN, Python's
    # may skip it, so a step with a NaN increment does not count as converged.
    y = start
    if y is None:
        y = [f * dt + v for f, v in zip(field(u), u)]
    for _ in range(_FIXED_POINT_MAX_ITER):
        mid = [(v + w) * 0.5 for v, w in zip(u, y)]
        y_next = [f * dt + v for f, v in zip(field(mid), u)]
        gaps = [abs(a - b) for a, b in zip(y_next, y)]
        y = y_next
        if max(gaps) <= _FIXED_POINT_TOL * (1.0 + max(map(abs, y))) and not any(map(math.isnan, gaps)):
            if start is not None:
                mid = [(v + w) * 0.5 for v, w in zip(u, y)]
                y = [f * dt + v for f, v in zip(field(mid), u)]
            if not all(map(math.isfinite, y)):
                raise SolverDivergenceError(step_index)
            return y
    raise SolverDivergenceError(step_index)


def _rk4_step(h: Observable, m: np.ndarray, dt: float) -> np.ndarray:
    k1 = hamiltonian_vector_field(h, m)
    k2 = hamiltonian_vector_field(h, m + 0.5 * dt * k1)
    k3 = hamiltonian_vector_field(h, m + 0.5 * dt * k2)
    k4 = hamiltonian_vector_field(h, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_once(h: Observable, m: np.ndarray, spec: FlowSpec, step_index: int, start=None) -> np.ndarray:
    # Every method ends in the same finite-value check: an overflowing state
    # is a divergence at this step, not a row of the trajectory.
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.method == "implicit-midpoint":
            m = _midpoint_step(h, m, spec.dt, step_index, start)
        else:
            m = _rk4_step(h, m, spec.dt)
    if not np.isfinite(m).all():
        raise SolverDivergenceError(step_index)
    return m


def advance(h: Observable, state, spec: FlowSpec):
    """Advance a state (or a whole stack of states) through ``spec.steps`` steps.

    Returns only the endpoint.  Each step starts at the Euler predictor, so a
    one-step call is the first step of any run.
    """
    m = np.asarray(state, dtype=float)
    for k in range(spec.steps):
        m = _step_once(h, m, spec, k)
    return m


def _states(h: Observable, m0, spec: FlowSpec):
    """Yield the state after each of the ``spec.steps`` steps from ``m0``, one point or a stack of points.

    The generator extrapolates from the states it yields, so none can be
    changed: each is a fresh read-only array, or on the float driver a tuple.
    Implicit midpoint (the symplectic default) iterates to tolerance 1e-13 in
    at most 50 iterations per step.  Steps 0-2 start at the Euler predictor,
    steps 3-4 at the cubic extrapolation ``4 (y_k + y_{k-2}) - 6 y_{k-1} -
    y_{k-3}`` of the last four states, and every later step at the quintic
    extrapolation ``6 (y_k + y_{k-4}) - 15 (y_{k-1} + y_{k-3}) + 20 y_{k-2} -
    y_{k-5}`` of the last six (see :func:`_midpoint_step`).  No older state
    is kept, so ``m0`` is let go during step 5.
    One point whose ``h`` has a ``float_field`` steps on Python floats, with
    the same operations in the same order.
    Non-convergence, or a non-finite state after a step of either method,
    raises :class:`SolverDivergenceError` carrying the step's index in this run.
    """
    m = np.asarray(m0, dtype=float)
    del m0  # the history below is then the only holder of the first state
    y1 = y2 = y3 = y4 = y5 = None
    if h.float_field is not None and spec.method == "implicit-midpoint" and m.ndim == 1:
        u = m.tolist()
        for k in range(spec.steps):
            start = None
            if k >= 5:
                start = [
                    6.0 * (a + e) - 15.0 * (b + d) + 20.0 * c - f for a, b, c, d, e, f in zip(u, y1, y2, y3, y4, y5)
                ]
            elif k >= 3:
                start = [4.0 * (a + c) - 6.0 * b - d for a, b, c, d in zip(u, y1, y2, y3)]
            u, y1, y2, y3, y4, y5 = _midpoint_step_floats(h.float_field, u, spec.dt, k, start), u, y1, y2, y3, y4
            yield tuple(u)
        return
    for k in range(spec.steps):
        start = None
        if k >= 5 and spec.method == "implicit-midpoint":
            start = 6.0 * (m + y4) - 15.0 * (y1 + y3) + 20.0 * y2 - y5
        elif k >= 3 and spec.method == "implicit-midpoint":
            start = 4.0 * (m + y2) - 6.0 * y1 - y3
        y1, y2, y3, y4, y5 = m, y1, y2, y3, y4  # drop the oldest state before the solve, where memory peaks
        m = _step_once(h, y1, spec, k, start)
        m.flags.writeable = False
        yield m


def flow(h: Observable, m0, spec: FlowSpec) -> np.ndarray:
    """Integrate the Hamiltonian flow of ``h`` from ``m0``.

    Returns an array of shape ``(steps + 1, 2n)``: ``m0``, then each state
    :func:`_states` yields (about 2 field evaluations per implicit-midpoint
    step on smooth peakon runs and on the 256-node filament, against 3.4-5
    from the Euler start).
    """
    m = phase_point(m0)
    out = np.empty((spec.steps + 1, m.size), dtype=float)
    out[0] = m
    for k, row in enumerate(_states(h, m, spec), 1):
        out[k] = row
    return out
