"""Identity suites and convergence studies, reported as uniform check rows.

Three layers:

* :func:`exact_suite` — rational-arithmetic identities on random polynomial
  data; residuals are exact zeros or the row fails.
* :func:`numeric_suite` — floating-point identities that hold bitwise (pure
  node permutations, identical-sum comparisons) or to machine precision
  (scale-normalized residuals); nothing in this suite carries discretization
  error, so any tolerance override down to ~1e-6 still passes.
* :func:`convergence_study` plus the filament studies — residuals carrying
  real discretization error, summarized by the observed order (minus the
  least-squares slope of log residual against log resolution).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import datagen
from .bridge import (
    CovectorField,
    momentum_bracket_residual,
    momentum_pairing_residual,
    symplectic_pairing_residual,
    transport_residual,
)
from .errors import SolverDivergenceError
from .fields import (
    GridSource,
    GridSymmetry,
    MapField,
    StreamFunction,
    _fsum,
    equivariance_residual,
    fiber_pairing,
    integrated_observable,
    integrated_omega,
    left_act,
    nodewise_linear,
    orthogonality_residual,
    pullback_omega,
    right_act,
    right_act_stream,
    right_generator,
    right_momentum_pair,
)
from .peakons import (
    FilamentState,
    FlowSpec,
    KernelSpec,
    SingularState,
    filament_current,
    integrate,
    pair_with_field,
    reparametrize,
)
from .polyalg import (
    cocycle_identity_residual,
    extended_bracket,
    field_omega,
    hamiltonian_field,
    jacobi_lie_bracket,
    p_var,
    poisson_bracket,
    q_var,
    random_poly,
    to_extension,
)
from .symplectic import Observable, flow

__all__ = [
    "CONVERGENCE_OPS",
    "CheckRow",
    "convergence_study",
    "exact_suite",
    "filament_dt_study",
    "filament_resolution_study",
    "numeric_suite",
    "observed_order",
]

CONVERGENCE_OPS = ("orthogonality", "equivariance", "transport", "derivative")


@dataclass(frozen=True)
class CheckRow:
    """One verification result.

    For plain identity rows, ``passed`` means ``residual <= tolerance``.
    For convergence rows, ``tolerance`` holds the order threshold,
    ``observed_order`` the fitted order, and ``passed`` compares those.
    """

    test_id: str
    n: int | None
    residual: float
    tolerance: float
    passed: bool
    observed_order: float | None = None


def _row(test_id: str, residual: float, tolerance: float, n: int | None = None) -> CheckRow:
    residual = abs(float(residual))
    return CheckRow(test_id, n, residual, tolerance, residual <= tolerance)


def observed_order(resolutions, residuals) -> float:
    """Minus the least-squares slope of log residual vs log resolution."""
    xs = np.log(np.asarray(resolutions, dtype=float))
    ys = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


# -- exact rational suite -------------------------------------------------------


def exact_suite(seed: int = 7, count: int = 100) -> list[CheckRow]:
    """Bracket axioms, cocycle identity, extension homomorphism, sign relation.

    Each check runs on ``count`` random rational polynomial triples of
    degree <= 4 in one or two canonical pairs; a row's residual is the
    number of failing draws (exactly zero when the identity holds).
    """
    rng = random.Random(seed)
    fails = {
        "bracket-antisymmetry": 0,
        "bracket-jacobi": 0,
        "bracket-leibniz": 0,
        "cocycle-identity": 0,
        "extension-homomorphism": 0,
        "hamiltonian-field-sign": 0,
    }
    for i in range(count):
        nvars = 2 if i % 2 == 0 else 4
        g = random_poly(rng, nvars)
        h = random_poly(rng, nvars)
        k = random_poly(rng, nvars)

        if not (poisson_bracket(g, h) + poisson_bracket(h, g)).is_zero():
            fails["bracket-antisymmetry"] += 1
        jac = (
            poisson_bracket(poisson_bracket(g, h), k)
            + poisson_bracket(poisson_bracket(h, k), g)
            + poisson_bracket(poisson_bracket(k, g), h)
        )
        if not jac.is_zero():
            fails["bracket-jacobi"] += 1
        leib = poisson_bracket(g, h * k) - poisson_bracket(g, h) * k - h * poisson_bracket(g, k)
        if not leib.is_zero():
            fails["bracket-leibniz"] += 1
        if cocycle_identity_residual(g, h, k) != 0:
            fails["cocycle-identity"] += 1

        lhs = to_extension(poisson_bracket(g, h))
        rhs = extended_bracket(to_extension(g), to_extension(h))
        same_field = all(
            (a - b).is_zero() for a, b in zip(lhs.field_part, rhs.field_part)
        )
        if not (same_field and lhs.central_part == rhs.central_part):
            fails["extension-homomorphism"] += 1

        xg = hamiltonian_field(g)
        xh = hamiltonian_field(h)
        bracket = jacobi_lie_bracket(xg, xh)
        flipped = hamiltonian_field(field_omega(xg, xh))
        if not all((a + b).is_zero() for a, b in zip(bracket, flipped)):
            fails["hamiltonian-field-sign"] += 1

    return [_row(name, float(bad), 0.0) for name, bad in fails.items()]


# -- machine-precision numeric suite -------------------------------------------


def _constant_observable(c: float) -> Observable:
    return Observable(
        lambda m: np.full(m.shape[:-1], c),
        lambda m: np.zeros_like(m),
        name=f"const({c})",
    )


def _oscillator() -> Observable:
    """``|z|^2 / 2`` on R^2; its float field ``(p, -q)`` is its gradient's field bit for bit."""
    return Observable(
        lambda z: 0.5 * np.einsum("...i,...i->...", z, z),
        lambda z: z.copy(),
        name="oscillator",
        float_field=lambda u: [u[1], -u[0]],
    )


def _study_filament(nodes: int, kernel: KernelSpec | None = None) -> FilamentState:
    """A smooth closed curve with mixed tangential/normal covectors."""
    kernel = kernel or KernelSpec("gaussian", 0.8)
    s = np.arange(nodes) / nodes
    ang = 2.0 * np.pi * s
    q = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    tangent = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    normal = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    p = 0.4 * tangent + 0.2 * np.cos(ang)[:, None] * normal
    return FilamentState(q, p, kernel, nonvanishing=True)


def numeric_suite(seed: int = 7, n: int = 16, tol: float | None = None) -> list[CheckRow]:
    """Floating-point identity rows on one grid (default 16 x 16).

    ``tol`` replaces every row's own tolerance when given (the CLI's
    ``--tol``); with the defaults, rows are either bitwise-exact or
    scale-normalized machine-precision checks.
    """
    rng = np.random.default_rng(seed)
    src = GridSource(n)
    f = datagen.random_map(rng, src, dim=2)
    u = datagen.random_tangent(rng, src, dim=2)
    v = datagen.random_tangent(rng, src, dim=2)
    alpha = datagen.random_stream(rng, src)
    h_obs = random_poly(random.Random(seed), 2, max_degree=3).observable()
    psi = GridSymmetry(shift=(3, n // 2 - 1), quarter_turns=1)

    rows: list[CheckRow] = []

    rows.append(
        _row(
            "omega-pairing-antisymmetry",
            integrated_omega(f, u, v) + integrated_omega(f, v, u),
            0.0,
            n,
        )
    )
    rows.append(_row("omega-pairing-self", integrated_omega(f, u, u), 0.0, n))
    rows.append(
        _row(
            "pushforward-invariance",
            integrated_observable(right_act(f, psi), h_obs) - integrated_observable(f, h_obs),
            0.0,
            n,
        )
    )
    rows.append(
        _row(
            "momentum-equivariance",
            right_momentum_pair(right_act(f, psi), right_act_stream(alpha, psi))
            - right_momentum_pair(f, alpha),
            0.0,
            n,
        )
    )

    spec = FlowSpec("implicit-midpoint", 0.05, 3)
    try:
        lr = left_act(right_act(f, psi), h_obs, spec)
        rl = right_act(left_act(f, h_obs, spec), psi)
        commutation = np.max(np.abs(lr.values - rl.values))
    except SolverDivergenceError as exc:
        # a stiff random observable fails this row, not the suite
        print(f"action-commutation: numeric divergence at step {exc.step}", file=sys.stderr)
        commutation = math.inf
    rows.append(_row("action-commutation", commutation, 0.0, n))

    m = datagen.random_symplectic_matrix(rng, 1)
    c0 = pullback_omega(f).values
    c1 = pullback_omega(nodewise_linear(f, m)).values
    scale = max(1.0, float(np.max(np.abs(c0))))
    rows.append(_row("linear-symplectic-invariance", np.max(np.abs(c1 - c0)) / scale, 1e-13, n))

    total_scale = _fsum(np.abs(c0)) * src.spacing**2
    rows.append(
        _row("pullback-telescoping", pullback_omega(f).integral() / max(total_scale, 1e-300), 1e-14, n)
    )
    shifted = StreamFunction(src, alpha.values + 1.0)
    rows.append(
        _row(
            "momentum-gauge-shift",
            (right_momentum_pair(f, shifted) - right_momentum_pair(f, alpha))
            / max(total_scale, 1e-300),
            1e-14,
            n,
        )
    )

    const_alpha = StreamFunction(src, np.full(src.node_shape, 0.7))
    rows.append(_row("orthogonality-constant-potential", orthogonality_residual(f, h_obs, const_alpha), 0.0, n))
    rows.append(
        _row("orthogonality-constant-observable", orthogonality_residual(f, _constant_observable(3.0), alpha), 0.0, n)
    )
    rows.append(_row("equivariance-same-potential", equivariance_residual(alpha, alpha, f), 0.0, n))

    cov = datagen.random_covector(rng, src, dim=2)
    x_field = datagen.random_polynomial_field(rng, 2)
    y_field = datagen.random_polynomial_field(rng, 2)
    rep = momentum_pairing_residual(cov, x_field)
    rows.append(_row("momentum-pairing-consistency", rep.residual / max(rep.scale, 1e-300), 1e-14, n))
    v1 = (datagen.random_tangent(rng, src).values, datagen.random_tangent(rng, src).values)
    v2 = (datagen.random_tangent(rng, src).values, datagen.random_tangent(rng, src).values)
    rep = symplectic_pairing_residual(cov, v1, v2)
    rows.append(_row("symplectic-pairing-consistency", rep.residual / max(rep.scale, 1e-300), 1e-14, n))
    rep = momentum_bracket_residual(x_field, y_field, datagen.random_phase_points(rng, 40, 2))
    rows.append(_row("momentum-bracket-homomorphism", rep.residual / rep.scale, 1e-12, n))

    zero_cov = CovectorField(src, cov.q, np.zeros_like(cov.p))
    rows.append(_row("transport-zero-covector", transport_residual(zero_cov, alpha), 0.0, n))

    peak = SingularState([[0.0]], [[2.0]], KernelSpec("exp1d", 1.0))
    traj = integrate(peak, FlowSpec("implicit-midpoint", 1e-3, 1000))
    rows.append(_row("peakon-transport", traj.q[-1, 0, 0] - 1.0, 1e-10))

    pair = SingularState(
        [[-1.0], [1.0]], [[1.2], [0.6]], KernelSpec("exp1d", 1.0)
    )
    traj = integrate(pair, FlowSpec("implicit-midpoint", 1e-3, 1000))
    momenta = traj.total_momenta()
    rows.append(_row("peakon-momentum-drift", np.max(np.abs(momenta - momenta[0])), 1e-12))

    fil = _study_filament(24)
    rows.append(
        _row(
            "reparametrization-invariance",
            pair_with_field(reparametrize(fil, 3), x_field) - pair_with_field(fil, x_field),
            0.0,
        )
    )
    rows.append(
        _row(
            "current-equivariance",
            np.max(np.abs(filament_current(reparametrize(fil, 5)) - np.roll(filament_current(fil), -5))),
            0.0,
        )
    )

    t_final = 6.283
    path = flow(_oscillator(), [1.0, 0.0], FlowSpec("implicit-midpoint", 1e-3, 6283))
    target = np.array([math.cos(t_final), -math.sin(t_final)])
    rows.append(_row("oscillator-endpoint", np.max(np.abs(path[-1] - target)), 1e-5))

    if tol is not None:
        rows = [
            CheckRow(r.test_id, r.n, r.residual, tol, r.residual <= tol, r.observed_order)
            for r in rows
        ]
    return rows


# -- convergence studies ---------------------------------------------------------


def _study_observable(seed: int) -> Observable:
    """A cubic on the target plane with pinned monomial support, seeded coefficients.

    Fully random low-degree polynomials occasionally come out (near) linear;
    the Hamiltonian field is then constant and the residual under study
    collapses to rounding noise, which wrecks an order fit.  Pinning the
    support (q^2, qp, p^2, q^2 p) keeps every seed nondegenerate while the
    coefficients still vary.
    """
    jit = random.Random(seed)
    q = q_var(1, 1)
    p = p_var(1, 1)
    coeffs = [
        Fraction(jit.randint(1, 6), jit.randint(1, 4)) * jit.choice((1, -1))
        for _ in range(4)
    ]
    poly = (
        q * q * coeffs[0]
        + q * p * coeffs[1]
        + p * p * coeffs[2]
        + q * q * p * coeffs[3]
    )
    return poly.observable()


def convergence_study(
    op: str, grids=(8, 16, 32), seed: int = 7, threshold: float = 1.9
) -> list[CheckRow]:
    """Grid-refinement study of one discretization residual.

    ``op`` is one of ``orthogonality`` (weighted pairing of the two
    generators), ``equivariance`` (zero-mean bracket identity),
    ``transport`` (covector transport vs phase pullback), ``derivative``
    (directional derivative of the fiber pairing vs the weighted pairing).
    Returns one row per grid, each carrying the common fitted order.
    """
    if op not in CONVERGENCE_OPS:
        raise ValueError(f"unknown study {op!r}; expected one of {CONVERGENCE_OPS}")
    if len(grids) < 2 or any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"grid list must be ascending with at least two entries, got {grids}")

    # Three independent draws, combined per grid as an rms.  A single draw
    # can land with an accidentally small leading error coefficient, which
    # drags the coarsest grid off the asymptote and wrecks the slope; three
    # draws cancelling at once is not a thing that happens.
    reps = 3
    draws = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        draws.append(
            {
                "f": datagen.trig_vector(rng, 2),
                "ax": datagen.trig_scalar(rng),
                "ay": datagen.trig_scalar(rng),
                "p": datagen.trig_vector(rng, 2),
                "v": datagen.trig_vector(rng, 2),
                "h": _study_observable(seed + 7919 * rep),
            }
        )

    residuals = []
    for n in grids:
        src = GridSource(n)
        sq = 0.0
        for d in draws:
            f = datagen.sample_map(src, d["f"])
            alpha = datagen.sample_stream(src, d["ax"])
            if op == "orthogonality":
                r = abs(orthogonality_residual(f, d["h"], alpha))
            elif op == "equivariance":
                r = abs(equivariance_residual(alpha, datagen.sample_stream(src, d["ay"]), f))
            elif op == "transport":
                cov = CovectorField(src, f.values, datagen.sample_map(src, d["p"]).values)
                r = transport_residual(cov, alpha)
            else:
                eps = 1e-5
                tang = datagen.sample_tangent(src, d["v"])
                plus = MapField(src, f.values + eps * tang.values)
                minus = MapField(src, f.values - eps * tang.values)
                deriv = (fiber_pairing(plus, alpha) - fiber_pairing(minus, alpha)) / (2.0 * eps)
                r = abs(deriv + integrated_omega(f, right_generator(f, alpha), tang))
            sq += r * r
        residuals.append(math.sqrt(sq / reps))

    order = observed_order(grids, residuals)
    passed = order >= threshold
    return [
        CheckRow(op, n, float(r), threshold, passed, order)
        for n, r in zip(grids, residuals)
    ]


def filament_dt_study(
    dts=(0.2, 0.1, 0.05), nodes: int = 64, t_final: float = 1.0, threshold: float = 1.9
) -> list[CheckRow]:
    """Order, in the time step, of the step-induced part of the current drift.

    At fixed chain resolution the raw drift saturates at the O(A^-2)
    differencing floor of the current itself — the midpoint rule tracks the
    exact drift of the spatially discretized system so closely that the
    floor dominates for every practical dt.  What actually depends on dt is
    the deviation of the final current field from a fine-dt reference run
    at the same resolution; that deviation is measured here and shrinks at
    second order.
    """
    st = _study_filament(nodes)
    scale = float(np.max(np.abs(filament_current(st))))
    dt_ref = min(dts) / 8.0
    ref = integrate(st, FlowSpec("implicit-midpoint", dt_ref, round(t_final / dt_ref)))
    m_ref = ref.filament_currents()[-1]
    excesses = []
    for dt in dts:
        traj = integrate(st, FlowSpec("implicit-midpoint", dt, round(t_final / dt)))
        m_end = traj.filament_currents()[-1]
        excesses.append(float(np.max(np.abs(m_end - m_ref))) / scale)
    # Order in dt: slope of log excess against log dt (refinement shrinks dt).
    order = -observed_order(dts, excesses)
    passed = order >= threshold
    return [
        CheckRow("filament-dt", round(t_final / dt), d, threshold, passed, order)
        for dt, d in zip(dts, excesses)
    ]


def filament_resolution_study(
    node_counts=(16, 32, 64), dt: float = 1e-3, t_final: float = 0.5, threshold: float = 1.9
) -> list[CheckRow]:
    """Order of the chain-current drift in the chain resolution, at small dt."""
    drifts = []
    for nodes in node_counts:
        st = _study_filament(nodes)
        traj = integrate(st, FlowSpec("implicit-midpoint", dt, round(t_final / dt)))
        drifts.append(float(np.max(traj.jr_drifts())))
    order = observed_order(node_counts, drifts)
    passed = order >= threshold
    return [
        CheckRow("filament-resolution", nodes, d, threshold, passed, order)
        for nodes, d in zip(node_counts, drifts)
    ]
