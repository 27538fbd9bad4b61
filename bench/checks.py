"""Independent checks on the CSV artifacts of the benchmark workloads.

Each check recomputes what it can from the artifact (or from the seeded
inputs) with the benchmark's own code, and tests method properties that the
mathematics guarantees.  None compares against a stored copy of earlier
output.  A failed check raises :class:`CheckError`.

The tolerances sit about two decades above what the properties measure on
working code (1e-14 or better), so that rounding never trips them while a
single changed significant digit does.
"""

from __future__ import annotations

import csv
import math
import random

import numpy as np

# Relative tolerance for "equal to rounding".
ROUNDING = 1e-12

EXACT_ROWS = (
    "bracket-antisymmetry",
    "bracket-jacobi",
    "bracket-leibniz",
    "cocycle-identity",
    "extension-homomorphism",
    "hamiltonian-field-sign",
)

# Numeric-suite rows with the tolerance each is documented to meet.
NUMERIC_ROWS = {
    "omega-pairing-antisymmetry": 0.0,
    "omega-pairing-self": 0.0,
    "pushforward-invariance": 0.0,
    "momentum-equivariance": 0.0,
    "action-commutation": 0.0,
    "linear-symplectic-invariance": 1e-13,
    "pullback-telescoping": 1e-14,
    "momentum-gauge-shift": 1e-14,
    "orthogonality-constant-potential": 0.0,
    "orthogonality-constant-observable": 0.0,
    "equivariance-same-potential": 0.0,
    "momentum-pairing-consistency": 1e-14,
    "symplectic-pairing-consistency": 1e-14,
    "momentum-bracket-homomorphism": 1e-12,
    "transport-zero-covector": 0.0,
    "peakon-transport": 1e-10,
    "peakon-momentum-drift": 1e-12,
    "reparametrization-invariance": 0.0,
    "current-equivariance": 0.0,
    "oscillator-endpoint": 1e-5,
}

CONVERGENCE_OPS = ("orthogonality", "equivariance", "transport", "derivative")


class CheckError(AssertionError):
    """An artifact contradicts an independent computation or a method property."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows, f"{path}: empty file")
    return rows[0], rows[1:]


def has_nonfinite(path) -> bool:
    _, body = read_csv(path)
    values = np.array(body, dtype=float)
    return not bool(np.all(np.isfinite(values)))


# -- verify ---------------------------------------------------------------------


def check_verify_rows(path) -> None:
    """Every row passes; exact rows are exactly 0; numeric rows meet their tolerance."""
    header, body = read_csv(path)
    _require(header == ["test_id", "N", "residual", "observed_order", "pass"], f"header {header}")
    ids = [row[0] for row in body]
    _require(ids == list(EXACT_ROWS) + list(NUMERIC_ROWS), f"unexpected rows {ids}")
    for test_id, _n, residual, _order, passed in body:
        _require(passed == "true", f"row {test_id} did not pass")
        value = float(residual)
        if test_id in EXACT_ROWS:
            _require(value == 0.0, f"exact row {test_id} has residual {residual}")
        else:
            tol = NUMERIC_ROWS[test_id]
            _require(0.0 <= value <= tol, f"row {test_id}: residual {residual} > {tol}")


def _to_sympy(poly, xs):
    import sympy

    total = sympy.Integer(0)
    for index, coeff in poly.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for x, e in zip(xs, index):
            term *= x**e
        total += term
    return sympy.expand(total)


def check_polyalg_against_sympy(seed: int, count: int, samples: int = 8) -> None:
    """Recompute brackets and the cocycle identity in sympy on the suite's own draws.

    The draws are the exact suite's polynomial triples: ``random_poly`` fed
    from ``random.Random(seed)`` in the suite's order.  A seeded sample of
    them is compared with ``polyalg`` exactly.
    """
    import sympy

    from dualpairs.polyalg import cocycle_identity_residual, poisson_bracket, random_poly

    rng = random.Random(seed)
    triples = []
    for i in range(count):
        nvars = 2 if i % 2 == 0 else 4
        triples.append((nvars, [random_poly(rng, nvars) for _ in range(3)]))
    picks = random.Random(seed * 1000003 + 1).sample(range(count), min(samples, count))

    for i in sorted(picks):
        nvars, (g, h, k) = triples[i]
        n = nvars // 2
        xs = sympy.symbols(f"x0:{nvars}")
        gs, hs, ks = (_to_sympy(f, xs) for f in (g, h, k))

        def bracket(a, b):
            return sympy.expand(
                sum(sympy.diff(a, xs[j]) * sympy.diff(b, xs[n + j])
                    - sympy.diff(a, xs[n + j]) * sympy.diff(b, xs[j]) for j in range(n))
            )

        diff = sympy.expand(bracket(gs, hs) - _to_sympy(poisson_bracket(g, h), xs))
        _require(diff == 0, f"draw {i}: poisson_bracket differs from sympy by {diff}")

        def field(f):
            return [sympy.diff(f, xs[n + j]) for j in range(n)] + [-sympy.diff(f, xs[j]) for j in range(n)]

        def lie(x, y):  # [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i
            return [
                sympy.expand(sum(x[j] * sympy.diff(y[i], xs[j]) - y[j] * sympy.diff(x[i], xs[j])
                                 for j in range(nvars)))
                for i in range(nvars)
            ]

        origin = {x: 0 for x in xs}

        def sigma(x, y):  # -omega(X, Y) at the origin
            om = sum(x[j] * y[n + j] - x[n + j] * y[j] for j in range(n))
            return -sympy.sympify(om).subs(origin)

        fields = [field(f) for f in (gs, hs, ks)]
        cyclic = sum(
            sigma(lie(fields[(c + 1) % 3], fields[c]), fields[(c + 2) % 3]) for c in range(3)
        )
        ours = cocycle_identity_residual(g, h, k)
        _require(cyclic == 0, f"draw {i}: sympy cocycle sum is {cyclic}")
        _require(ours == 0, f"draw {i}: polyalg cocycle residual {ours} != sympy 0")


# -- grid -------------------------------------------------------------------------


def refit_order(grids, residuals) -> float:
    """Minus the least-squares slope of log residual against log grid size."""
    xs = [math.log(n) for n in grids]
    ys = [math.log(r) for r in residuals]
    xm = math.fsum(xs) / len(xs)
    ym = math.fsum(ys) / len(ys)
    num = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    den = math.fsum((x - xm) ** 2 for x in xs)
    return -num / den


def check_converge(path, grids, threshold: float = 1.9) -> None:
    header, body = read_csv(path)
    _require(header == ["test_id", "N", "residual", "observed_order", "pass"], f"header {header}")
    _require(len(body) == len(CONVERGENCE_OPS) * len(grids), f"{len(body)} rows")
    for k, op in enumerate(CONVERGENCE_OPS):
        rows = body[k * len(grids):(k + 1) * len(grids)]
        _require(all(r[0] == op for r in rows), f"rows of {op} out of order")
        _require([int(r[1]) for r in rows] == list(grids), f"{op}: grids {[r[1] for r in rows]}")
        residuals = [float(r[2]) for r in rows]
        _require(all(0.0 < r < math.inf for r in residuals), f"{op}: residuals {residuals}")
        _require(
            all(b < a for a, b in zip(residuals, residuals[1:])),
            f"{op}: residuals do not decrease under refinement: {residuals}",
        )
        reported = {float(r[3]) for r in rows}
        _require(len(reported) == 1, f"{op}: rows report different orders {reported}")
        (order,) = reported
        ours = refit_order(grids, residuals)
        _require(abs(ours - order) <= 1e-11 * max(1.0, abs(order)),
                 f"{op}: reported order {order}, refit {ours}")
        _require(ours >= threshold, f"{op}: order {ours} below {threshold}")
        _require(all(r[4] == "true" for r in rows), f"{op}: rows not marked passed")


def advect_inputs(seed: int, grid: int, amplitude: float = 0.3):
    """The advect run's map and zero-mean stream function, sampled by the benchmark.

    The smooth closures come from ``datagen`` (they *are* the seeded input);
    sampling on the grid and removing the mean are done here.
    """
    from dualpairs import datagen

    rng = np.random.default_rng(seed)
    f_fn = datagen.trig_vector(rng, 2, amplitude=amplitude)
    a_fn = datagen.trig_scalar(rng)
    line = np.arange(grid) / grid
    s1, s2 = np.meshgrid(line, line, indexing="ij")
    alpha = a_fn(s1, s2)
    return f_fn(s1, s2), alpha - math.fsum(alpha.ravel()) / alpha.size


def pair_terms(f: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Cell terms ``c * avg(alpha) * h^2`` of the right momentum pairing, periodic grid."""
    h = 1.0 / f.shape[0]

    def corners(v):
        v10 = np.roll(v, -1, axis=0)
        return v, v10, np.roll(v, -1, axis=1), np.roll(v10, -1, axis=1)

    v00, v10, v01, v11 = corners(f)
    d1 = (v10 - v00 + v11 - v01) / (2.0 * h)
    d2 = (v01 - v00 + v11 - v10) / (2.0 * h)
    c = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    a00, a10, a01, a11 = corners(alpha)
    return c * (a00 + a10 + a01 + a11) * 0.25 * h * h


def check_advect(path, seed: int, grid: int, steps: int, flow: str, dt: float = 0.0625) -> None:
    header, body = read_csv(path)
    _require(header == ["t", "jr_pair", "jr_drift"], f"header {header}")
    data = np.array(body, dtype=float)
    _require(data.shape == (steps + 1, 3), f"shape {data.shape}, expected {(steps + 1, 3)}")
    _require(np.all(np.isfinite(data)), "non-finite values")
    t, jr, drift = data.T
    k = np.arange(steps + 1)
    _require(np.all(np.abs(t - k * dt) <= ROUNDING * np.maximum(1.0, k * dt)), "t != k*dt")

    f, alpha = advect_inputs(seed, grid)
    terms = pair_terms(f, alpha)
    j0 = -math.fsum(terms.ravel())
    scale = math.fsum(np.abs(terms).ravel())
    _require(abs(jr[0] - j0) <= ROUNDING * scale, f"jr_pair(0) = {jr[0]!r}, recomputed {j0!r}")

    ours = np.abs(jr - jr[0]) / max(1.0, abs(jr[0]))
    _require(np.all(np.abs(drift - ours) <= 1e-15 + ROUNDING * ours), "jr_drift column != |jr - jr0|")
    if flow == "shear":
        worst = float(np.max(np.abs(jr - jr[0])))
        _require(worst <= ROUNDING * scale, f"shear flow moved jr_pair by {worst!r}")


# -- peakons and filaments ------------------------------------------------------------


def _kernel(family: str, alpha: float, x: np.ndarray) -> np.ndarray:
    if family == "exp1d":
        return np.exp(-np.abs(x[..., 0]) / alpha) / (2.0 * alpha)
    return np.exp(-np.sum(x * x, axis=-1) / (2.0 * alpha * alpha))


def energies(q, p, w, family: str, alpha: float, rows: int = 64):
    """``H = 1/2 sum_ab (P_a . P_b) G(Q_a - Q_b) w_a w_b`` per row, and the sum of |terms|."""
    h = np.empty(q.shape[0])
    size = np.empty(q.shape[0])
    ww = np.outer(w, w)
    for start in range(0, q.shape[0], rows):
        qs, ps = q[start:start + rows], p[start:start + rows]
        g = _kernel(family, alpha, qs[:, :, None, :] - qs[:, None, :, :])
        terms = np.einsum("tai,tbi->tab", ps, ps) * g * ww
        h[start:start + rows] = 0.5 * terms.sum(axis=(1, 2))
        size[start:start + rows] = 0.5 * np.abs(terms).sum(axis=(1, 2))
    return h, size


def chain_drift(q, p):
    """Relative max-node drift of the chain current ``<P_a, (Q_a+1 - Q_a-1) A / 2>``."""
    a = q.shape[1]
    m = np.einsum("tai,tai->ta", p, (np.roll(q, -1, axis=1) - np.roll(q, 1, axis=1)) * (a / 2.0))
    scale = float(np.max(np.abs(m[0]))) or 1.0
    return np.max(np.abs(m - m[0]), axis=1) / scale


def initial_points(n: int, alpha: float, p: float):
    a = np.arange(n)
    return (2.0 * alpha * (a - (n - 1) / 2.0))[:, None], (p * 2.0 ** -a)[:, None]


def initial_circle(nodes: int, radius: float, p: float):
    ang = 2.0 * np.pi * np.arange(nodes) / nodes
    tangent = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1), p * tangent


def check_peakon(path, *, count: int, dim: int, dt: float, steps: int, family: str,
                 alpha: float, filament: bool, q0, p0) -> None:
    header, body = read_csv(path)
    ad = count * dim
    expected = (["t"] + [f"q_{i + 1}" for i in range(ad)] + [f"p_{i + 1}" for i in range(ad)]
                + ["H"] + [f"Ptot_{i + 1}" for i in range(dim)] + ["jr_drift"])
    _require(header == expected, "header does not match the point count and dimension")
    data = np.array(body, dtype=float)
    _require(data.shape[0] == steps + 1, f"{data.shape[0]} rows, expected steps + 1 = {steps + 1}")
    _require(np.all(np.isfinite(data)), "non-finite values")
    t = data[:, 0]
    q = data[:, 1:1 + ad].reshape(-1, count, dim)
    p = data[:, 1 + ad:1 + 2 * ad].reshape(-1, count, dim)
    h_col = data[:, 1 + 2 * ad]
    ptot = data[:, 2 + 2 * ad:2 + 2 * ad + dim]
    drift = data[:, -1]
    w = np.full(count, 1.0 / count) if filament else np.ones(count)

    k = np.arange(steps + 1)
    _require(np.all(np.abs(t - k * dt) <= ROUNDING * np.maximum(1.0, k * dt)), "t != k*dt")
    _require(np.allclose(q[0], q0, rtol=1e-15, atol=1e-15)
             and np.allclose(p[0], p0, rtol=1e-15, atol=1e-15),
             "row 0 is not the documented initial state")

    h, size = energies(q, p, w, family, alpha)
    bad = np.abs(h_col - h) > ROUNDING * size
    _require(not bad.any(), f"H column differs from recomputed H at row {int(np.argmax(bad))}")

    ours = np.einsum("tai,a->ti", p, w)
    scale = float(np.max(w @ np.abs(p[0]))) or 1.0
    _require(np.all(np.abs(ptot - ours) <= ROUNDING * scale), "Ptot column != sum_a P_a w_a")
    _require(np.all(np.abs(ptot - ptot[0]) <= ROUNDING * scale), "Ptot is not conserved")

    if not filament:
        _require(np.all(drift == 0.0), "jr_drift must be 0 for point states")
        _require(np.all(np.diff(q[:, :, 0], axis=1) > 0.0), "point positions lost their order")
        return
    ang = np.einsum("ta,a->t", q[:, :, 0] * p[:, :, 1] - q[:, :, 1] * p[:, :, 0], w)
    ang_scale = float(np.abs(q[0, :, 0] * p[0, :, 1] - q[0, :, 1] * p[0, :, 0]) @ w)
    _require(np.all(np.abs(ang - ang[0]) <= ROUNDING * ang_scale), "angular momentum is not conserved")
    r = np.sqrt(np.sum(q * q, axis=-1))
    spread = np.max(r, axis=1) - np.min(r, axis=1)
    _require(np.all(spread <= ROUNDING * np.max(r, axis=1)), "node radii are not all equal")
    ours = chain_drift(q, p)
    _require(np.all(np.abs(drift - ours) <= 1e-15 + ROUNDING * ours),
             "jr_drift column != recomputed chain-current drift")
