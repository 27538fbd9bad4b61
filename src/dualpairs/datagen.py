"""Seeded synthetic inputs shared by the test suites and the experiment runner.

Two families: trigonometric closures (smooth, periodic, with gentle low
wave numbers so second-order differencing is in its asymptotic regime by
N = 8) and plain random node data (for identities that hold exactly no
matter how rough the input is).  Everything is driven by an explicit
``numpy.random.Generator`` so runs are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .bridge import CovectorField, VectorField
from .fields import GridSource, MapField, StreamFunction, TangentField

__all__ = [
    "random_covector",
    "random_map",
    "random_phase_points",
    "random_polynomial_field",
    "random_stream",
    "random_symplectic_matrix",
    "random_tangent",
    "sample_map",
    "sample_stream",
    "sample_tangent",
    "trig_scalar",
    "trig_vector",
]

# Sine modes in each trigonometric closure, and shear or scaling factors in each symplectic matrix.
_WAVES = 4
_FACTORS = 3


def trig_scalar(rng: np.random.Generator, amplitude: float = 0.5):
    """A random smooth doubly periodic scalar ``fn(s1, s2)`` on the unit torus.

    A short sum of unit-wave-number sine modes under mild ``exp(cos)``
    envelopes in the other coordinate, with random amplitudes and phases.
    Two deliberate choices:

    * the envelopes spread the spectrum (a plain trigonometric polynomial
      is band-limited, and on a uniform periodic grid its node sums are
      exact by discrete Fourier orthogonality — several discretization
      residuals then vanish identically instead of showing their order);
      the envelope tails decay faster than any power, so the second-order
      differencing error dominates cleanly from N = 8 on;
    * base and envelope wave vectors stay on the axes and alternate
      deterministically, which keeps every draw genuinely two-dimensional
      and keeps the product spectrum of residual integrands low enough
      that N = 8 already sits in the asymptotic regime.
    """
    amps = amplitude * rng.uniform(0.3, 1.0, size=_WAVES) / 2.0
    depths = rng.uniform(0.1, 0.3, size=_WAVES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(_WAVES, 2))

    def fn(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        total = np.zeros(np.broadcast(s1, s2).shape)
        for k in range(_WAVES):
            base, other = (s1, s2) if k % 2 == 0 else (s2, s1)
            arg = 2.0 * np.pi * base + phases[k, 0]
            env = 2.0 * np.pi * other + phases[k, 1]
            total = total + amps[k] * np.sin(arg) * np.exp(depths[k] * np.cos(env))
        return total

    return fn


def trig_vector(rng: np.random.Generator, dim: int, amplitude: float = 0.5):
    """A smooth periodic map ``fn(s1, s2) -> (..., dim)`` with random offsets."""
    comps = [trig_scalar(rng, amplitude) for _ in range(dim)]
    shift = rng.uniform(-0.5, 0.5, size=dim)

    def fn(s1, s2):
        return np.stack([shift[i] + comps[i](s1, s2) for i in range(dim)], axis=-1)

    return fn


def _sample(source: GridSource, fn) -> np.ndarray:
    """Evaluate ``fn(s1, s2)`` on the broadcast node lines, then spread it to node shape.

    The closure sees ``s1`` as a column and ``s2`` as a row, so per-axis
    work (a ``sin`` of one coordinate) runs on one line of nodes instead of
    all of them; every node's own arithmetic is that of the full grid.  The
    result is a broadcast view: the field built on it copies it once.
    """
    line = source.node_line()
    v = np.asarray(fn(line[:, None], line[None, :]), dtype=float)
    return np.broadcast_to(v, source.node_shape + v.shape[2:])


def sample_stream(source: GridSource, fn) -> StreamFunction:
    return StreamFunction(source, _sample(source, fn))


def sample_map(source: GridSource, fn) -> MapField:
    return MapField(source, _sample(source, fn))


def sample_tangent(source: GridSource, fn) -> TangentField:
    return TangentField(source, _sample(source, fn))


def random_stream(rng: np.random.Generator, source: GridSource) -> StreamFunction:
    return StreamFunction(source, rng.uniform(-0.5, 0.5, source.node_shape))


def random_map(rng: np.random.Generator, source: GridSource, dim: int = 2) -> MapField:
    return MapField(source, rng.uniform(-0.5, 0.5, source.node_shape + (dim,)))


def random_tangent(rng: np.random.Generator, source: GridSource, dim: int = 2) -> TangentField:
    return TangentField(source, rng.uniform(-1.0, 1.0, source.node_shape + (dim,)))


def random_covector(rng: np.random.Generator, source, dim: int = 2) -> CovectorField:
    shape = source.node_shape + (dim,)
    return CovectorField(source, rng.uniform(-0.7, 0.7, shape), rng.uniform(-0.7, 0.7, shape))


def random_phase_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """A batch of ``count`` points in R^(2n), uniform in the centered unit box."""
    return rng.uniform(-1.0, 1.0, size=(count, 2 * n))


def random_symplectic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """An exactly symplectic 2n x 2n matrix.

    Built as a product of canonical shears with quarter-integer symmetric
    blocks and a dyadic diagonal scaling.  All entries are dyadic rationals
    of modest size, so the float matrix product is computed without any
    rounding and ``M^T J M = J`` holds bit for bit.
    """
    dim = 2 * n
    m = np.eye(dim)
    for _ in range(_FACTORS):
        kind = int(rng.integers(0, 3))
        block = np.eye(dim)
        if kind < 2:
            s = rng.integers(-4, 5, size=(n, n)) / 4.0
            s = (s + s.T) / 2.0  # halves of quarters are still dyadic (eighths)
            if kind == 0:
                block[:n, n:] = s
            else:
                block[n:, :n] = s
        else:
            d = 2.0 ** rng.integers(-1, 2, size=n)
            block[:n, :n] = np.diag(d)
            block[n:, n:] = np.diag(1.0 / d)
        m = m @ block
    return m


def random_polynomial_field(rng: np.random.Generator, dim: int) -> VectorField:
    """A quadratic vector field on R^dim, coefficients uniform in [-1/2, 1/2), with its analytic Jacobian."""
    c = 0.5 * rng.uniform(-1.0, 1.0, size=dim)
    a = 0.5 * rng.uniform(-1.0, 1.0, size=(dim, dim))
    b = 0.5 * rng.uniform(-1.0, 1.0, size=(dim, dim, dim))
    b = 0.5 * (b + b.transpose(0, 2, 1))

    def func(x):
        return c + np.einsum("ij,...j->...i", a, x) + np.einsum("ijk,...j,...k->...i", b, x, x)

    def jac(x):
        return np.broadcast_to(a, x.shape + (dim,)).copy() + 2.0 * np.einsum("ijk,...k->...ij", b, x)

    return VectorField(func=func, dim=dim, jac=jac, name="quadratic")
