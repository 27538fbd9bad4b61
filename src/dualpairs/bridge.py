"""The correspondence between covector fields over maps and cotangent data.

A :class:`CovectorField` stores per-node pairs (base point Q_s, covector
P_s).  Read one way it is a map from the source into T*M; read the other
way it is a cotangent vector over the base map Q.  The correspondence
itself is a relabeling, so what this module computes are its content-bearing
identities:

* the pairing of the covectors against tangent fields (one weighted sum);
* the momentum function ``(x, p) -> <p, X(x)>`` of a vector field on M and
  the fact that pairing momenta with X equals integrating that function —
  an identity of finite sums, checked to rounding;
* the transport identity relating ``<P, DQ . X_alpha>`` to the pullback of
  the canonical two-form by the full phase map (second order in the grid);
* symplecticity: the weighted canonical-form pairing equals the cotangent
  pairing of perturbations, again an identity of finite sums;
* the bracket compatibility making the momentum function a Lie algebra
  homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import _integer
from .fields import (
    ChainSource,
    GridSource,
    MapField,
    StreamFunction,
    TangentField,
    _check_same_grid,
    _frozen,
    _fsum,
    right_momentum_pair,
    transport_along,
)
from .symplectic import Observable, canonical_omega, poisson_bracket_value

__all__ = [
    "CovectorField",
    "ResidualReport",
    "VectorField",
    "covector_pairing",
    "field_bracket",
    "momentum_bracket_residual",
    "momentum_function",
    "momentum_pairing_residual",
    "symplectic_pairing_residual",
    "transport_residual",
]


@dataclass(frozen=True, eq=False)
class VectorField:
    """A vector field on R^d given by callables.

    ``func`` maps an (..., d) array of points to an (..., d) array of
    vectors; ``jac``, when provided, returns the Jacobian with layout
    ``jac(x)[..., i, j] = dX^i/dx_j``.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim must be a positive integer", 1))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.jac is None:
            raise ValueError(f"vector field {self.name or '<anonymous>'} has no Jacobian")
        return np.asarray(self.jac(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def linear(cls, matrix) -> "VectorField":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"linear fields need a square matrix, got shape {a.shape}")
        d = a.shape[0]
        return cls(
            func=lambda x: np.einsum("ij,...j->...i", a, x),
            dim=d,
            jac=lambda x: np.broadcast_to(a, x.shape + (d,)).copy(),
            name="linear",
        )


@dataclass(frozen=True, eq=False)
class CovectorField:
    """Per-node pairs (base point, covector) over a grid or chain source."""

    source: GridSource | ChainSource
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _frozen(self.q, self.source.node_shape, "base-point", trailing=True)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", _frozen(self.p, q.shape, "covector"))

    def phase_map(self) -> MapField:
        """The full node map ``s -> (Q_s, P_s)`` into R^(2d)."""
        if not isinstance(self.source, GridSource):
            raise ValueError("phase maps are defined over grid sources")
        return MapField(self.source, np.concatenate([self.q, self.p], axis=-1))


@dataclass(frozen=True)
class ResidualReport:
    """A residual together with the natural size of the terms that formed it."""

    residual: float
    scale: float


def _values_of(v, shape) -> np.ndarray:
    vals = v.values if isinstance(v, TangentField) else np.asarray(v, dtype=float)
    if vals.shape != shape:
        raise ValueError(f"tangent values shape {vals.shape} != {shape}")
    return vals


def covector_pairing(cov: CovectorField, v) -> float:
    """``sum_s <P_s, V_s> mu_s`` for a tangent field V over the same base."""
    vals = _values_of(v, cov.q.shape)
    terms = np.einsum("...i,...i->...", cov.p, vals) * cov.source.weights
    return _fsum(terms)


def momentum_function(x_field: VectorField) -> Observable:
    """The observable ``(x, p) -> <p, X(x)>`` on R^(2d).

    Its gradient is assembled from X and its Jacobian; evaluating it for a
    field without a Jacobian raises ``ValueError``.
    """
    d = x_field.dim

    def value(z: np.ndarray):
        return np.einsum("...i,...i->...", z[..., d:], x_field(z[..., :d]))

    def gradient(z: np.ndarray):
        x, p = z[..., :d], z[..., d:]
        gx = np.einsum("...ij,...i->...j", x_field.jacobian(x), p)
        return np.concatenate([gx, x_field(x)], axis=-1)

    return Observable(value, gradient, name=f"momentum[{x_field.name or 'X'}]")


def field_bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """``DX . Y - DY . X`` — minus the usual Jacobi-Lie bracket.

    This is the sign for which taking momentum functions is a Lie algebra
    homomorphism: ``momentum_function(field_bracket(X, Y))`` equals the
    canonical Poisson bracket of the two momentum functions.
    """
    if x_field.dim != y_field.dim:
        raise ValueError(f"field dimensions differ: {x_field.dim} vs {y_field.dim}")

    def func(x: np.ndarray):
        return np.einsum("...ij,...j->...i", x_field.jacobian(x), y_field(x)) - np.einsum(
            "...ij,...j->...i", y_field.jacobian(x), x_field(x)
        )

    return VectorField(
        func=func,
        dim=x_field.dim,
        jac=None,
        name=f"[{x_field.name or 'X'},{y_field.name or 'Y'}]",
    )


def momentum_pairing_residual(cov: CovectorField, x_field: VectorField) -> ResidualReport:
    """Pair covectors with X along the base, two ways.

    Side one pairs P_s against X(Q_s) directly; side two integrates the
    momentum function of X over the node phase points.  These are the same
    finite sum, so the residual is zero up to rounding; the reported scale
    is the total absolute size of the side-one terms.
    """
    w = cov.source.weights
    terms1 = np.einsum("...i,...i->...", cov.p, x_field(cov.q)) * w
    side1 = _fsum(terms1)
    z = np.concatenate([cov.q, cov.p], axis=-1)
    side2 = _fsum(momentum_function(x_field).value(z) * w)
    return ResidualReport(abs(side1 - side2), _fsum(np.abs(terms1)))


def transport_residual(cov: CovectorField, alpha: StreamFunction) -> float:
    """Residual of the transport identity over a grid source.

    Side one is ``sum_s <P_s, (D Q_s) . X_alpha(s)> mu_s``; side two is the
    right-momentum pairing of the full phase map against alpha,
    ``-sum_cells c * avg(alpha) * spacing^2`` with c the pulled-back
    canonical two-form.  Equal in the continuum (the proof integrates by
    parts over the closed torus); O(N^-2) apart for smooth discrete data.
    A chain source carries no potential, so it is refused.
    """
    src = cov.source
    if not isinstance(src, GridSource):
        raise ValueError("the transport identity needs a grid source")
    _check_same_grid(cov, alpha)
    side1 = covector_pairing(cov, transport_along(src, cov.q, alpha))
    side2 = right_momentum_pair(cov.phase_map(), alpha)
    return abs(side1 - side2)


def symplectic_pairing_residual(cov: CovectorField, v1, v2) -> ResidualReport:
    """Weighted canonical-form pairing vs cotangent pairing of perturbations.

    ``v1`` and ``v2`` are perturbations of (Q, P), each a pair of arrays
    (delta_q, delta_p) shaped like the node data.  Side one evaluates the
    canonical two-form on the stacked phase vectors node by node and sums
    against the weights; side two is ``sum_s [<dP2, dQ1> - <dP1, dQ2>]
    mu_s``.  Algebraically identical; residual is zero up to rounding.
    """
    dq1, dp1 = (_values_of(a, cov.q.shape) for a in v1)
    dq2, dp2 = (_values_of(a, cov.q.shape) for a in v2)
    w = cov.source.weights
    z1 = np.concatenate([dq1, dp1], axis=-1)
    z2 = np.concatenate([dq2, dp2], axis=-1)
    terms1 = canonical_omega(z1, z2) * w
    terms2 = (np.einsum("...i,...i->...", dp2, dq1) - np.einsum("...i,...i->...", dp1, dq2)) * w
    return ResidualReport(abs(_fsum(terms1) - _fsum(terms2)), _fsum(np.abs(terms1)))


def momentum_bracket_residual(
    x_field: VectorField, y_field: VectorField, points: np.ndarray
) -> ResidualReport:
    """Check that momentum functions send the field bracket to the Poisson bracket.

    Evaluates ``momentum_function(field_bracket(X, Y))`` and the canonical
    Poisson bracket of the two momentum functions on a batch of phase
    points (shape (m, 2d)) and reports the largest pointwise difference.
    """
    z = np.asarray(points, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 * x_field.dim:
        raise ValueError(f"points must have shape (m, {2 * x_field.dim}), got {z.shape}")
    v1 = momentum_function(field_bracket(x_field, y_field)).value(z)
    gx = momentum_function(x_field)
    gy = momentum_function(y_field)
    v2 = poisson_bracket_value(gx, gy, z)
    residual = float(np.max(np.abs(v1 - v2))) if z.shape[0] else 0.0
    scale = max(1.0, float(np.max(np.abs(v1))) if z.shape[0] else 0.0)
    return ResidualReport(residual, scale)
