import math

import numpy as np
import pytest

from dualpairs.bridge import (
    CovectorField,
    VectorField,
    covector_pairing,
    field_bracket,
    momentum_bracket_residual,
    momentum_function,
    momentum_pairing_residual,
    symplectic_pairing_residual,
    transport_residual,
)
from dualpairs.fields import ChainSource, GridSource, StreamFunction, TangentField


def rotation_field():
    return VectorField.linear([[0.0, -1.0], [1.0, 0.0]])


def grid_covectors(n=6, seed=0):
    rng = np.random.default_rng(seed)
    src = GridSource(n)
    shape = src.node_shape + (2,)
    return CovectorField(src, rng.normal(size=shape), rng.normal(size=shape)), rng


def chain_covectors(n=11, seed=1):
    rng = np.random.default_rng(seed)
    src = ChainSource(n)
    return CovectorField(src, rng.normal(size=(n, 2)), rng.normal(size=(n, 2))), rng


# -- vector fields ----------------------------------------------------------------


def test_constant_field_and_jacobian():
    v = np.array([2.0, -1.0])
    x = VectorField(
        lambda pts: np.broadcast_to(v, pts.shape), 2, jac=lambda pts: np.zeros(pts.shape + (2,))
    )
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert np.array_equal(x(pts), np.array([[2.0, -1.0], [2.0, -1.0]]))
    assert np.array_equal(x.jacobian(pts), np.zeros((2, 2, 2)))


def test_linear_field_jacobian_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = VectorField.linear(a)
    pt = np.array([1.0, 1.0])
    assert np.array_equal(x(pt), np.array([3.0, 7.0]))
    assert np.array_equal(x.jacobian(pt), a)


def test_linear_field_rejects_nonsquare():
    with pytest.raises(ValueError):
        VectorField.linear(np.zeros((2, 3)))


def test_field_without_jacobian_refuses_to_differentiate():
    x = VectorField(lambda p: p**2, dim=2)
    with pytest.raises(ValueError):
        x.jacobian(np.zeros(2))


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        VectorField(lambda p: p, dim=0)


# -- momentum functions -----------------------------------------------------------


def test_momentum_function_value_and_gradient():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = momentum_function(VectorField.linear(a))
    z = np.array([1.0, 2.0, 3.0, 4.0])  # x = (1,2), p = (3,4)
    # <p, Ax> = <(3,4), (2,-1)> = 2
    assert g.value(z) == 2.0
    # gradient = (A^T p, Ax)
    assert np.array_equal(g.gradient(z), np.array([-4.0, 3.0, 2.0, -1.0]))


def test_momentum_function_gradient_needs_a_jacobian():
    # there is no finite-difference fallback: the value works, the gradient names the gap
    x = VectorField(lambda p: np.sin(p), dim=1, name="sine")
    g = momentum_function(x)
    z = np.array([0.7, 1.3])
    assert g.value(z) == 1.3 * np.sin(0.7)
    with pytest.raises(ValueError, match="sine has no Jacobian"):
        g.gradient(z)
    with_jac = momentum_function(VectorField(np.sin, dim=1, jac=lambda p: np.cos(p)[..., None]))
    assert np.array_equal(with_jac.gradient(z), np.array([np.cos(0.7) * 1.3, np.sin(0.7)]))


def test_field_bracket_of_linear_fields_is_commutator():
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    br = field_bracket(VectorField.linear(a), VectorField.linear(b))
    comm = a @ b - b @ a
    pts = np.random.default_rng(3).normal(size=(10, 2))
    assert np.abs(br(pts) - pts @ comm.T).max() <= 1e-14


def test_field_bracket_dim_mismatch():
    with pytest.raises(ValueError):
        field_bracket(VectorField.linear(np.eye(1)), VectorField.linear(np.eye(2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_momentum_functions_are_a_bracket_homomorphism(seed):
    rng = np.random.default_rng(seed)
    x = VectorField.linear(rng.normal(size=(2, 2)))
    y = VectorField.linear(rng.normal(size=(2, 2)))
    pts = rng.normal(size=(40, 4))
    report = momentum_bracket_residual(x, y, pts)
    assert report.residual <= 1e-12 * report.scale


def test_momentum_bracket_residual_nonlinear_fields():
    x = VectorField(
        lambda p: np.stack([np.sin(p[..., 1]), p[..., 0] ** 2], axis=-1),
        dim=2,
        jac=lambda p: np.stack(
            [
                np.stack([np.zeros_like(p[..., 0]), np.cos(p[..., 1])], axis=-1),
                np.stack([2 * p[..., 0], np.zeros_like(p[..., 0])], axis=-1),
            ],
            axis=-2,
        ),
    )
    y = rotation_field()
    pts = np.random.default_rng(9).normal(size=(25, 4))
    report = momentum_bracket_residual(x, y, pts)
    assert report.residual <= 1e-12 * report.scale


def test_momentum_bracket_residual_validates_points():
    with pytest.raises(ValueError):
        momentum_bracket_residual(rotation_field(), rotation_field(), np.zeros((4, 3)))


# -- covector fields over sources -------------------------------------------------


def test_covector_shape_validation():
    src = GridSource(4)
    good = np.zeros((4, 4, 2))
    with pytest.raises(ValueError):
        CovectorField(src, np.zeros((4, 3, 2)), good)
    with pytest.raises(ValueError):
        CovectorField(src, good, np.zeros((4, 4, 3)))


def test_phase_map_needs_a_grid():
    cov, _ = chain_covectors()
    with pytest.raises(ValueError):
        cov.phase_map()


def test_covector_pairing_is_weighted_sum():
    cov, rng = chain_covectors(n=7, seed=4)
    vals = rng.normal(size=cov.q.shape)
    manual = math.fsum(
        (np.einsum("ai,ai->a", cov.p, vals) * cov.source.weights).ravel()
    )
    assert covector_pairing(cov, vals) == manual
    # TangentField wrapping is a relabeling, not a recomputation
    assert covector_pairing(cov, TangentField(cov.source, vals)) == manual


def test_covector_pairing_shape_mismatch():
    cov, _ = chain_covectors()
    with pytest.raises(ValueError):
        covector_pairing(cov, np.zeros((3, 2)))


# -- the pairing identities -------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_momentum_pairing_two_routes_agree(seed):
    cov, rng = (grid_covectors(seed=seed) if seed % 2 == 0 else chain_covectors(seed=seed))
    x = VectorField.linear(rng.normal(size=(2, 2)))
    report = momentum_pairing_residual(cov, x)
    assert report.scale > 0.0
    assert report.residual == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_symplectic_pairing_two_routes_agree(seed):
    cov, rng = (grid_covectors(seed=seed) if seed % 2 == 0 else chain_covectors(seed=seed))
    v1 = (rng.normal(size=cov.q.shape), rng.normal(size=cov.q.shape))
    v2 = (rng.normal(size=cov.q.shape), rng.normal(size=cov.q.shape))
    report = symplectic_pairing_residual(cov, v1, v2)
    assert report.scale > 0.0
    assert report.residual <= 1e-14 * report.scale


def test_symplectic_pairing_accepts_tangent_fields():
    cov, rng = grid_covectors(seed=11)

    def dz():
        return rng.normal(size=cov.q.shape)

    v1 = (TangentField(cov.source, dz()), TangentField(cov.source, dz()))
    v2 = (dz(), dz())
    report = symplectic_pairing_residual(cov, v1, v2)
    assert report.residual <= 1e-14 * report.scale


# -- the transport identity -------------------------------------------------------


def test_transport_identity_exact_for_constant_base():
    src = GridSource(8)
    q = np.broadcast_to(np.array([0.25, -1.5]), src.node_shape + (2,)).copy()
    p = np.random.default_rng(2).normal(size=src.node_shape + (2,))
    cov = CovectorField(src, q, p)
    s1, s2 = src.node_coords()
    alpha = StreamFunction(src, np.sin(2 * np.pi * s1) * np.cos(2 * np.pi * s2))
    # DQ = 0 kills one side; the pullback form of a constant map kills the other
    assert transport_residual(cov, alpha) == 0.0


def test_transport_identity_second_order_on_smooth_data():
    residuals = []
    for n in (8, 16):
        src = GridSource(n)
        s1, s2 = src.node_coords()
        q = np.stack(
            [np.sin(2 * np.pi * s1) + 0.3 * np.cos(2 * np.pi * s2), np.cos(2 * np.pi * s2)],
            axis=-1,
        )
        p = np.stack(
            [np.cos(2 * np.pi * (s1 + s2)), np.sin(2 * np.pi * s1) * np.sin(2 * np.pi * s2)],
            axis=-1,
        )
        alpha = StreamFunction(src, np.sin(2 * np.pi * s2) + 0.5 * np.cos(2 * np.pi * s1))
        residuals.append(transport_residual(CovectorField(src, q, p), alpha))
    assert residuals[1] <= residuals[0] / 3.0


def test_transport_identity_refuses_a_chain_source():
    src = GridSource(5)
    alpha = StreamFunction(src, np.zeros(src.node_shape))
    chain_cov, _ = chain_covectors()
    with pytest.raises(ValueError, match="grid source"):
        transport_residual(chain_cov, alpha)


def test_transport_identity_refuses_a_potential_on_another_grid():
    cov, _ = grid_covectors(n=16)
    coarse = GridSource(8)
    alpha = StreamFunction(coarse, np.zeros(coarse.node_shape))
    with pytest.raises(ValueError, match="different grids"):
        transport_residual(cov, alpha)
