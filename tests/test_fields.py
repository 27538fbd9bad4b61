"""Grid fields, generators, pullbacks, and the exact symmetry actions.

The split matters: some rows are exact by construction (pure node
permutations, telescoping edge sums) and are asserted with ``==``; genuinely
discretized quantities get explicit tolerances tied to their order.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dualpairs.datagen import (
    random_map,
    random_stream,
    random_symplectic_matrix,
    random_tangent,
    sample_map,
    sample_stream,
)
from dualpairs.fields import (
    ChainSource,
    GridSource,
    GridSymmetry,
    MapField,
    StreamFunction,
    TangentField,
    averaged_momentum_pair,
    cell_average,
    equivariance_residual,
    fiber_pairing,
    format_float,
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
from dualpairs.symplectic import FlowSpec, Observable


def identity_map(source: GridSource) -> MapField:
    s1, s2 = source.node_coords()
    return MapField(source, np.stack([s1, s2], axis=-1))


def coordinate_observable(index: int) -> Observable:
    def grad(z):
        g = np.zeros_like(z)
        g[..., index] = 1.0
        return g

    return Observable(value=lambda z: z[..., index].copy(), gradient=grad)


# -- sources and containers ------------------------------------------------------


def test_periodic_node_count_and_spacing():
    src = GridSource(8)
    assert src.node_shape == (8, 8)
    assert src.cell_shape == (8, 8)
    assert src.spacing == 0.125
    s1, s2 = src.node_coords()
    assert s1[0, 0] == 0.0 and s1[-1, 0] == 0.875


def test_bad_resolution_rejected():
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            GridSource(bad)
        with pytest.raises(ValueError, match="positive integer"):
            ChainSource(bad)


@pytest.mark.parametrize("source", [GridSource, ChainSource])
def test_resolution_must_be_an_integer(source):
    # a float, even a whole one, or a bool is refused; a NumPy integer is kept as an int
    for bad in (8.0, True, np.float64(8.0)):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            source(bad)
    kept = source(np.int64(8))
    assert type(kept.n) is int and all(type(k) is int for k in kept.node_shape)
    assert np.array_equal(kept.weights, source(8).weights)


def test_map_field_needs_even_dim():
    src = GridSource(4)
    with pytest.raises(ValueError):
        MapField(src, np.zeros((4, 4, 3)))


def test_field_values_are_read_only():
    src = GridSource(4)
    f = identity_map(src)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 9.9


def test_fields_built_from_views_hold_c_ordered_copies():
    src = GridSource(6)
    rng = np.random.default_rng(3)
    transposed = rng.standard_normal((2, 6, 6)).transpose(1, 2, 0)
    column = rng.standard_normal((6, 1, 2))
    broadcast = np.broadcast_to(column, (6, 6, 2))
    scalar_t = rng.standard_normal((6, 6)).T
    scalar_b = np.broadcast_to(rng.standard_normal(6), (6, 6))
    built = [
        (MapField(src, transposed), transposed),
        (TangentField(src, transposed), transposed),
        (MapField(src, broadcast), broadcast),
        (TangentField(src, broadcast), broadcast),
        (StreamFunction(src, scalar_t), scalar_t),
        (StreamFunction(src, scalar_b), scalar_b),
    ]
    for field, view in built:
        assert not view.flags.c_contiguous
        assert field.values.flags.c_contiguous
        assert np.array_equal(field.values, view)


# -- weighted integrals ----------------------------------------------------------


def test_mean_of_first_coordinate_on_4x4_is_exact():
    src = GridSource(4)
    f = identity_map(src)
    # nodes at {0, 1/4, 1/2, 3/4}: the mean is exactly 3/8 in float arithmetic
    assert integrated_observable(f, coordinate_observable(0)) == 0.375


def test_integrated_omega_antisymmetry_is_bitwise():
    src = GridSource(12)
    rng = np.random.default_rng(7)
    f = random_map(rng, src, dim=4)
    u = random_tangent(rng, src, dim=4)
    v = random_tangent(rng, src, dim=4)
    assert integrated_omega(f, u, v) == -integrated_omega(f, v, u)
    assert integrated_omega(f, u, u) == 0.0


# -- generators ------------------------------------------------------------------


def test_right_generator_accuracy_periodic():
    # periodic map (values live in the target plane, so the map itself must
    # wrap smoothly; a raw identity has a seam jump and is not a torus map)
    src = GridSource(64)
    s1, s2 = src.node_coords()
    f = MapField(src, np.stack([np.sin(2 * np.pi * s1), np.cos(2 * np.pi * s2)], axis=-1))
    alpha = StreamFunction(src, np.sin(2 * np.pi * s1))
    gen = right_generator(f, alpha)
    expected = 4 * np.pi**2 * np.sin(2 * np.pi * s2) * np.cos(2 * np.pi * s1)
    assert np.abs(gen.values[..., 1] - expected).max() < 1e-6
    assert np.array_equal(gen.values[..., 0], np.zeros(src.node_shape))


def test_left_generator_uses_hamiltonian_sign():
    src = GridSource(4)
    f = identity_map(src)
    from dualpairs.fields import left_generator

    h = coordinate_observable(0)  # h = q: X_h = (0, -1)
    gen = left_generator(f, h)
    assert np.array_equal(gen.values[..., 0], np.zeros((4, 4)))
    assert np.array_equal(gen.values[..., 1], -np.ones((4, 4)))


# -- pullback and momenta --------------------------------------------------------


def test_identity_pullback_is_exactly_one():
    # the identity jumps at the seam; the 7 x 7 cells that do not wrap see an affine map
    src = GridSource(8)
    c = pullback_omega(identity_map(src))
    assert np.array_equal(c.values[:-1, :-1], np.ones((7, 7)))


def test_shear_pullback_is_exactly_one():
    # affine maps hit the corner-difference stencil exactly
    src = GridSource(8)
    f = identity_map(src)
    shear = np.array([[1.0, 0.0], [-0.25, 1.0]])
    assert np.array_equal(pullback_omega(nodewise_linear(f, shear)).values[:-1, :-1], np.ones((7, 7)))


def test_pullback_total_telescopes_to_zero():
    # sum of c * h^2 over a periodic grid cancels edge by edge for any map
    rng = np.random.default_rng(11)
    for n in (4, 8, 16):
        src = GridSource(n)
        f = random_map(rng, src, dim=2)
        total = pullback_omega(f).integral()
        scale = float(np.abs(pullback_omega(f).values).max()) * src.spacing**2 * n * n
        assert abs(total) <= 1e-14 * max(scale, 1.0), f"n={n}"


def test_momentum_pairing_gauge_invariance():
    # shifting alpha by a constant cannot change the pairing on a closed grid
    rng = np.random.default_rng(19)
    src = GridSource(12)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    shifted = StreamFunction(src, alpha.values + 4.75)
    a = right_momentum_pair(f, alpha)
    b = right_momentum_pair(f, shifted)
    assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_momentum_pairing_holds_one_block_of_cells_at_a_time():
    # no cell array, wrap-padded component or exact-sum temporary of the grid's size
    rng = np.random.default_rng(23)
    src = GridSource(1024)
    f = random_map(rng, src, dim=2)
    abar = cell_average(src, random_stream(rng, src).values)
    tracemalloc.start()
    try:
        averaged_momentum_pair(f, abar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # a full cell array alone is 8 MB


def test_cell_average_quarter_turn_pairs():
    src = GridSource(4)
    vals = np.arange(16.0).reshape(4, 4)
    avg = cell_average(src, vals)
    # corner grouping ((a00+a11)+(a10+a01))/4 for cell (0,0)
    assert avg[0, 0] == ((vals[0, 0] + vals[1, 1]) + (vals[1, 0] + vals[0, 1])) / 4.0


# -- fiber pairing ---------------------------------------------------------------


def test_fiber_pairing_degree_validation():
    src = GridSource(6)
    rng = np.random.default_rng(23)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    u = random_tangent(rng, src)
    h = coordinate_observable(0)
    with pytest.raises(ValueError):
        fiber_pairing(f, alpha, tangents=(u,))
    with pytest.raises(ValueError):
        fiber_pairing(f, tangents=(u,))
    with pytest.raises(ValueError):
        fiber_pairing(f, alpha, observable=h)
    # well-formed calls
    fiber_pairing(f, alpha)
    fiber_pairing(f, tangents=(u, u))
    fiber_pairing(f, observable=h, tangents=(u,))


def test_fiber_pairing_two_form_routes_agree():
    src = GridSource(8)
    rng = np.random.default_rng(29)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    assert fiber_pairing(f, alpha) == -right_momentum_pair(f, alpha)


# -- orthogonality and equivariance ----------------------------------------------


def test_orthogonality_exact_for_constant_potential():
    src = GridSource(10)
    rng = np.random.default_rng(31)
    f = random_map(rng, src, dim=2)
    alpha = StreamFunction(src, np.full(src.node_shape, 2.5))
    h = coordinate_observable(0)
    assert orthogonality_residual(f, h, alpha) == 0.0


def test_orthogonality_exact_for_constant_observable():
    src = GridSource(10)
    rng = np.random.default_rng(37)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    const = Observable(value=lambda z: np.full(z.shape[:-1], 3.0), gradient=np.zeros_like)
    assert orthogonality_residual(f, const, alpha) == 0.0


def test_orthogonality_shrinks_at_second_order():
    fine = []
    for n in (16, 32):
        src = GridSource(n)
        s1, s2 = src.node_coords()
        f = MapField(
            src,
            np.stack(
                [np.sin(2 * np.pi * s1) * np.exp(0.2 * np.cos(2 * np.pi * s2)), np.cos(2 * np.pi * s2)],
                axis=-1,
            ),
        )
        alpha = StreamFunction(src, np.sin(2 * np.pi * s2) * np.exp(0.1 * np.cos(2 * np.pi * s1)))
        h = Observable(
            value=lambda z: z[..., 0] ** 2 * z[..., 1],
            gradient=lambda z: np.stack([2.0 * z[..., 0] * z[..., 1], z[..., 0] ** 2], axis=-1),
        )
        fine.append(abs(orthogonality_residual(f, h, alpha)))
    assert fine[1] < fine[0] / 3.0


def test_equivariance_residual_same_potential_is_zero():
    src = GridSource(12)
    rng = np.random.default_rng(41)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    assert equivariance_residual(alpha, alpha, f) == 0.0


def test_fields_on_different_grids_do_not_pair():
    rng = np.random.default_rng(47)
    coarse = GridSource(8)
    f = random_map(rng, GridSource(16), dim=2)
    with pytest.raises(ValueError, match="different grids"):
        right_momentum_pair(f, random_stream(rng, coarse))
    with pytest.raises(ValueError, match="different grids"):
        integrated_omega(f, random_tangent(rng, coarse), random_tangent(rng, coarse))
    # a chain of 16 nodes has as many nodes per axis, but it is no grid
    chain = TangentField(ChainSource(16), rng.normal(size=(16, 2)))
    with pytest.raises(ValueError, match="different grids"):
        integrated_omega(f, chain, chain)
    # an equal but separately built source still pairs
    right_momentum_pair(f, random_stream(rng, GridSource(16)))


# -- symmetry actions ------------------------------------------------------------


def test_pushforward_invariance_is_bitwise():
    # integral of h(f) is a node sum: permuting nodes cannot change fsum output
    src = GridSource(16)
    rng = np.random.default_rng(53)
    f = random_map(rng, src, dim=2)
    h = coordinate_observable(1)
    for psi in (GridSymmetry((5, 0), 0), GridSymmetry((0, 3), 1), GridSymmetry((7, 7), 2)):
        assert integrated_observable(right_act(f, psi), h) == integrated_observable(f, h)


def test_momentum_equivariance_under_grid_symmetry():
    src = GridSource(16)
    rng = np.random.default_rng(59)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    psi = GridSymmetry(shift=(3, 7), quarter_turns=1)
    lhs = right_momentum_pair(right_act(f, psi), right_act_stream(alpha, psi))
    rhs = right_momentum_pair(f, alpha)
    assert lhs == rhs


def test_left_right_action_commutation_bitwise():
    src = GridSource(8)
    rng = np.random.default_rng(61)
    f = random_map(rng, src, dim=2)
    h = Observable(
        value=lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2),
        gradient=lambda z: z.copy(),
    )
    spec = FlowSpec("implicit-midpoint", 0.0625, 4)
    psi = GridSymmetry(shift=(2, 5), quarter_turns=3)
    a = right_act(left_act(f, h, spec), psi)
    b = left_act(right_act(f, psi), h, spec)
    assert np.array_equal(a.values, b.values)


def test_nodewise_symplectic_invariance():
    rng = np.random.default_rng(67)
    src = GridSource(12)
    f = random_map(rng, src, dim=2)
    alpha = random_stream(rng, src)
    base = right_momentum_pair(f, alpha)
    for _ in range(5):
        mat = random_symplectic_matrix(rng, 1)
        moved = right_momentum_pair(nodewise_linear(f, mat), alpha)
        assert abs(moved - base) <= 1e-13 * max(1.0, abs(base))


def test_non_integer_shift_rejected():
    with pytest.raises(ValueError):
        GridSymmetry(shift=(0.5, 0))


@pytest.mark.parametrize(
    "shift, turns",
    [((1, 2), 1.5), ((1, 2), True), ((1, 2), 1.0), ((1.0, 2), 0), ((1, False), 0), ((1, np.float64(2.0)), 0)],
)
def test_grid_symmetry_refuses_floats_and_bools(shift, turns):
    # a float or a bool is refused even where it equals an integer, so 1.5 never becomes one turn
    with pytest.raises(ValueError, match="must be an integer|must be integers"):
        GridSymmetry(shift, turns)


def test_grid_symmetry_takes_numpy_integers():
    psi = GridSymmetry((np.int64(3), 7), np.int32(5))
    assert psi == GridSymmetry((3, 7), 1)
    assert all(type(s) is int for s in psi.shift) and type(psi.quarter_turns) is int


# -- serialization ---------------------------------------------------------------


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 5.0, 0.0):
        assert float(format_float(x)) == x
