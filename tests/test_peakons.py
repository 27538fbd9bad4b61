import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from dualpairs.errors import SolverDivergenceError
from dualpairs.fields import ChainSource, format_float
from dualpairs.peakons import (
    FilamentState,
    FlowSpec,
    SingularState,
    Trajectory,
    _canonical_point,
    _collective_observable,
    _pair_terms,
    _weighted_totals,
    collective_hamiltonian,
    filament_current,
    integrate,
    pair_with_field,
    reparametrize,
    write_trajectory_csv,
)


def rates(st):
    """(Qdot, Pdot) from the gradient the steppers use, in the canonical variables (Q, P w).

    ``Qdot = dH/d(P w)`` and ``Pdot = -dH/dQ / w``, so that P stays a density
    per unit of the reference measure.
    """
    a, d = st.count, st.dim
    grad = _collective_observable(st).gradient(_canonical_point(st))
    return grad[a * d :].reshape(a, d), -grad[: a * d].reshape(a, d) / st.weights[:, None]


def circle_filament(nodes=24, radius=1.0, alpha=0.8, tangential=0.5):
    ang = 2 * np.pi * np.arange(nodes) / nodes
    q = radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    p = tangential * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    return FilamentState(q, p, alpha)


# -- kernels ---------------------------------------------------------------------


def test_exp1d_golden_values():
    # G(0) = 1/(2 alpha): H = p^2 G(0) / 2 and q-dot = p G(0) for one point
    alpha = 2.0
    one = SingularState(np.array([[0.0]]), np.array([[3.0]]), alpha)
    assert collective_hamiltonian(one) == 9.0 / 8.0
    dq, dp = rates(one)
    assert dq[0, 0] == 0.75
    # the symmetric peakon convention: zero slope at the crest, so no self-force
    assert dp[0, 0] == 0.0
    # two points |x| = alpha log 4 apart: G = e^{-log 4} / (2 alpha) = 1/16
    two = SingularState(np.array([[0.0], [2.0 * math.log(4.0)]]), np.array([[1.0], [2.0]]), alpha)
    assert collective_hamiltonian(two) == pytest.approx((1.0 + 4.0) / 8.0 + 2.0 / 16.0, rel=1e-15)
    dq, _ = rates(two)
    assert dq[0, 0] == pytest.approx(1.0 / 4.0 + 2.0 / 16.0, rel=1e-15)


def test_gaussian_golden_values():
    alpha = 2.0
    # five coincident points: G(0) = 1 and grad G(0) = 0
    p = np.random.default_rng(1).normal(size=(5, 3))
    st = SingularState(np.zeros((5, 3)), p, alpha)
    dq, dp = rates(st)
    assert np.array_equal(dp, np.zeros((5, 3)))
    assert np.abs(dq - p.sum(axis=0)).max() <= 1e-15 * np.abs(p).sum()
    # two unit covectors |x| = alpha = 2 apart: G = e^{-1/2}
    e1 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    two = SingularState(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), e1, alpha)
    assert collective_hamiltonian(two) == pytest.approx(1.0 + math.exp(-0.5), rel=1e-15)
    dq, dp = rates(two)
    assert dq[0, 0] == pytest.approx(1.0 + math.exp(-0.5), rel=1e-15)
    # -grad G at x_0 - x_1 = (-2, 0, 0) is -(2 / alpha^2) e^{-1/2} along e1
    assert dp[0, 0] == pytest.approx(-0.5 * math.exp(-0.5), rel=1e-15)


def two_points(dim, alpha):
    """Two points in ``dim`` dimensions: the line's exp1d kernel at dim 1, the gaussian above."""
    return SingularState(np.eye(2, dim), np.ones((2, dim)), alpha)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, -0.0, math.nan])
def test_kernel_validation(alpha):
    with pytest.raises(ValueError, match="kernel length scale must be positive"):
        two_points(2, alpha)


@pytest.mark.parametrize("dim", [1, 2], ids=["exp1d", "gaussian"])
def test_kernel_length_scale_whose_square_underflows_is_refused(dim):
    # both kernels divide by 2 alpha^2: 0 at alpha = 1e-200, a subnormal at 1e-160
    with pytest.raises(ValueError, match="alpha = 1e-200"):
        two_points(dim, 1e-200)
    assert two_points(dim, 1e-160).alpha == 1e-160


@pytest.mark.parametrize("dim", [1, 2], ids=["exp1d", "gaussian"])
def test_kernel_length_scale_whose_square_overflows_is_refused(dim):
    # 2 alpha^2 is inf at these alphas, where the gaussian's alpha**2 would raise OverflowError
    for alpha in (1e160, 1e200):
        with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha} is too large")):
            two_points(dim, alpha)
    assert two_points(dim, 1e153).alpha == 1e153


# -- states ----------------------------------------------------------------------


def test_singular_state_shapes_and_defaults():
    st = SingularState(np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]), 1.0)
    assert st.count == 2 and st.dim == 1
    assert np.array_equal(st.weights, np.ones(2)) and not st.weights.flags.writeable
    # the weights follow from the kind of state: they are not an input
    with pytest.raises(TypeError):
        SingularState(st.q, st.p, st.alpha, weights=np.ones(2))


def test_singular_state_length_mismatch():
    with pytest.raises(ValueError):
        SingularState(np.zeros((2, 1)), np.zeros((3, 1)), 1.0)


def test_filament_weights_default_to_chain_spacing():
    st = circle_filament(nodes=16)
    assert np.array_equal(st.weights, np.full(16, 1.0 / 16.0))
    assert np.array_equal(circle_filament(nodes=40).weights, ChainSource(40).weights)
    assert not st.weights.flags.writeable
    with pytest.raises(TypeError):
        FilamentState(st.q, st.p, st.alpha, weights=st.weights)
    with pytest.raises(TypeError):  # nonvanishing is keyword-only
        FilamentState(st.q, st.p, st.alpha, st.weights)


def test_filament_rejects_coincident_nodes():
    q = np.zeros((4, 2))
    p = np.ones((4, 2))
    with pytest.raises(ValueError):
        FilamentState(q, p, 1.0)


def test_filament_nonvanishing_rejects_zero_covector():
    ang = 2 * np.pi * np.arange(6) / 6
    q = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    p = np.ones_like(q)
    p[2] = 0.0
    FilamentState(q, p, 1.0)  # fine without the flag
    with pytest.raises(ValueError):
        FilamentState(q, p, 1.0, nonvanishing=True)


# -- collective dynamics ---------------------------------------------------------


def test_single_peakon_golden_numbers():
    st = SingularState(np.array([[0.0]]), np.array([[2.0]]), 1.0)
    # H = p^2 G(0) / 2 = 4 * 0.5 / 2
    assert collective_hamiltonian(st) == 1.0
    dq, dp = rates(st)
    assert dq[0, 0] == 1.0  # q-dot = p G(0)
    assert dp[0, 0] == 0.0  # symmetric kernel: no self-force


def test_single_peakon_travels_at_collective_speed():
    st = SingularState(np.array([[0.0]]), np.array([[2.0]]), 1.0)
    traj = integrate(st, FlowSpec("implicit-midpoint", 1e-3, 5000))
    assert abs(traj.q[-1, 0, 0] - 5.0) <= 1e-8
    assert np.abs(traj.p[:, 0, 0] - 2.0).max() <= 1e-12


def test_two_peakon_conservation_short_window():
    st = SingularState(
        np.array([[-1.0], [1.0]]),
        np.array([[1.2], [0.6]]),
        1.0,
    )
    traj = integrate(st, FlowSpec("implicit-midpoint", 1e-3, 1000))
    h = traj.hamiltonians()
    ptot = traj.total_momenta()
    assert np.abs(h - h[0]).max() / abs(h[0]) <= 1e-10
    assert np.abs(ptot - ptot[0]).max() <= 1e-12


def test_symmetric_peakon_pair_stays_mirror_symmetric():
    st = SingularState(
        np.array([[-2.0], [2.0]]),
        np.array([[0.8], [-0.8]]),
        1.0,
    )
    traj = integrate(st, FlowSpec("implicit-midpoint", 1e-3, 2000))
    assert np.abs(traj.q[:, 0, 0] + traj.q[:, 1, 0]).max() <= 1e-9
    assert np.abs(traj.p[:, 0, 0] + traj.p[:, 1, 0]).max() <= 1e-12


def test_diagnostics_match_per_state_values_bitwise():
    # 60 nodes put 18 rows in a block of the diagnostics; 40 steps span three blocks.
    # Their weight 1/60 is not a power of two, so P -> P w -> P rounds.
    rng = np.random.default_rng(11)
    nodes = 60
    ang = 2 * np.pi * np.arange(nodes) / nodes
    q = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    p = 0.5 * np.stack([-np.sin(ang), np.cos(ang)], axis=-1) + 0.1 * rng.normal(size=(nodes, 2))
    st = FilamentState(q, p, 0.8)
    traj = integrate(st, FlowSpec("implicit-midpoint", 0.01, 40))
    h = traj.hamiltonians()
    ptot = traj.total_momenta()
    assert h.shape == (41,) and ptot.shape == (41, 2)
    for i in range(len(traj)):
        state = FilamentState(traj.q[i], traj.p[i], st.alpha)
        assert collective_hamiltonian(state) == h[i]
        assert np.array_equal(_weighted_totals(state.p, state.weights), ptot[i])


def run_peak(tmp_path, st, steps):
    """Peak traced bytes of integrating ``st`` over ``steps`` steps and writing its CSV."""
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "run.csv", integrate(st, FlowSpec("implicit-midpoint", 1e-3, steps)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("filament", [False, True])
def test_a_run_holds_one_copy_of_its_path(tmp_path, filament):
    # P = (P w) / w overwrites the path in place, and the momentum totals, the H column and the
    # CSV rows take a block of rows at a time: 128 more steps cost 128 more rows of the path only
    count = 32
    q = np.stack([np.arange(count), np.zeros(count)], axis=-1) if filament else np.arange(count)[:, None]
    st = (FilamentState if filament else SingularState)(q, np.ones_like(q), 1.0)
    run_peak(tmp_path, st, 32)  # first-call allocations stay out of the difference
    rows_bytes = 128 * 2 * q.size * 8
    assert run_peak(tmp_path, st, 256) - run_peak(tmp_path, st, 128) < 1.25 * rows_bytes


# -- the fused collective gradient against the einsum formulation -----------------


def _reference_kernel(alpha, x):
    """G and grad G on (..., d) displacements, two exps per point, as first written."""
    if x.shape[-1] == 1:
        g = np.exp(-np.abs(x[..., 0]) / alpha) / (2.0 * alpha)
        dg = -np.sign(x[..., 0]) * np.exp(-np.abs(x[..., 0]) / alpha) / (2.0 * alpha**2)
        return g, dg[..., None]
    g = np.exp(-np.einsum("...i,...i->...", x, x) / (2.0 * alpha**2))
    return g, -x / alpha**2 * g[..., None]


def _reference_gradient(st, z):
    """The collective gradient through (A, A, d) displacements and generic einsums."""
    a, d = st.count, st.dim
    head = z.shape[:-1]
    q = z[..., : a * d].reshape(head + (a, d))
    pt = z[..., a * d :].reshape(head + (a, d))
    dq = q[..., :, None, :] - q[..., None, :, :]
    g, dg = _reference_kernel(st.alpha, dq)
    pp = np.einsum("...ai,...bi->...ab", pt, pt)
    dq_grad = np.einsum("...ab,...abi->...ai", pp, dg)
    dpt_grad = np.einsum("...ab,...bi->...ai", g, pt)
    return np.concatenate([dq_grad.reshape(head + (a * d,)), dpt_grad.reshape(head + (a * d,))], axis=-1)


def _random_state(seed, count, dim, alpha, ties=None):
    """Random covectors: on points of weight 1 with tied positions (the 1-D default), or else on a
    filament of weight 1/count, which is not a power of two at 40 nodes, so ``P w`` rounds."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(count, dim))
    p = rng.normal(size=(count, dim))
    if ties is None:
        ties = dim == 1
    if not ties:
        return FilamentState(q, p, alpha)
    q[3] = q[0]  # coincident points: the kernel slope there is 0 by convention
    q[7] = q[5]
    return SingularState(q, p, alpha)


@pytest.mark.parametrize("dim, alpha", [(1, 0.7), (1, 1.0), (2, 1.3), (3, 0.6)])
def test_fused_gradient_matches_einsum_reference(dim, alpha):
    st = _random_state(23, 40, dim, alpha)
    z = _canonical_point(st)
    fused = _collective_observable(st).gradient(z)
    reference = _reference_gradient(st, z)
    assert np.max(np.abs(fused - reference)) <= 1e-13 * np.max(np.abs(reference))
    # the same point twice in one batch gives the per-row result bit for bit
    other = _canonical_point(_random_state(29, 40, dim, alpha))
    batch = _collective_observable(st).gradient(np.stack([z, other]))
    assert batch.shape == (2, z.size)
    assert np.array_equal(batch[0], fused)
    assert np.array_equal(batch[1], _collective_observable(st).gradient(other))


# -- the exp1d scan against the dense pair sums ----------------------------------


def _reference_energy(st):
    """Dense exp1d H: ``1/2 sum_ab pt_a pt_b G(x_a - x_b)`` over all A^2 pairs, and the sum of |terms|."""
    pt = st.p[:, 0] * st.weights
    x = st.q[:, 0]
    terms = np.outer(pt, pt) * np.exp(-np.abs(x[:, None] - x[None, :]) / st.alpha)
    terms /= 2.0 * st.alpha
    return 0.5 * math.fsum(terms.ravel()), 0.5 * math.fsum(np.abs(terms).ravel())


def _exp1d_state(seed, count, alpha, spread=1.0, ties=True):
    """Points of weight 1 with tied positions from 12 points on; else a 1-D filament of weight 1/count."""
    rng = np.random.default_rng(seed)
    q = spread * rng.normal(size=(count, 1))
    p = rng.normal(size=(count, 1))
    if not (ties and count >= 12):
        return FilamentState(q, p, alpha)
    q[3] = q[0]  # a tied pair
    q[9] = q[8] = q[5]  # a tied triple
    return SingularState(q, p, alpha)


def _assert_matches_dense(st, tol=1e-12):
    z = _canonical_point(st)
    scan = _collective_observable(st).gradient(z)
    reference = _reference_gradient(st, z)
    assert np.max(np.abs(scan - reference)) <= tol * np.max(np.abs(reference))
    h, size = _reference_energy(st)
    assert abs(collective_hamiltonian(st) - h) <= tol * size


@pytest.mark.parametrize("alpha", [0.7, 1.0])
@pytest.mark.parametrize("count", [1, 2, 3, 12, 97, 512])
def test_exp1d_scan_matches_dense_sums(count, alpha):
    _assert_matches_dense(_exp1d_state(count, count, alpha))
    if count >= 12:  # the same positions untied, as a filament
        _assert_matches_dense(_exp1d_state(count, count, alpha, ties=False))


def test_exp1d_scan_ties_keep_the_flat_crest_convention():
    q = np.array([[0.3], [-1.0], [0.3], [2.0], [0.3], [-1.0]])  # a tied triple and a tied pair
    p = np.array([[1.0], [-2.0], [0.5], [0.25], [-3.0], [4.0]])
    st = SingularState(q, p, 0.7)
    _assert_matches_dense(st)
    # tied points share one field value: they move together
    dq, _ = rates(st)
    assert dq[0, 0] == dq[2, 0] == dq[4, 0] and dq[1, 0] == dq[5, 0]


def test_exp1d_scan_underflows_across_wide_gaps():
    # clusters 1500 alpha apart: e^-1500 underflows to 0, so the clusters do not see each other
    alpha = 0.7
    rng = np.random.default_rng(41)
    q = np.concatenate([rng.normal(size=20) + c * 1500.0 * alpha for c in range(3)])[:, None]
    st = FilamentState(q, rng.normal(size=(60, 1)), alpha)  # weight 1/60
    assert float(np.ptp(q)) > 1000.0 * alpha
    _assert_matches_dense(st)
    # the first cluster's forces, in the canonical variables, are those of the cluster alone
    z = _canonical_point(st)
    alone = _collective_observable(SingularState(q[:20], st.p[:20], st.alpha))
    dq_grad = alone.gradient(np.concatenate([z[:20], z[60:80]]))[:20]
    assert np.array_equal(_collective_observable(st).gradient(z)[:20], dq_grad)


def test_exp1d_batch_rows_equal_single_rows_bitwise():
    obs = _collective_observable(_exp1d_state(3, 40, 0.7))
    one = _canonical_point(_exp1d_state(3, 40, 0.7))
    two = _canonical_point(_exp1d_state(4, 40, 0.7))
    batch = np.stack([one, two])
    grads = obs.gradient(batch)
    values = obs.value(batch)
    assert grads.shape == (2, 80) and values.shape == (2,)
    for i, z in enumerate((one, two)):
        assert np.array_equal(grads[i], obs.gradient(z))
        assert values[i] == obs.value(z)


@pytest.mark.parametrize("dim", [1, 2], ids=["exp1d", "gaussian"])
@pytest.mark.parametrize("weighted", [False, True])
def test_observable_value_is_collective_hamiltonian_bitwise(dim, weighted):
    states = [_random_state(seed, 40, dim, 0.8, ties=False if weighted else None) for seed in (31, 37, 41)]
    if not weighted:
        states = [SingularState(st.q, st.p, st.alpha) for st in states]
    obs = _collective_observable(states[0])
    batch = obs.value(np.stack([_canonical_point(st) for st in states]))
    assert batch.shape == (3,)
    for i, st in enumerate(states):
        h = collective_hamiltonian(st)
        assert obs.value(_canonical_point(st)) == h
        assert batch[i] == h


@pytest.mark.parametrize("power_of_two", [False, True])
def test_canonical_hamiltonian_against_the_weighted_pair_sum(power_of_two):
    # H was once summed as (P_a . P_b) G w_a w_b; summing (pt_a . pt_b) G with pt = P w moves
    # only the last bits, and none when every weight is a power of two (filaments of 2^k nodes)
    st = _random_state(43, 64 if power_of_two else 40, 2, 0.8)
    w = st.weights
    terms = _pair_terms(st.alpha, st.q, st.p) * np.outer(w, w)
    old, size = 0.5 * math.fsum(terms.ravel()), 0.5 * math.fsum(np.abs(terms).ravel())
    h = collective_hamiltonian(st)
    if power_of_two:
        assert h == old
    else:
        assert abs(h - old) <= 1e-15 * size


def test_overflowing_hamiltonian_sum_is_nan():
    # each term is finite, but their sum overflows: math.fsum would raise
    st = SingularState(np.array([[0.0], [2.0]]), np.array([[1.7e154], [0.85e154]]), 1.0)
    assert math.isnan(collective_hamiltonian(st))


def test_exp1d_hamiltonians_equal_per_state_values_bitwise():
    st = _exp1d_state(8, 16, 1.0, spread=3.0)
    traj = integrate(st, FlowSpec("implicit-midpoint", 0.01, 30))
    h = traj.hamiltonians()
    assert h.shape == (31,)
    for i in range(len(traj)):
        assert collective_hamiltonian(SingularState(traj.q[i], traj.p[i], st.alpha)) == h[i]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp1d_non_finite_positions_give_a_non_finite_field(bad):
    st = _exp1d_state(5, 12, 1.0)
    z = _canonical_point(st)
    z[4] = bad
    z[7] = -z[7]  # finite neighbours out of order around the bad point
    obs = _collective_observable(st)
    assert np.isnan(obs.gradient(z)).all()
    assert np.isnan(obs.value(z))


def test_exp1d_scan_at_a_hundred_thousand_points():
    # random nonzero momenta at every point; the dense sum is taken for a few points only
    count, alpha = 100_000, 1.0
    rng = np.random.default_rng(2)
    q = np.sort(rng.uniform(-2000.0, 2000.0, count))
    pt = rng.uniform(0.5, 1.5, count) * rng.choice([-1.0, 1.0], count)
    z = np.concatenate([q, pt])
    st = SingularState(q[:, None], pt[:, None], alpha)
    grad = _collective_observable(st).gradient(z)
    for a in rng.choice(count, 16, replace=False):
        g = np.exp(-np.abs(q[a] - q) / alpha) / (2.0 * alpha)
        field = g * pt
        slope = -np.sign(q[a] - q) / alpha * pt[a] * field
        assert abs(grad[count + a] - field.sum()) <= 1e-12 * np.abs(field).sum()
        assert abs(grad[a] - slope.sum()) <= 1e-12 * np.abs(slope).sum()


def test_exp1d_coincident_points_feel_no_mutual_force():
    st = SingularState(np.array([[0.5], [0.5]]), np.array([[1.0], [2.0]]), 1.0)
    dq, dp = rates(st)
    assert np.array_equal(dp, np.zeros((2, 1)))
    assert np.array_equal(dq, np.full((2, 1), 1.5))


@pytest.mark.parametrize("dim, count, rows", [(2, 40, 90), (3, 40, 90), (2, 300, 3), (3, 7, 5)])
def test_hamiltonians_half_sum_equals_full_matrix_fsum(dim, count, rows):
    # 40 points put 40 rows in a block (three blocks for 90 rows); 300 points need one block per row
    rng = np.random.default_rng(dim * 1000 + count)
    q = rng.normal(size=(rows, count, dim))
    p = rng.normal(size=(rows, count, dim))
    w = rng.uniform(0.5, 1.5, count)
    alpha = 0.9
    traj = Trajectory(np.arange(rows) * 0.1, q, p, w, alpha)
    h = traj.hamiltonians()
    for i in range(rows):
        terms = _pair_terms(alpha, q[i], p[i] * w[:, None])
        assert np.array_equal(terms, terms.T)
        assert h[i] == 0.5 * math.fsum(terms.ravel().tolist())


def test_hamiltonian_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    st = FilamentState(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), 1.3)  # weight 1/5
    dq, dp = rates(st)
    eps = 1e-6

    def h_of(q, p):
        return collective_hamiltonian(FilamentState(q, p, st.alpha))

    for a in range(5):
        for i in range(2):
            qp = st.q.copy(); qp[a, i] += eps
            qm = st.q.copy(); qm[a, i] -= eps
            dh_dq = (h_of(qp, st.p) - h_of(qm, st.p)) / (2 * eps)
            pp = st.p.copy(); pp[a, i] += eps
            pm = st.p.copy(); pm[a, i] -= eps
            dh_dp = (h_of(st.q, pp) - h_of(st.q, pm)) / (2 * eps)
            # Hamilton's equations with the weight-canonical pairing
            assert dq[a, i] * st.weights[a] == pytest.approx(dh_dp, abs=1e-8)
            assert dp[a, i] * st.weights[a] == pytest.approx(-dh_dq, abs=1e-8)


# -- momentum maps on the singular support ---------------------------------------


def test_pair_with_constant_field_is_total_momentum():
    rng = np.random.default_rng(13)
    st = FilamentState(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), 1.0)  # weight 1/5
    value = pair_with_field(st, np.array([1.0, 0.0]))
    assert value == _weighted_totals(st.p, st.weights)[0]


def test_pair_with_zero_covector_vanishes():
    st = SingularState(np.array([[0.3], [0.9]]), np.zeros((2, 1)), 1.0)
    assert pair_with_field(st, lambda x: np.ones_like(x)) == 0.0


def test_filament_current_radial_covector_vanishes():
    ang = 2 * np.pi * np.arange(12) / 12
    q = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    p = q.copy()  # radial: orthogonal to the tangent by symmetry of D_s
    st = FilamentState(q, p, 1.0)
    assert np.abs(filament_current(st)).max() <= 1e-13


def test_filament_current_tangent_magnitude():
    st = circle_filament(nodes=64, tangential=1.0)
    m = filament_current(st)
    # |dQ/ds| = 2 pi on the unit circle, up to the A^-2 stencil error
    assert np.abs(m - 2 * np.pi).max() <= 2 * np.pi * (2 * np.pi / 64) ** 2


def test_reparametrize_is_exact_cyclic_shift():
    st = circle_filament(nodes=10)
    shifted = reparametrize(st, 3)
    assert isinstance(shifted, FilamentState)
    assert np.array_equal(shifted.q, np.roll(st.q, -3, axis=0))
    assert np.array_equal(shifted.p, np.roll(st.p, -3, axis=0))
    # full cycle and zero shift are identities
    assert np.array_equal(reparametrize(st, 10).q, st.q)
    assert np.array_equal(reparametrize(st, 0).q, st.q)


def test_reparametrize_takes_an_integer_shift():
    st = circle_filament(nodes=10)
    for bad in (1.5, 3.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="shift must be an integer"):
            reparametrize(st, bad)
    assert np.array_equal(reparametrize(st, np.int64(3)).q, reparametrize(st, 3).q)
    # a point state rotates too, and a filament keeps its flag
    points = SingularState(st.q, st.p, st.alpha)
    assert type(reparametrize(points, 3)) is SingularState
    assert reparametrize(FilamentState(st.q, st.p, st.alpha, nonvanishing=True), 3).nonvanishing


def test_pairing_invariant_under_reparametrize():
    rng = np.random.default_rng(17)
    st = circle_filament(nodes=20)
    for _ in range(20):
        vec = rng.normal(size=2)
        assert pair_with_field(reparametrize(st, 7), vec) == pair_with_field(st, vec)


def test_current_equivariant_under_reparametrize():
    st = circle_filament(nodes=16)
    m = filament_current(st)
    m_shifted = filament_current(reparametrize(st, 5))
    assert np.array_equal(m_shifted, np.roll(m, -5))


def test_filament_current_conservation_along_flow():
    st = circle_filament(nodes=32, tangential=0.4)
    traj = integrate(st, FlowSpec("implicit-midpoint", 0.01, 100))
    drift = traj.jr_drifts()
    assert drift[0] == 0.0
    assert float(np.max(drift)) <= 5e-3  # the A^-2 floor at 32 nodes


def test_point_trajectory_reports_zero_drift():
    st = SingularState(np.array([[0.0]]), np.array([[1.0]]), 1.0)
    traj = integrate(st, FlowSpec("implicit-midpoint", 1e-2, 10))
    assert np.array_equal(traj.jr_drifts(), np.zeros(11))
    with pytest.raises(ValueError):
        traj.filament_currents()


# -- trajectory serialization ----------------------------------------------------


def test_trajectory_csv_schema(tmp_path):
    st = SingularState(
        np.array([[0.0, 0.0], [1.0, 0.5]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        1.0,
    )
    traj = integrate(st, FlowSpec("implicit-midpoint", 0.125, 4))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "t",
        "q_1", "q_2", "q_3", "q_4",
        "p_1", "p_2", "p_3", "p_4",
        "H",
        "Ptot_1", "Ptot_2",
        "jr_drift",
    ]
    assert len(rows) == 1 + 5
    assert rows[1][0] == "0"
    assert float(rows[-1][0]) == pytest.approx(0.5, abs=1e-15)


def _old_trajectory_csv(path, traj, energies, momenta, drifts):
    """The writer as first written: ``format_float`` per value, rows through ``csv.writer``."""
    a, d = traj.q.shape[1], traj.q.shape[2]
    header = (
        ["t"] + [f"q_{i + 1}" for i in range(a * d)] + [f"p_{i + 1}" for i in range(a * d)]
        + ["H"] + [f"Ptot_{i + 1}" for i in range(d)] + ["jr_drift"]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(len(traj)):
            row = [format_float(traj.times[i])]
            row += [format_float(x) for x in traj.q[i].ravel()]
            row += [format_float(x) for x in traj.p[i].ravel()]
            row.append(format_float(energies[i]))
            row += [format_float(x) for x in momenta[i]]
            row.append(format_float(drifts[i]))
            writer.writerow(row)


def test_trajectory_csv_bytes_match_the_per_value_writer(tmp_path, monkeypatch):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308,
               1.0 / 3.0, -1e300, 123456789.0, 0.1]
    rng = np.random.default_rng(19)
    rows = 40

    def pick(*shape):
        return rng.choice(special, size=shape)

    traj = Trajectory(pick(rows), pick(rows, 3, 2), pick(rows, 3, 2), np.ones(3), 1.0)
    # a non-finite H is a divergence (see below), so the H column holds finite values only
    energies = rng.choice([x for x in special if math.isfinite(x)], size=rows)
    momenta, drifts = pick(rows, 2), pick(rows)
    monkeypatch.setattr(Trajectory, "hamiltonians", lambda self: energies)
    monkeypatch.setattr(Trajectory, "total_momenta", lambda self: momenta)
    monkeypatch.setattr(Trajectory, "jr_drifts", lambda self: drifts)
    write_trajectory_csv(tmp_path / "new.csv", traj)
    _old_trajectory_csv(tmp_path / "old.csv", traj, energies, momenta, drifts)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_trajectory_csv_refuses_a_non_finite_hamiltonian(tmp_path, monkeypatch, bad):
    traj = integrate(SingularState(np.array([[0.0]]), np.array([[1.0]]), 1.0),
                     FlowSpec("implicit-midpoint", 0.1, 5))
    energies = np.ones(6)
    energies[[2, 4]] = bad
    monkeypatch.setattr(Trajectory, "hamiltonians", lambda self: energies)
    path = tmp_path / "never.csv"
    with pytest.raises(SolverDivergenceError) as info:
        write_trajectory_csv(path, traj)
    assert info.value.step == 2
    assert not path.exists()


def test_gaussian_hamiltonians_equal_the_math_fsum_version_bitwise():
    # rows of 60 points (1830 terms) take fields._fsum's bucket sums; scaled rows reach its
    # math.fsum fallbacks: finite terms whose sum overflows, and inf terms of both signs
    rng = np.random.default_rng(14)
    rows, count = 12, 60
    q = rng.normal(size=(rows, count, 2))
    p = rng.normal(size=(rows, count, 2))
    p *= np.array([1.0, 1e-160, 1e100, 1e150, 2e153, 1e155, 1e160, 1.0, 3.0, 1e-5, 1e153, 5e153])[:, None, None]
    w = rng.uniform(0.5, 1.5, count)
    alpha = 0.9
    h = Trajectory(np.arange(rows) * 0.1, q, p, w, alpha).hamiltonians()
    upper = np.triu(np.ones((count, count), dtype=bool), 1)
    for i in range(rows):
        terms = _pair_terms(alpha, q[i], p[i] * w[:, None])
        halves = np.concatenate([2.0 * terms[upper], np.diagonal(terms)])
        try:
            expected = 0.5 * math.fsum(halves.tolist())
        except (OverflowError, ValueError):
            expected = math.nan
        assert h[i] == expected or (math.isnan(h[i]) and math.isnan(expected))
    assert np.isnan(h).any() and np.isfinite(h).sum() >= 6
