"""The acceptance gate.

One test per published claim of the package, each printing a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them as they go; under plain ``-v`` the test names themselves are the
per-claim lines).  Everything here goes through public entry points only.
"""

import time

import numpy as np

from dualpairs import cli, verify
from dualpairs.bridge import (
    CovectorField,
    VectorField,
    momentum_pairing_residual,
    symplectic_pairing_residual,
)
from dualpairs.fields import ChainSource, GridSource
from dualpairs.peakons import (
    FilamentState,
    FlowSpec,
    KernelSpec,
    SingularState,
    integrate,
    pair_with_field,
    reparametrize,
)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    rows = verify.exact_suite(seed=7, count=100)
    elapsed = time.perf_counter() - t0
    all_zero = all(r.residual == 0.0 for r in rows)
    ok = all(r.passed for r in rows) and all_zero and len(rows) == 6 and elapsed < 30.0
    assert _report(
        "exact algebra suite",
        ok,
        f"{len(rows)} identities x 100 draws, residuals exactly zero, {elapsed:.1f}s",
    )


def test_criterion_2_ideal_fluid_invariance():
    rows = {r.test_id: r for r in verify.numeric_suite(seed=7, n=16)}
    left_invariance = rows["pushforward-invariance"].residual == 0.0
    right_equivariance = rows["momentum-equivariance"].residual == 0.0
    linear_symplectic = rows["linear-symplectic-invariance"].residual <= 1e-13
    commutation = rows["action-commutation"].residual == 0.0
    ok = left_invariance and right_equivariance and linear_symplectic and commutation
    assert _report(
        "ideal-fluid invariance suite",
        ok,
        "left invariance exact, right equivariance exact, "
        f"linear-symplectic residual {rows['linear-symplectic-invariance'].residual:.2e}, "
        "action commutation bitwise",
    )


def test_criterion_3_convergence_orders():
    t0 = time.perf_counter()
    orders = {}
    for op in verify.CONVERGENCE_OPS:
        study = verify.convergence_study(op, grids=(8, 16, 32), seed=7, threshold=1.9)
        assert all(r.passed for r in study), f"{op}: {study[-1]}"
        orders[op] = study[-1].observed_order
    elapsed = time.perf_counter() - t0
    ok = all(order >= 1.9 for order in orders.values()) and elapsed < 120.0
    detail = ", ".join(f"{op}={order:.2f}" for op, order in orders.items())
    assert _report("convergence suite", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_4_bridge_exactness():
    rng = np.random.default_rng(2026)
    worst_momentum = 0.0
    worst_symplectic = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            src = GridSource(int(rng.integers(4, 9)))
        else:
            src = ChainSource(int(rng.integers(5, 17)))
        shape = src.node_shape + (2,)
        cov = CovectorField(src, rng.normal(size=shape), rng.normal(size=shape))
        x = VectorField.linear(rng.normal(size=(2, 2)))
        rep1 = momentum_pairing_residual(cov, x)
        rep2 = symplectic_pairing_residual(
            cov,
            (rng.normal(size=shape), rng.normal(size=shape)),
            (rng.normal(size=shape), rng.normal(size=shape)),
        )
        assert rep1.residual <= 1e-14 * rep1.scale and rep2.residual <= 1e-14 * rep2.scale, f"trial {trial}"
        worst_momentum = max(worst_momentum, rep1.residual / rep1.scale)
        worst_symplectic = max(worst_symplectic, rep2.residual / rep2.scale)
    ok = worst_momentum <= 1e-14 and worst_symplectic <= 1e-14
    assert _report(
        "bridge exactness",
        ok,
        f"50 random inputs, worst residual/scale: momentum {worst_momentum:.1e}, "
        f"symplectic {worst_symplectic:.1e}",
    )


def test_criterion_5_singular_solutions():
    kernel = KernelSpec("exp1d", 1.0)

    single = integrate(
        SingularState(np.array([[0.0]]), np.array([[2.0]]), kernel),
        FlowSpec("implicit-midpoint", 1e-3, 5000),
    )
    transport_error = abs(single.q[-1, 0, 0] - 5.0)

    pair = integrate(
        SingularState(np.array([[-1.0], [1.0]]), np.array([[2.0], [1.0]]), kernel),
        FlowSpec("implicit-midpoint", 1e-3, 10000),
    )
    h = pair.hamiltonians()
    ptot = pair.total_momenta()
    h_drift = abs(h[-1] - h[0]) / abs(h[0])
    p_drift = np.abs(ptot[-1] - ptot[0]).max() / max(1.0, np.abs(ptot[0]).max())

    dt_rows = verify.filament_dt_study()
    res_rows = verify.filament_resolution_study()
    dt_order = dt_rows[-1].observed_order
    res_order = res_rows[-1].observed_order

    ang = 2 * np.pi * np.arange(24) / 24
    st = FilamentState(
        np.stack([np.cos(ang), np.sin(ang)], axis=-1),
        0.7 * np.stack([-np.sin(ang), np.cos(ang)], axis=-1),
        KernelSpec("gaussian", 0.8),
    )
    rng = np.random.default_rng(5)
    repar_exact = all(
        pair_with_field(reparametrize(st, shift), vec) == pair_with_field(st, vec)
        for shift in (1, 7, 23)
        for vec in [rng.normal(size=2) for _ in range(5)]
    )

    ok = (
        transport_error <= 1e-8
        and h_drift <= 1e-8
        and p_drift <= 1e-8
        and all(r.passed for r in dt_rows)
        and dt_order >= 1.9
        and all(r.passed for r in res_rows)
        and res_order >= 1.9
        and repar_exact
    )
    assert _report(
        "singular-solution suite",
        ok,
        f"transport {transport_error:.1e}, H drift {h_drift:.1e}, P drift {p_drift:.1e}, "
        f"dt order {dt_order:.2f}, resolution order {res_order:.2f}, "
        f"reparametrization {'exact' if repar_exact else 'BROKEN'}",
    )


def test_criterion_6_byte_identical_reruns(tmp_path, capsys):
    pairs = []
    for name, argv in [
        ("peakon", ["peakon", "--n", "2", "--dt", "0.01", "--t-final", "0.5"]),
        ("filament", ["peakon", "--filament", "--nodes", "64", "--dt", "0.01", "--t-final", "0.5"]),
        ("advect", ["advect", "--flow", "swirl", "--grid", "8", "--steps", "10"]),
        ("converge", ["converge", "--op", "derivative"]),
    ]:
        first = tmp_path / f"{name}_first.csv"
        second = tmp_path / f"{name}_second.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        pairs.append((name, first.read_bytes() == second.read_bytes()))
    capsys.readouterr()  # drop the subcommand chatter; keep the verdict line
    ok = all(same for _, same in pairs)
    assert _report(
        "determinism",
        ok,
        ", ".join(f"{name} {'byte-identical' if same else 'DIFFERS'}" for name, same in pairs),
    )
