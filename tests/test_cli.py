"""End-to-end runs of the command-line interface, in process via cli.main."""

import csv
import math
import re
import tracemalloc
import weakref

import pytest

from dualpairs import cli, fields, peakons, verify
from dualpairs.fields import GridSource, StreamFunction, right_momentum_pair


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


# -- verify -----------------------------------------------------------------------


def test_verify_exact_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exact", "--count", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "6/6 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_full_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--count", "20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "26/26 checks passed"


@pytest.mark.parametrize("seed", [52, 83])
def test_verify_divergent_flow_fails_its_row_only(capsys, tmp_path, seed):
    # these seeds draw a cubic whose midpoint solve at dt 0.05 fails at step 2
    path = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "verify", "--suite", "numeric", "--grid", "16", "--seed", str(seed), "--out", str(path)
    )
    assert code == 1
    assert "action-commutation: numeric divergence at step 2" in err
    assert out.strip().splitlines()[-1] == "19/20 checks passed"
    rows = read_rows(path)[1:]
    assert len(rows) == 20
    assert [r for r in rows if r[4] == "false"] == [["action-commutation", "16", "inf", "", "false"]]


def test_verify_writes_report_csv(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "--suite", "exact", "--count", "10", "--out", str(path))
    assert code == 0
    rows = read_rows(path)
    assert rows[0] == ["test_id", "N", "residual", "observed_order", "pass"]
    assert len(rows) == 1 + 6
    assert all(r[4] == "true" for r in rows[1:])


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def boom(opt):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "verify", boom)
    code, _, err = run(capsys, "verify", "--suite", "exact", "--count", "1")
    assert code == 5
    assert "Traceback" in err
    assert "RuntimeError: boom" in err


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "invalid configuration" in err


def test_verify_rejects_nonpositive_count(capsys):
    code, _, err = run(capsys, "verify", "--count", "0")
    assert code == 2
    assert "count" in err


@pytest.mark.parametrize("argv", [("verify", "--suite", "exact"), ("verify", "--suite", "numeric"), ("advect",), ("converge",)])
def test_a_negative_seed_is_refused_by_name(capsys, tmp_path, argv):
    # every subcommand that reads a seed refuses -1 up front, before any suite or run starts
    out = tmp_path / "never.csv"
    code, _, err = run(capsys, *argv, "--seed", "-1", "--out", str(out))
    assert code == 2
    assert "seed must be >= 0, got -1" in err
    assert not out.exists()


# -- converge ---------------------------------------------------------------------


def test_converge_single_op(capsys, tmp_path):
    path = tmp_path / "orders.csv"
    code, out, _ = run(capsys, "converge", "--op", "orthogonality", "--out", str(path))
    assert code == 0
    assert "PASS" in out and "order=" in out
    rows = read_rows(path)
    assert rows[0] == ["test_id", "N", "residual", "observed_order", "pass"]
    assert [r[1] for r in rows[1:]] == ["8", "16", "32"]
    final = rows[-1]
    assert final[4] == "true"
    assert float(final[3]) >= 1.9


def test_converge_rejects_unknown_op(capsys):
    code, _, err = run(capsys, "converge", "--op", "everything")
    assert code == 2
    assert "op must be one of" in err


def test_converge_requires_ascending_grids(capsys, tmp_path):
    code, _, err = run(
        capsys, "converge", "--op", "transport", "--grids", "32,8",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "ascending" in err


@pytest.mark.parametrize("grids", ["2,4", "1,2"])
def test_converge_refuses_grids_under_4(capsys, tmp_path, grids):
    path = tmp_path / "x.csv"
    code, out, err = run(capsys, "converge", "--op", "transport", "--grids", grids, "--out", str(path))
    assert code == 2
    assert "grid must be >= 4" in err
    assert out == ""
    assert not path.exists()


def test_converge_unreachable_threshold_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "ORDER_THRESHOLD", 5.0)
    code, _, _ = run(capsys, "converge", "--op", "equivariance", "--out", str(tmp_path / "x.csv"))
    assert code == 1


# -- peakon -----------------------------------------------------------------------


def test_peakon_point_run_schema(capsys, tmp_path):
    path = tmp_path / "run.csv"
    code, out, _ = run(capsys, "peakon", "--t-final", "0.1", "--out", str(path))
    assert code == 0
    assert "peakon run:" in out
    rows = read_rows(path)
    assert rows[0] == ["t", "q_1", "p_1", "H", "Ptot_1", "jr_drift"]
    assert len(rows) == 1 + 101  # header + initial state + 100 steps
    assert all(r[5] == "0" for r in rows[1:])  # point runs report no chain drift
    assert b"\r\n" in path.read_bytes()


def test_peakon_filament_run_schema(capsys, tmp_path):
    path = tmp_path / "fil.csv"
    code, _, _ = run(
        capsys, "peakon", "--filament", "--nodes", "12", "--dt", "0.01",
        "--t-final", "0.05", "--out", str(path),
    )
    assert code == 0
    rows = read_rows(path)
    assert rows[0][0] == "t"
    assert rows[0][1:25] == [f"q_{i}" for i in range(1, 25)]
    assert rows[0][25:49] == [f"p_{i}" for i in range(1, 25)]
    assert rows[0][49:] == ["H", "Ptot_1", "Ptot_2", "jr_drift"]
    assert len(rows) == 1 + 6
    assert rows[1][-1] == "0"
    assert all(float(r[-1]) < 1e-3 for r in rows[1:])


@pytest.mark.parametrize(
    "filament, key, value", [(True, "n", "5"), (True, "dim", "3"), (False, "nodes", "64")]
)
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_peakon_refuses_an_option_of_the_other_mode(capsys, tmp_path, filament, key, value, by_config):
    path = tmp_path / "run.csv"
    argv = ["peakon", "--t-final", "0.01", "--dt", "0.01", "--out", str(path)]
    if by_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"filament = {str(filament).lower()}\n{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--filament"] * filament + ["--" + key, value]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{key} is an option of {'point' if filament else 'filament'} runs" in err
    assert not path.exists()


def test_peakon_supports_rk4(capsys, tmp_path):
    code, _, _ = run(
        capsys, "peakon", "--method", "rk4", "--dt", "0.01", "--t-final", "0.05",
        "--out", str(tmp_path / "rk4.csv"),
    )
    assert code == 0


def test_peakon_rejects_unknown_method(capsys, tmp_path):
    code, _, err = run(
        capsys, "peakon", "--method", "leapfrog", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "method must be one of" in err


def test_peakon_io_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "peakon", "--t-final", "0.01",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert code == 3
    assert "i/o failure" in err


def test_peakon_rk4_overflow_is_numeric_divergence(capsys, tmp_path):
    path = tmp_path / "overflow.csv"
    code, _, err = run(
        capsys, "peakon", "--method", "rk4", "--dim", "2", "--n", "3", "--alpha", "0.01",
        "--p", "1e200", "--dt", "1", "--t-final", "3", "--out", str(path),
    )
    assert code == 4
    assert "numeric divergence at step" in err
    assert not path.exists()


@pytest.mark.parametrize("n, p", [("1", "1e160"), ("2", "1.7e154")])
def test_peakon_hamiltonian_overflow_is_numeric_divergence(capsys, tmp_path, n, p):
    # the states stay finite, but H overflows (1e160) or its fsum does (1.7e154)
    path = tmp_path / "overflow.csv"
    code, out, err = run(capsys, "peakon", "--n", n, "--p", p, "--t-final", "0.002", "--out", str(path))
    assert code == 4
    assert "numeric divergence at step 0" in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("flag, value", [("--t-final", "inf"), ("--p", "nan"), ("--alpha", "inf")])
def test_peakon_rejects_non_finite_numbers(capsys, tmp_path, flag, value):
    code, _, err = run(capsys, "peakon", flag, value, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "must be finite" in err


def test_peakon_alpha_whose_square_underflows_is_a_usage_error(capsys, tmp_path):
    # the exp1d scan divides by 2 alpha^2, which is 0 at alpha = 1e-200
    path = tmp_path / "tiny.csv"
    code, out, err = run(capsys, "peakon", "--alpha", "1e-200", "--out", str(path))
    assert code == 2
    assert "alpha = 1e-200" in err and "underflows" in err
    assert out == ""
    assert not path.exists()


def test_peakon_runs_at_an_alpha_whose_square_is_subnormal(capsys, tmp_path):
    path = tmp_path / "small.csv"
    code, out, _ = run(capsys, "peakon", "--alpha", "1e-160", "--out", str(path))
    assert code == 0
    assert "steps=5000" in out
    assert len(read_rows(path)) == 5002


@pytest.mark.parametrize(
    "argv", [["--dim", "2", "--alpha", "1e200"], ["--filament", "--alpha", "1e160"], ["--alpha", "1e200"]],
    ids=["gaussian-points", "filament", "exp1d"],
)
def test_peakon_alpha_whose_square_overflows_is_a_usage_error(capsys, tmp_path, argv):
    # both kernels divide by 2 alpha^2, which is inf at these alphas
    path = tmp_path / "huge.csv"
    code, out, err = run(capsys, "peakon", *argv, "--t-final", "0.01", "--dt", "0.01", "--out", str(path))
    assert code == 2
    assert f"alpha = {float(argv[-1])!r}" in err and "overflows" in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("argv", [["--filament", "--nodes", "11"], ["--n", "11", "--dim", "2"]])
def test_peakon_refuses_runs_over_the_pair_budget(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(peakons, "MAX_PAIRS", 100)
    path = tmp_path / "big.csv"
    code, _, err = run(capsys, "peakon", *argv, "--t-final", "0.01", "--dt", "0.01", "--out", str(path))
    assert code == 2
    assert "need (d + 2)·A² = 484 kernel entries, over the limit of 400" in err and "MAX_PAIRS" in err
    assert not path.exists()


def test_peakon_runs_at_the_pair_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(peakons, "MAX_PAIRS", 100)
    path = tmp_path / "fits.csv"
    code, _, _ = run(
        capsys, "peakon", "--filament", "--nodes", "10", "--t-final", "0.01", "--dt", "0.01",
        "--out", str(path),
    )
    assert code == 0
    assert len(read_rows(path)) == 1 + 2


def test_gaussian_budget_counts_every_dimension():
    # the (d, A, A) displacements grow with d: 4096 points fit in two dimensions only
    cli._require_pair_budget(4096, 2)
    cli._require_pair_budget(3344, 4)
    for count, dim in [(4097, 2), (3345, 4)]:
        with pytest.raises(ValueError, match=f"{count} points in {dim} dimensions"):
            cli._require_pair_budget(count, dim)


def test_line_runs_are_limited_by_their_point_count(capsys, tmp_path, monkeypatch):
    # a scan on the line holds lists of A floats, so A, not A^2, meets the limit
    monkeypatch.setattr(peakons, "MAX_LINE_POINTS", 100)
    steps = ("--t-final", "0.01", "--dt", "0.01")
    path = tmp_path / "fits.csv"
    code, _, _ = run(capsys, "peakon", "--n", "100", *steps, "--out", str(path))
    assert code == 0
    assert len(read_rows(path)) == 1 + 2
    path = tmp_path / "big.csv"
    code, _, err = run(capsys, "peakon", "--n", "101", *steps, "--out", str(path))
    assert code == 2
    assert "101 points on the line are over the limit of 100 (peakons.MAX_LINE_POINTS)" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--dim", "64", "--n", "4096"), "4096 points in 64 dimensions need (d + 2)·A² = 1107296256 kernel entries"),
        (("--n", str(peakons.MAX_LINE_POINTS + 1)), "262145 points on the line are over the limit of 262144"),
    ],
    ids=["gaussian-8.6-GB", "line-one-over"],
)
def test_peakon_refuses_runs_over_the_memory_budgets_before_building_them(capsys, tmp_path, monkeypatch, argv, message):
    def built(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "SingularState", built)
    path = tmp_path / "huge.csv"
    tracemalloc.start()
    try:  # one step, which the trajectory budget accepts at both sizes
        code, out, err = run(capsys, "peakon", *argv, "--dt", "1", "--t-final", "1", "--out", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in err
    assert out == ""
    assert not path.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "2", "--dt", "1e-9", "--t-final", "1000"), "t-final / dt = 1000000000000 steps"),
        (("--t-final", "1e308", "--dt", "1e-308"), "t-final / dt = inf steps"),
    ],
    ids=["29-TiB", "step-count-overflow"],
)
def test_peakon_refuses_runs_over_the_trajectory_budget(capsys, tmp_path, monkeypatch, argv, message):
    def built(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "SingularState", built)
    path = tmp_path / "huge.csv"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "peakon", *argv, "--out", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in err
    assert f"over the limit of {peakons.MAX_TRAJECTORY_VALUES} trajectory values" in err
    assert "(peakons.MAX_TRAJECTORY_VALUES, at most" in err
    assert out == ""
    assert not path.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, width",
    [(("--n", "2"), 4), (("--n", "3", "--dim", "2"), 12), (("--filament", "--nodes", "12"), 48)],
    ids=["exp1d", "gaussian", "filament"],
)
def test_peakon_trajectory_budget_counts_every_row(capsys, tmp_path, monkeypatch, argv, width):
    steps = ("--dt", "0.01", "--t-final", "0.05")  # 5 steps, 6 rows
    monkeypatch.setattr(peakons, "MAX_TRAJECTORY_VALUES", 6 * width)
    path = tmp_path / "fits.csv"
    code, _, _ = run(capsys, "peakon", *argv, *steps, "--out", str(path))
    assert code == 0
    assert len(read_rows(path)) == 1 + 6
    monkeypatch.setattr(peakons, "MAX_TRAJECTORY_VALUES", 6 * width - 1)
    path = tmp_path / "big.csv"
    code, _, err = run(capsys, "peakon", *argv, *steps, "--out", str(path))
    assert code == 2
    assert f"5 steps need steps + 1 rows of 2·A·d = {width} values" in err
    assert "at most 5 rows" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, ratio",
    [
        (("--t-final", "1e-9"), "1e-06"),
        (("--t-final", "0.0005", "--dt", "0.001"), "0.5"),  # rounds half to even
        (("--filament", "--nodes", "8", "--t-final", "1e-9"), "1e-06"),
    ],
    ids=["exp1d", "half-a-step", "filament"],
)
def test_peakon_refuses_runs_that_round_to_zero_steps(capsys, tmp_path, monkeypatch, argv, ratio):
    def built(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "SingularState", built)
    monkeypatch.setattr(cli, "FilamentState", built)
    path = tmp_path / "empty.csv"
    code, out, err = run(capsys, "peakon", *argv, "--out", str(path))
    assert code == 2
    assert f"t-final / dt = {ratio} rounds to 0 steps" in err
    assert out == ""
    assert not path.exists()


def test_peakon_runs_one_step_from_half_past_a_step(capsys, tmp_path):
    path = tmp_path / "one.csv"
    code, out, _ = run(capsys, "peakon", "--t-final", "0.0015", "--dt", "0.001", "--out", str(path))
    assert code == 0
    assert "steps=2" in out  # 1.5 rounds half to even
    code, out, _ = run(capsys, "peakon", "--t-final", "0.0006", "--dt", "0.001", "--out", str(path))
    assert code == 0
    assert "steps=1" in out
    assert len(read_rows(path)) == 1 + 2


@pytest.mark.parametrize(
    "t_final, dt, count, dim",
    [
        (1.0, 1.0, peakons.MAX_LINE_POINTS, 1),  # one step at the most points on the line
        (20.0, 1e-3, 2, 1),
        (0.5, 1e-3, 96, 1),
        (0.005, 1e-3, 20000, 1),
        (3.0, 1.0, 3, 2),
        (0.5, 0.01, 64, 2),
        (1.5, 0.01, 256, 2),
    ],
)
def test_tested_and_benchmarked_runs_fit_both_budgets(t_final, dt, count, dim):
    steps = round(t_final / dt)
    cli._require_pair_budget(count, dim)
    assert cli._require_trajectory_budget({"t_final": t_final, "dt": dt}, count, dim) == steps


@pytest.mark.parametrize("method", ["rk4", "implicit-midpoint"])
def test_exp1d_overflow_is_numeric_divergence(capsys, tmp_path, method):
    # overflowing positions reach the scan as inf and NaN; it must answer NaN, never raise
    path = tmp_path / "overflow.csv"
    code, _, err = run(
        capsys, "peakon", "--method", method, "--dim", "1", "--n", "3", "--alpha", "0.01",
        "--p", "1e200", "--dt", "1", "--t-final", "3", "--out", str(path),
    )
    assert code == 4
    assert "numeric divergence at step" in err
    assert not path.exists()


def test_peakon_reads_no_seed(capsys, tmp_path):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 7\n")
    code, _, err = run(capsys, "peakon", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "unknown config keys for peakon: ['seed']" in err


# -- advect -----------------------------------------------------------------------


def test_advect_shear_conserves_pairing(capsys, tmp_path):
    path = tmp_path / "adv.csv"
    code, out, _ = run(
        capsys, "advect", "--flow", "shear", "--grid", "8", "--steps", "10",
        "--out", str(path),
    )
    assert code == 0
    assert "max_jr_drift=" in out
    rows = read_rows(path)
    assert rows[0] == ["t", "jr_pair", "jr_drift"]
    assert len(rows) == 1 + 11
    assert all(float(r[2]) <= 1e-13 for r in rows[1:])


def test_advect_rotation_conserves_pairing(capsys, tmp_path):
    path = tmp_path / "adv.csv"
    code, out, _ = run(
        capsys, "advect", "--flow", "rotation", "--grid", "8", "--steps", "20",
        "--out", str(path),
    )
    assert code == 0
    assert "flow=rotation" in out
    rows = read_rows(path)
    assert rows[0] == ["t", "jr_pair", "jr_drift"]
    assert len(rows) == 1 + 21
    assert all(float(r[2]) <= 1e-13 for r in rows[1:])


@pytest.mark.parametrize("flow", ["rotation", "shear", "swirl"])
def test_advect_hoisted_average_writes_the_per_step_pairing(capsys, tmp_path, monkeypatch, flow):
    argv = ("advect", "--flow", flow, "--grid", "12", "--steps", "6", "--dt", "0.1")
    hoisted = tmp_path / "hoisted.csv"
    assert run(capsys, *argv, "--out", str(hoisted))[0] == 0
    # Hand the loop the potential itself, so that every step calls right_momentum_pair.
    monkeypatch.setattr(cli, "cell_average", lambda source, values: StreamFunction(source, values))
    monkeypatch.setattr(cli, "averaged_momentum_pair", right_momentum_pair)
    per_step = tmp_path / "per_step.csv"
    assert run(capsys, *argv, "--out", str(per_step))[0] == 0
    assert hoisted.read_bytes() == per_step.read_bytes()


@pytest.mark.parametrize("flow", ["shear", "rotation"])
def test_advect_keeps_no_map_before_the_last(capsys, tmp_path, monkeypatch, flow):
    # a linear flow's map frees its predecessor, the first map too, so a run holds at most two maps
    refs = []
    advected = cli._advected

    def watched(f, *rest):
        maps = advected(f, *rest)
        refs.append(weakref.ref(f))
        del f
        for g in maps:
            refs.append(weakref.ref(g))
            assert all(ref() is None for ref in refs[:-2])
            yield g

    monkeypatch.setattr(cli, "_advected", watched)
    code, _, _ = run(capsys, "advect", "--flow", flow, "--grid", "8", "--steps", "4", "--out", str(tmp_path / "a.csv"))
    assert code == 0 and len(refs) == 5


def test_swirl_advection_lets_go_of_the_first_map(capsys, tmp_path, monkeypatch):
    # step 5's quintic start is the last to read the first map, so it is gone by the sixth map
    refs = []
    advected = cli._advected

    def watched(f, *rest):
        refs.append(weakref.ref(f.values))
        maps = advected(f, *rest)
        del f
        for k, g in enumerate(maps):
            assert k < 5 or refs[0]() is None
            yield g

    monkeypatch.setattr(cli, "_advected", watched)
    code, _, _ = run(capsys, "advect", "--flow", "swirl", "--grid", "8", "--steps", "8", "--out", str(tmp_path / "a.csv"))
    assert code == 0 and refs[0]() is None


def test_advect_rejects_unknown_flow(capsys, tmp_path):
    code, _, err = run(capsys, "advect", "--flow", "vortex", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "flow must be one of" in err


def test_advect_numeric_divergence(capsys, tmp_path):
    code, _, err = run(
        capsys, "advect", "--flow", "swirl", "--dt", "10.0", "--steps", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 4
    assert "numeric divergence at step 0" in err


@pytest.mark.parametrize(
    "flag, value, step",
    [("--dt", "1e308", 1), ("--amplitude", "1e154", 0)],
    ids=["second-step-overflows", "initial-pairing-overflows"],
)
def test_advect_overflowing_pairing_is_numeric_divergence(capsys, tmp_path, flag, value, step):
    # the pairing's exact sum meets inf - inf: a numeric divergence, not a usage error
    path = tmp_path / "overflow.csv"
    code, _, err = run(
        capsys, "advect", "--flow", "shear", "--grid", "64", "--steps", "3", flag, value,
        "--out", str(path),
    )
    assert code == 4
    assert err == f"numeric divergence at step {step}\n"
    assert not path.exists()


def test_advect_huge_finite_pairings_still_run(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    code, _, err = run(
        capsys, "advect", "--flow", "shear", "--grid", "64", "--steps", "3", "--dt", "1e306",
        "--out", str(path),
    )
    assert code == 0 and err == ""
    rows = read_rows(path)
    assert len(rows) == 1 + 4
    assert all(math.isfinite(float(value)) for row in rows[1:] for value in row)
    assert float(rows[-1][1]) != 0.0


# -- configuration files ----------------------------------------------------------


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "cannot read config file" in err


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_config_duplicate_key(capsys, tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("seed = 1\nseed = 2\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "duplicate key" in err


def test_config_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "oops.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "expected 'key = value'" in err


def test_config_unparsable_value(capsys, tmp_path):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("seed = banana\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "config key 'seed'" in err


def test_config_comments_and_blanks(capsys, tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# exact identities only\n\nsuite = exact\ncount = 10\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "6/6 checks passed" in out


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt = 0.01\nt_final = 0.1\n")
    flagged = tmp_path / "flagged.csv"
    plain = tmp_path / "plain.csv"
    code1, _, _ = run(
        capsys, "peakon", "--config", str(cfg), "--dt", "0.02", "--out", str(flagged)
    )
    code2, _, _ = run(capsys, "peakon", "--dt", "0.02", "--t-final", "0.1", "--out", str(plain))
    assert code1 == code2 == 0
    assert flagged.read_bytes() == plain.read_bytes()
    config_only = tmp_path / "config_only.csv"
    code3, _, _ = run(capsys, "peakon", "--config", str(cfg), "--out", str(config_only))
    assert code3 == 0
    assert config_only.read_bytes() != plain.read_bytes()


def _flag_and_config_text(parse, default, accepts):
    """A value other than the default, as the argv after the flag and as config text."""
    if parse is cli._as_bool:
        return [], "true"
    if isinstance(accepts, tuple):
        text = next(choice for choice in accepts if choice != default)
    else:
        text = {int: "9", float: "0.75", str: "x.csv", cli._as_grids: "8,16"}[parse]
    return [text], text


@pytest.mark.parametrize("command, key", [(c, k) for c, table in cli._OPTIONS.items() for k in table])
def test_a_flag_and_its_config_key_resolve_alike(tmp_path, command, key):
    parse, default, accepts, _ = cli._OPTIONS[command][key]
    argv, text = _flag_and_config_text(parse, default, accepts)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    parser = cli._build_parser()
    by_flag = cli._resolve(parser.parse_args([command, "--" + key.replace("_", "-"), *argv]), command)
    by_config = cli._resolve(parser.parse_args([command, "--config", str(cfg)]), command)
    assert by_flag == by_config
    assert by_flag[key] != default


@pytest.mark.parametrize("command", list(cli._OPTIONS))
def test_help_exits_0_and_lists_each_table_option(capsys, command):
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--help"])
    assert exited.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - {"--help", "--config"} == {"--" + key.replace("_", "-") for key in cli._OPTIONS[command]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["peakon", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["peakon", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["nosuch"], "invalid choice: 'nosuch'"),
    ],
    ids=["unparsable-value", "unknown-flag", "no-subcommand", "unknown-subcommand"],
)
def test_argparse_errors_are_returned_as_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--tol", "1e300"),
        ("converge", "--threshold", "0.1"),
        ("peakon", "--kernel", "gaussian"),
        ("peakon", "--filament", "--radius", "2"),
    ],
    ids=["verify-tol", "converge-threshold", "peakon-kernel", "peakon-radius"],
)
def test_no_gate_or_fixed_setting_can_be_overridden(capsys, tmp_path, argv):
    # gates and the peakon kernel and radius are fixed: neither a flag nor a config key sets them
    command, flag, value = argv[0], argv[-2], argv[-1]
    path = tmp_path / "never.csv"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag.removeprefix('--')} = {value}\n")
    code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(path))
    assert code == 2
    assert f"unknown config keys for {command}: ['{flag.removeprefix('--')}']" in err
    assert not path.exists()


# -- grid budget ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("advect", "--grid", "16"),
        ("verify", "--suite", "numeric", "--grid", "16"),
        ("converge", "--op", "transport", "--grids", "8,16"),
    ],
    ids=["advect", "verify", "converge"],
)
def test_grids_one_node_over_the_budget_are_refused_before_any_is_built(capsys, tmp_path, monkeypatch, argv):
    def built(self):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(fields, "MAX_NODES", 16 * 16 - 1)
    monkeypatch.setattr(GridSource, "__post_init__", built)
    path = tmp_path / "big.csv"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert "grid 16 needs 256 nodes, over the limit of 255 (fields.MAX_NODES, at most grid 15)" in err
    assert not path.exists()


def test_grid_at_the_budget_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(fields, "MAX_NODES", 16 * 16)
    code, _, _ = run(capsys, "advect", "--grid", "16", "--steps", "1", "--out", str(tmp_path / "fits.csv"))
    assert code == 0


@pytest.mark.parametrize("grid", [math.isqrt(fields.MAX_NODES) + 1, 100000])
def test_advect_over_the_budget_allocates_nothing(capsys, tmp_path, grid):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "advect", "--grid", str(grid), "--out", str(tmp_path / "big.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"over the limit of {fields.MAX_NODES}" in err
    assert peak < 1 << 20


# -- determinism ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("peakon", "--n", "2", "--dt", "0.01", "--t-final", "0.2"),
        ("advect", "--flow", "swirl", "--grid", "8", "--steps", "5"),
        ("advect", "--flow", "rotation", "--grid", "8", "--steps", "5"),
        ("converge", "--op", "transport",),
    ],
    ids=["peakon", "advect-swirl", "advect-rotation", "converge"],
)
def test_repeated_runs_are_byte_identical(capsys, tmp_path, argv):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1, _, _ = run(capsys, *argv, "--out", str(first))
    code2, _, _ = run(capsys, *argv, "--out", str(second))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
