"""The Camassa–Holm Lax spectrum as an independent check of exp1d trajectories.

The exp1d collective flow is the Camassa–Holm multipeakon system, which is
integrable: with ``T_ab = e^{-|x_a - x_b| / (2 alpha)}`` (half the kernel's
rate) and ``T = L L^T``, the eigenvalues of ``L^T diag(pt) L`` are conserved
(Ragnisco–Bruschi 1996, Beals–Sattinger–Szmigielski 2000).  Once the peakons
separate, their momenta approach these eigenvalues.  Neither check reads the
H column or uses the scan: they see only the positions and momenta.
"""

import math

import numpy as np
import pytest

from dualpairs import cli
from dualpairs.peakons import FilamentState, SingularState, integrate
from dualpairs.symplectic import FlowSpec


def lax_spectra(q, pt, alpha):
    """Ascending eigenvalues of ``L^T diag(pt) L`` for each (A, 1) state of a stack."""
    x = q[..., 0]
    lower = np.linalg.cholesky(np.exp(-np.abs(x[..., :, None] - x[..., None, :]) / (2.0 * alpha)))
    return np.linalg.eigvalsh(np.swapaxes(lower, -1, -2) @ (pt[..., :, :1] * lower))


def spectrum_drift(st, dt, t_final):
    """Largest change of the spectrum along the implicit-midpoint flow, relative to its size."""
    traj = integrate(st, FlowSpec("implicit-midpoint", dt, round(t_final / dt)))
    spectra = lax_spectra(traj.q, traj.p * traj.weights[:, None], st.alpha)
    return float(np.max(np.abs(spectra - spectra[0])) / np.max(np.abs(spectra[0])))


def cli_pair():
    """The state of ``peakon --n 2``: peakons at -1 and 1 with momenta 2 and 1, alpha = 1."""
    return SingularState([[-1.0], [1.0]], [[2.0], [1.0]], 1.0)


def six_positive_peakons():
    """Six peakons on a 1-D filament, so each weighs 1/6 and ``P w`` rounds."""
    rng = np.random.default_rng(5)
    q = np.sort(rng.uniform(-3.0, 3.0, 6))[:, None]
    return FilamentState(q, rng.uniform(0.2, 2.0, (6, 1)), 0.7)


def test_spectrum_of_a_single_peakon_is_its_momentum():
    assert lax_spectra(np.array([[0.3]]), np.array([[1.7]]), 0.8).tolist() == [1.7]


def test_spectrum_trace_is_the_total_momentum():
    st = six_positive_peakons()
    pt = st.p * st.weights[:, None]
    assert math.isclose(float(np.sum(lax_spectra(st.q, pt, 0.7))), float(np.sum(pt)), rel_tol=1e-13)


@pytest.mark.parametrize(
    "state, dt, t_final",
    [(cli_pair, 1e-3, 20.0), (six_positive_peakons, 5e-3, 4.0)],
    ids=["cli-n2", "six-peakons"],
)
def test_spectrum_drift_falls_with_the_midpoint_order(state, dt, t_final):
    coarse = spectrum_drift(state(), 2.0 * dt, t_final)
    fine = spectrum_drift(state(), dt, t_final)
    assert 0.0 < fine < coarse < 1e-4
    assert math.log2(coarse / fine) >= 1.9


def test_cli_pair_ends_at_the_spectrum(capsys, tmp_path):
    # the faster peakon catches up and hands its momentum on; once apart, the momenta are the eigenvalues
    path = tmp_path / "pair.csv"
    assert cli.main(["peakon", "--n", "2", "--t-final", "20", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    end = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
    assert end["t"] == 20.0 and abs(end["q_2"] - end["q_1"]) > 10.0
    st = cli_pair()
    eigenvalues = lax_spectra(st.q, st.p, 1.0)
    assert np.max(np.abs(np.sort([end["p_1"], end["p_2"]]) - eigenvalues)) <= 1e-5
