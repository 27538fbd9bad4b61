"""The exp1d row scan against one list scan per row, bit for bit.

``_exp1d_rows`` runs ``_exp1d_scan`` over all rows of a trajectory at once.
The loop below is the per-row path it replaced for the H column,
``1/2 fsum(pt_a dH/dpt_a)`` after one list scan per row.  Both must give the
same doubles, ties, signed zeros, non-finite rows and overflows included.
The exp1d gradient, one list scan per state, is checked against dense sums
in ``test_peakons.py`` and against its float field in
``test_float_field_contract.py``.
"""

import math

import numpy as np
import pytest

from dualpairs import peakons
from dualpairs.peakons import (
    Trajectory,
    _exp1d_scan,
    _half_fsum,
)


def oracle_hamiltonians(q, p, w, alpha):
    out = []
    for i in range(q.shape[0]):
        pt = (p[i, :, 0] * w).tolist()
        field = _exp1d_scan(q[i, :, 0].tolist(), pt, alpha)[: len(pt)]
        out.append(_half_fsum([u * f for u, f in zip(pt, field)]))
    return np.array(out)


def assert_same_doubles(got, want):
    """Equal values, NaN where NaN is expected, and the same sign on every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def assert_matches_oracles(q, p, w, alpha):
    h = Trajectory(np.arange(q.shape[0]) * 0.1, q, p, w, alpha).hamiltonians()
    assert_same_doubles(h, oracle_hamiltonians(q, p, w, alpha))
    return h


def random_rows(seed, rows, count, lattice):
    """Mixed-sign momenta of spread magnitudes, so the order of a tie group's sum shows in its bits.

    On the lattice most positions tie with others, and every zero is 0.0 or -0.0 at random.
    """
    rng = np.random.default_rng(seed)
    if lattice:
        q = rng.integers(-3, 4, size=(rows, count, 1)) * rng.choice([1.0, 0.37])
        zero = q == 0.0
        q[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    else:
        q = rng.normal(scale=rng.uniform(0.2, 3.0), size=(rows, count, 1))
    p = rng.normal(size=(rows, count, 1)) * rng.choice([1.0, 1e-17, 1e3], size=(rows, count, 1))
    return q, p, rng.uniform(0.2, 3.0, count)


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "spread"])
@pytest.mark.parametrize("count", [1, 2, 3, 96])
def test_rows_equal_one_list_scan_per_row(count, lattice):
    for seed in range(3):
        alpha = (0.7, 1.0, 2.5)[seed]
        assert_matches_oracles(*random_rows(100 * count + seed, 24, count, lattice), alpha)


def test_signed_zero_ties_keep_the_list_scan_order():
    # 0.0 and -0.0 tie; the group total (1 + 1e-17) - 1 is 0, (1 - 1) + 1e-17 is not
    q = np.array([[0.0, -0.0, 0.0, 1.0], [-0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.0, -0.0]])[:, :, None]
    p = np.array([[1.0, 1e-17, -1.0, 0.5], [-1.0, 1.0, 1e-17, 2.0], [1e-17, 1.0, -1.0, 0.0]])[:, :, None]
    assert_matches_oracles(q, p, np.ones(4), 1.0)


def test_underflowed_sums_keep_their_signed_zeros():
    # e^-1000 is 0, so a sum carried over a gap is 0.0 * -1 = -0.0, and it stays -0.0 across a
    # tie: in the slope l - r, -0.0 - 0.0 is -0.0 and -0.0 - -0.0 is 0.0
    q = np.array([[-3000.0, 0.0, 1000.0, 1000.0], [0.0, 1000.0, 1000.0, 2000.0], [0.0, 0.0, 1000.0, 3000.0]])
    p = np.array([[1.0, -1.0, 1.0, 2.0], [-1.0, 1.0, 2.0, -1.0], [-1.0, -3.0, 2.0, 1.0]])
    assert_matches_oracles(q[:, :, None], p[:, :, None], np.ones(4), 1.0)


@pytest.mark.parametrize("block_points", [1, 5, 97, 200])
def test_rows_spanning_several_blocks(monkeypatch, block_points):
    monkeypatch.setattr(peakons, "_BLOCK_POINTS", block_points)
    for count in (2, 3, 96):
        assert_matches_oracles(*random_rows(count, 11, count, lattice=count != 96), 0.8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_position_makes_its_row_nan(bad):
    q, p, w = random_rows(9, 6, 12, lattice=True)
    q[2, 5, 0] = bad
    q[4, 0, 0] = q[4, 11, 0] = bad
    h = assert_matches_oracles(q, p, w, 1.3)
    assert np.isnan(h[[2, 4]]).all()
    assert np.isfinite(np.delete(h, [2, 4])).all()


def test_overflowing_rows_are_not_finite():
    q = np.array([[0.0, 0.5], [0.0, 0.5], [0.0, 0.0], [0.3, 0.3], [0.0, 0.5]])[:, :, None]
    p = np.array([[1e160, -1e160], [1e160, 1e160], [1e160, -3e160], [-3e160, 1e160], [1.0, 2.0]])[:, :, None]
    h = assert_matches_oracles(q, p, np.ones(2), 1.0)
    # each term overflows; on a tie they overflow with opposite signs, and inf - inf is NaN
    assert np.isposinf(h[:2]).all()
    assert np.isnan(h[2:4]).all()
    assert np.isfinite(h[4])


def test_rows_equal_the_dh_dpt_half_of_one_list_scan_per_row():
    # The H column reads only dH/dpt, and a signed zero there does not reach H once a row has a
    # nonzero term, so the block is also checked on its own.  In the first row e^-1000 is 0, so
    # each sum reaches the tie at 1000 as 0 * -1 = -0.0, and the tied zero momenta total -0.0:
    # dH/dpt there is -0.0 only if both sums keep their sign across the tie.
    q = np.array([[0.0, 1000.0, 1000.0, 2000.0], [2000.0, 1000.0, 0.0, 1000.0]])
    p = np.array([[-1.0, -0.0, -0.0, -1.0], [-1.0, -0.0, -1.0, -0.0]])
    rows = [(q, p, 1.0)]
    for count, lattice in ((1, True), (3, True), (12, True), (96, False)):
        x, m, w = random_rows(7 * count, 9, count, lattice)
        rows.append((x[:, :, 0], m[:, :, 0] * w, 0.9))
    for x, pt, alpha in rows:
        want = np.array([_exp1d_scan(r, s, alpha)[: x.shape[1]] for r, s in zip(x.tolist(), pt.tolist())])
        assert_same_doubles(peakons._exp1d_rows(x, pt, alpha), want)
    tied = peakons._exp1d_rows(q, p, 1.0)
    assert np.signbit([tied[0, 1], tied[0, 2], tied[1, 1], tied[1, 3]]).all()
