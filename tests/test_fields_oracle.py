"""Independent oracles for the grid layer's fast paths.

Two kinds of checks that do not trust the fast code:

* property tests (hypothesis) that ``fields._fsum``, the exponent-bucket
  sum, returns exactly what ``math.fsum`` returns, sign of zero included,
  or raises the same exception;
* the earlier implementations, kept only here: the ``np.roll`` versions of
  the periodic cell corners and the centered difference, the implicit
  midpoint loop that allocated fresh arrays on every iteration, the
  concatenated Hamiltonian vector field, sampling on the full meshgrid,
  and the einsum forms of the swirl field, ``nodewise_linear`` and the
  stacked pullback.  The shipped code must equal each of them bit for bit,
  sign of zero included.

The einsum references start from +0.0, add in the order of NumPy's two-lane
(SSE2) loops and do not fuse multiply-adds; a NumPy build that fuses them,
or adds in another order, fails here instead of silently changing a CSV
digest.
"""

import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs import cli, datagen, fields
from dualpairs.errors import SolverDivergenceError
from dualpairs.fields import (
    _FSUM_SMALL,
    GridSource,
    MapField,
    StreamFunction,
    _cell_corners,
    _centered_periodic,
    _fsum,
    _fsum_blocks,
    averaged_momentum_pair,
    cell_average,
    nodewise_linear,
    pullback_omega,
    right_momentum_pair,
)
from dualpairs.polyalg import random_poly
from dualpairs.symplectic import (
    _FIXED_POINT_MAX_ITER,
    _FIXED_POINT_TOL,
    Observable,
    _midpoint_step,
    canonical_omega,
    hamiltonian_vector_field,
)

# Deterministic examples keep Tier-1 reproducible; no example database is
# written next to the sources.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_same_numbers(a, b):
    """Bitwise equal, with the sign of every zero checked on its own as well."""
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert_bitwise(a, b)


def outcome(total, *args):
    """The bits of the sum, or the type of the exception raised instead."""
    try:
        return ("value", bits(total(*args)))
    except (OverflowError, ValueError) as exc:
        return ("raises", type(exc))


def assert_sums_like_fsum(x: np.ndarray):
    expected = outcome(math.fsum, x.tolist())
    assert outcome(_fsum, x) == expected
    # the same terms cut at random points, empty blocks included, through the block accumulator
    rng = np.random.default_rng(x.size)
    blocks = np.split(x, np.sort(rng.integers(0, x.size + 1, rng.integers(1, 6))))
    assert outcome(_fsum_blocks, lambda: blocks) == expected


# -- the exponent-bucket sum ---------------------------------------------------------

sizes = st.one_of(
    st.integers(0, 40),
    st.integers(_FSUM_SMALL - 3, _FSUM_SMALL + 3),
    st.integers(_FSUM_SMALL, 5000),
)


@st.composite
def wide_arrays(draw):
    """Signed doubles over a drawn exponent range, with cancelling pairs and zeros.

    The range reaches the subnormals and the largest finite exponent; a part
    of the array can be the exact negation of another part, and some entries
    can be zeros of either sign.
    """
    size = draw(sizes)
    lo = draw(st.integers(-1080, 1023))
    hi = draw(st.integers(lo, 1023))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.uniform(1.0, 2.0, size) * rng.choice([-1.0, 1.0], size), rng.integers(lo, hi + 1, size))
    cancel = draw(st.integers(0, size // 2))
    x[size - cancel :] = -x[:cancel]
    zeros = rng.random(size) < draw(st.sampled_from((0.0, 0.1, 0.9)))
    x[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return rng.permutation(x)


@PROPERTY
@given(wide_arrays())
def test_bucket_sum_equals_fsum_over_the_whole_double_range(x):
    assert_sums_like_fsum(x)


@PROPERTY
@given(wide_arrays(), st.sampled_from((math.inf, -math.inf, math.nan)), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_bucket_sum_handles_non_finite_terms_like_fsum(x, special, count, seed):
    if x.size == 0:
        return
    rng = np.random.default_rng(seed)
    x[rng.integers(0, x.size, count)] = special
    assert_sums_like_fsum(x)


@PROPERTY
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_small_arrays_sum_like_fsum(values):
    assert_sums_like_fsum(np.array(values, dtype=float))


@pytest.mark.parametrize("size", [1, 10, 256, _FSUM_SMALL - 1])
def test_a_small_sum_of_known_size_goes_straight_to_fsum(monkeypatch, size):
    rng = np.random.default_rng(size)
    x = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)
    awkward = x.copy()
    awkward[: min(size, 4)] = [math.inf, -math.inf, math.nan, -0.0][:size]
    cases = [x, -x, np.full(size, -0.0), np.full(size, 1.7e308), awkward]
    expected = [outcome(math.fsum, v.tolist()) for v in cases]

    def no_buckets(*args, **kwargs):
        raise AssertionError("a sum of fewer than _FSUM_SMALL terms did the bucket work")

    monkeypatch.setattr(np, "bincount", no_buckets)
    assert [outcome(_fsum, v) for v in cases] == expected
    # a tuple of blocks tells its count up front, as the gaussian H rows pass the upper triangle and the diagonal
    assert [outcome(_fsum_blocks, lambda v=v: (v[: size // 2], v[size // 2 :])) for v in cases] == expected


@pytest.mark.parametrize("size", [0, 1, 7, _FSUM_SMALL - 1, _FSUM_SMALL, 3000])
def test_zero_and_cancelling_sums_keep_fsum_sign(size):
    rng = np.random.default_rng(size)
    assert_sums_like_fsum(np.zeros(size))
    assert_sums_like_fsum(np.full(size, -0.0))
    assert_sums_like_fsum(rng.choice([0.0, -0.0], size))
    half = rng.normal(size=size // 2) * 10.0 ** rng.integers(-300, 300, size // 2)
    assert_sums_like_fsum(rng.permutation(np.concatenate([half, -half])))


def test_sums_near_overflow_behave_like_fsum():
    big = np.full(_FSUM_SMALL + 10, 1.7e308)
    assert_sums_like_fsum(big)  # math.fsum overflows
    big[1::2] = -1.7e308
    assert_sums_like_fsum(big)  # exact zero
    big[0] = 1.0e308
    assert_sums_like_fsum(big)  # intermediate overflow
    tops = np.ldexp(np.linspace(1.0, 1.9, 3000), 990)
    assert_sums_like_fsum(tops)


def test_subnormal_sums_round_like_fsum():
    rng = np.random.default_rng(3)
    tiny = rng.integers(-(2**20), 2**20, 4000) * 5e-324
    assert_sums_like_fsum(tiny)
    mixed = np.concatenate([tiny, [2.0**-1022, -(2.0**-1022), 1e-300, -1e-300]])
    assert_sums_like_fsum(rng.permutation(mixed))


def test_bucket_path_does_not_call_fsum(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=5000) * 10.0 ** rng.integers(-20, 20, 5000)
    expected = math.fsum(x.tolist())
    monkeypatch.setattr(fields, "math", types.SimpleNamespace())
    assert bits(_fsum(x)) == bits(expected)
    assert bits(_fsum(x.reshape(50, 100))) == bits(expected)
    with pytest.raises(AttributeError):
        _fsum(x[:10])  # small arrays are fsum's


# -- the np.roll stencils, kept as the reference -------------------------------------


def roll_cell_corners(values):
    v00 = values
    v10 = np.roll(values, -1, axis=0)
    v01 = np.roll(values, -1, axis=1)
    v11 = np.roll(np.roll(values, -1, axis=0), -1, axis=1)
    return v00, v10, v01, v11


def roll_centered_periodic(values, axis, h):
    d1 = np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)
    if values.shape[axis] < 7:
        return d1 / (2.0 * h)
    d2 = np.roll(values, -2, axis=axis) - np.roll(values, 2, axis=axis)
    d3 = np.roll(values, -3, axis=axis) - np.roll(values, 3, axis=axis)
    return (45.0 * d1 - 9.0 * d2 + d3) / (60.0 * h)


def roll_pullback(source, values):
    h = source.spacing
    v00, v10, v01, v11 = roll_cell_corners(values)
    d1 = ((v10 - v00) + (v11 - v01)) / (2.0 * h)
    d2 = ((v01 - v00) + (v11 - v10)) / (2.0 * h)
    return canonical_omega(d1, d2)


def roll_cell_average(values):
    a00, a10, a01, a11 = roll_cell_corners(values)
    return ((a00 + a11) + (a10 + a01)) * 0.25


def row_range(n, rows):
    """All rows, the first half (its extra row is an interior one) or the second half (it wraps)."""
    return {"all": slice(0, n), "head": slice(0, (n + 1) // 2), "tail": slice(n // 2, n)}[rows]


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("tail", [(), (2,), (4,)])
@pytest.mark.parametrize("rows", ["all", "head", "tail"])
def test_cell_corners_match_roll_reference(n, tail, rows):
    src = GridSource(n)
    values = np.random.default_rng(n).normal(size=src.node_shape + tail)
    block = row_range(n, rows)
    for new, old in zip(_cell_corners(src, values, block), roll_cell_corners(values)):
        assert_bitwise(new, old[block])


@pytest.mark.parametrize("n, dim", [(3, 2), (16, 2), (33, 4)])
@pytest.mark.parametrize("block", [None, 1, 40], ids=["one-block", "row-blocks", "partial-last-block"])
def test_pullback_and_cell_average_match_roll_reference(n, dim, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", block)
    src = GridSource(n)
    rng = np.random.default_rng(11 * n + dim)
    f = datagen.random_map(rng, src, dim=dim)
    alpha = datagen.random_stream(rng, src)
    assert_bitwise(pullback_omega(f).values, roll_pullback(src, f.values))
    assert_bitwise(cell_average(src, alpha.values), roll_cell_average(alpha.values))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8, 13, 32])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("tail", [(), (2,)])
def test_centered_difference_matches_roll_reference(n, axis, tail):
    values = np.random.default_rng(n + axis).normal(size=(n, n) + tail)
    h = 1.0 / n
    assert_bitwise(_centered_periodic(values, axis, h), roll_centered_periodic(values, axis, h))


# -- the allocating midpoint loop, kept as the reference -----------------------------


def allocating_midpoint_step(h, m, dt, step_index):
    y = m + dt * hamiltonian_vector_field(h, m)
    for _ in range(_FIXED_POINT_MAX_ITER):
        y_next = m + dt * hamiltonian_vector_field(h, 0.5 * (m + y))
        delta = float(np.max(np.abs(y_next - y)))
        y = y_next
        if delta <= _FIXED_POINT_TOL * (1.0 + float(np.max(np.abs(y)))):
            return y
    raise SolverDivergenceError(step_index)


def quartic():
    def value(z):
        r2 = np.einsum("...i,...i->...", z, z)
        return 0.25 * r2 * r2

    def gradient(z):
        r2 = np.einsum("...i,...i->...", z, z)
        return r2[..., None] * z

    return Observable(value, gradient, name="quartic")


def run_steps(step, h, m, dt, steps):
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            m = step(h, m, dt, k)
            out.append(m)
    return out


@pytest.mark.parametrize(
    "shape", [(2,), (4,), (64, 2), (5, 4), (3, 7, 2)], ids=["point2", "point4", "batch64", "batch5", "grid3x7"]
)
@pytest.mark.parametrize("family", ["quartic", "polynomial"])
def test_midpoint_step_matches_allocating_loop(shape, family):
    h = quartic() if family == "quartic" else random_poly(random.Random(shape[-1]), shape[-1]).observable()
    m = np.random.default_rng(len(shape)).uniform(-0.5, 0.5, shape)
    new = run_steps(_midpoint_step, h, m, 0.05, 6)
    old = run_steps(allocating_midpoint_step, h, m, 0.05, 6)
    for a, b in zip(new, old):
        assert_bitwise(a, b)


@pytest.mark.parametrize("shape", [(2,), (5, 4), (3, 7, 6)])
def test_vector_field_matches_concatenation(shape):
    h = random_poly(random.Random(shape[-1]), shape[-1]).observable()
    m = np.random.default_rng(shape[0]).uniform(-1.0, 1.0, shape)
    g = h.gradient(m)
    n = shape[-1] // 2
    assert_bitwise(hamiltonian_vector_field(h, m), np.concatenate([g[..., n:], -g[..., :n]], axis=-1))


def test_midpoint_step_diverges_where_the_allocating_loop_does():
    h, m = quartic(), np.array([[3.0, 3.0], [0.1, 0.2]])
    errors = []
    for step in (_midpoint_step, allocating_midpoint_step):
        with pytest.raises(SolverDivergenceError) as info:
            run_steps(step, h, m, 1.0, 3)
        errors.append(info.value.step)
    assert errors[0] == errors[1]


# -- meshgrid sampling, kept as the reference ----------------------------------------


def meshgrid_sample(source, fn):
    s1, s2 = source.node_coords()
    return fn(s1, s2)


def s1_only_map(s1, s2):
    return np.stack([np.sin(2.0 * np.pi * s1), np.exp(np.cos(s1)) - 1.0], axis=-1)


def s1_only_stream(s1, s2):
    return np.cos(2.0 * np.pi * s1) * 0.3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 32, 33, 64, 128, 256, 512])
def test_line_sampling_matches_meshgrid(n):
    src = GridSource(n)
    rng = np.random.default_rng(n)
    vector, scalar, tangent = datagen.trig_vector(rng, 2), datagen.trig_scalar(rng), datagen.trig_vector(rng, 4)
    assert_bitwise(datagen.sample_map(src, vector).values, meshgrid_sample(src, vector))
    assert_bitwise(datagen.sample_stream(src, scalar).values, meshgrid_sample(src, scalar))
    assert_bitwise(datagen.sample_tangent(src, tangent).values, meshgrid_sample(src, tangent))
    assert_bitwise(datagen.sample_map(src, s1_only_map).values, meshgrid_sample(src, s1_only_map))
    assert_bitwise(datagen.sample_stream(src, s1_only_stream).values, meshgrid_sample(src, s1_only_stream))


def test_sampled_fields_hold_contiguous_node_arrays():
    # A closure of s1 alone returns one column; the field still owns a full,
    # C-ordered node array, as meshgrid sampling gave it.
    src = GridSource(8)
    f = datagen.sample_map(src, s1_only_map)
    assert isinstance(f, MapField)
    assert f.values.shape == src.node_shape + (2,)
    assert f.values.flags.c_contiguous and f.values.base is None


# -- the einsum forms, kept as the reference -------------------------------------------


def awkward(rng, shape):
    """Random doubles with signed zeros, subnormals and magnitudes near 1e150.

    The first two node rows are zeros of random sign in every component, so
    that products and corner differences of zeros reach every sum.
    """
    x = rng.normal(size=shape)
    kind = rng.integers(0, 4, size=shape)
    x[kind == 1] = rng.choice([0.0, -0.0], int((kind == 1).sum()))
    x[kind == 2] = rng.integers(-(2**20), 2**20, int((kind == 2).sum())) * 5e-324
    x[kind == 3] = rng.uniform(-2.0, 2.0, int((kind == 3).sum())) * 1e150
    x[:2] = rng.choice([0.0, -0.0], x[:2].shape)
    return x


@pytest.mark.parametrize("shape", [(2,), (9, 2), (16, 16, 2)], ids=["point", "batch", "grid"])
def test_swirl_field_matches_einsum(shape):
    swirl = cli._swirl_observable()
    z = awkward(np.random.default_rng(len(shape)), shape)
    with np.errstate(over="ignore", under="ignore"):
        assert_same_numbers(swirl.gradient(z), quartic().gradient(z))
        assert_same_numbers(swirl.value(z), quartic().value(z))


def shear(dt, n):
    eye = np.eye(n)
    return np.block([[eye, 0.0 * eye], [-dt * eye, eye]])


def rotation(dt, n):
    c, s, eye = math.cos(dt), math.sin(dt), np.eye(n)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_matrix(rng, dim):
    a = rng.normal(size=(dim, dim))
    a[rng.random((dim, dim)) < 0.25] = 0.0
    a[rng.random((dim, dim)) < 0.25] = -0.0
    return a


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("n", [1, 12])
def test_nodewise_linear_matches_einsum(dim, n):
    rng = np.random.default_rng(dim)
    src = GridSource(n)
    f = MapField(src, awkward(rng, src.node_shape + (dim,)))
    n = dim // 2
    matrices = [shear(0.0625, n), rotation(0.0625, n), np.eye(dim), -np.eye(dim)]
    matrices += [random_matrix(rng, dim) for _ in range(4)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for a in matrices:
            assert_same_numbers(nodewise_linear(f, a).values, np.einsum("ij,...j->...i", a, f.values))


def stacked_pullback(source, values):
    """The stacked (cells, 2n) corner differences fed to ``canonical_omega``."""
    h = source.spacing
    v00, v10, v01, v11 = _cell_corners(source, values, slice(0, source.n))
    d1 = v10 - v00
    d1 += v11 - v01
    d1 /= 2.0 * h
    d2 = v01 - v00
    d2 += v11 - v10
    d2 /= 2.0 * h
    return canonical_omega(d1, d2)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 16, 33, 40])
@pytest.mark.parametrize("block", [None, 1, 40], ids=["one-block", "row-blocks", "partial-last-block"])
def test_pullback_matches_stacked_canonical_omega(dim, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(10 * n + dim)
    src = GridSource(n)
    values = awkward(rng, src.node_shape + (dim,))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert_same_numbers(pullback_omega(MapField(src, values)).values, stacked_pullback(src, values))


def test_pullback_reference_sees_signed_zeros():
    # Corners -0.0 and +0.0 give a -0.0 difference along s1 and a +0.0 one
    # along s2, so the product d1q * d2p is -0.0 and d1p * d2q is +0.0.  The
    # plain difference of the two products is -0.0; only sums that start from
    # +0.0, like the einsum's, give +0.0.
    src = GridSource(2)
    values = np.zeros((2, 2, 2))
    values[1, :, 0] = -0.0
    d1 = (values[1, 0] - values[0, 0] + (values[1, 1] - values[0, 1])) / 2.0
    d2 = (values[0, 1] - values[0, 0] + (values[1, 1] - values[1, 0])) / 2.0
    assert np.signbit(d1[0] * d2[1] - d1[1] * d2[0])
    assert not np.signbit(stacked_pullback(src, values)).any()
    assert_same_numbers(pullback_omega(MapField(src, values)).values, stacked_pullback(src, values))


@pytest.mark.parametrize("n", [1, 7, 16, 40])
@pytest.mark.parametrize("block", [None, 1, 40], ids=["one-block", "row-blocks", "partial-last-block"])
@pytest.mark.parametrize("data", ["smooth", "near-overflow", "non-finite"])
def test_averaged_pairing_is_the_right_momentum_pairing(n, block, data, monkeypatch):
    # 40 x 40 cells take the bucket sums across blocks.  An awkward map brings products
    # near 1e300 and signed zeros, and an awkward potential infinities of both signs:
    # math.fsum decides those sums.
    if block is not None:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(4)
    src = GridSource(n)
    if data == "smooth":
        f = datagen.random_map(rng, src, dim=4)
    else:
        f = MapField(src, awkward(rng, src.node_shape + (4,)))
    if data == "non-finite":
        alpha = StreamFunction(src, awkward(rng, src.node_shape))
    else:
        alpha = datagen.random_stream(rng, src)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        abar = cell_average(src, alpha.values)
        terms = stacked_pullback(src, f.values) * abar * src.spacing**2
        expected = outcome(lambda t: -math.fsum(t), terms.ravel().tolist())
        assert outcome(right_momentum_pair, f, alpha) == expected
        assert outcome(averaged_momentum_pair, f, abar) == expected
    with pytest.raises(ValueError, match="cell averages shape"):
        averaged_momentum_pair(f, alpha.values[:-1])
