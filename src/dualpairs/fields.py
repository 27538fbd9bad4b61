"""Discretized maps from a two-dimensional source into phase space.

The source S is the periodic square grid on the unit torus, whose uniform
node weights play the role of the volume measure; the right-momentum
identities integrate by parts over this closed source.  On top of it live
sampled maps into R^(2n), tangent fields along them, stream functions
(potentials of exact divergence-free fields on S), and per-cell densities
of pulled-back two-forms.  The operations implement the weighted pairings,
both momentum pairings, the fiber-integration pairing, the group actions,
and their residual diagnostics.

Determinism and exact-invariance policy: every scalar reduction goes
through ``_fsum_blocks``, an exactly rounded sum over blocks of terms that
returns the same double as ``math.fsum`` bit for bit.  It adds the integer
mantissas of each block's terms per binary exponent with ``np.bincount``
(exact in float64) and rounds once, so totals do not depend on node order
or block cuts.  With the pair-symmetric corner average of the cell
quadrature, the grid-symmetry identities below hold bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import _integer
from .symplectic import FlowSpec, Observable, advance, canonical_omega, hamiltonian_vector_field

__all__ = [
    "CellTwoForm",
    "ChainSource",
    "GridSource",
    "GridSymmetry",
    "MapField",
    "StreamFunction",
    "TangentField",
    "averaged_momentum_pair",
    "cell_average",
    "equivariance_residual",
    "fiber_pairing",
    "format_float",
    "integrated_observable",
    "integrated_omega",
    "left_act",
    "left_generator",
    "nodewise_linear",
    "orthogonality_residual",
    "pullback_omega",
    "right_act",
    "right_act_stream",
    "right_generator",
    "right_momentum_pair",
    "stream_vector_field",
    "transport_along",
]

# Largest node count the CLI builds a grid for (a 2048 x 2048 periodic grid).
# Measured by tracemalloc at grid 1024, an advect run peaks at about 12.6
# two-component node arrays for the swirl (its stepping history among them,
# near 0.8 GB at this bound) and 4.3 for the shear (near 0.3 GB); the CLI
# refuses larger grids before building them.
MAX_NODES = 1 << 22


# Totals below this many terms go to ``math.fsum``, which is faster there.
_FSUM_SMALL = 1024
# Per-bucket sums of 27-bit halves stay exact in float64 below this many terms.
_FSUM_LARGE = 2**26
_FSUM_BUCKETS = 2099  # exponent buckets ``e + 1074`` of ``np.frexp`` over all doubles


def _fsum_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """Exactly rounded sum of the blocks ``blocks()`` yields: ``math.fsum`` of their concatenation, bit for bit.

    A double is ``M * 2**(k - 1127)``, its 53-bit integer mantissa M split as
    ``hi * 2**26 + lo`` and ``k = e + 1074`` from ``np.frexp``.  Each block's
    ``hi`` and ``lo`` go into one running pair of per-bucket ``np.bincount``
    sums, integers below ``2**53`` under ``_FSUM_LARGE`` terms and so exact;
    no block is kept.  They are combined as one Python int and divided by
    ``2**1127``, correctly rounded.  Where ``math.fsum`` decides (under
    ``_FSUM_SMALL`` terms, a non-finite or near-overflow term, an exact zero),
    it sums ``blocks()`` again, so results and exceptions are its own; a
    tuple of fewer terms goes there without the bucket work.
    """
    first = blocks()
    if not (isinstance(first, tuple) and sum(block.size for block in first) < _FSUM_SMALL):
        count, sums = 0, np.zeros((2, _FSUM_BUCKETS))
        for block in first:
            x = block.ravel()
            count += x.size
            # The bound for _FSUM_LARGE terms, as the count is known only at the end; NaN fails it.
            if x.size and not (count < _FSUM_LARGE and max(-float(x.min()), float(x.max())) < 2.0 ** (1020 - 27)):
                break
            m, e = np.frexp(x)
            e += 1074
            m *= 2.0**27
            hi = np.trunc(m)
            m -= hi
            m *= 2.0**26
            sums[0] += np.bincount(e, weights=hi, minlength=_FSUM_BUCKETS)
            sums[1] += np.bincount(e, weights=m, minlength=_FSUM_BUCKETS)
        else:
            buckets = np.flatnonzero(sums.any(axis=0))
            total = sum(((int(h) << 26) + int(lo)) << k for k, h, lo in zip(buckets.tolist(), *sums[:, buckets].tolist()))
            if count >= _FSUM_SMALL and total != 0:
                return total / (1 << 1127)
    return math.fsum(itertools.chain.from_iterable(memoryview(block.ravel()) for block in blocks()))


def _fsum(values) -> float:
    """:func:`_fsum_blocks` of one array."""
    return _fsum_blocks(lambda: (np.asarray(values, dtype=float),))


def _frozen(values, head: tuple[int, ...] | None = None, label: str = "", trailing: bool = False) -> np.ndarray:
    """The read-only float64 array a value keeps; the one place that decides whose memory it is.

    A read-only, C-ordered float64 ndarray that owns its memory counts as
    handed over and is kept as it is.  Anything else is copied once and the
    copy made read-only, so no caller can write to a value.  With ``head``,
    the shape must be ``head``, plus one trailing axis when ``trailing``.
    """
    v = values
    handed_over = type(v) is np.ndarray and v.dtype == np.float64 and not v.flags.writeable
    if not (handed_over and v.flags.c_contiguous and v.flags.owndata):
        v = np.array(values, dtype=float, order="C")
        v.flags.writeable = False
    if head is not None and (v.ndim != len(head) + trailing or v.shape[: len(head)] != head):
        raise ValueError(f"{label} shape {v.shape} does not match {'leading ' if trailing else ''}shape {head}")
    return v


def format_float(x: float) -> str:
    """17 significant digits, locale-independent (used by all CSV writers)."""
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class _Source:
    """A closed source with ``n`` nodes per axis and spacing ``1/n``.

    Its node weights are equal and sum to 1; they are built once, read-only.
    """

    n: int
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n must be a positive integer", 1))
        w = np.full(self.node_shape, 1.0 / math.prod(self.node_shape))
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True, eq=False)
class GridSource(_Source):
    """The periodic ``n x n`` grid on the unit torus (k = 2 fixed).

    ``n`` is the number of nodes, and of cells, per side; node ``(i, j)`` sits
    at ``(i, j) / n`` and is the lower-left corner of cell ``(i, j)``.  Every
    node weighs ``1/n^2``.
    """

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    cell_shape = node_shape  # on the torus every node owns one cell

    def node_line(self) -> np.ndarray:
        """Node coordinates along one axis (both axes share them)."""
        return np.arange(self.n) * self.spacing

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays ``(s1, s2)`` of node coordinates, each of node shape."""
        line = self.node_line()
        return np.meshgrid(line, line, indexing="ij")


@dataclass(frozen=True, eq=False)
class ChainSource(_Source):
    """Closed one-dimensional chain of ``n`` nodes, each weighing ``1/n``."""

    @property
    def node_shape(self) -> tuple[int]:
        return (self.n,)


@dataclass(frozen=True, eq=False)
class MapField:
    """A map ``f: S -> R^(2n)`` sampled at grid nodes (even target dim)."""

    source: GridSource
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values, self.source.node_shape, "map values", trailing=True)
        if v.shape[-1] % 2 != 0 or v.shape[-1] < 2:
            raise ValueError(f"target dimension must be even and >= 2, got {v.shape[-1]}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True, eq=False)
class TangentField:
    """A vector field along a map: one target vector per node."""

    source: GridSource
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.source.node_shape, "tangent values", True))


@dataclass(frozen=True, eq=False)
class StreamFunction:
    """A scalar potential on S; the k = 2 potential of a divergence-free field."""

    source: GridSource
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.source.node_shape, "stream values"))

    def zero_mean(self) -> "StreamFunction":
        """Subtract the weighted mean so the integral against mu vanishes."""
        mean = _fsum(self.values * self.source.weights)
        return StreamFunction(self.source, self.values - mean)


@dataclass(frozen=True, eq=False)
class CellTwoForm:
    """Per-cell density c of a 2-form on S; its integral is sum(c) * spacing^2."""

    source: GridSource
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.source.cell_shape, "cell values"))

    def integral(self) -> float:
        return _fsum(self.values) * self.source.spacing**2


# -- differencing -------------------------------------------------------------


def _centered_periodic(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Sixth-order centered difference with wraparound (three-point fallback
    when the axis is too short for the seven-point stencil).

    The wide stencil is deliberate.  Node derivatives get compared against
    the cell-based pullback quadrature, which is second order by
    construction; with a low-order node stencil both error terms are alike
    at N = 8 and grid-refinement studies on (8, 16, 32) see their
    interference instead of a clean slope.  At sixth order the node error
    sits two decades below the cell error already on the coarsest grid.
    """
    n = values.shape[axis]
    r = 1 if n < 7 else 3
    head = (slice(None),) * axis
    # One wrap-padded copy; shifted(s)[i] = values[(i + s) mod n] is a slice of it.
    padded = np.concatenate(
        [values[head + (slice(n - r, None),)], values, values[head + (slice(None, r),)]], axis=axis
    )

    def shifted(s: int) -> np.ndarray:
        return padded[head + (slice(r + s, r + s + n),)]

    d1 = shifted(1) - shifted(-1)
    if r == 1:
        d1 /= 2.0 * h
        return d1
    d1 *= 45.0
    d1 -= 9.0 * (shifted(2) - shifted(-2))
    d1 += shifted(3) - shifted(-3)
    d1 /= 60.0 * h
    return d1


def _node_derivatives(source: GridSource, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node partial derivatives along s1 and s2, by :func:`_centered_periodic`."""
    h = source.spacing
    return _centered_periodic(values, 0, h), _centered_periodic(values, 1, h)


def stream_vector_field(source: GridSource, alpha: StreamFunction) -> np.ndarray:
    """The divergence-free field of a potential: ``X_alpha = (d2 alpha, -d1 alpha)``.

    This is the convention ``i_{X_alpha} mu = d alpha`` with mu = ds1 ^ ds2.
    Returns an array of shape node_shape + (2,).
    """
    d1, d2 = _node_derivatives(source, alpha.values)
    return np.stack([d2, -d1], axis=-1)


def transport_along(source: GridSource, values: np.ndarray, alpha: StreamFunction) -> np.ndarray:
    """Push ``X_alpha`` through a sampled map: ``(D1 f) X^1 + (D2 f) X^2``."""
    x = stream_vector_field(source, alpha)
    d1, d2 = _node_derivatives(source, values)
    return d1 * x[..., :1] + d2 * x[..., 1:]


# -- weighted pairings ---------------------------------------------------------


def _check_same_grid(a, b) -> None:
    """Raise unless two fields live on sources of the same node shape: the same grid."""
    if a.source.node_shape != b.source.node_shape:
        raise ValueError("fields live on different grids")


def integrated_omega(f: MapField, U: TangentField, V: TangentField) -> float:
    """Weighted total of the pointwise symplectic pairing: ``sum omega(U, V) mu``.

    Bilinear, antisymmetric, and exactly zero when U = V.
    """
    _check_same_grid(f, U)
    _check_same_grid(f, V)
    if U.values.shape != V.values.shape:
        raise ValueError(f"tangent shapes differ: {U.values.shape} vs {V.values.shape}")
    w = canonical_omega(U.values, V.values)
    return _fsum(w * f.source.weights)


def integrated_observable(f: MapField, h: Observable) -> float:
    """``sum_s h(f(s)) mu_s`` — the pairing of the pushed-forward measure with h."""
    vals = h.value(f.values)
    return _fsum(vals * f.source.weights)


def left_generator(f: MapField, h: Observable) -> TangentField:
    """Infinitesimal generator of the left action: ``X_h`` evaluated along f."""
    return TangentField(f.source, hamiltonian_vector_field(h, f.values))


def right_generator(f: MapField, alpha: StreamFunction) -> TangentField:
    """Infinitesimal generator of the right action: ``Tf compose X_alpha``."""
    _check_same_grid(f, alpha)
    return TangentField(f.source, transport_along(f.source, f.values, alpha))


# -- pullbacks and the cell quadrature ---------------------------------------


def _cell_corners(source: GridSource, values: np.ndarray, rows: slice):
    """Stacks (v00, v10, v01, v11) of the corner samples of the cells in ``rows``.

    They are slices of one copy of the node rows with one more row and
    column wrapped around.
    """
    w = np.empty((rows.stop - rows.start + 1, source.n + 1) + values.shape[2:])
    w[:-1, :-1] = values[rows]
    w[-1, :-1] = values[rows.stop % source.n]
    w[:, -1] = w[:, 0]
    return w[:-1, :-1], w[1:, :-1], w[:-1, 1:], w[1:, 1:]


# Cells per block of the pullback: the block-sized temporaries of its
# differences (about 2**14 doubles each) then stay in the CPU cache.
_BLOCK_CELLS = 1 << 14


def _edge_differences(corners, two_h: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge-averaged corner differences of a node scalar along s1 and s2."""
    v00, v10, v01, v11 = corners
    d1 = v10 - v00
    d1 += v11 - v01
    d1 /= two_h
    d2 = v01 - v00
    d2 += v11 - v10
    d2 /= two_h
    return d1, d2


def _pullback_density(f: MapField) -> Iterator[tuple[slice, np.ndarray]]:
    """Cell densities ``omega(d1 f, d2 f)`` as ``(rows, block)``, one fresh block of cell rows at a time.

    Each of the two sums starts from +0.0 and adds left to right.  With one
    or two degrees of freedom that is the order of the einsum in
    :func:`canonical_omega`, so the result equals ``canonical_omega`` of the
    stacked differences bit for bit; with more, two-lane (SSE2) einsum
    builds pair the terms differently.
    """
    src, n = f.source, f.dim // 2
    two_h = 2.0 * src.spacing
    step = max(1, _BLOCK_CELLS // src.n)
    for r in range(0, src.n, step):
        rows = slice(r, min(r + step, src.n))
        qp = pq = 0.0
        for i in range(n):
            d1q, d2q = _edge_differences(_cell_corners(src, f.values[..., i], rows), two_h)
            d1p, d2p = _edge_differences(_cell_corners(src, f.values[..., n + i], rows), two_h)
            d1q *= d2p
            d1q += qp
            d1p *= d2q
            d1p += pq
            qp, pq = d1q, d1p
        qp -= pq
        yield rows, qp


def pullback_omega(f: MapField) -> CellTwoForm:
    """Discrete pullback of the canonical two-form, one density value per cell.

    Edge-averaged corner differences make the scheme exact for affine maps
    (on the cells that do not cross the seam) and second-order accurate for
    smooth ones.
    """
    c = np.concatenate([c for _, c in _pullback_density(f)])
    c.flags.writeable = False  # handed over: the form keeps ``c`` without a copy
    return CellTwoForm(f.source, c)


def cell_average(source: GridSource, values: np.ndarray) -> np.ndarray:
    """Four-corner cell average of a node scalar.

    The corners are grouped diagonally, ``((a00 + a11) + (a10 + a01)) / 4``:
    the diagonal pairs are invariant under the grid's quarter-turn symmetry,
    so cell averages of permuted data are bitwise equal to permuted cell
    averages.
    """
    a00, a10, a01, a11 = _cell_corners(source, values, slice(0, source.n))
    return ((a00 + a11) + (a10 + a01)) * 0.25


def averaged_momentum_pair(f: MapField, abar: np.ndarray) -> float:
    """:func:`right_momentum_pair` against cell averages ``abar`` of a potential.

    ``abar`` is what :func:`cell_average` returns for the potential, so a
    run that pairs many maps with one potential averages it once.
    """
    if np.shape(abar) != f.source.cell_shape:
        raise ValueError(f"cell averages shape {np.shape(abar)} != cell shape {f.source.cell_shape}")

    def terms():
        for rows, c in _pullback_density(f):
            c *= abar[rows]
            c *= f.source.spacing**2
            yield c

    return -_fsum_blocks(terms)


def right_momentum_pair(f: MapField, alpha: StreamFunction) -> float:
    """Pair the right momentum with a potential: ``-sum_cells c * avg(alpha) * h^2``."""
    _check_same_grid(f, alpha)
    return averaged_momentum_pair(f, cell_average(f.source, alpha.values))


def fiber_pairing(
    f: MapField,
    alpha: StreamFunction | None = None,
    tangents: Sequence[TangentField] = (),
    observable: Observable | None = None,
) -> float:
    """Fiber-integration pairing of a form on the target with a form on S.

    The target-side form is the canonical two-form by default, or the
    differential of ``observable`` when one is supplied (degree 1).  The
    source-side form is the potential ``alpha`` (degree 0) or, when omitted,
    the volume form (degree 2).  The result takes ``p + q - 2`` tangent
    arguments:

    * two-form against alpha: no tangents, the scalar ``sum c * avg(alpha) * h^2``
      (minus :func:`right_momentum_pair`);
    * two-form against the volume: two tangents, the weighted pairing
      :func:`integrated_omega`;
    * observable differential against the volume: one tangent,
      ``sum grad(h)(f) . U mu``.
    """
    degree = (2 if observable is None else 1) + (0 if alpha is not None else 2) - 2
    if degree < 0:
        raise ValueError("no pairing of an observable differential against a potential: degree would be negative")
    if len(tangents) != degree:
        raise ValueError(f"this pairing takes exactly {degree} tangent argument(s), got {len(tangents)}")
    if observable is None and alpha is not None:
        return -right_momentum_pair(f, alpha)
    if observable is None:
        return integrated_omega(f, tangents[0], tangents[1])
    (U,) = tangents
    _check_same_grid(f, U)
    g = observable.gradient(f.values)
    terms = np.einsum("...i,...i->...", g, U.values) * f.source.weights
    return _fsum(terms)


def orthogonality_residual(f: MapField, h: Observable, alpha: StreamFunction) -> float:
    """Weighted symplectic pairing of the two generators; zero in the continuum.

    Exactly zero when h or alpha is constant; O(N^-2) for smooth data.
    """
    return integrated_omega(f, left_generator(f, h), right_generator(f, alpha))


# -- group actions -------------------------------------------------------------


@dataclass(frozen=True)
class GridSymmetry:
    """An exact symmetry of the periodic grid: quarter turns then a shift.

    As a map on the source, ``psi(s) = rho^r(s + shift * spacing)`` with
    ``rho(s1, s2) = (-s2, s1)``.  These are precisely the grid maps that are
    exactly volume preserving at the discrete level.
    """

    shift: tuple[int, int] = (0, 0)
    quarter_turns: int = 0

    def __post_init__(self):
        s1, s2 = self.shift
        object.__setattr__(self, "shift", tuple(_integer(s, "shift entries must be integers") for s in (s1, s2)))
        turns = _integer(self.quarter_turns, "quarter_turns must be an integer")
        object.__setattr__(self, "quarter_turns", turns % 4)


def _rotate_gather(values: np.ndarray) -> np.ndarray:
    """Gather for one quarter turn: out[i, j] = values[(-j) mod n, i]."""
    n = values.shape[0]
    i_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return values[(-j_idx) % n, i_idx]


def _apply_symmetry(values: np.ndarray, psi: GridSymmetry) -> np.ndarray:
    out = values
    for _ in range(psi.quarter_turns):
        out = _rotate_gather(out)
    d1, d2 = psi.shift
    # roll with negative shift gathers value[(i + d) mod n].
    return np.roll(out, shift=(-d1, -d2), axis=(0, 1))


def right_act(f: MapField, psi: GridSymmetry) -> MapField:
    """Compose on the right with a grid symmetry: node permutation, no arithmetic."""
    return MapField(f.source, _apply_symmetry(f.values, psi))


def right_act_stream(alpha: StreamFunction, psi: GridSymmetry) -> StreamFunction:
    """The same node permutation applied to a potential (``alpha compose psi``)."""
    return StreamFunction(alpha.source, _apply_symmetry(alpha.values, psi))


def left_act(f: MapField, h: Observable, spec: FlowSpec) -> MapField:
    """Compose on the left with the time-``spec`` Hamiltonian flow of h, nodewise.

    The whole node array is advanced as one batch whose implicit solves use
    a global convergence test, so left and right actions commute bit for bit.
    """
    m = advance(h, f.values, spec)
    m.flags.writeable = False  # handed over: fresh, or ``f.values`` itself at zero steps
    return MapField(f.source, m)


def nodewise_linear(f: MapField, matrix: np.ndarray) -> MapField:
    """Apply one linear map to every node value (e.g. a linear symplectic map)."""
    a = np.asarray(matrix, dtype=float)
    if a.shape != (f.dim, f.dim):
        raise ValueError(f"matrix shape {a.shape} does not match target dimension {f.dim}")
    # Each component adds its even- and its odd-indexed terms a[i, j] x_j in two
    # running sums, then the two sums: the order in which two-lane (SSE2)
    # builds of einsum("ij,...j->...i") add up to six terms, so both agree bit
    # for bit.  That einsum starts from +0.0 and so never returns -0.0.
    x = f.values
    out = np.empty_like(x)
    odd = np.empty(f.source.node_shape)
    for i in range(f.dim):
        even = out[..., i]
        np.multiply(x[..., 0], a[i, 0], out=even)
        np.multiply(x[..., 1], a[i, 1], out=odd)
        for j in range(2, f.dim):
            lane = even if j % 2 == 0 else odd
            lane += x[..., j] * a[i, j]
        even += odd
        even += 0.0
    out.flags.writeable = False  # handed over: the new map keeps ``out`` without a copy
    return MapField(f.source, out)


# -- equivariance diagnostics ---------------------------------------------------


def equivariance_residual(alpha_x: StreamFunction, alpha_y: StreamFunction, f: MapField) -> float:
    """Residual of the zero-mean-normalized equivariance identity.

    For X, Y the divergence-free fields of the two potentials, the bracket
    [X, Y] has potential ``i_X i_Y mu`` computed pointwise; with its
    zero-mean representative the pairing of the right momentum against it
    must match the weighted symplectic pairing of the transported fields.
    Exactly zero when the potentials coincide or are constant; O(N^-2) for
    smooth data.
    """
    src = f.source
    _check_same_grid(f, alpha_x)
    _check_same_grid(f, alpha_y)
    x = stream_vector_field(src, alpha_x)
    y = stream_vector_field(src, alpha_y)
    gamma = y[..., 0] * x[..., 1] - y[..., 1] * x[..., 0]  # i_X i_Y mu at nodes
    gamma0 = StreamFunction(src, gamma).zero_mean()
    term_bracket = right_momentum_pair(f, gamma0)
    u = TangentField(src, transport_along(src, f.values, alpha_x))
    v = TangentField(src, transport_along(src, f.values, alpha_y))
    term_pairing = integrated_omega(f, u, v)
    return term_bracket - term_pairing
