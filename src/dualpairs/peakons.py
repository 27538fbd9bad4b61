"""Singular geodesic solutions on the diffeomorphism group at finite rank.

A singular state is a finite support set: positions ``Q``, covector
densities ``P`` and the weights ``w`` of its measure, fixed by its kind (1
per point, ``1/A`` per node of an A-node filament), together with the
length scale ``alpha`` of the kernel ``G`` (the Green's function of the
inertia operator).  The collective Hamiltonian

    H = 1/2 sum_{a,b} (P_a . P_b) G(Q_a - Q_b) w_a w_b

drives the canonical N-body equations.  The dimension of the positions
fixes the kernel: on the line it is ``G(x) = exp(-|x| / alpha) / (2 alpha)``,
the Green's function of ``1 - alpha^2 d^2/dx^2`` with the symmetric
convention ``G'(0) = 0``, and these are the peakon equations; in two or
more dimensions it is ``G(x) = exp(-|x|^2 / (2 alpha^2))`` (the exact
planar Green's function is singular at the origin).  A filament state
additionally orders its support points on a closed chain, which makes the
current ``m = <P, d_s Q>`` meaningful as a discrete momentum density on the
chain and exact reparametrization (chain rotation) available as a group
action.

Time stepping reuses the canonical integrators: in the rescaled variables
``(Q, P w)`` the equations are canonical with this Hamiltonian, so the
implicit midpoint rule is symplectic for them.  A one-dimensional field is
made of Python floats, so its implicit-midpoint steps run on Python floats
too, with the NumPy driver's arithmetic.

On the line every pair sum is one sorted scan, O(A log A) per state
instead of O(A^2): after sorting the positions, the sums of
``pt_b e^{-|x_a - x_b| / alpha}`` over the points strictly left of each
point follow a first-order recurrence whose factors are all at most 1, the
strictly-right sums mirror it, and tied positions share their group total.
The gaussian kernel sums all A^2 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverDivergenceError, _integer
from .fields import ChainSource, _frozen, _fsum, _fsum_blocks
from .symplectic import FlowSpec, Observable, flow

__all__ = [
    "FilamentState",
    "SingularState",
    "Trajectory",
    "collective_hamiltonian",
    "integrate",
    "filament_current",
    "pair_with_field",
    "reparametrize",
    "write_trajectory_csv",
]

def _differences(q: np.ndarray) -> np.ndarray:
    """Displacements ``Q_a - Q_b`` of (..., A, d) positions, one component per slice: (d, ..., A, A)."""
    c = np.ascontiguousarray(q.transpose(-1, *range(q.ndim - 1)))
    return c[..., :, None] - c[..., None, :]


def _kernel(alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gaussian ``G`` and slopes ``u`` with ``d_i G = u[i] G`` at displacements ``x`` of shape (d, ...).

    One ``exp`` per displacement.  The slopes overwrite ``x``, which must be
    an array the caller owns.  One-dimensional states never come here: their
    fields and H column are sorted scans (``_exp1d_scan``, ``_exp1d_rows``).
    """
    r2 = np.einsum("i...,i...->...", x, x)
    g = np.exp(np.divide(r2, -2.0 * alpha**2, out=r2), out=r2)
    return g, np.divide(x, -alpha**2, out=x)


@dataclass(frozen=True, eq=False)
class SingularState:
    """Positions, covector densities and kernel length scale of a singular solution.

    The dimension picks the kernel; ``weights`` (1 per point) is derived, not input.
    """

    q: np.ndarray
    p: np.ndarray
    alpha: float
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (float(self.alpha) > 0.0):
            raise ValueError(f"kernel length scale must be positive, got {self.alpha}")
        # both kernels divide by 2 alpha^2, which must be a positive finite double
        scale2 = 2.0 * self.alpha * self.alpha
        if not 0.0 < scale2 < math.inf:
            side = "too small: 2·alpha² underflows to 0" if scale2 == 0.0 else "too large: 2·alpha² overflows"
            raise ValueError(f"kernel length scale alpha = {self.alpha} is {side}")
        q = _frozen(np.atleast_2d(self.q))
        if q.ndim != 2 or q.shape[0] < 1:
            raise ValueError(f"positions must form an (A, d) array, got shape {q.shape}")
        p = _frozen(np.atleast_2d(self.p), q.shape, "covector")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", self._default_weights(q.shape[0]))

    @staticmethod
    def _default_weights(a: int) -> np.ndarray:
        w = np.ones(a)
        w.flags.writeable = False
        return w

    @property
    def count(self) -> int:
        return self.q.shape[0]

    @property
    def dim(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True, eq=False)
class FilamentState(SingularState):
    """A singular state whose points are ordered on a closed chain.

    The chain is ``s in {0 .. A-1} / A`` with spacing ``1/A``; each node
    weighs ``1/A``, the chain measure.  As for points, ``alpha`` is the only
    kernel input: a planar filament takes the gaussian, a filament on the
    line exp1d.  Positions must be pairwise
    distinct (a finite surrogate for the embedding condition).  With
    ``nonvanishing=True``, covectors are also required to be nonzero at
    every node.
    """

    nonvanishing: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        x = _differences(self.q)
        dist2 = np.einsum("i...,i...->...", x, x)
        np.fill_diagonal(dist2, np.inf)
        if self.count > 1 and not np.min(dist2) > 0.0:
            raise ValueError("filament positions must be pairwise distinct")
        if self.nonvanishing and not np.all(np.einsum("ai,ai->a", self.p, self.p) > 0.0):
            raise ValueError("filament covectors must be nonzero at every node")

    @staticmethod
    def _default_weights(a: int) -> np.ndarray:
        return ChainSource(a).weights


# -- collective dynamics -------------------------------------------------------

# Pairs per block of trajectory rows in the diagnostics, so their memory is
# O(A^2) whatever the number of steps.
_BLOCK_PAIRS = 1 << 16

# Points per block of rows in the exp1d H and in the momentum totals, so that
# their memory does not grow with the number of steps.
_BLOCK_POINTS = 1 << 11

# The gaussian budget: a field evaluation holds d + 2 float arrays of A^2
# entries (the (d, A, A) displacements, G and the pair products), and the CLI
# refuses a run with (d + 2) A^2 > 4 * MAX_PAIRS before building it: 0.5 GB,
# and A = 4096 in two dimensions.
MAX_PAIRS = 1 << 24

# The most points of a run on the line, whose scans and float steps hold
# Python lists of A floats, about 1 KB per point.  With the most steps the
# trajectory budget then allows (127), such a run peaks at 0.83 GB of RSS,
# and at 2^19 points (63 steps) at 1.12 GB (Python 3.11, NumPy 2.4, x86-64).
MAX_LINE_POINTS = 1 << 18

# The most values a trajectory may hold, (steps + 1) * 2 A d doubles (0.5 GB).
# The whole path is kept in memory; the CLI refuses longer runs before
# building any array.
MAX_TRAJECTORY_VALUES = 1 << 26


def _pair_terms(alpha: float, q: np.ndarray, pt: np.ndarray) -> np.ndarray:
    """``(pt_a . pt_b) G(Q_a - Q_b)`` over any leading axes, with ``pt = P w``; H is half their sum."""
    terms = _kernel(alpha, _differences(q))[0]
    # einsum sums each entry's own products (no BLAS), so the terms are bitwise symmetric
    terms *= np.einsum("...ai,...bi->...ab", pt, pt)
    return terms


def _weighted_totals(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_a P_a w_a`` over the support axis of (..., A, d) covectors, one fsum per entry.

    The products are formed one block of states at a time, never for the whole stack.
    """
    a, d = p.shape[-2:]
    states = p.reshape(-1, a, d)
    sums = np.empty((len(states), d))
    step = max(1, _BLOCK_POINTS // (a * d))
    for start in range(0, len(states), step):
        block = np.swapaxes(states[start : start + step] * w[:, None], 1, 2).tolist()
        sums[start : start + step] = [[math.fsum(entry) for entry in state] for state in block]
    return sums.reshape(p.shape[:-2] + (d,))


def _exp1d_scan(x: list, pt: list, alpha: float) -> list:
    """The Hamiltonian field ``(dH/dpt, -dH/dq)`` of the exp1d H at one state, as 2A floats.

    ``x`` and ``pt`` are the positions and canonical momenta ``P w``.  In
    sorted order, the strictly-left sums ``L_a`` of ``pt_b e^{-(x_a - x_b) / alpha}``
    follow ``L_a = e^{-(x_a - x_{a-1}) / alpha} (L_{a-1} + T_{a-1})``, where
    ``T`` is the total of a group of tied positions, and the strictly-right
    sums ``R_a`` mirror them.  Then ``dH/dpt_a = (L_a + R_a + T_a) / (2 alpha)``
    and ``-dH/dq_a = pt_a (L_a - R_a) / (2 alpha^2)``, so tied points exert
    no force on each other (``G'(0) = 0``).  A non-finite position makes
    every entry NaN.
    """
    a = len(x)
    if not all(map(math.isfinite, x)):
        return [math.nan] * (2 * a)
    order = sorted(range(a), key=x.__getitem__)
    xs = [x[i] for i in order]
    ps = [pt[i] for i in order]
    left = [0.0] * a
    total = ps[:]  # a lone point is its own group total
    decay = [1.0] * a
    carry, group, start = 0.0, ps[0], 0
    for i in range(1, a):
        if xs[i] != xs[i - 1]:
            f = decay[i] = math.exp((xs[i - 1] - xs[i]) / alpha)
            if i - start > 1:
                total[start:i] = [group] * (i - start)
            carry = f * (carry + group)
            group, start = ps[i], i
        else:
            group += ps[i]
        left[i] = carry
    if a - start > 1:
        total[start:] = [group] * (a - start)
    right = [0.0] * a
    carry = 0.0
    for i in range(a - 1, 0, -1):
        if xs[i] != xs[i - 1]:
            carry = decay[i] * (carry + total[i])
        right[i - 1] = carry
    out = [0.0] * (2 * a)
    two_alpha, two_alpha2 = 2.0 * alpha, 2.0 * alpha * alpha
    for j, p, l, r, t in zip(order, ps, left, right, total):
        out[j] = (l + r + t) / two_alpha
        out[a + j] = p * (l - r) / two_alpha2
    return out


def _exp1d_rows(x: np.ndarray, pt: np.ndarray, alpha: float) -> np.ndarray:
    """dH/dpt from ``_exp1d_scan`` at each row of (T, A) positions and momenta, bit for bit: (T, A).

    Its operations in its order, over all rows at once: a stable sort (the
    tie order of ``sorted``), ``math.exp`` (``np.exp`` may differ in the last
    bit), and loops over the A sorted positions.  At a tie the recurrences
    multiply by e^0 = 1 and add -0.0, which keeps every double.
    """
    t, a = x.shape
    bad = ~np.isfinite(x).all(axis=1)
    x = np.where(bad[:, None], 0.0, x).T
    order = np.argsort(x, axis=0, kind="stable")
    cols = np.arange(t)
    xs, ps = x[order, cols], pt.T[order, cols]
    tie = xs[1:] == xs[:-1]
    gaps = (xs[:-1] - xs[1:]) / alpha
    decay = np.array(list(map(math.exp, gaps.ravel().tolist()))).reshape(gaps.shape)  # 1 at a tie
    total = ps.copy()
    tied = np.flatnonzero(tie.any(axis=1)) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in tied:  # running sums over tied neighbours, then filled back over each group
            np.add(total[i - 1], ps[i], out=total[i], where=tie[i - 1])
        for i in tied[::-1]:
            np.copyto(total[i - 1], total[i], where=tie[i - 1])
        # the left sums run forward and the right sums backward, side by side: one step does both
        steps = np.stack([np.where(tie, -0.0, total[:-1]), np.where(tie, -0.0, total[1:])[::-1]], axis=1)
        sums = np.zeros((a, 2, t))
        rows = list(sums)
        for prev, cur, step, f in zip(rows, rows[1:], steps, np.stack([decay, decay[::-1]], axis=1)):
            np.add(prev, step, out=cur)
            np.multiply(cur, f, out=cur)
        left, right = sums[:, 0], sums[::-1, 1]
        field = np.empty((a, t))
        field[order, cols] = (left + right + total) / (2.0 * alpha)
    field[:, bad] = math.nan
    return field.T


def _half_fsum(terms, fsum=math.fsum) -> float:
    """Half the exactly rounded sum; NaN where ``math.fsum`` overflows or meets ``inf - inf``.

    ``fsum`` is ``math.fsum``, or ``fields._fsum_blocks`` of blocks, which returns the same double.
    """
    try:
        return 0.5 * fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _hamiltonians(alpha: float, q: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H at each state of a (T, A, d) stack of positions and covectors with weights ``w``.

    H is taken in the canonical variables ``(Q, P w)``, as the steppers see
    it, in blocks of rows.  On the line: ``1/2 sum_a pt_a dH/dpt_a`` after
    one row scan per block.  Otherwise gaussian pair terms; they are bitwise
    symmetric, so the exactly rounded sum (``fields._fsum_blocks``) of two
    blocks, the doubled strict upper triangle and the diagonal, is exactly
    the full-matrix one.
    """
    t, a, d = q.shape
    out = np.empty(t)
    if d == 1:
        rows = max(1, _BLOCK_POINTS // a)
        for start in range(0, t, rows):
            block = slice(start, start + rows)
            pt = p[block, :, 0] * w
            with np.errstate(over="ignore", invalid="ignore"):
                terms = pt * _exp1d_rows(q[block, :, 0], pt, alpha)
            out[block] = [_half_fsum(row) for row in terms.tolist()]
        return out
    rows = max(1, _BLOCK_PAIRS // (a * a))
    upper = np.triu(np.ones((a, a), dtype=bool), 1)
    for start in range(0, t, rows):
        block = slice(start, start + rows)
        terms = _pair_terms(alpha, q[block], p[block] * w[:, None])
        doubled = terms[:, upper]
        doubled *= 2.0
        diagonal = np.diagonal(terms, axis1=1, axis2=2).copy()
        del terms  # the row sums' temporaries come on top of what is alive here
        out[block] = [_half_fsum(lambda: (u, d), _fsum_blocks) for u, d in zip(doubled, diagonal)]
    return out


def collective_hamiltonian(st: SingularState) -> float:
    """``1/2 sum_{a,b} (P_a . P_b) G(Q_a - Q_b) w_a w_b`` (order-independent sum)."""
    return float(_hamiltonians(st.alpha, st.q[None], st.p[None], st.weights)[0])


def _canonical_point(st: SingularState) -> np.ndarray:
    """The state as one flat vector in the canonical variables (Q, P w)."""
    return np.concatenate([st.q.ravel(), (st.p * st.weights[:, None]).ravel()])


def _collective_observable(template: SingularState) -> Observable:
    """The Hamiltonian as a function of the canonical variables (Q, P w).

    Rescaling the covectors by the weights makes the weighted N-body system
    canonical, so the generic symplectic steppers apply unchanged.
    """
    a, d = template.count, template.dim
    alpha = template.alpha
    unit = np.ones(a)

    def value(z: np.ndarray):
        qp = z.reshape(-1, 2, a, d)
        return _hamiltonians(alpha, qp[:, 0], qp[:, 1], unit).reshape(z.shape[:-1])

    def exp1d_field(u: list) -> list:
        return _exp1d_scan(u[:a], u[a:], alpha)

    def gradient(z: np.ndarray):
        if d == 1:
            x = np.array([exp1d_field(row) for row in z.reshape(-1, 2 * a).tolist()]).reshape(z.shape)
            # negation is exact: these are the bits of dH/dq and dH/dpt
            return np.concatenate([-x[..., a:], x[..., :a]], axis=-1)
        head = z.shape[:-1]
        q, pt = z[..., : a * d].reshape(head + (a, d)), z[..., a * d :].reshape(head + (a, d))
        g, u = _kernel(alpha, _differences(q))
        c = pt @ np.swapaxes(pt, -1, -2)
        c *= g
        dq_grad = np.einsum("...ab,i...ab->...ai", c, u)
        dpt_grad = g @ pt
        return np.concatenate(
            [dq_grad.reshape(head + (a * d,)), dpt_grad.reshape(head + (a * d,))], axis=-1
        )

    float_field = exp1d_field if d == 1 else None
    return Observable(value, gradient, name="collective", float_field=float_field)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled collective flow: times plus (Q, P) at each step.

    ``q`` and ``p`` have shape (steps + 1, A, d); the weights and the kernel
    length scale ``alpha`` are constant along the flow.  ``chain=True``
    marks filament trajectories.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    weights: np.ndarray
    alpha: float
    chain: bool = False

    def __len__(self) -> int:
        return self.times.shape[0]

    def hamiltonians(self) -> np.ndarray:
        """``collective_hamiltonian`` at each time."""
        return _hamiltonians(self.alpha, self.q, self.p, self.weights)

    def total_momenta(self) -> np.ndarray:
        """``sum_a P_a w_a`` at each time, shape (steps + 1, d)."""
        return _weighted_totals(self.p, self.weights)

    def filament_currents(self) -> np.ndarray:
        """Per-node current ``<P, D_s Q>`` at each time, shape (steps + 1, A)."""
        if not self.chain:
            raise ValueError("currents are defined only for filament (chain) trajectories")
        return _chain_current(self.q, self.p)

    def jr_drifts(self) -> np.ndarray:
        """Relative max-node drift of the current from its initial value.

        Zero by convention for point (non-chain) states, where the chain
        current does not exist.
        """
        if not self.chain:
            return np.zeros(len(self))
        m = self.filament_currents()
        scale = float(np.max(np.abs(m[0])))
        if scale == 0.0:
            scale = 1.0
        return np.max(np.abs(m - m[0]), axis=1) / scale


def _chain_current(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    a = q.shape[-2]
    dq = (np.roll(q, -1, axis=-2) - np.roll(q, 1, axis=-2)) * (a / 2.0)
    return np.einsum("...ai,...ai->...a", p, dq)


def integrate(st: SingularState, spec: FlowSpec) -> Trajectory:
    """Run the collective flow; implicit midpoint is the intended default.

    Raises :class:`~dualpairs.errors.SolverDivergenceError` (with the step
    index) if an implicit solve fails to contract, e.g. near collision with
    a gaussian kernel at large dt.
    """
    a, d = st.count, st.dim
    path = flow(_collective_observable(st), _canonical_point(st), spec)
    steps = path.shape[0]
    q = path[:, : a * d].reshape(steps, a, d)
    pt = path[:, a * d :].reshape(steps, a, d)
    p = np.divide(pt, st.weights[:, None], out=pt)  # in place: the path is the trajectory's only copy
    times = np.arange(steps) * spec.dt
    return Trajectory(
        times=times,
        q=q,
        p=p,
        weights=st.weights,
        alpha=st.alpha,
        chain=isinstance(st, FilamentState),
    )


# -- momentum pairings and the chain action ------------------------------------


def pair_with_field(st: SingularState, x_field) -> float:
    """Pair the point-supported momentum with a vector field on the target.

    ``x_field`` is either a callable mapping an (A, d) array of positions to
    an (A, d) array of vectors, or a constant d-vector.  Returns
    ``sum_a <P_a, X(Q_a)> w_a`` as an order-independent sum.
    """
    if callable(x_field):
        xv = np.asarray(x_field(st.q), dtype=float)
        if xv.shape != st.q.shape:
            raise ValueError(f"field values shape {xv.shape} != {st.q.shape}")
    else:
        xv = np.broadcast_to(np.asarray(x_field, dtype=float), st.q.shape)
    terms = np.einsum("ai,ai->a", st.p, xv) * st.weights
    return _fsum(terms)


def filament_current(st: FilamentState) -> np.ndarray:
    """Per-node ``<P_a, D_s Q_a>`` with centered periodic differences.

    This is the momentum density on the chain; it is conserved nodewise by
    the collective flow up to O(dt^2) time-stepping and O(A^-2) differencing
    error, and permutes exactly under chain rotations.
    """
    if not isinstance(st, FilamentState):
        raise ValueError("the chain current needs an ordered (filament) state")
    return _chain_current(st.q, st.p)


def reparametrize(st: SingularState, shift: int) -> SingularState:
    """Rotate the support labels by the integer ``shift`` (an exact chain diffeomorphism).

    Pure array relabeling: sums over the support (Hamiltonian, pairings
    with target fields) are exactly invariant, and the chain current of a
    filament rotates by the same shift bit for bit.
    """
    shift = _integer(shift, "shift must be an integer")
    return replace(st, q=np.roll(st.q, -shift, axis=0), p=np.roll(st.p, -shift, axis=0))


# -- serialization --------------------------------------------------------------


def write_trajectory_csv(path, traj: Trajectory) -> np.ndarray:
    """One row per step: t, flattened Q, flattened P, H, total momentum, jr drift.

    Returns the H column, so callers need not compute it again.  A non-finite
    H raises :class:`~dualpairs.errors.SolverDivergenceError` at its first
    step, before the file is opened.
    """
    a, d = traj.q.shape[1], traj.q.shape[2]
    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(a * d)]
        + [f"p_{i + 1}" for i in range(a * d)]
        + ["H"]
        + [f"Ptot_{i + 1}" for i in range(d)]
        + ["jr_drift"]
    )
    energies = traj.hamiltonians()
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        raise SolverDivergenceError(bad[0], f"the Hamiltonian is not finite at step {bad[0]}")
    momenta = traj.total_momenta()
    drifts = traj.jr_drifts()
    flat = (len(traj), a * d)
    # one format call per row, converted row by row: "%.17g" is format_float's format
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    rows = zip(traj.times, traj.q.reshape(flat), traj.p.reshape(flat), energies, momenta, drifts)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(
            line % (t, *q.tolist(), *p.tolist(), h, *m.tolist(), drift)
            for t, q, p, h, m, drift in rows
        )
    return energies
