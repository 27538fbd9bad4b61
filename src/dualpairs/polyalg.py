"""Exact rational Poisson algebra on polynomial observables.

Everything in this module is computed over ``fractions.Fraction`` with no
floating-point fallback: the cocycle identities and the central-extension
isomorphism are verified with zero numerical error.  Polynomials live on
phase space R^(2n) with variables named ``q1..qn, p1..pn``.

Bracket conventions (shared with :mod:`dualpairs.symplectic`):
``{g, h} = sum_i (dg/dq^i dh/dp_i - dg/dp_i dh/dq^i)``.  The Jacobi-Lie
bracket of Hamiltonian fields then satisfies ``[X_g, X_h] = -X_{{g, h}}``,
so the bracket that turns ``h -> X_h`` into a Lie algebra *homomorphism* is
the opposite one; :func:`extended_bracket` uses that opposite bracket (its
field part is ``X_{omega(X_a, X_b)}``), while :func:`jacobi_lie_bracket`
exposes the plain vector-field bracket for the sign-consistency checks.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .symplectic import Observable

__all__ = [
    "ExtendedElement",
    "RationalPoly",
    "central_cocycle",
    "cocycle_identity_residual",
    "extended_bracket",
    "field_omega",
    "hamiltonian_field",
    "is_hamiltonian_field",
    "jacobi_lie_bracket",
    "normalize_at",
    "opposite_bracket",
    "poisson_bracket",
    "random_poly",
    "to_extension",
]

Index = tuple[int, ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class RationalPoly:
    """Multivariate polynomial with exact rational coefficients.

    Stored as a map from exponent multi-indices (tuples of length ``nvars``)
    to nonzero :class:`Fraction` coefficients.  Instances are immutable
    values; all arithmetic is exact.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Index, Fraction] | None = None):
        if nvars < 2 or nvars % 2 != 0:
            raise ValueError(f"nvars must be even and >= 2, got {nvars}")
        self.nvars = int(nvars)
        clean: dict[Index, Fraction] = {}
        for index, coeff in (terms or {}).items():
            index = tuple(int(e) for e in index)
            if len(index) != nvars or any(e < 0 for e in index):
                raise ValueError(f"bad exponent multi-index {index} for nvars={nvars}")
            c = _as_fraction(coeff)
            if c != 0:
                accumulated = clean.get(index, Fraction(0)) + c
                if accumulated != 0:
                    clean[index] = accumulated
                else:
                    clean.pop(index, None)
        self._terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Index, Fraction]) -> "RationalPoly":
        """Wrap terms this module built itself: valid indices, Fraction values.

        Only zero coefficients are dropped; the checks of ``__init__`` are
        for outside input and would re-validate every intermediate result.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = {ix: c for ix, c in terms.items() if c}
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "RationalPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "RationalPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "RationalPoly":
        """The coordinate function x_i (0-based; q's first, then p's)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        index = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {index: Fraction(1)})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterable[tuple[Index, Fraction]]:
        return self._terms.items()

    def coefficient(self, index: Index) -> Fraction:
        return self._terms.get(tuple(index), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(sum(ix) for ix in self._terms)

    # -- ring operations -------------------------------------------------

    def _require_same_vars(self, other: "RationalPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.nvars)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._require_same_vars(other)
        terms = dict(self._terms)
        for ix, c in other._terms.items():
            old = terms.get(ix)
            terms[ix] = c if old is None else old + c
        return RationalPoly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._trusted(self.nvars, {ix: -c for ix, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.nvars)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return RationalPoly._trusted(self.nvars, {ix: c * v for ix, v in self._terms.items()})
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._require_same_vars(other)
        return RationalPoly._trusted(self.nvars, _mul_acc({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if int(exponent) != exponent or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        out = RationalPoly.constant(1, self.nvars)
        for _ in range(int(exponent)):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.nvars)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        # Constants compare equal to their int/Fraction value, so they must
        # hash like it too.
        if self.degree() <= 0:
            return hash(self.coefficient((0,) * self.nvars))
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "RationalPoly":
        """Exact partial derivative with respect to variable ``i``."""
        terms: dict[Index, Fraction] = {}
        for ix, c in self._terms.items():
            e = ix[i]
            if e == 0:
                continue
            down = list(ix)
            down[i] = e - 1
            terms[tuple(down)] = c * e
        return RationalPoly._trusted(self.nvars, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        pt = [_as_fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.nvars}")
        total = Fraction(0)
        for ix, c in self._terms.items():
            term = c
            for x, e in zip(pt, ix):
                if e:
                    term *= x**e
            total += term
        return total

    # -- presentation ------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Index, Fraction]]:
        # Graded lexicographic, highest first: total degree, then exponent
        # tuple.  Deterministic, used for the canonical text form.
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _var_name(self, i: int) -> str:
        n = self.nvars // 2
        return f"q{i + 1}" if i < n else f"p{i - n + 1}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for ix, c in self._sorted_terms():
            factors = [str(c)]
            for i, e in enumerate(ix):
                if e == 1:
                    factors.append(self._var_name(i))
                elif e > 1:
                    factors.append(f"{self._var_name(i)}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RationalPoly({self})"

    # -- floating adapter ----------------------------------------------------

    def observable(self) -> Observable:
        """Floating-point :class:`Observable` with analytic gradient.

        The value and every partial derivative are evaluated from the exact
        coefficients converted to float once; vectorized over stacked points.
        """
        value = _float_evaluator(self)
        partials = [_float_evaluator(self.diff(i)) for i in range(self.nvars)]

        def gradient(m: np.ndarray) -> np.ndarray:
            m = np.asarray(m, dtype=float)
            out = np.empty_like(m)
            for i, partial in enumerate(partials):
                out[..., i] = partial(m)
            return out

        return Observable(value, gradient, name=str(self))


def _mul_acc(
    terms: dict[Index, Fraction], a: RationalPoly, b: RationalPoly, sign: int = 1
) -> dict[Index, Fraction]:
    """Accumulate ``sign * a * b`` into ``terms`` in place (zeros are kept)."""
    add, get = operator.add, terms.get
    for ix1, c1 in a._terms.items():
        c1 = c1 if sign > 0 else -c1
        for ix2, c2 in b._terms.items():
            ix = tuple(map(add, ix1, ix2))
            old = get(ix)
            terms[ix] = c1 * c2 if old is None else old + c1 * c2
    return terms


def _float_evaluator(poly: RationalPoly):
    if poly.is_zero():
        return lambda m: np.zeros(np.asarray(m).shape[:-1], dtype=float)
    exps = np.array([ix for ix, _ in poly.items()], dtype=int)
    coeffs = np.array([float(c) for _, c in poly.items()], dtype=float)

    def value(m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        mono = np.ones(m.shape[:-1] + (len(coeffs),), dtype=float)
        for j in range(m.shape[-1]):
            e = exps[:, j]
            if e.any():
                mono *= m[..., j : j + 1] ** e
        return np.einsum("...t,t->...", mono, coeffs)

    return value


# -- helpers for building polynomials ----------------------------------------


def q_var(i: int, n: int) -> RationalPoly:
    """The coordinate q_i (1-based) on R^(2n)."""
    return RationalPoly.variable(i - 1, 2 * n)


def p_var(i: int, n: int) -> RationalPoly:
    """The coordinate p_i (1-based) on R^(2n)."""
    return RationalPoly.variable(n + i - 1, 2 * n)


def _origin(nvars: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * nvars


def _as_base_point(m0, nvars: int) -> tuple[Fraction, ...]:
    if m0 is None:
        return _origin(nvars)
    pt = tuple(_as_fraction(x) for x in m0)
    if len(pt) != nvars:
        raise ValueError(f"base point has {len(pt)} coordinates, expected {nvars}")
    return pt


# -- Poisson algebra ----------------------------------------------------------


def poisson_bracket(g: RationalPoly, h: RationalPoly) -> RationalPoly:
    """Exact canonical bracket ``sum_i (dg/dq^i dh/dp_i - dg/dp_i dh/dq^i)``."""
    g._require_same_vars(h)
    n = g.nvars // 2
    terms: dict[Index, Fraction] = {}
    for i in range(n):
        _mul_acc(terms, g.diff(i), h.diff(n + i))
        _mul_acc(terms, g.diff(n + i), h.diff(i), -1)
    return RationalPoly._trusted(g.nvars, terms)


def normalize_at(h: RationalPoly, m0=None) -> RationalPoly:
    """Subtract ``h(m0)`` so the result vanishes at the base point.

    The Hamiltonian vector field is unchanged; ``m0`` defaults to the origin.
    """
    return h - h.evaluate(_as_base_point(m0, h.nvars))


def central_cocycle(g: RationalPoly, h: RationalPoly, m0=None) -> Fraction:
    """The central 2-cocycle value ``-{g, h}(m0)`` (exact).

    Depends on g and h only through their Hamiltonian fields: adding
    constants changes nothing.
    """
    return -poisson_bracket(g, h).evaluate(_as_base_point(m0, g.nvars))


def hamiltonian_field(h: RationalPoly) -> tuple[RationalPoly, ...]:
    """``X_h = (dh/dp_1.., -dh/dq_1..)`` as a tuple of polynomial components."""
    n = h.nvars // 2
    return tuple(h.diff(n + i) for i in range(n)) + tuple(-h.diff(i) for i in range(n))


def _check_field(X: Sequence[RationalPoly]) -> int:
    if not X or len(X) % 2 != 0:
        raise ValueError("a field needs an even number of polynomial components")
    nvars = X[0].nvars
    if len(X) != nvars or any(c.nvars != nvars for c in X):
        raise ValueError("field components must all live on the same phase space")
    return nvars


def is_hamiltonian_field(X: Sequence[RationalPoly]) -> bool:
    """Whether ``i_X omega`` is closed (symmetric mixed partials), exactly.

    For ``X = (A, B)`` the contraction is ``sum_i A^i dp_i - B_i dq^i``;
    closedness is equivalent to X being the Hamiltonian field of some
    polynomial.
    """
    nvars = _check_field(X)
    n = nvars // 2
    theta = [-X[n + i] for i in range(n)] + [X[i] for i in range(n)]
    for a in range(nvars):
        for b in range(a + 1, nvars):
            if theta[a].diff(b) != theta[b].diff(a):
                return False
    return True


def field_omega(X: Sequence[RationalPoly], Y: Sequence[RationalPoly]) -> RationalPoly:
    """``omega(X, Y)`` as a polynomial: ``sum_i (X_q^i Y_p_i - X_p_i Y_q^i)``."""
    nvars = _check_field(X)
    if _check_field(Y) != nvars:
        raise ValueError("fields live on different phase spaces")
    n = nvars // 2
    terms: dict[Index, Fraction] = {}
    for i in range(n):
        _mul_acc(terms, X[i], Y[n + i])
        _mul_acc(terms, X[n + i], Y[i], -1)
    return RationalPoly._trusted(nvars, terms)


def jacobi_lie_bracket(
    X: Sequence[RationalPoly], Y: Sequence[RationalPoly]
) -> tuple[RationalPoly, ...]:
    """Plain vector-field bracket ``[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i``."""
    nvars = _check_field(X)
    if _check_field(Y) != nvars:
        raise ValueError("fields live on different phase spaces")
    out = []
    for i in range(nvars):
        terms: dict[Index, Fraction] = {}
        for j in range(nvars):
            _mul_acc(terms, X[j], Y[i].diff(j))
            _mul_acc(terms, Y[j], X[i].diff(j), -1)
        out.append(RationalPoly._trusted(nvars, terms))
    return tuple(out)


def opposite_bracket(
    X: Sequence[RationalPoly], Y: Sequence[RationalPoly]
) -> tuple[RationalPoly, ...]:
    """The opposite of the Jacobi-Lie bracket, ``[X, Y]_op = [Y, X]``.

    On Hamiltonian fields this equals ``X_{omega(X, Y)}``, which is the
    bracket under which ``h -> X_h`` is a Lie algebra homomorphism.
    """
    return jacobi_lie_bracket(Y, X)


@dataclass(frozen=True)
class ExtendedElement:
    """Element ``(X, c)`` of the centrally extended algebra.

    ``field_part`` is a Hamiltonian polynomial field (2n components) and
    ``central_part`` an exact rational, the value of the central term.
    """

    field_part: tuple[RationalPoly, ...]
    central_part: Fraction

    def __post_init__(self):
        object.__setattr__(self, "field_part", tuple(self.field_part))
        _check_field(self.field_part)
        object.__setattr__(self, "central_part", _as_fraction(self.central_part))


def to_extension(h: RationalPoly, m0=None) -> ExtendedElement:
    """The splitting isomorphism ``h -> (X_h, -h(m0))``."""
    return ExtendedElement(hamiltonian_field(h), -h.evaluate(_as_base_point(m0, h.nvars)))


def extended_bracket(a: ExtendedElement, b: ExtendedElement, m0=None) -> ExtendedElement:
    """Bracket on the central extension.

    Field part: the opposite Jacobi-Lie bracket of the two fields (see module
    docstring for why the opposite sign is the homomorphism convention);
    central part: ``-omega(X_a, X_b)(m0)``.  Bilinear and antisymmetric;
    non-Hamiltonian field parts are rejected.
    """
    for el in (a, b):
        if not is_hamiltonian_field(el.field_part):
            raise ValueError("extended_bracket requires Hamiltonian field parts")
    nvars = a.field_part[0].nvars
    omega_ab = field_omega(a.field_part, b.field_part)
    central = -omega_ab.evaluate(_as_base_point(m0, nvars))
    return ExtendedElement(opposite_bracket(a.field_part, b.field_part), central)


def cocycle_identity_residual(
    g: RationalPoly, h: RationalPoly, k: RationalPoly, m0=None
) -> Fraction:
    """Cyclic sum ``sigma([X_g, X_h]_op, X_k) + cyclic`` (exact; always 0).

    ``sigma(X, Y) = -omega(X, Y)(m0)`` and the bracket is the extension's
    field-part bracket, so this is precisely the 2-cocycle identity.
    """
    base = _as_base_point(m0, g.nvars)
    fields = [hamiltonian_field(f) for f in (g, h, k)]

    def sigma(X, Y) -> Fraction:
        return -field_omega(X, Y).evaluate(base)

    total = Fraction(0)
    for i in range(3):
        X, Y, Z = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
        total += sigma(opposite_bracket(X, Y), Z)
    return total


def random_poly(
    rng: random.Random,
    nvars: int,
    max_degree: int = 4,
    terms: int = 5,
) -> RationalPoly:
    """Seeded random polynomial with small rational coefficients.

    Used by the verification suites and the property tests; exactness is
    unaffected by the distribution details.
    """
    out: dict[Index, Fraction] = {}
    for _ in range(terms):
        degree = rng.randint(0, max_degree)
        index = [0] * nvars
        for _ in range(degree):
            index[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        key = tuple(index)
        out[key] = out.get(key, Fraction(0)) + coeff
    return RationalPoly(nvars, out)
