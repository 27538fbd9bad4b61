"""Exact rational Poisson algebra on polynomial observables.

Coefficients are exact rationals with no floating-point fallback: the
cocycle identities and the central-extension isomorphism are verified with
zero numerical error.  Polynomials live on phase space R^(2n) with variables
named ``q1..qn, p1..pn``.

Representation: one positive common denominator and a dict from packed
exponents to int numerators, normalised so that the denominator and the
numerators share no factor (``==`` and ``hash`` are canonical).  A packed
exponent holds variable ``i`` in bits ``16 i .. 16 i + 15``, so multiplying
monomials is one int addition and ``diff`` is a shift, a mask and one int
multiply.  The top bit of each field is a guard: exponents are at most
``MAX_EXPONENT``, the validating constructor rejects larger ones, and a
product that reaches a guard bit raises ``OverflowError`` instead of
carrying into the next variable.  The public surface still speaks exponent
tuples and :class:`Fraction` coefficients.

Bracket conventions (shared with :mod:`dualpairs.symplectic`):
``{g, h} = sum_i (dg/dq^i dh/dp_i - dg/dp_i dh/dq^i)``.  The Jacobi-Lie
bracket of Hamiltonian fields then satisfies ``[X_g, X_h] = -X_{{g, h}}``,
so the bracket that turns ``h -> X_h`` into a Lie algebra *homomorphism* is
the opposite one; :func:`extended_bracket` uses that opposite bracket (its
field part is ``X_{omega(X_a, X_b)}``), while :func:`jacobi_lie_bracket`
exposes the plain vector-field bracket for the sign-consistency checks.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .symplectic import Observable

__all__ = [
    "MAX_EXPONENT",
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
Terms = dict[int, int]

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _pack(index: Iterable[int], nvars: int) -> int:
    index = tuple(map(int, index))
    if len(index) != nvars or min(index) < 0 or max(index) > MAX_EXPONENT:
        raise ValueError(
            f"bad exponent multi-index {index} for nvars={nvars} (exponents 0..{MAX_EXPONENT})"
        )
    key = 0
    for e in reversed(index):
        key = (key << _WIDTH) | e
    return key


def _numerators(coeffs: dict[int, Fraction]) -> tuple[Terms, int]:
    """Fractions as numerators over their lcm, which shares no factor with all of them."""
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den


def _checked_nvars(nvars: int) -> int:
    if nvars < 2 or nvars % 2 != 0:
        raise ValueError(f"nvars must be even and >= 2, got {nvars}")
    return int(nvars)


def _unpack(key: int, nvars: int) -> Index:
    return tuple((key >> shift) & _FIELD for shift in range(0, _WIDTH * nvars, _WIDTH))


@functools.cache
def _guard(nvars: int) -> int:
    return sum(1 << (_WIDTH * j + _WIDTH - 1) for j in range(nvars))


class RationalPoly:
    """Multivariate polynomial with exact rational coefficients.

    Stored as int numerators over one common denominator, keyed by packed
    exponents (see the module docstring); ``items`` presents them as
    exponent tuples and :class:`Fraction` values.
    Instances are immutable values; all arithmetic is exact.
    """

    __slots__ = ("nvars", "_terms", "_den")

    def __init__(self, nvars: int, terms: Mapping[Index, Fraction] | None = None):
        self.nvars = _checked_nvars(nvars)
        clean: dict[int, Fraction] = {}
        for index, coeff in (terms or {}).items():
            key = _pack(index, self.nvars)
            c = _as_fraction(coeff)
            if c != 0:
                accumulated = clean.get(key, Fraction(0)) + c
                if accumulated != 0:
                    clean[key] = accumulated
                else:
                    clean.pop(key, None)
        self._terms, self._den = _numerators(clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: Terms, den: int = 1) -> "RationalPoly":
        """Take ownership of numerators over ``den > 0`` built in this module.

        Drops zero numerators and divides out the common factor; the checks
        of ``__init__`` are for outside input and would re-validate every
        intermediate result.
        """
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        # A loop, not gcd(den, *values): building a tuple of varying length
        # per result made peak RSS creep up over repeated suite runs.
        common = den
        for c in terms.values():
            common = math.gcd(common, c)
            if common == 1:
                break
        if common != 1:
            den //= common
            terms = {key: c // common for key, c in terms.items()}
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        poly._den = den
        return poly

    # -- constructors -------------------------------------------------

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

    def items(self) -> list[tuple[Index, Fraction]]:
        nvars, den = self.nvars, self._den
        return [(_unpack(key, nvars), Fraction(c, den)) for key, c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

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
        den = math.lcm(self._den, other._den)
        scale = den // self._den
        terms = {key: c * scale for key, c in self._terms.items()}
        get, scale = terms.get, den // other._den
        for key, c in other._terms.items():
            terms[key] = get(key, 0) + c * scale
        return RationalPoly._trusted(self.nvars, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._trusted(
            self.nvars, {key: -c for key, c in self._terms.items()}, self._den
        )

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
            terms = {key: v * c.numerator for key, v in self._terms.items()}
            return RationalPoly._trusted(self.nvars, terms, self._den * c.denominator)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._require_same_vars(other)
        return _combine(self.nvars, [(1, self._terms, other._terms, self._den * other._den)])

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
        return (
            self.nvars == other.nvars and self._den == other._den and self._terms == other._terms
        )

    def __hash__(self):
        # Constants compare equal to their int/Fraction value, so they must
        # hash like it too.
        if self._terms.keys() <= {0}:
            return hash(Fraction(self._terms.get(0, 0), self._den))
        return hash((self.nvars, self._den, frozenset(self._terms.items())))

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "RationalPoly":
        """Exact partial derivative with respect to variable ``i``."""
        i = range(self.nvars)[i]
        return RationalPoly._trusted(self.nvars, _diff_terms(self._terms, i), self._den)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        pt = [_as_fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.nvars}")
        if not any(pt):
            return Fraction(self._terms.get(0, 0), self._den)
        # x_j = a_j / scale; each term c * prod a_j^e_j / scale^deg is
        # brought to the common denominator den * scale^top.
        scale = math.lcm(*(x.denominator for x in pt))
        coords = [
            (shift, x.numerator * (scale // x.denominator))
            for shift, x in zip(range(0, _WIDTH * self.nvars, _WIDTH), pt)
        ]
        values = []
        for key, c in self._terms.items():
            degree = 0
            for shift, a in coords:
                e = (key >> shift) & _FIELD
                if e:
                    c *= a**e
                    degree += e
            values.append((c, degree))
        top = max((degree for _, degree in values), default=0)
        total = sum(c * scale ** (top - degree) for c, degree in values)
        return Fraction(total, self._den * scale**top)

    # -- presentation ------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Index, Fraction]]:
        # Graded lexicographic, highest first: total degree, then exponent
        # tuple.  Deterministic, used for the canonical text form.
        return sorted(self.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

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


def _diff_terms(terms: Terms, i: int) -> Terms:
    """Numerators of ``d/dx_i`` over the same denominator (not normalised)."""
    shift = _WIDTH * i
    unit = 1 << shift
    out = {}
    for key, c in terms.items():
        e = (key >> shift) & _FIELD
        if e:
            out[key - unit] = c * e
    return out


def _combine(nvars: int, products) -> RationalPoly:
    """``sum sign * a * b / den`` over ``(sign, a, b, den)`` numerator products.

    Every product is scaled to the lcm of the ``den``s and accumulated into
    one dict, in the order its monomials first appear.  Raises
    ``OverflowError`` if a surviving exponent reaches a guard bit, i.e.
    before any field could carry into the next.
    """
    den = math.lcm(*[d for _, _, _, d in products])
    terms: Terms = {}
    get = terms.get
    for sign, a, b, d in products:
        scale = sign * (den // d)
        for k1, c1 in a.items():
            c1 *= scale
            for k2, c2 in b.items():
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
    poly = RationalPoly._trusted(nvars, terms, den)
    if any(map(_guard(nvars).__and__, poly._terms)):
        raise OverflowError(f"a product has an exponent above MAX_EXPONENT={MAX_EXPONENT}")
    return poly


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
    dg = [_diff_terms(g._terms, i) for i in range(g.nvars)]
    dh = [_diff_terms(h._terms, i) for i in range(h.nvars)]
    den = g._den * h._den
    products = []
    for i in range(n):
        products.append((1, dg[i], dh[n + i], den))
        products.append((-1, dg[n + i], dh[i], den))
    return _combine(g.nvars, products)


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
    products = []
    for i in range(n):
        products.append((1, X[i]._terms, Y[n + i]._terms, X[i]._den * Y[n + i]._den))
        products.append((-1, X[n + i]._terms, Y[i]._terms, X[n + i]._den * Y[i]._den))
    return _combine(nvars, products)


def jacobi_lie_bracket(
    X: Sequence[RationalPoly], Y: Sequence[RationalPoly]
) -> tuple[RationalPoly, ...]:
    """Plain vector-field bracket ``[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i``."""
    nvars = _check_field(X)
    if _check_field(Y) != nvars:
        raise ValueError("fields live on different phase spaces")
    out = []
    for i in range(nvars):
        products = []
        for j in range(nvars):
            products.append((1, X[j]._terms, _diff_terms(Y[i]._terms, j), X[j]._den * Y[i]._den))
            products.append((-1, Y[j]._terms, _diff_terms(X[i]._terms, j), Y[j]._den * X[i]._den))
        out.append(_combine(nvars, products))
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


def random_poly(rng: random.Random, nvars: int, max_degree: int = 4) -> RationalPoly:
    """Seeded random polynomial of five drawn terms with small rational coefficients.

    Used by the verification suites and the property tests; exactness is
    unaffected by the distribution details.
    """
    out: dict[int, Fraction] = {}
    for _ in range(5):
        degree = rng.randint(0, max_degree)
        index = [0] * nvars
        for _ in range(degree):
            index[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        key = _pack(index, nvars)
        out[key] = out.get(key, Fraction(0)) + coeff
    return RationalPoly._trusted(_checked_nvars(nvars), *_numerators(out))
