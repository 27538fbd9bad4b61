"""Independent oracle for the exact polynomial algebra.

Three checks that do not trust the module's own fused formulas:

* property tests (hypothesis) of the bracket axioms, the cocycle identity
  and ``[X_g, X_h] = -X_{{g, h}}`` on drawn polynomials in one or two
  canonical pairs;
* reference chain-of-operators versions of ``poisson_bracket``,
  ``field_omega`` and ``jacobi_lie_bracket``, kept only here, which the
  fused single-dict versions must equal exactly;
* every polynomial the module builds without validation must hold no zero
  coefficient and survive a rebuild through the validating constructor;
* a plain ``Fraction``-dict algebra on exponent tuples (``+``, ``*``,
  ``diff``, the bracket and evaluation), kept only here, which the module's
  packed-exponent, common-denominator results must equal term by term and
  in the same order;
* the per-variable ``pow`` loop the float evaluator of
  :meth:`RationalPoly.observable` ran before it shared each power, kept only
  here, which the shared-power evaluator must equal bit for bit.
"""

import operator

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.polyalg import (
    MAX_EXPONENT,
    RationalPoly,
    central_cocycle,
    cocycle_identity_residual,
    field_omega,
    hamiltonian_field,
    jacobi_lie_bracket,
    poisson_bracket,
    random_poly,
)

# Deterministic examples keep Tier-1 reproducible; no example database is
# written next to the sources.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def polys(draw, nvars, max_exponent=2, max_terms=4):
    index = st.tuples(*[st.integers(0, max_exponent)] * nvars)
    return RationalPoly(nvars, draw(st.dictionaries(index, coefficients, max_size=max_terms)))


def triples():
    return st.sampled_from((2, 4)).flatmap(lambda nvars: st.tuples(*[polys(nvars)] * 3))


def triples_and_points():
    """Three polynomials and a rational base point on the same phase space."""
    return st.sampled_from((2, 4)).flatmap(
        lambda nvars: st.tuples(*[polys(nvars)] * 3, st.tuples(*[coefficients] * nvars))
    )


def field_pairs():
    """Two arbitrary (not necessarily Hamiltonian) polynomial fields."""
    return st.sampled_from((2, 4)).flatmap(
        lambda nvars: st.tuples(
            st.tuples(*[polys(nvars, max_terms=3)] * nvars),
            st.tuples(*[polys(nvars, max_terms=3)] * nvars),
        )
    )


# -- reference formulas: chains of ring operators ------------------------------


def ref_poisson_bracket(g, h):
    n = g.nvars // 2
    out = RationalPoly(g.nvars)
    for i in range(n):
        out = out + g.diff(i) * h.diff(n + i) - g.diff(n + i) * h.diff(i)
    return out


def ref_field_omega(X, Y):
    n = len(X) // 2
    out = RationalPoly(len(X))
    for i in range(n):
        out = out + X[i] * Y[n + i] - X[n + i] * Y[i]
    return out


def ref_jacobi_lie_bracket(X, Y):
    nvars = len(X)
    out = []
    for i in range(nvars):
        comp = RationalPoly(nvars)
        for j in range(nvars):
            comp = comp + X[j] * Y[i].diff(j) - Y[j] * X[i].diff(j)
        out.append(comp)
    return tuple(out)


def assert_clean(p):
    """No zero or non-Fraction coefficient, and equal to its validated rebuild."""
    assert all(type(c) is Fraction and c != 0 for _, c in p.items())
    assert p == RationalPoly(p.nvars, dict(p.items()))


# -- bracket axioms and the extension identities -------------------------------


@PROPERTY
@given(triples())
def test_antisymmetry(ghk):
    g, h, _ = ghk
    assert poisson_bracket(g, h) == -poisson_bracket(h, g)
    assert poisson_bracket(g, g).is_zero()


@PROPERTY
@given(triples())
def test_jacobi(ghk):
    g, h, k = ghk
    cyclic = (
        poisson_bracket(poisson_bracket(g, h), k)
        + poisson_bracket(poisson_bracket(h, k), g)
        + poisson_bracket(poisson_bracket(k, g), h)
    )
    assert cyclic.is_zero()


@PROPERTY
@given(triples())
def test_leibniz(ghk):
    g, h, k = ghk
    assert poisson_bracket(g, h * k) == poisson_bracket(g, h) * k + h * poisson_bracket(g, k)


@PROPERTY
@given(triples_and_points())
def test_cocycle_identity(ghkm):
    g, h, k, m0 = ghkm
    assert cocycle_identity_residual(g, h, k) == 0
    assert cocycle_identity_residual(g, h, k, m0) == 0


@PROPERTY
@given(triples())
def test_field_bracket_is_minus_field_of_bracket(ghk):
    g, h, _ = ghk
    lhs = jacobi_lie_bracket(hamiltonian_field(g), hamiltonian_field(h))
    rhs = tuple(-c for c in hamiltonian_field(poisson_bracket(g, h)))
    assert lhs == rhs


# -- fused formulas against the chain-of-operators reference -------------------


@PROPERTY
@given(triples())
def test_poisson_bracket_matches_reference(ghk):
    g, h, k = ghk
    assert poisson_bracket(g, h) == ref_poisson_bracket(g, h)
    assert poisson_bracket(g * h, k) == ref_poisson_bracket(g * h, k)


@PROPERTY
@given(field_pairs())
def test_field_omega_matches_reference(XY):
    X, Y = XY
    assert field_omega(X, Y) == ref_field_omega(X, Y)
    assert field_omega(X, X).is_zero()


@PROPERTY
@given(field_pairs())
def test_jacobi_lie_bracket_matches_reference(XY):
    X, Y = XY
    assert jacobi_lie_bracket(X, Y) == ref_jacobi_lie_bracket(X, Y)


# -- results built without validation -------------------------------------------


@PROPERTY
@given(triples(), coefficients)
def test_built_results_are_clean(ghk, c):
    g, h, k = ghk
    X, Y = hamiltonian_field(g), hamiltonian_field(h)
    built = [
        g + h, g - h, g - g, h + (-h), -g, g * h, g * c, g * 0, g**2, g + c,
        poisson_bracket(g, h), poisson_bracket(g, g), field_omega(X, Y),
        *jacobi_lie_bracket(X, Y), *X,
        *(k.diff(i) for i in range(k.nvars)),
    ]
    for p in built:
        assert_clean(p)


# -- Fraction-dict oracle on exponent tuples ---------------------------------------
#
# Terms are ``(index, Fraction)`` lists; a result keeps the order in which
# its indices first appeared and drops zeros at the end, which fixes the
# order ``items()`` must reproduce.

wide_coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=30)


def term_dicts(nvars, max_exponent=3, max_terms=5):
    index = st.tuples(*[st.integers(0, max_exponent)] * nvars)
    return st.dictionaries(index, wide_coefficients, max_size=max_terms)


def oracle_pairs():
    return st.sampled_from((2, 4)).flatmap(
        lambda nvars: st.tuples(
            term_dicts(nvars), term_dicts(nvars), st.tuples(*[wide_coefficients] * nvars)
        )
    )


def nonzero(acc):
    return [(ix, c) for ix, c in acc.items() if c]


def oracle_add(a, b):
    acc = dict(a)
    for ix, c in b:
        acc[ix] = acc.get(ix, 0) + c
    return nonzero(acc)


def oracle_mul_acc(acc, a, b, sign=1):
    for ix1, c1 in a:
        for ix2, c2 in b:
            ix = tuple(map(operator.add, ix1, ix2))
            acc[ix] = acc.get(ix, 0) + sign * c1 * c2
    return acc


def oracle_mul(a, b):
    return nonzero(oracle_mul_acc({}, a, b))


def oracle_diff(a, i):
    out = []
    for ix, c in a:
        if ix[i]:
            down = list(ix)
            down[i] -= 1
            out.append((tuple(down), c * ix[i]))
    return out


def oracle_poisson_bracket(g, h, nvars):
    n = nvars // 2
    acc = {}
    for i in range(n):
        oracle_mul_acc(acc, oracle_diff(g, i), oracle_diff(h, n + i))
        oracle_mul_acc(acc, oracle_diff(g, n + i), oracle_diff(h, i), -1)
    return nonzero(acc)


def oracle_evaluate(a, point):
    total = Fraction(0)
    for ix, c in a:
        for x, e in zip(point, ix):
            c *= x**e
        total += c
    return total


def assert_matches(poly, terms):
    """Equal to the oracle's terms, in order, with only nonzero Fractions."""
    assert list(poly.items()) == terms
    assert all(type(c) is Fraction and c != 0 for _, c in poly.items())
    assert poly == RationalPoly(poly.nvars, dict(terms))


@PROPERTY
@given(oracle_pairs())
def test_results_equal_the_fraction_oracle_in_order(abm):
    a_terms, b_terms, point = abm
    nvars = len(point)
    a, b = RationalPoly(nvars, a_terms), RationalPoly(nvars, b_terms)
    a_list, b_list = nonzero(a_terms), nonzero(b_terms)
    assert_matches(a, a_list)
    assert_matches(a + b, oracle_add(a_list, b_list))
    assert_matches(a - b, oracle_add(a_list, [(ix, -c) for ix, c in b_list]))
    assert_matches(a * b, oracle_mul(a_list, b_list))
    assert_matches(a * point[0], nonzero({ix: c * point[0] for ix, c in a_list}))
    for i in range(nvars):
        assert_matches(a.diff(i), oracle_diff(a_list, i))
    assert_matches(poisson_bracket(a, b), oracle_poisson_bracket(a_list, b_list, nvars))
    assert_matches(poisson_bracket(a * b, a), oracle_poisson_bracket(
        oracle_mul(a_list, b_list), a_list, nvars))
    for m in (point, (0,) * nvars):
        assert a.evaluate(m) == oracle_evaluate(a_list, m)
        assert (a * b).evaluate(m) == oracle_evaluate(oracle_mul(a_list, b_list), m)


def test_canonical_form_across_denominators():
    x, y = RationalPoly.variable(0, 2), RationalPoly.variable(1, 2)
    half = x * Fraction(1, 2)
    assert half * 2 == x and hash(half * 2) == hash(x)
    assert (x * Fraction(1, 6)) * 3 == x * Fraction(1, 2)
    a = x * Fraction(1, 3) + y * Fraction(1, 5)
    b = x * Fraction(2, 3) - y * Fraction(1, 5) + Fraction(1, 7)
    total = a + b
    assert total == x + Fraction(1, 7) and hash(total) == hash(x + Fraction(1, 7))
    assert list(total.items()) == [((1, 0), Fraction(1)), ((0, 0), Fraction(1, 7))]
    assert a - a == 0 and hash(a - a) == hash(0)
    assert (a + b - x) == Fraction(1, 7) and hash(a + b - x) == hash(Fraction(1, 7))
    # A product over coprime denominators whose numerators cancel down.
    assert (x * Fraction(3, 4)) * (y * Fraction(2, 9)) == x * y * Fraction(1, 6)


def test_evaluate_at_a_point_with_mixed_denominators():
    terms = {
        (3, 0, 1, 2): Fraction(5, 6),
        (0, 2, 0, 0): Fraction(-7, 4),
        (1, 1, 1, 1): Fraction(2, 15),
        (0, 0, 0, 0): Fraction(9, 11),
        (0, 0, 4, 0): Fraction(-1, 2),
    }
    poly = RationalPoly(4, terms)
    point = (Fraction(1, 3), Fraction(-5, 7), Fraction(2), Fraction(11, 4))
    expected = oracle_evaluate(list(terms.items()), point)
    value = poly.evaluate(point)
    assert type(value) is Fraction and value == expected
    assert poly.evaluate((0, 0, 0, 0)) == Fraction(9, 11)
    assert poly.evaluate((0, Fraction(1, 2), 0, 0)) == Fraction(9, 11) - Fraction(7, 16)
    assert RationalPoly(4).evaluate(point) == 0


def test_overflow_guard_raises_instead_of_carrying():
    x, y = RationalPoly.variable(0, 2), RationalPoly.variable(1, 2)
    top = RationalPoly(2, {(MAX_EXPONENT, 0): Fraction(1)})
    assert_matches(top, [((MAX_EXPONENT, 0), Fraction(1))])
    assert_matches(top * y, [((MAX_EXPONENT, 1), Fraction(1))])
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        y * RationalPoly(2, {(0, MAX_EXPONENT): Fraction(1, 3)}) * y
    # {q^M p^2, q^2 p} = (M - 4) q^(M+1) p^2 must not read as q^0 p^3.
    g = RationalPoly(2, {(MAX_EXPONENT, 2): Fraction(1)})
    with pytest.raises(OverflowError):
        poisson_bracket(g, x * x * y)
    # Terms past the limit that cancel inside one result leave it exact:
    # {g, g} sums two q^(2M-1) p^3 products of opposite sign.
    assert poisson_bracket(g, g).is_zero()


def test_validating_constructor_rejects_bad_input():
    top = (0, MAX_EXPONENT, 0, 1)
    assert_matches(RationalPoly(4, {top: Fraction(1)}), [(top, Fraction(1))])
    for past_a_field in ((0, MAX_EXPONENT + 1, 0, 0), (2**16, 0, 0, 0)):
        with pytest.raises(ValueError):
            RationalPoly(4, {past_a_field: Fraction(1)})
    with pytest.raises(ValueError):
        RationalPoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        RationalPoly(2, {(1, -1): Fraction(1)})
    with pytest.raises(ValueError):
        RationalPoly(3, {(0, 0, 0): Fraction(1)})
    with pytest.raises(TypeError):
        RationalPoly(2, {(1, 0): 0.5})


# -- sympy cross-check ---------------------------------------------------------------


def test_bracket_and_cocycle_match_sympy():
    sympy = pytest.importorskip("sympy")

    def rational(x):
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    rng = random.Random(2027)
    for draw in range(20):
        nvars = 2 if draw % 2 == 0 else 4
        n = nvars // 2
        g, h = random_poly(rng, nvars), random_poly(rng, nvars)
        m0 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(nvars))
        xs = sympy.symbols(f"x0:{nvars}")

        def to_sympy(p):
            return sympy.Add(*(
                rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, ix))) for ix, c in p.items()
            ))

        gs, hs = to_sympy(g), to_sympy(h)
        bracket = sympy.expand(sum(
            sympy.diff(gs, xs[i]) * sympy.diff(hs, xs[n + i])
            - sympy.diff(gs, xs[n + i]) * sympy.diff(hs, xs[i])
            for i in range(n)
        ))
        expected = {
            ix: Fraction(int(c.p), int(c.q))
            for ix, c in sympy.Poly(bracket, *xs).as_dict().items() if c != 0
        }
        assert dict(poisson_bracket(g, h).items()) == expected

        for point in ((0,) * nvars, m0):
            value = -bracket.subs({x: rational(v) for x, v in zip(xs, point)})
            assert central_cocycle(g, h, point) == Fraction(int(value.p), int(value.q))


# -- the per-variable pow loop of the float evaluator, kept as the reference --------


def loop_evaluator(poly):
    """``mono *= m[..., j : j + 1] ** e`` for every variable any term uses: one ``pow`` per term and point."""
    exps = np.array([ix for ix, _ in poly.items()], dtype=int)
    coeffs = np.array([float(c) for _, c in poly.items()], dtype=float)

    def value(m):
        m = np.asarray(m, dtype=float)
        mono = np.ones(m.shape[:-1] + (len(coeffs),), dtype=float)
        for j in range(m.shape[-1]):
            e = exps[:, j]
            if e.any():
                mono *= m[..., j : j + 1] ** e
        return np.einsum("...t,t->...", mono, coeffs)

    return value


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max]
SHAPES = [(), (1,), (64,), (1, 1), (3, 1), (1, 4), (8, 8)]


def evaluator_points(rng, shape, nvars):
    """Doubles over many binades, where NumPy's pow and its square shortcut differ, and the special values."""
    x = rng.standard_normal(shape + (nvars,)) * np.exp2(rng.integers(-60, 60, shape + (nvars,)))
    special = rng.random(x.shape) < 0.2
    x[special] = rng.choice(SPECIAL, int(special.sum()))
    return x


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_evaluator_matches_loop(poly, rng):
    obs = poly.observable()
    partials = [poly.diff(i) for i in range(poly.nvars)]
    evaluators = [loop_evaluator(p) if not p.is_zero() else None for p in [poly] + partials]
    with np.errstate(all="ignore"):
        for shape in SHAPES:
            m = evaluator_points(rng, shape, poly.nvars)
            assert_same_bits(obs.value(m), evaluators[0](m))
            grad = obs.gradient(m)
            for i, ev in enumerate(evaluators[1:]):
                assert_same_bits(grad[..., i], ev(m) if ev else np.zeros(shape))
        for x in SPECIAL:
            m = np.full((len(SPECIAL), poly.nvars), x)
            m[:, 0] = SPECIAL
            assert_same_bits(obs.value(m), evaluators[0](m))
            assert_same_bits(obs.value(m[0]), evaluators[0](m[0]))


@pytest.mark.parametrize("nvars", [2, 4, 6])
@pytest.mark.parametrize("k", [2, 3])
def test_one_term_evaluator_equals_the_pow_loop_bitwise(nvars, k):
    # stacked points with a length-1 exponent vector of 2 take NumPy's square shortcut, a single point pow
    rng = np.random.default_rng(10 * nvars + k)
    for j in range(nvars):
        for other in (0, 1):
            index = [other] * nvars
            index[j] = k
            assert_evaluator_matches_loop(RationalPoly(nvars, {tuple(index): Fraction(-3, 7)}), rng)


@pytest.mark.parametrize("nvars", [2, 4, 6])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_terms_sharing_one_power_equal_the_pow_loop_bitwise(nvars, k):
    rng = np.random.default_rng(100 * nvars + k)
    tails = [tuple(map(int, format(t, f"0{nvars - 1}b"))) for t in range(min(3, 2 ** (nvars - 1)))]
    for j in range(nvars):
        terms = {}
        for t, tail in enumerate(tails):
            index = list(tail)
            index.insert(j, k)
            terms[tuple(index)] = Fraction(t + 2, 3)
        assert_evaluator_matches_loop(RationalPoly(nvars, terms), rng)


def test_random_polys_evaluate_as_the_pow_loop_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(120):
        nvars = int(rng.choice([2, 4, 6]))
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            index = rng.integers(0, 7, nvars) * (rng.random(nvars) < 0.6)
            terms[tuple(map(int, index))] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        poly = RationalPoly(nvars, terms)
        if not poly.is_zero():
            assert_evaluator_matches_loop(poly, rng)
