"""Independent oracle for the exact polynomial algebra.

Three checks that do not trust the module's own fused formulas:

* property tests (hypothesis) of the bracket axioms, the cocycle identity
  and ``[X_g, X_h] = -X_{{g, h}}`` on drawn polynomials in one or two
  canonical pairs;
* reference chain-of-operators versions of ``poisson_bracket``,
  ``field_omega`` and ``jacobi_lie_bracket``, kept only here, which the
  fused single-dict versions must equal exactly;
* every polynomial the module builds without validation must hold no zero
  coefficient and survive a rebuild through the validating constructor.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.polyalg import (
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
    out = RationalPoly.zero(g.nvars)
    for i in range(n):
        out = out + g.diff(i) * h.diff(n + i) - g.diff(n + i) * h.diff(i)
    return out


def ref_field_omega(X, Y):
    n = len(X) // 2
    out = RationalPoly.zero(len(X))
    for i in range(n):
        out = out + X[i] * Y[n + i] - X[n + i] * Y[i]
    return out


def ref_jacobi_lie_bracket(X, Y):
    nvars = len(X)
    out = []
    for i in range(nvars):
        comp = RationalPoly.zero(nvars)
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


def test_validating_constructor_rejects_bad_input():
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
