"""Exact rational polynomial algebra: every identity here must hold with
zero residual, or the algebra layer is wrong (there is no tolerance to hide
behind)."""

import random
from fractions import Fraction

import pytest

from dualpairs.polyalg import (
    ExtendedElement,
    RationalPoly,
    central_cocycle,
    cocycle_identity_residual,
    extended_bracket,
    field_omega,
    hamiltonian_field,
    is_hamiltonian_field,
    jacobi_lie_bracket,
    normalize_at,
    opposite_bracket,
    p_var,
    poisson_bracket,
    q_var,
    random_poly,
    to_extension,
)


def test_constant_and_variable_basics():
    c = RationalPoly.constant(Fraction(3, 2), 2)
    assert c.items() == [((0, 0), Fraction(3, 2))]
    assert c.evaluate((5, 7)) == Fraction(3, 2)
    q = q_var(1, 1)
    p = p_var(1, 1)
    assert q.evaluate((2, 3)) == 2
    assert p.evaluate((2, 3)) == 3
    assert (q * p).items() == [((1, 1), Fraction(1))]


@pytest.mark.parametrize("value", [0, 3, Fraction(1, 2)])
def test_constant_hashes_like_its_value(value):
    c = RationalPoly.constant(value, 2)
    assert c == value
    assert hash(c) == hash(value)
    assert len({c, value}) == 1


def test_canonical_string_is_graded_lex():
    q = q_var(1, 1)
    p = p_var(1, 1)
    h = q * q + q * p * 3 + 7
    assert str(h) == "1*q1^2 + 3*q1*p1 + 7"


def test_bracket_golden_values():
    q = q_var(1, 1)
    p = p_var(1, 1)
    # {q^2, p^2} = 4qp
    assert str(poisson_bracket(q * q, p * p)) == "4*q1*p1"
    # {q^2 p, q} = -q^2
    assert str(poisson_bracket(q * q * p, q)) == "-1*q1^2"


def test_hamiltonian_field_sign_convention():
    # X_h = (dh/dp, -dh/dq); for h = qp at (2, 3) this is (2, -3)
    q = q_var(1, 1)
    p = p_var(1, 1)
    X = hamiltonian_field(q * p)
    assert [f.evaluate((2, 3)) for f in X] == [2, -3]


@pytest.mark.parametrize("nvars", [2, 4, 6])
def test_bracket_antisymmetry_and_jacobi(nvars):
    rng = random.Random(100 + nvars)
    for _ in range(15):
        g = random_poly(rng, nvars)
        h = random_poly(rng, nvars)
        k = random_poly(rng, nvars)
        assert (poisson_bracket(g, h) + poisson_bracket(h, g)).is_zero()
        jac = (
            poisson_bracket(poisson_bracket(g, h), k)
            + poisson_bracket(poisson_bracket(h, k), g)
            + poisson_bracket(poisson_bracket(k, g), h)
        )
        assert jac.is_zero(), f"Jacobi identity failed at nvars={nvars}"


def test_bracket_leibniz_rule():
    rng = random.Random(11)
    for _ in range(20):
        g = random_poly(rng, 2)
        h = random_poly(rng, 2)
        k = random_poly(rng, 2)
        lhs = poisson_bracket(g, h * k)
        rhs = poisson_bracket(g, h) * k + h * poisson_bracket(g, k)
        assert (lhs - rhs).is_zero()


def test_field_bracket_relation_to_poisson_bracket():
    # [X_g, X_h]_JL = -X_{g,h} under the pinned sign conventions.
    rng = random.Random(5)
    for _ in range(10):
        g = random_poly(rng, 2, max_degree=3)
        h = random_poly(rng, 2, max_degree=3)
        lhs = jacobi_lie_bracket(hamiltonian_field(g), hamiltonian_field(h))
        rhs = hamiltonian_field(poisson_bracket(g, h))
        for a, b in zip(lhs, rhs):
            assert (a + b).is_zero()


def test_opposite_bracket_is_minus_jacobi_lie():
    rng = random.Random(17)
    X = hamiltonian_field(random_poly(rng, 2, max_degree=3))
    Y = hamiltonian_field(random_poly(rng, 2, max_degree=3))
    jl = jacobi_lie_bracket(X, Y)
    op = opposite_bracket(X, Y)
    for a, b in zip(jl, op):
        assert (a + b).is_zero()


def test_field_omega_recovers_bracket():
    # omega(X_g, X_h) = {g, h}
    rng = random.Random(23)
    for _ in range(10):
        g = random_poly(rng, 4)
        h = random_poly(rng, 4)
        w = field_omega(hamiltonian_field(g), hamiltonian_field(h))
        assert (w - poisson_bracket(g, h)).is_zero()


def test_is_hamiltonian_field():
    q = q_var(1, 1)
    p = p_var(1, 1)
    assert is_hamiltonian_field(hamiltonian_field(q * q * p))
    # (q, q) is not Hamiltonian: would need dX1/dq1 = -dX2/dp1 etc.
    assert not is_hamiltonian_field((q, q))


def test_normalize_at_golden():
    q = q_var(1, 1)
    p = p_var(1, 1)
    h = q * q + q * p * 3 + 7
    assert str(normalize_at(h, (1, 2))) == "1*q1^2 + 3*q1*p1 + -7"
    assert normalize_at(h, (1, 2)).evaluate((1, 2)) == 0


def test_central_cocycle_golden():
    q = q_var(1, 1)
    p = p_var(1, 1)
    # sigma(g, h) = -{g, h}(m0); {q, p} = 1 so sigma(q, p, origin) = -1
    assert central_cocycle(q, p) == -1


def test_cocycle_identity_on_random_triples():
    rng = random.Random(31)
    for _ in range(25):
        g = random_poly(rng, 2)
        h = random_poly(rng, 2)
        k = random_poly(rng, 2)
        assert cocycle_identity_residual(g, h, k) == 0


def test_extension_homomorphism():
    # iso({g, h}) = bracket(iso(g), iso(h)) componentwise, exactly.
    rng = random.Random(41)
    for _ in range(15):
        g = random_poly(rng, 2, max_degree=3)
        h = random_poly(rng, 2, max_degree=3)
        left = to_extension(poisson_bracket(g, h))
        right = extended_bracket(to_extension(g), to_extension(h))
        assert left.central_part == right.central_part
        for a, b in zip(left.field_part, right.field_part):
            assert (a - b).is_zero()


def test_extended_element_roundtrip():
    h = q_var(1, 1) * p_var(1, 1)
    ext = to_extension(h)
    assert isinstance(ext, ExtendedElement)
    assert ext.central_part == h.evaluate((0, 0))
    assert is_hamiltonian_field(ext.field_part)


def test_mismatched_nvars_rejected():
    with pytest.raises(ValueError):
        poisson_bracket(random_poly(random.Random(1), 2), random_poly(random.Random(2), 4))


def test_odd_nvars_rejected():
    with pytest.raises(ValueError):
        RationalPoly.constant(1, 3)


def test_diff_and_coefficient():
    q = q_var(1, 1)
    p = p_var(1, 1)
    h = q * q * p
    assert str(h.diff(0)) == "2*q1*p1"
    assert h.items() == [((2, 1), Fraction(1))]  # a coefficient of 1, and no constant term


def test_observable_matches_exact_evaluation():
    import numpy as np

    rng = random.Random(59)
    for _ in range(5):
        h = random_poly(rng, 2, max_degree=3)
        obs = h.observable()
        z = np.array([0.375, -1.25])  # dyadic: float evaluation is exact
        exact = h.evaluate((Fraction(3, 8), Fraction(-5, 4)))
        assert obs.value(z) == pytest.approx(float(exact), abs=1e-12)
        gq = h.diff(0).evaluate((Fraction(3, 8), Fraction(-5, 4)))
        gp = h.diff(1).evaluate((Fraction(3, 8), Fraction(-5, 4)))
        grad = obs.gradient(z)
        assert grad[0] == pytest.approx(float(gq), abs=1e-12)
        assert grad[1] == pytest.approx(float(gp), abs=1e-12)
