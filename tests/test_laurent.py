"""Arithmetic, involutions, degrees and slicing of sparse Laurent polynomials."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from mqsp import LaurentPoly
from mqsp.laurent import DROP_EPS


def lp(variables, terms):
    return LaurentPoly(variables, terms)


A = lp(1, {(1,): 1.0})
A_INV = lp(1, {(-1,): 1.0})
ONE = LaurentPoly.constant(1, 1.0)


# -- addition -----------------------------------------------------------------


def test_add_cancellation():
    left = lp(1, {(1,): 1.0, (0,): 1.0})
    right = lp(1, {(1,): -1.0, (0,): 1.0})
    assert left + right == LaurentPoly.constant(1, 2.0)


def test_add_identity():
    p = lp(2, {(1, -2): 3.0 + 1.0j, (0, 0): -0.5})
    assert p + LaurentPoly.zero(2) == p


def test_add_merges_like_terms():
    p = lp(2, {(2, 1): 1.0})
    assert p + p == lp(2, {(2, 1): 2.0})


def test_add_arity_mismatch():
    with pytest.raises(ValueError):
        lp(1, {(1,): 1.0}) + lp(2, {(1, 0): 1.0})


# -- multiplication -----------------------------------------------------------


def test_mul_difference_of_squares():
    plus = lp(1, {(1,): 1.0, (-1,): 1.0})
    minus = lp(1, {(1,): 1.0, (-1,): -1.0})
    assert plus * minus == lp(1, {(2,): 1.0, (-2,): -1.0})


def test_mul_identity():
    p = lp(1, {(3,): 2.0 - 1.0j, (-1,): 0.25})
    assert p * ONE == p


def test_mul_signal_product_top_left():
    # top-left entry of the product of the two-variable signal operators:
    # cos(a)cos(b) + sin-part(a)sin-part(b) collapses to (ab + (ab)^-1)/2
    cos_a = lp(2, {(1, 0): 0.5, (-1, 0): 0.5})
    sin_a = lp(2, {(1, 0): 0.5, (-1, 0): -0.5})
    cos_b = lp(2, {(0, 1): 0.5, (0, -1): 0.5})
    sin_b = lp(2, {(0, 1): 0.5, (0, -1): -0.5})
    got = cos_a * cos_b + sin_a * sin_b
    assert got == lp(2, {(1, 1): 0.5, (-1, -1): 0.5})


# -- scaling --------------------------------------------------------------------


def test_scale_by_zero_annihilates():
    p = lp(1, {(1,): 1.0, (-1,): 1.0})
    assert p * 0 == LaurentPoly.zero(1)


def test_scale_by_i():
    assert A * 1j == lp(1, {(1,): 1j})


def test_scale_by_phase():
    got = lp(1, {(1,): 2.0}) * cmath.exp(1j * math.pi / 3)
    assert got.approx_eq(lp(1, {(1,): complex(1.0, math.sqrt(3.0))}), 1e-15)


# -- involutions ------------------------------------------------------------------


def test_star_conjugates():
    assert lp(1, {(1,): 1j}).star() == lp(1, {(1,): -1j})


def test_star_involution():
    p = lp(2, {(1, -1): 2.0 + 3.0j, (0, 0): -1j})
    assert p.star().star() == p


def test_star_fixes_real_coefficients():
    p = A + A_INV
    assert p.star() == p


def test_invert_vars_negates_exponents():
    assert lp(2, {(2, -1): 1.0}).invert_vars() == lp(2, {(-2, 1): 1.0})


def test_invert_vars_fixes_constants():
    c = LaurentPoly.constant(3, 2.0 - 1.0j)
    assert c.invert_vars() == c
    assert c.invert_vars().constant_coeff() == 2.0 - 1.0j
    assert lp(3, {(1, 0, -1): 1.0}).invert_vars().constant_coeff() == 0j


def test_invert_vars_odd_half_difference():
    sin_part = lp(1, {(1,): 0.5, (-1,): -0.5})
    assert sin_part.invert_vars() == -sin_part


def test_negate_var_even_power():
    assert lp(1, {(2,): 1.0}).negate_var(1) == lp(1, {(2,): 1.0})


def test_negate_var_odd_power():
    assert lp(2, {(1, 1): 1.0}).negate_var(2) == lp(2, {(1, 1): -1.0})


def test_negate_var_both_exponents_odd():
    p = A + A_INV
    assert p.negate_var(1) == -p


def test_negate_var_index_out_of_range():
    with pytest.raises(IndexError):
        A.negate_var(2)


# -- degrees -----------------------------------------------------------------------


def test_degree_max_absolute_exponent():
    p = lp(2, {(2, 1): 1.0, (-3, 0): 1.0})
    assert p.degree(1) == 3


def test_degree_of_zero_polynomial():
    assert LaurentPoly.zero(2).degree(1) == 0
    assert LaurentPoly.zero(2).degree(2) == 0


def test_degree_absent_variable():
    assert lp(2, {(0, 2): 1.0}).degree(1) == 0


def test_degree_index_out_of_range():
    with pytest.raises(IndexError):
        A.degree(0)


# -- slicing -----------------------------------------------------------------------


def test_coeff_slice_collects_terms():
    p = lp(2, {(2, 2): 1.0, (2, 0): 3.0})
    assert p.coeff_slice(1, 2) == lp(2, {(0, 2): 1.0, (0, 0): 3.0})


def test_coeff_slice_empty():
    assert lp(1, {(2,): 1.0}).coeff_slice(1, 1) == LaurentPoly.zero(1)


def test_coeff_slice_half_sum():
    cos_part = lp(1, {(1,): 0.5, (-1,): 0.5})
    assert cos_part.coeff_slice(1, -1) == LaurentPoly.constant(1, 0.5)


# -- tolerance comparisons ----------------------------------------------------------


def test_approx_eq_reflexive():
    p = lp(1, {(1,): 1.0 + 2.0j})
    assert p.approx_eq(p, 1e-15)


def test_approx_eq_rejects_large_perturbation():
    assert not A.approx_eq(A + LaurentPoly.constant(1, 1e-3), 1e-9)


def test_approx_eq_accepts_small_perturbation():
    assert A.approx_eq(A + LaurentPoly.constant(1, 1e-12), 1e-9)


def test_non_finite_coefficient_rejected():
    with pytest.raises(ValueError):
        lp(1, {(0,): complex("inf")})


def test_modulus_past_the_largest_double_rejected():
    # both parts are finite, but abs() overflows: the constructor and the
    # operators raise ValueError naming the exponent, not OverflowError
    with pytest.raises(ValueError, match=r"at \(0,\) has a modulus too large for a double"):
        lp(1, {(0,): complex(1.5e308, 1.5e308)})
    with pytest.raises(ValueError, match=r"at \(1,\) has a modulus too large"):
        lp(1, {(1,): 1e308}) * complex(1.5, 1.5)


def test_str():
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(LaurentPoly.constant(2, 0.5)) == "((0.5+0j))"
    mixed = lp(2, {(0, 0): -0.25 + 1j, (0, 2): 1j, (1, -1): 0.5})
    assert str(mixed) == "((-0.25+1j)) + (1j)*a2^2 + ((0.5+0j))*a1^1*a2^-1"


def test_exponent_length_mismatch_rejected():
    with pytest.raises(ValueError):
        lp(2, {(1,): 1.0})


# -- properties -----------------------------------------------------------------------


coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def poly_strategy(variables: int):
    term = st.tuples(
        st.lists(st.integers(-3, 3), min_size=variables, max_size=variables).map(tuple),
        coefficients,
    )
    return st.lists(term, max_size=6).map(lambda ts: LaurentPoly(variables, dict(ts)))


@st.composite
def polys(draw):
    return draw(poly_strategy(draw(st.integers(1, 3))))


@st.composite
def poly_pairs(draw):
    m = draw(st.integers(1, 3))
    return draw(poly_strategy(m)), draw(poly_strategy(m))


@given(polys())
def test_involutions_and_commutation(p):
    assert p.invert_vars().invert_vars() == p
    assert p.star().star() == p
    assert p.invert_vars().star() == p.star().invert_vars()


@given(polys())
def test_negate_var_is_involution(p):
    for j in range(1, p.variables + 1):
        assert p.negate_var(j).negate_var(j) == p


@given(poly_pairs())
def test_product_degree_bound(pq):
    p, q = pq
    product = p * q
    for j in range(1, p.variables + 1):
        assert product.degree(j) <= p.degree(j) + q.degree(j)


@given(polys())
def test_slice_reassembly_is_exact(p):
    for j in range(1, p.variables + 1):
        rebuilt = LaurentPoly.zero(p.variables)
        for exponent in {key[j - 1] for key in p.terms}:
            exps = [0] * p.variables
            exps[j - 1] = exponent
            rebuilt = rebuilt + p.coeff_slice(j, exponent) * LaurentPoly.monomial(
                p.variables, tuple(exps)
            )
        assert rebuilt == p


@given(poly_pairs())
def test_operations_stay_normalized(pq):
    # the dropping cutoff is DROP_EPS times the operand scale, floored at 1
    p, q = pq
    op_scale = max(1.0, p.max_modulus(), q.max_modulus())
    for result in (p + q, p - q, p * q):
        assert all(abs(c) > DROP_EPS * op_scale for c in result.terms.values())
    own_scale = max(1.0, p.max_modulus())
    for result in (p.star(), p.invert_vars()):
        assert all(abs(c) > DROP_EPS * own_scale for c in result.terms.values())
    scaled = p * 0.5j
    assert all(
        abs(c) > DROP_EPS * max(1.0, 0.5 * p.max_modulus()) for c in scaled.terms.values()
    )
