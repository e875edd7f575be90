"""Ring structure, involutions, modulus, and inversion of hyperbolic scalars."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hypalg import I, IJ, J, HyperComplex, ZeroDivisor

from conftest import assert_hyper_close, h_mul_tuple, hyper_matrix, rand_hyper

ONE = HyperComplex(1.0)

components = st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_subnormal=False)
hypers = st.builds(HyperComplex, components, components, components, components)


def test_add_examples():
    assert HyperComplex(1) + HyperComplex(0, 0, 1) == HyperComplex(1, 0, 1)
    z = HyperComplex(0.3, -0.7, 1.1, 2.0)
    assert z + HyperComplex() == z
    assert HyperComplex(1, 2, 3, 4) + HyperComplex(4, 3, 2, 1) \
        == HyperComplex(5, 5, 5, 5)


def test_unit_products():
    assert I * I == HyperComplex(-1)
    assert J * J == ONE
    assert I * J == IJ and J * I == IJ
    assert IJ * IJ == HyperComplex(-1)
    assert (ONE + J) * (ONE - J) == HyperComplex()


def test_mul_matches_reference_table(rng):
    for _ in range(300):
        a, b = rand_hyper(rng, -10, 10), rand_hyper(rng, -10, 10)
        want = HyperComplex(*h_mul_tuple(a.coeffs(), b.coeffs()))
        assert_hyper_close(a * b, want, 1e-11)


def test_conj_rev_grade_actions():
    z = HyperComplex(1, 1, 1, 1)
    assert z.conj() == HyperComplex(1, -1, -1, 1)
    assert z.rev() == HyperComplex(1, -1, 1, -1)
    assert z.grade() == HyperComplex(1, 1, -1, -1)
    assert I.rev() == -I and J.rev() == J and IJ.rev() == -IJ
    assert J.grade() == -J and I.grade() == I
    r = HyperComplex(2.5)
    assert r.conj() == r


@given(hypers)
def test_involutions_and_composition(z):
    assert z.conj().conj() == z
    assert z.rev().rev() == z
    assert z.grade().grade() == z
    assert z.conj() == z.rev().grade() == z.grade().rev()
    assert z.conj().grade() == z.rev()


@given(hypers, hypers)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(hypers, hypers, hypers)
def test_ring_associativity_and_distributivity(a, b, c):
    scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
    assert ((a * b) * c).isclose(a * (b * c), 1e-12 * scale)
    scale = max(1.0, a.max_abs() * (b.max_abs() + c.max_abs()))
    assert (a * (b + c)).isclose(a * b + a * c, 1e-12 * scale)


def test_ring_axioms_bulk():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (rand_hyper(rng, -10, 10) for _ in range(3))
        scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
        assert ((a * b) * c).isclose(a * (b * c), 1e-12 * scale)
        assert (a * (b + c)).isclose(a * b + a * c, 1e-12 * scale)
        assert a * b == b * a


def test_modulus_examples():
    assert (ONE + I).modulus_sq() == HyperComplex(2)
    assert (ONE + J).modulus_sq() == HyperComplex()
    z = I + IJ
    want = HyperComplex(*h_mul_tuple(z.coeffs(), z.conj().coeffs()))
    assert z.modulus_sq() == want == HyperComplex()


def test_modulus_always_scalar_plus_ij(rng):
    for _ in range(200):
        m = rand_hyper(rng, -10, 10).modulus_sq()
        assert m.y == 0.0 and m.v == 0.0


@given(hypers, hypers)
@example(HyperComplex(5.75, 0.0, 3.0, 0.0),
         HyperComplex(7.574194404993211, 3.0, 7.578125, 3.0))  # near the null cone
def test_modulus_multiplicative(z, u):
    lhs = (z * u).modulus_sq()
    rhs = z.modulus_sq() * u.modulus_sq()
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    assert lhs.isclose(rhs, 1e-12 * scale)


def test_inverse_examples():
    assert HyperComplex(2).inverse() == HyperComplex(0.5)
    assert J.inverse() == J
    assert I.inverse() == -I
    with pytest.raises(ZeroDivisor):
        (ONE + J).inverse()
    with pytest.raises(ZeroDivisor):
        HyperComplex().inverse()


def test_inverse_random_and_matrix_oracle(rng):
    done = 0
    while done < 300:
        z = rand_hyper(rng, -10, 10)
        try:
            inv = z.inverse()
        except ZeroDivisor:
            assert z.real_norm() <= 1e-14 * z.max_abs() ** 4
            continue
        assert_hyper_close(inv * z, ONE, 1e-12)
        oracle = np.linalg.solve(hyper_matrix(z), np.array([1.0, 0, 0, 0]))
        assert_hyper_close(inv, HyperComplex(*oracle), 1e-9)
        done += 1


def test_inverse_fails_exactly_on_null_norm():
    # (1 + j) scaled arbitrarily stays on the null cone
    for s in (1.0, 1e-8, 1e6):
        z = HyperComplex(s, 0.0, s, 0.0)
        assert z.real_norm() == 0.0
        with pytest.raises(ZeroDivisor):
            z.inverse()


def test_zero_divisor_reports_norm_tol_and_scale():
    z = HyperComplex(2.0, 0.0, 2.0 - 1e-9, 0.0)  # just off the null cone
    with pytest.raises(ZeroDivisor) as info:
        z.inverse()
    err = info.value
    assert err.value == z and err.norm == z.real_norm() > 0.0
    assert err.scale == 2.0 and err.tol == 1e-14 * 2.0 ** 4
    assert err.norm <= err.tol
    assert str(err) == f"no inverse: {z} lies on the null cone"
    copy = pickle.loads(pickle.dumps(err))
    assert (copy.value, copy.norm, copy.tol, copy.scale, str(copy)) \
        == (z, err.norm, err.tol, err.scale, str(err))


def test_inverse_at_extreme_magnitudes():
    for s in (1e100, 1e-100, 1e300, 1e-300):
        for z in (HyperComplex(s), HyperComplex(s, -2 * s, 0.5 * s, 0.25 * s)):
            inv = z.inverse()
            assert (inv.p, inv.m) == (1.0 / z.p, 1.0 / z.m), z
    # the null cone at every scale, where the fourth powers of the
    # unscaled test underflow or overflow
    for e in range(-300, 301, 10):
        for z in (HyperComplex(10.0 ** e, 0.0, 10.0 ** e, 0.0),
                  HyperComplex(0.0, 10.0 ** e, 0.0, -(10.0 ** e))):
            with pytest.raises(ZeroDivisor):
                z.inverse()
    # 1/p is beyond the float range
    with pytest.raises(OverflowError):
        HyperComplex(1e-310).inverse()
    # p overflowed to inf and m is 0, so the norm is inf * 0 = NaN
    with pytest.raises(ZeroDivisor):
        HyperComplex(1e308, 0.0, 1e308, 0.0).inverse()


def test_views_finite_for_finite_parts():
    # each part is halved before the two are added
    z = HyperComplex(1e308)
    assert z.coeffs() == (1e308, 0.0, 0.0, 0.0) and z.max_abs() == 1e308
    z = HyperComplex(0.0, -1e308, 0.0, 0.0)
    assert z.coeffs() == (0.0, -1e308, 0.0, 0.0) and z.max_abs() == 1e308


def test_max_abs_is_nan_when_a_coefficient_is_nan():
    # max() drops a NaN unless it comes first: (0, nan) once gave 0.0
    for k in range(4):
        for other in (0.0, 5.0):
            coeffs = [other] * 4
            coeffs[k] = math.nan
            assert math.isnan(HyperComplex(*coeffs).max_abs()), (k, other)
    assert HyperComplex(3.0, -4.0, 1.0, 0.5).max_abs() == 4.0
    assert HyperComplex(0.5, 0.0, -2.0, 0.0).max_abs() == 2.0
    # inf - inf makes the view x NaN; no stored part is NaN
    z = HyperComplex(0.0, 0.0, math.inf)
    assert math.isnan(z.x) and z.max_abs() == math.inf


def test_division():
    z = HyperComplex(1, 2, 0.5, -1)
    assert_hyper_close(z / 2.0, z * 0.5, 0.0)
    assert_hyper_close(z / z, ONE, 1e-12)
    # a real scales each half of each part alone, so no inf*0 turns an
    # infinite part's zero half into NaN
    inf = HyperComplex(math.inf)
    for scaled in (inf * 2.0, 2.0 * inf, inf / 2.0):
        assert (scaled.p, scaled.m) == (complex(math.inf, 0.0),) * 2


def test_text_rendering():
    assert str(HyperComplex(1, 1, 1, 1)) == "1 + i + j + ij"
    assert str(HyperComplex(1, -2, 0, 0.5)) == "1 - 2*i + 0.5*ij"
    assert str(HyperComplex()) == "0"
    assert str(-J) == "-j"
    # NaN has no sign to show
    assert str(HyperComplex(math.nan)) == "nan + nan*j"
    with pytest.raises(ZeroDivisor) as info:
        HyperComplex(0, 0, math.inf).inverse()
    assert str(info.value) == "no inverse: nan + inf*j lies on the null cone"
