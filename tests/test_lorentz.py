"""Rotors, boosts, the exponential map, sandwich action, and generators."""

import cmath
import copy
import math
import pickle
import random

import mpmath
import numpy as np
import pytest

from hypalg import (S1, S2, S3, FourVector, HyperComplex,
                    LorentzParams, Multivector, NoConvergence,
                    NotAParavector, Rotor, apply, boost, commutator, embed,
                    exp_general, extract, generators, matrix_of, minkowski_dot,
                    rotation, spin_transform)
from hypalg import lorentz
from hypalg.cayley import ONE, _halves, scalar
from hypalg.lorentz import (_TINY, _entries, _sigma, _spin_half,
                            _spin_sandwich, _spinor_span)

from conftest import rand_multivector, rel_close, slot_set

EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
       (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}


def random_rotor(rng, max_rapidity=3.0) -> Rotor:
    axis = lambda m: tuple(rng.uniform(-m, m) for _ in range(3))
    return rotation(axis(math.pi)) * boost(axis(max_rapidity / 3.0)) \
        * rotation(axis(math.pi))


def test_rotation_examples():
    assert rotation((0, 0, 0)).value == ONE
    assert rotation((0, 0, math.pi)).value.isclose(
        S3 * HyperComplex(0, -1), 1e-15)
    assert rotation((0, 0, 2 * math.pi)).value.isclose(scalar(-1.0), 1e-15)
    assert rotation((0, 0, 4 * math.pi)).value.isclose(ONE, 1e-15)
    # the squares of the components overflow, the angle does not
    assert rotation((1e200, 1e200, -1e200)).is_unit()


def test_rotation_reversion_facts(rng):
    for _ in range(25):
        r = rotation(tuple(rng.uniform(-3, 3) for _ in range(3)))
        assert r.value.dagger() == r.value.bar()
        assert rel_close(r.value * r.value.bar(), ONE, 1e-14)
        assert r.inverse() == Rotor(r.value.bar())


def test_boost_examples(rng):
    assert boost((0, 0, 0)).value == ONE
    xi = 1.3
    b = boost((0, 0, xi))
    double = b.value * b.value.dagger()
    want = scalar(math.cosh(xi)) + S3 * HyperComplex(0, 0, math.sinh(xi))
    assert double.isclose(want, 1e-14)
    for _ in range(25):
        b = boost(tuple(rng.uniform(-2, 2) for _ in range(3)))
        assert b.value.dagger() == b.value
        assert rel_close(b.value * b.value.bar(), ONE, 1e-14)


def test_exp_general_closed_forms():
    assert exp_general(scalar(0.0)) == ONE
    arg = S2 * HyperComplex(0, -math.pi / 4)
    assert exp_general(arg).isclose(rotation((0, math.pi / 2, 0)).value, 1e-12)
    arg = S3 * HyperComplex(0, 0, 1.0)
    assert exp_general(arg).isclose(boost((0, 0, 2.0)).value, 1e-12)


def test_exp_general_large_argument_scaling():
    arg = S3 * HyperComplex(0, 0, 2.7)
    want = boost((0, 0, 5.4)).value
    got = exp_general(arg)
    assert rel_close(got, want, 1e-12)


def test_boost_overflow_raises():
    # the squares overflow in the first two; in the third only cosh(|x|/2)
    for rapidity in ((0, 0, 1e155), (1e200, 0, 0), (0, 0, 2000),
                     (math.inf, 0, 0), (0, -math.inf, 0), (0, 0, math.nan)):
        with pytest.raises(OverflowError):
            boost(rapidity)
    assert math.isfinite(boost((0, 0, 1400)).value.max_abs())


def test_exp_general_unit_phase_at_any_size():
    # exp(i t) has modulus 1 for every finite t, however large
    ulp = 2.0 ** -52
    for t in (1e17, 1e100, 1e308):
        got = exp_general(Multivector(HyperComplex(0, t))).z0
        want = cmath.exp(1j * t)
        assert abs(got.x - want.real) <= 4 * ulp, t
        assert abs(got.y - want.imag) <= 4 * ulp, t
        assert got.v == got.w == 0.0, t


def test_exp_general_nilpotent_and_cancelling_factors():
    # s1 + i*s2 squares to 0, so exp is 1 plus the argument, at any size
    nil = S1 * 1e154 + S2 * HyperComplex(0, 1e154)
    assert exp_general(nil) == ONE + nil
    # exp(-1000) underflows and cosh(1000) overflows, their product does not
    arg = scalar(-1000.0) + S3 * HyperComplex(0, 0, 1000.0)
    want = scalar(0.5) + S3 * HyperComplex(0, 0, 0.5)
    assert exp_general(arg).isclose(want, 1e-15)


def test_exp_general_overflow_raises():
    # a1^2 overflows, the exponential does not: s is taken from scaled parts
    got = exp_general(S3 * HyperComplex(0, 1e200)).coeffs16()
    ulp = 2.0 ** -52
    assert abs(got[0] - math.cos(1e200)) <= 4 * ulp
    assert abs(got[7] - math.sin(1e200)) <= 4 * ulp  # the i*s3 coefficient
    assert not any(got[k] for k in range(16) if k not in (0, 7))
    nil = S1 * 2e154 + S2 * HyperComplex(0, 2e154)
    assert exp_general(nil) == ONE + nil
    for arg in (scalar(HyperComplex(0, 0, 710.0)),          # exp(710) overflows
                # exp(709) fits, exp(709) * 1e154 does not
                scalar(HyperComplex(0, 0, 709.0)) + S1 * 1e154
                + S2 * HyperComplex(0, 1e154)):
        with pytest.raises(OverflowError):
            exp_general(arg)
    # a0 + s is past the float range, where cmath.exp returns inf unraised
    with pytest.raises(OverflowError, match="math range error"):
        exp_general(scalar(1e308) + S1 * 1e308)


def _expm_half(half):
    """exp of one idempotent half, a0 + a.s, by mpmath.expm of its 2x2 matrix."""
    a0, a1, a2, a3 = (mpmath.mpc(z.real, z.imag) for z in half)
    i = mpmath.mpc(0, 1)
    with mpmath.workprec(113):
        m = mpmath.expm(mpmath.matrix([[a0 + a3, a1 - i * a2],
                                       [a1 + i * a2, a0 - a3]]))
        return ((m[0, 0] + m[1, 1]) / 2, (m[0, 1] + m[1, 0]) / 2,
                (m[1, 0] - m[0, 1]) / (2 * i), (m[0, 0] - m[1, 1]) / 2)


def _exp_error_units(a) -> float:
    """exp_general(a)'s worst error on a half against mpmath, in units of
    eps (1 + max |a_k|) times the size of that half's exponential, the
    condition of exp."""
    got, worst = exp_general(a), 0.0
    for half, got_half in ((a.p, got.p), (a.m, got.m)):
        want = _expm_half(half)
        error = max(abs(g - w) for g, w in zip(got_half, want))
        size = max(map(abs, want)) * (1 + max(map(abs, half)))
        worst = max(worst, float(error / size) / 2.0 ** -52)
    return worst


def test_exp_general_against_mpmath():
    # K = 4 units; the worst seen here is 1.9
    rng = random.Random(0xE4)
    for scale in (1e-6, 1e-2, 1.0, 10.0, 30.0):
        for _ in range(40):
            a = rand_multivector(rng, -scale, scale)
            assert _exp_error_units(a) <= 4, (scale, a)


def test_exp_general_at_the_top_of_the_float_range():
    # exp(709.9) overflows, but cosh(709.9) = 1.01e308 and
    # exp(709.9) cos(0.9) = 1.26e308 do not
    for arg in (S3 * HyperComplex(0, 0, 709.9),
                scalar(HyperComplex(0, 0, 709.9))
                + S3 * HyperComplex(0, 0, 0, 0.9)):
        assert _exp_error_units(arg) <= 4, arg
    assert rel_close(exp_general(S3 * HyperComplex(0, 0, 709.9)),
                     boost((0, 0, 1419.8)).value, 1e-12)


def test_exp_general_no_convergence():
    bad = scalar(float("nan"))
    with pytest.raises(NoConvergence):
        exp_general(bad)


def test_no_convergence_reports_terms_and_squarings():
    # a NaN or inf input is refused before any series term is summed
    for bad in (scalar(math.nan), scalar(math.inf), S3 * -math.inf,
                Multivector(HyperComplex(1.0), HyperComplex(0.0, math.nan))):
        with pytest.raises(NoConvergence) as info:
            exp_general(bad)
        assert (info.value.terms, info.value.squarings) == (0, 0), bad
        assert info.value.terms < 200
        assert str(info.value) == \
            "exponential series did not settle: the input is not finite"
    err = NoConvergence(200, 3)
    assert (err.terms, err.squarings) == (200, 3)
    assert str(err) == "exponential series did not settle in 200 terms"


def test_apply_examples():
    x = FourVector(0.3, -1.2, 0.8, 2.0)
    assert apply(Rotor(ONE), x) == x
    xi = 0.9
    out = apply(boost((0, 0, xi)), FourVector(1, 0, 0, 0))
    assert out.isclose(FourVector(math.cosh(xi), 0, 0, math.sinh(xi)), 1e-14)
    out = apply(rotation((0, 0, math.pi / 2)), FourVector(0, 1, 0, 0))
    assert out.isclose(FourVector(0, 0, 1, 0), 1e-14)


def test_apply_rejects_non_rotor():
    junk = Rotor(ONE + Multivector(z1=HyperComplex(1.0)))
    with pytest.raises(NotAParavector):
        apply(junk, FourVector(1, 0, 0, 0))


K = 16  # the error bounds' constant, as in perfbench's checks
EPS_64 = 2.0 ** -52


def _sandwich_error(t: Rotor, x: FourVector, got: FourVector) -> float:
    """got's worst error against the sandwich of t.value, in eps |a|^2 max|x_k|.

    The reference is M(p) X M(p)^dagger at 113 bits, p = t.value.p the
    stored value's p half and X x's Hermitian matrix; |a|^2 = sum |p_k|^2.
    """
    with mpmath.workprec(113):
        p0, p1, p2, p3 = (mpmath.mpc(z.real, z.imag) for z in t.value.p)
        x0, x1, x2, x3 = (mpmath.mpf(c) for c in x.components())
        i = mpmath.mpc(0, 1)
        a = mpmath.matrix([[p0 + p3, p1 - i * p2], [p1 + i * p2, p0 - p3]])
        y = a * mpmath.matrix([[x0 + x3, x1 - i * x2],
                               [x1 + i * x2, x0 - x3]]) * a.H
        want = ((y[0, 0] + y[1, 1]).real / 2, y[1, 0].real, y[1, 0].imag,
                (y[0, 0] - y[1, 1]).real / 2)
        scale = sum(abs(z) ** 2 for z in (p0, p1, p2, p3)) \
            * max(abs(c) for c in (x0, x1, x2, x3))
        worst = max(abs(mpmath.mpf(g) - w) for g, w in zip(got.components(), want))
        return float(worst / (EPS_64 * scale)) if scale else float(worst)


def test_apply_is_the_sandwich_product(rng):
    # apply and the full sandwich are both within K eps |a|^2 max|x_k| of the
    # exact sandwich of the stored value
    for _ in range(300):
        t = random_rotor(rng)
        x = FourVector(*(rng.uniform(-5, 5) for _ in range(4)))
        full = extract(t.value * embed(x) * t.value.dagger())
        assert _sandwich_error(t, x, full) <= K, (t, x)
        assert _sandwich_error(t, x, apply(t, x)) <= K, (t, x)
    for _ in range(50):
        t = Rotor(rand_multivector(rng))
        x = FourVector(*(rng.uniform(-5, 5) for _ in range(4)))
        with pytest.raises(NotAParavector) as got:
            apply(t, x)
        with pytest.raises(NotAParavector) as want:
            extract(t.value * embed(x) * t.value.dagger())
        assert got.value.residual == want.value.residual


def spin_rotor(rng) -> Rotor:
    """A random product of one to three rotation, boost and spin_transform."""
    draws = (lambda: rotation([rng.uniform(-7, 7) for _ in range(3)]),
             lambda: boost([rng.uniform(-1, 1) for _ in range(3)]),
             lambda: spin_transform(LorentzParams(
                 rng.uniform(-7, 7), rng.uniform(-4, 4), rng.uniform(-2, 2))))
    t = rng.choice(draws)()
    for _ in range(rng.randint(0, 2)):
        t = t * rng.choice(draws)()
    return t


def test_spin_half_agrees_with_the_full_products(rng):
    # == reads -0.0 as 0.0; apply and the full sandwich are both within
    # K eps |a|^2 max|x_k| of the exact sandwich of the stored value
    for _ in range(300):
        a, b = spin_rotor(rng), spin_rotor(rng)
        assert _spin_half(a.value) is not None and _spin_half(b.value) is not None
        ab = a * b  # the full product keeps m == sigma(p)
        assert ab.value.m == _sigma(ab.value.p)
        assert _spin_half(ab.value) is not None
        x = FourVector(*(rng.uniform(-5, 5) for _ in range(4)))
        full = extract(ab.value * embed(x) * ab.value.dagger())
        assert _sandwich_error(ab, x, full) <= K, (ab, x)
        assert _sandwich_error(ab, x, apply(ab, x)) <= K, (ab, x)
        m = matrix_of(ab)
        for mu, basis in enumerate(np.eye(4).tolist()):
            assert m[:, mu].tolist() == list(apply(ab, FourVector(*basis))
                                              .components())


def _guard_outcome(route, *args):
    try:
        return route(*args).components()
    except NotAParavector as exc:
        return "raised", repr(exc.residual)  # repr, so that NaN equals NaN


def test_spin_half_guard_is_the_full_guard():
    # apply's entry route raises what extract raises on _halves(Y, sigma(Y)),
    # with Y the p half of the full sandwich, NaN residuals included; where
    # neither raises, both are within K eps |a|^2 max|x_k| of the exact
    # sandwich of the stored value
    sizes = (0.0, -0.0, 1.0, -2.5, 1e300, 1e308, -1e308, math.inf,
             -math.inf, math.nan)
    rotors = (Rotor(ONE), rotation((0.3, -1.1, 2.0)), boost((0, 0, 700)),
              boost((0, 0, 1400)),
              spin_transform(LorentzParams(0.4, 1.3, -2.0)))
    rng = random.Random(0x5A4D)
    for t in rotors:
        assert _spin_half(t.value) is not None
        for _ in range(40):
            x = FourVector(*(rng.choice(sizes) for _ in range(4)))
            y = (t.value * embed(x) * t.value.dagger()).p
            want = _guard_outcome(extract, _halves(y, _sigma(y)))
            got = _guard_outcome(apply, t, x)
            if want[0] == "raised":
                assert got == want, (t, x)
            else:
                assert got[0] != "raised", (t, x)
                for route in (want, got):
                    assert _sandwich_error(t, x, FourVector(*route)) <= K, (t, x)
    got = _guard_outcome(apply, boost((0, 0, 1400)), FourVector(1, 0, 0, 0))
    assert got == ("raised", "nan")


def test_tiny_rotors_take_the_full_product():
    # below |a|^2 = 2^-1000 the rounded squares |A_ij|^2 of the trace terms
    # lose bits, so apply and matrix_of give the full sandwich bit for bit
    def full(t, x):
        return [c.hex() for c in
                extract(t.value * embed(x) * t.value.dagger()).components()]

    x = FourVector(-1.1, -3e154, 3e154, -1e308)
    frame = (boost((0.3, -0.2, 0.5)) * rotation((0.4, 1.3, -2.0))).value
    for a in (1e-160, 1e-310, 1e-155, 2.0 ** -500.25):
        for t in (Rotor(Multivector(HyperComplex(a))), Rotor(frame * a)):
            assert t._half is not None
            assert [c.hex() for c in apply(t, x).components()] == full(t, x)
            columns = [full(t, FourVector(*e)) for e in np.eye(4).tolist()]
            assert [v.hex() for v in matrix_of(t).ravel().tolist()] \
                == [v for row in zip(*columns) for v in row]
    assert apply(Rotor(Multivector(HyperComplex(1e-160))), x).x3 == -1e-12
    assert apply(Rotor(Multivector(HyperComplex(1e-310))), x).x3 \
        == -1.000000000003e-312
    # from |a|^2 = 2^-1000 on, the terms answer, within K eps |a|^2 max|x_k|
    t = Rotor(Multivector(HyperComplex(2.0 ** -500)))
    assert _spin_sandwich(t._terms, *x.components()) is not None
    assert _sandwich_error(t, x, apply(t, x)) <= K


def test_spin_half_refuses_an_infinite_part():
    # m == sigma(p) holds, but the full sandwich reads inf - inf: NaN
    t = Rotor(Multivector(HyperComplex(math.inf)))
    assert t.value.m == _sigma(t.value.p) and _spin_half(t.value) is None
    with pytest.raises(NotAParavector) as got:
        apply(t, FourVector(1, 0, 0, 0))
    assert math.isnan(got.value.residual)


def test_null_boost_keeps_the_small_image():
    # a null vector against a boost along it shrinks to e^{-xi}: the entries
    # e^{+-xi/2} carry it exactly, where the 4x4 real form cancels to 0
    for xi in (20.0, 35.0, 300.0):
        for n in (1.0, -1.0):
            got = apply(boost((0.0, 0.0, n * xi)), FourVector(1.0, 0.0, 0.0, -n))
            with mpmath.workprec(113):
                want = mpmath.exp(-mpmath.mpf(xi))
                for g, w in zip(got.components(), (want, 0, 0, -n * want)):
                    assert abs(mpmath.mpf(g) - w) <= K * EPS_64 * want, (xi, n, got)


def test_apply_preserves_dot(rng):
    for _ in range(100):
        t = random_rotor(rng)
        x = FourVector(*(rng.uniform(-2, 2) for _ in range(4)))
        y = FourVector(*(rng.uniform(-2, 2) for _ in range(4)))
        before = minkowski_dot(x, y)
        after = minkowski_dot(apply(t, x), apply(t, y))
        assert abs(before - after) < 1e-10


def test_generators_values():
    J, K = generators()
    assert J[2] == S3 * 0.5
    assert K[0] == Multivector(z1=HyperComplex(0, 0, 0, 0.5))


def test_commutator_basics(rng):
    a = rand_multivector(rng)
    assert commutator(ONE, a).isclose(scalar(0.0), 1e-15)
    J, K = generators()
    i_h = HyperComplex(0, 1)
    assert commutator(J[0], K[1]).isclose(K[2] * i_h, 1e-15)
    assert commutator(K[0], K[1]).isclose(J[2] * -i_h, 1e-15)


def test_lie_algebra_table():
    J, K = generators()
    for a in range(3):
        for b in range(3):
            if a == b:
                want_j = want_k = want_kk = scalar(0.0)
            else:
                c = 3 - a - b
                eps = HyperComplex(0, float(EPS[(a, b, c)]))
                want_j, want_k, want_kk = J[c] * eps, K[c] * eps, J[c] * -eps
            assert commutator(J[a], J[b]).isclose(want_j, 1e-14)
            assert commutator(J[a], K[b]).isclose(want_k, 1e-14)
            assert commutator(K[a], K[b]).isclose(want_kk, 1e-14)


def test_spin_transform_orbit():
    assert spin_transform(LorentzParams(0, 0, 0)).value == ONE
    standard = FourVector(0, 0, 0, 1)
    for phi, theta, xi in [(0.4, 0.9, 0.7), (5.2, 2.8, -2.1), (3.3, 0.1, 1.9)]:
        image = apply(spin_transform(LorentzParams(phi, theta, xi)), standard)
        want = FourVector(math.sinh(xi),
                          math.cosh(xi) * math.sin(theta) * math.cos(phi),
                          math.cosh(xi) * math.sin(theta) * math.sin(phi),
                          math.cosh(xi) * math.cos(theta))
        assert image.isclose(want, 1e-12)


def test_spin_transform_closed_form_matches_product():
    # the closed form against its defining product of three exponentials,
    # componentwise, to 16 eps of the largest component, cosh(xi/2)
    eps = np.finfo(float).eps
    for k in range(13):
        phi = -2 * math.pi + k * math.pi / 3
        for theta in (-3.0, -1.1, 0.0, 0.4, 1.5707963267948966, 2.9, math.pi):
            for xi in (-30.0, -17.5, -6.0, -0.3, 0.0, 0.8, 9.0, 22.0, 30.0):
                got = spin_transform(LorentzParams(phi, theta, xi)).value
                want = (rotation((0, 0, phi)) * rotation((0, theta, 0))
                        * boost((0, 0, xi))).value
                worst = max(abs(g - w) for g, w in
                            zip(got.coeffs16(), want.coeffs16()))
                assert worst <= 16 * eps * math.cosh(xi / 2), (phi, theta, xi)


def _spin_transform_span(phi, theta, xi) -> Rotor:
    """_spinor_span of spin_transform's eight closed-form components and its
    closed-form entries, each formed as the docstring writes it."""
    cp, sp = math.cos(phi / 2.0), math.sin(phi / 2.0)
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ch, sh = math.cosh(xi / 2.0), math.sinh(xi / 2.0)
    up, down = math.exp(xi / 2.0), math.exp(-xi / 2.0)
    cpct, spst, cpst, spct = cp * ct, sp * st, cp * st, sp * ct
    return _spinor_span(Rotor, cpct * ch, spst * ch, -cpst * ch, -spct * ch,
                        cpst * sh, spst * sh, cpct * sh, -spct * sh,
                        (complex(cpct * up, -spct * up),
                         complex(-cpst * down, spst * down),
                         complex(cpst * up, spst * up),
                         complex(cpct * down, spct * down)))


def _spin_bits(t):
    """The bits of a spin value's halves and of its kept entries, or None."""
    def bits(q):
        return None if q is None else [(c.real.hex(), c.imag.hex()) for c in q]
    return bits(t.value.p), bits(t.value.m), bits(t._half)


def test_spin_transform_is_its_spinor_span_bit_for_bit(rng):
    # spin_transform builds its value and entries in one step and decides
    # their finiteness from its factors; _spinor_span of the same components
    # and entries, which tests the entries, gives the same bits, zero signs
    # and kept entries (or None) included, at signed zeros, NaN, the ends of
    # the rapidity range and infinite rapidities, and on random draws
    angles = (0.0, -0.0, math.pi, 2 * math.pi, math.nan)
    xis = (0.0, -0.0, 1419.5, -1419.5, math.inf, -math.inf, math.nan)
    params = [(phi, theta, xi) for phi in angles for theta in angles
              for xi in xis]
    params += [(rng.uniform(-10, 10), rng.uniform(-10, 10),
                rng.choice((rng.uniform(-30, 30), rng.uniform(-1419, 1419))))
               for _ in range(2000)]
    kept = 0
    for phi, theta, xi in params:
        got = spin_transform(LorentzParams(phi, theta, xi))
        want = _spin_transform_span(phi, theta, xi)
        assert type(got) is Rotor
        assert _spin_bits(got) == _spin_bits(want), (phi, theta, xi)
        kept += got._half is not None
    assert 2000 < kept < len(params)  # NaN and infinite parameters keep None


def test_spin_values_form_their_value_on_first_read(rng):
    # spin_transform, from_rotor of it, boost, rotation and composition
    # leave value unset; reading value, ==, hash, repr, pickle, copy and
    # deepcopy, first on an unread value and then again, give the same bits
    # as a value built with its value set (_with_half of _spinor_span's)
    from hypalg import from_rotor
    from hypalg.lorentz import _with_half

    angles = (0.0, -0.0, math.pi, 2 * math.pi, math.nan)
    xis = (0.0, -0.0, 1419.5, -1419.5, math.inf, -math.inf, math.nan)
    params = [(phi, theta, xi) for phi in angles for theta in angles
              for xi in xis]
    params += [(rng.uniform(-10, 10), rng.uniform(-10, 10),
                rng.choice((rng.uniform(-30, 30), rng.uniform(-1419, 1419))))
               for _ in range(300)]

    def copies(t):
        return [pickle.loads(pickle.dumps(t, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] \
            + [copy.copy(t), copy.deepcopy(t)]

    reads = {
        "value": _spin_bits,
        "repr": repr,
        "pickle": lambda t: pickle.dumps(t),
        "copies": lambda t: [(type(c), _spin_bits(c)) for c in copies(t)],
    }
    for phi, theta, xi in params:
        want = _spin_transform_span(phi, theta, xi)
        eager = _with_half(Rotor, want.value, want._half)
        # NaN parts compare unequal and hash by identity
        ordered = not any(math.isnan(x) for c in eager.value.p
                          for x in (c.real, c.imag))
        checks = dict(reads, **({"eq": lambda t: t == eager, "hash": hash}
                                if ordered else {}))
        for name, read in checks.items():
            t = spin_transform(LorentzParams(phi, theta, xi))
            assert not slot_set(t, "value")
            first = read(t)
            assert slot_set(t, "value")
            assert first == read(t) == read(eager), (name, phi, theta, xi)
            assert _spin_bits(t) == _spin_bits(eager), (phi, theta, xi)
    # every builder of a value from its p half or parameters forms nothing
    t = spin_transform(LorentzParams(0.4, 1.3, -2.0))
    built = (t, from_rotor(t), boost((0.3, -0.2, 0.1)),
             rotation((0.4, 1.3, -2.0)), t * boost((1.0, 2.0, 3.0)),
             boost((0.3, -0.2, 0.1)) * rotation((0.4, 1.3, -2.0)))
    assert not any(slot_set(a, "value") for a in built)
    formed = _spin_bits(from_rotor(t))  # its own value, not the rotor's
    assert not slot_set(t, "value") and formed == _spin_bits(t)
    # the hook forms value and _terms only: copy's and pickle's probes and
    # an unset source raise the usual AttributeError, with no recursion
    from hypalg.hypernum import _new

    t = spin_transform(LorentzParams(0.4, 1.3, -2.0))
    for name in ("__deepcopy__", "__copy__", "__setstate__", "not_a_field"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(t, name)
    assert not slot_set(t, "value")
    with pytest.raises(AttributeError, match="no attribute '_src'"):
        _new(Rotor).value


def test_a_given_value_keeps_its_zero_signs():
    # a Rotor(m) whose m half is _sigma(m.p) only up to zero signs keeps its
    # entries, and its from_rotor, act, composition and inverse read m
    # itself: m's bits, not those of the p half's pair form
    from hypalg import act, from_rotor
    from hypalg.cayley import _pauli

    def flipped(c):
        return complex(-c.real if c.real == 0 else c.real,
                       -c.imag if c.imag == 0 else c.imag)

    def bits(q):
        return [(c.real.hex(), c.imag.hex()) for c in q]

    def pair_form(p):
        return bits(p) + bits(_sigma(p))

    p = rotation((0.0, 0.0, 0.7)).value.p
    m = _halves(p, tuple(map(flipped, _sigma(p))))
    r = Rotor(m)
    assert r._half is not None and bits(m.m) != bits(_sigma(m.p))
    other = spin_transform(LorentzParams(0.4, 1.3, -2.0))
    omega = boost((0.3, -0.2, 0.1)).value
    assert _spin_bits(from_rotor(r))[:2] == (bits(m.p), bits(m.m))
    assert bits(r.inverse().value.p + r.inverse().value.m) \
        == bits(m.bar().p + m.bar().m)
    for got, (a, b) in (((r * other).value, (m.p, other.value.p)),
                        ((other * r).value, (other.value.p, m.p)),
                        (act(omega, from_rotor(r)).value, (omega.p, m.p))):
        assert bits(got.p + got.m) == pair_form(_pauli(a, b))


def test_composition_order(rng):
    t1, t2 = random_rotor(rng), random_rotor(rng)
    x = FourVector(*(rng.uniform(-2, 2) for _ in range(4)))
    chained = apply(t2, apply(t1, x))
    composed = apply(t2 * t1, x)
    assert chained.isclose(composed, 1e-12)


def test_unit_property_of_products(rng):
    for _ in range(50):
        t = random_rotor(rng) * random_rotor(rng)
        assert rel_close(t.value * t.value.bar(), ONE, 1e-12)
        assert t.is_unit(1e-10)


def test_matrix_of_identity_and_boost():
    assert isinstance(matrix_of(Rotor(ONE)), np.ndarray)
    assert np.allclose(matrix_of(Rotor(ONE)), np.eye(4))
    xi = 0.8
    m = matrix_of(boost((0, 0, xi)))
    assert abs(m[0, 0] - math.cosh(xi)) < 1e-14
    assert abs(m[0, 3] - math.sinh(xi)) < 1e-14
    assert abs(m[3, 0] - math.sinh(xi)) < 1e-14
    assert abs(m[1, 1] - 1.0) < 1e-14


def test_matrix_preserves_metric_and_composes(rng):
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(25):
        t1, t2 = random_rotor(rng), random_rotor(rng)
        m1 = matrix_of(t1)
        assert np.max(np.abs(m1.T @ g @ m1 - g)) < 1e-10
        assert np.max(np.abs(matrix_of(t2 * t1) - matrix_of(t2) @ m1)) < 1e-10


def test_matrix_agrees_with_apply(rng):
    t = random_rotor(rng)
    m = matrix_of(t)
    x = FourVector(0.2, -1.0, 0.5, 3.0)
    assert np.allclose(m @ np.array(x.components()),
                       np.array(apply(t, x).components()), atol=1e-12)


# -- the half each rotor keeps ---------------------------------------------------


def _unsigned(values) -> list[str]:
    """float.hex of each value with a zero's sign dropped (x + 0.0)."""
    return [(v + 0.0).hex() for v in values]


def _matrix_outcome(t: Rotor):
    try:
        return [v.hex() for v in matrix_of(t).ravel().tolist()]
    except NotAParavector as exc:
        return "raised", repr(exc.residual)  # repr, so that NaN equals NaN


def _apply_columns_outcome(t: Rotor):
    """The four apply images of e0..e3 as columns, as float.hex in row order."""
    try:
        columns = [apply(t, FourVector(*basis)).components()
                   for basis in np.eye(4).tolist()]
    except NotAParavector as exc:
        return "raised", repr(exc.residual)
    return [v.hex() for row in zip(*columns) for v in row]


def test_matrix_of_half_route_is_the_apply_columns(rng):
    # matrix_of's closed form gives apply's images of e0..e3 bit for bit,
    # zero signs included, on unit rotors from small ones to boosts near
    # the float range, on non-unit spin values, on rotors with zero image
    # parts (pure rotations, sparse spin values) and on tiny ones
    rotors = [spin_rotor(rng) for _ in range(300)]
    rotors += [random_rotor(rng) for _ in range(100)]
    rotors += [boost((0, 0, xi)) * rotation((0.3, -1.1, 2.0))
               for xi in (-700.0, 350.0, 700.0)]
    rotors += [rotation((0.0, 0.0, 0.0)), rotation((0.0, -0.0, 1e-300)),
               rotation((0.0, 0.0, math.pi)), boost((0.0, -0.0, 2.0))]
    rotors += [Rotor(spin_rotor(rng).value * rng.uniform(0.1, 10.0))
               for _ in range(100)]
    rotors += [_spinor_span(Rotor, *(rng.uniform(-3, 3) for _ in range(8)))
               for _ in range(100)]
    rotors += _sparse_rotors(rng)
    rotors += [Rotor(Multivector(HyperComplex(a))) for a in (1e-160, 1e-310)]
    for t in rotors:
        assert t._half is not None
        want = _apply_columns_outcome(t)
        assert want[0] != "raised"
        assert _matrix_outcome(t) == want, t


def _sparse_rotors(rng) -> list[Rotor]:
    """Spin-span values of components from {0, -0.0, 1, -2.5}, whose images
    have zero parts: 200 drawn, then four whose nonzero images' x0 or x3
    reads a -0.0 part of gc or kc."""
    rotors = [_spinor_span(Rotor, *(rng.choice((0.0, -0.0, 1.0, -2.5))
                                    for _ in range(8))) for _ in range(200)]
    return rotors + [_spinor_span(Rotor, *c) for c in (
        (-0.5, -1.0, 0.0, -0.5, -0.0, -1.0, -1.0, -0.5),
        (-1.0, 1.0, -0.0, 2.5, 0.0, 1.0, -1.0, 0.0),
        (1.0, -1.0, -0.5, 0.0, -0.5, 2.5, -1.0, -0.0),
        (-1.0, 2.5, -1.0, 0.0, 2.5, 2.5, -1.0, 0.0))]


def test_matrix_of_is_one_closed_form(rng, monkeypatch):
    # pure rotations, a pure boost and sparse spin values, whose images
    # have zero parts, take the closed form: with apply and _spin_sandwich
    # made to raise, matrix_of answers with the same bits, zero signs
    # included, for every rotor with |a|^2 in [_TINY, 2^1000)
    rotors = [rotation((0.3, 0.2, 0.1)), rotation((0.0, 0.0, math.pi)),
              boost((0.0, -0.0, 2.0))]
    rotors += [t for t in _sparse_rotors(rng)
               if _TINY <= sum(t._terms[:2]) * 0.5]
    assert len(rotors) > 150
    want = [_matrix_outcome(t) for t in rotors]
    assert all(w[0] != "raised" for w in want)

    def refuse(*args, **kwargs):
        raise AssertionError("a column route taken")

    monkeypatch.setattr(lorentz, "apply", refuse)
    monkeypatch.setattr(lorentz, "_spin_sandwich", refuse)
    assert [_matrix_outcome(t) for t in rotors] == want


def test_matrix_of_raises_what_the_apply_columns_raise(rng, monkeypatch):
    # junk rotors take the full route, and a half that overflows raises
    # from its first column, both with the NotAParavector apply raises
    junk = [Rotor(ONE + S1), Rotor(Multivector(HyperComplex(math.inf))),
            Rotor(Multivector(z2=HyperComplex(math.nan)))]
    junk += [Rotor(rand_multivector(rng)) for _ in range(50)]
    for t in junk:
        assert t._half is None
        want = _apply_columns_outcome(t)
        assert want[0] == "raised", t
        assert _matrix_outcome(t) == want, t
    overflow = boost((0, 0, 1400))
    assert overflow._half is not None
    assert _matrix_outcome(overflow) == _apply_columns_outcome(overflow) \
        == ("raised", "nan")

    # with the entry route out of reach, the full route still answers
    def refuse(*args, **kwargs):
        raise AssertionError("half route taken")

    monkeypatch.setattr("hypalg.lorentz._matrix_entries", refuse)
    with pytest.raises(NotAParavector) as got:
        matrix_of(Rotor(Multivector(HyperComplex(math.inf))))
    assert math.isnan(got.value.residual)
    with pytest.raises(AssertionError):
        matrix_of(rotation((0.3, 0.2, 0.1)))


def test_composition_on_the_half(rng):
    # composition is the full product up to the sign of a zero, and where
    # the halves' product is not finite, the full product bit for bit
    def bits(t):
        return [(c.real.hex(), c.imag.hex()) for c in t.value.p + t.value.m]

    def unsigned(t):
        return _unsigned([x for c in t.value.p + t.value.m
                          for x in (c.real, c.imag)])

    for _ in range(300):
        a, b = spin_rotor(rng), spin_rotor(rng)
        ab = a * b
        full = Rotor(a.value * b.value)
        assert ab._half is not None and ab == full
        assert unsigned(ab) == unsigned(full)
        # each kept entries tuple is the matrix of the value's own p half,
        # as _spin_half finds it, to rounding: ab's is the product of a's
        # and b's, within K eps of the product of their Frobenius norms
        for t in (a, b, ab, a.inverse()):
            assert t._half is not None and _spin_half(t.value) is not None
        norm = math.sqrt(sum(abs(h) ** 2 for h in a._half)
                         * sum(abs(h) ** 2 for h in b._half))
        assert max(abs(h - w) for h, w in zip(ab._half, _spin_half(ab.value))) \
            <= K * EPS_64 * norm
        # the inverse's entries are adj A, exactly the entries of value.bar()
        # where a's entries are its value's
        h00, h01, h10, h11 = a._half
        assert a.inverse()._half == (h11, -h01, -h10, h00)
        w00, w01, w10, w11 = _entries(a.value.p)
        assert _entries(a.value.bar().p) == (w11, -w01, -w10, w00)
    huge = boost((0, 0, 1400))
    for a, b in ((huge, huge), (huge, huge.inverse()),
                 (huge, Rotor(Multivector(HyperComplex(math.inf))))):
        assert bits(a * b) == bits(Rotor(a.value * b.value))


def test_rebuilt_rotors_keep_the_half_route(monkeypatch):
    # a rotor that pickle or copy rebuilds carries its entries: with every
    # full route and the membership test itself made to raise, apply,
    # matrix_of and composition still answer
    t = spin_transform(LorentzParams(0.4, 1.3, -2.0))
    x = FourVector(1.0, 0.5, -2.0, 0.25)
    want = (apply(t, x), matrix_of(t).tolist(), (t * t).value)
    turn = rotation((0.3, 0.2, 0.1))  # its e0 image has x1 = x2 = 0
    want_turn = matrix_of(turn).tolist()
    copies = [pickle.loads(pickle.dumps(t, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(t), copy.deepcopy(t)]
    plain = Rotor(ONE + S1)  # a rotor without a half

    def refuse(*args, **kwargs):
        raise AssertionError("full route taken")

    monkeypatch.setattr(lorentz, "extract", refuse)
    monkeypatch.setattr(lorentz, "apply", refuse)  # matrix_of's full route
    monkeypatch.setattr(Multivector, "__mul__", refuse)
    monkeypatch.setattr("hypalg.lorentz._spin_half", refuse)
    for copied in copies:
        assert copied._half is not None and copied == t
        got = (apply(copied, x), matrix_of(copied).tolist(),
               (copied * copied).value)
        assert got == want
    assert matrix_of(pickle.loads(pickle.dumps(turn))).tolist() == want_turn
    with pytest.raises(AssertionError, match="full route"):
        plain * plain
