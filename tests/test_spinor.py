"""Spinor subalgebra, component views, the matrix/column bridge, and products."""

import math
from fractions import Fraction

import pytest

from hypalg import (E1, S1, S2, S3, ColumnSpinor, EvenComponents, HMat2,
                    HyperComplex, LorentzParams, Multivector,
                    NonScalarResidual, NotAParavector, NotInSpinorAlgebra,
                    OddComponents, Rotor, Spinor, act, boost, even_components,
                    extract, from_column, from_even_components, from_matrix,
                    from_multivector, from_odd_components, from_rotor,
                    mott_factor, nonrel_vector, odd_components,
                    product_modulus_sq, rotation, spin_transform,
                    sprod_algebraic, sprod_column, to_column, to_matrix)
from hypalg.cayley import ONE, PSEUDOSCALAR
from hypalg.lorentz import IDENTITY, _sigma
from hypalg.hypernum import I, J

from conftest import (UNIT_TABLE, assert_hyper_close, rand_hyper,
                      rand_multivector, rand_subalgebra, rel_close)

H = HyperComplex
I_S1 = Multivector(z1=H(0, 1))
I_S2 = Multivector(z2=H(0, 1))
I_S3 = Multivector(z3=H(0, 1))
J_S1 = E1
J_S2 = Multivector(z2=H(0, 0, 1))
J_S3 = Multivector(z3=H(0, 0, 1))
OPERATORS = (PSEUDOSCALAR, I_S1, I_S2, I_S3, J_S1, J_S2, J_S3)


def spinor_of(phi, theta, xi) -> Spinor:
    return from_rotor(spin_transform(LorentzParams(phi, theta, xi)))


def closed_form_components(phi, theta, xi):
    cp, sp = math.cos(phi / 2), math.sin(phi / 2)
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    ch, sh = math.cosh(xi / 2), math.sinh(xi / 2)
    return {"s": cp * ct * ch, "b32": sp * st * ch, "b13": -cp * st * ch,
            "b21": -sp * ct * ch, "b10": cp * st * sh, "b20": sp * st * sh,
            "b30": cp * ct * sh, "p": -sp * ct * sh}


def test_from_rotor_accepts_rotors_and_rejects_raw_vectors():
    assert from_rotor(Rotor(ONE)).value == ONE
    psi = spinor_of(0.5, 1.0, -0.3)
    assert psi.value == spin_transform(LorentzParams(0.5, 1.0, -0.3)).value
    with pytest.raises(NotInSpinorAlgebra):
        from_multivector(S1)
    with pytest.raises(NotInSpinorAlgebra):
        from_rotor(Rotor(E1 + S2))


def test_membership_guard_refuses_nan_outside_span():
    base = spinor_of(0.5, 1.0, -0.3).value.coeffs16()
    # z0.y, z0.v and z_k.x, z_k.w in the (1, i, j, ij) x (1, s1, s2, s3) order
    for k in (4, 8, 1, 2, 3, 13, 14, 15):
        coeffs = list(base)
        coeffs[k] = math.nan
        with pytest.raises(NotInSpinorAlgebra) as err:
            from_multivector(Multivector.from_coeffs16(coeffs))
        assert math.isnan(err.value.residual), k


def test_even_components_examples():
    ec = even_components(Spinor.standard())
    assert (ec.s, ec.p) == (1.0, 0.0)
    assert ec.b32 == ec.b13 == ec.b21 == ec.b10 == ec.b20 == ec.b30 == 0.0

    ec = even_components(spinor_of(math.pi / 2, math.pi / 2, 0.0))
    assert abs(ec.s - 0.5) < 1e-15
    assert abs(ec.b32 - 0.5) < 1e-15
    assert abs(ec.b13 + 0.5) < 1e-15 and abs(ec.b21 + 0.5) < 1e-15
    assert ec.b10 == ec.b20 == ec.b30 == ec.p == 0.0

    xi = 0.8
    ec = even_components(spinor_of(0.0, 0.0, 2 * xi))
    assert abs(ec.s - math.cosh(xi)) < 1e-14
    assert abs(ec.b30 - math.sinh(xi)) < 1e-14


def test_even_components_match_closed_forms():
    for phi, theta, xi in [(0.7, 1.1, 0.9), (4.4, 2.9, -2.2), (2.0, 0.2, 1.4)]:
        got = even_components(spinor_of(phi, theta, xi)).as_dict()
        for key, want in closed_form_components(phi, theta, xi).items():
            assert abs(got[key] - want) < 1e-13, key


def test_even_components_tensor_view():
    ec = even_components(spinor_of(0.7, 1.1, 0.9))
    assert ec.b == (ec.b32, ec.b13, ec.b21, ec.b10, ec.b20, ec.b30)
    t = ec.biparavector_tensor()
    for mu in range(4):
        assert t[mu][mu] == 0.0
        for nu in range(4):
            assert t[mu][nu] == -t[nu][mu]
    assert t[3][2] == ec.b32 and t[2][3] == -ec.b32
    assert t[1][0] == ec.b10 and t[1][3] == ec.b13


def test_even_round_trip(rng):
    for _ in range(100):
        psi = Spinor(rand_subalgebra(rng))
        assert from_even_components(even_components(psi)).value == psi.value


def test_odd_components_examples():
    oc = odd_components(Spinor.standard())
    assert oc.v == (1.0, 0.0, 0.0, 0.0) and oc.eta == (0.0, 0.0, 0.0, 0.0)
    oc = odd_components(Spinor(PSEUDOSCALAR))
    assert oc.v == (0.0, 0.0, 0.0, 0.0) and oc.eta == (1.0, 0.0, 0.0, 0.0)
    oc = odd_components(Spinor(I_S1))
    assert oc.eta == (0.0, 1.0, 0.0, 0.0)


def test_odd_expansion_via_triparavectors(rng):
    # the pseudovector part ij*eta^mu e_mu is a combination of the four
    # independent triparavectors
    from hypalg import FourVector, OddComponents, embed, triparavector
    for _ in range(25):
        v = tuple(rng.uniform(-2, 2) for _ in range(4))
        eta = tuple(rng.uniform(-2, 2) for _ in range(4))
        psi = from_odd_components(OddComponents(v=v, eta=eta))
        pseudo = (triparavector(1, 2, 3) * -eta[0]
                  + triparavector(0, 2, 3) * -eta[1]
                  + triparavector(0, 1, 3) * eta[2]
                  + triparavector(0, 1, 2) * -eta[3])
        rebuilt = embed(FourVector(*v)) + pseudo
        assert rebuilt.isclose(psi.value, 1e-14)


def test_even_odd_relabel_round_trip(rng):
    for _ in range(100):
        psi = Spinor(rand_subalgebra(rng))
        assert from_odd_components(odd_components(psi)).value == psi.value
        ec, oc = even_components(psi), odd_components(psi)
        assert oc.v == (ec.s, ec.b10, ec.b20, ec.b30)
        assert oc.eta == (ec.p, ec.b32, ec.b13, ec.b21)


def test_to_matrix_basics():
    m = to_matrix(ONE)
    assert m.m11 == H(1) and m.m22 == H(1) and m.m12 == m.m21 == H()
    assert to_matrix(S1 * S2) == to_matrix(S3 * H(0, 1))
    # halving an infinite entry keeps its parts' zero halves
    pauli = HMat2(H(math.inf), H(), H(), H(1.0)).pauli
    assert not any(math.isnan(part.real) or math.isnan(part.imag)
                   for part in pauli.p + pauli.m)


def test_matrix_homomorphism_and_bijection(rng):
    for _ in range(200):
        a, b = rand_multivector(rng), rand_multivector(rng)
        assert to_matrix(a) * to_matrix(b) == to_matrix(a * b)
        assert from_matrix(to_matrix(a)) == a


def test_matrix_from_entries_decomposes_to_rounding(rng):
    # a matrix built from its entries recovers the multivector to a few ulps
    # of its largest coefficient, across six decades of magnitude
    eps = 2.0 ** -52
    for _ in range(200):
        a = Multivector(*(H(*(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3, 3)
                              for _ in range(4))) for _ in range(4)))
        m = to_matrix(a)
        rebuilt = type(m)(m.m11, m.m12, m.m21, m.m22)
        assert from_matrix(rebuilt).isclose(a, 4 * eps * a.max_abs())
        for slot in ("m11", "m12", "m21", "m22"):
            assert getattr(rebuilt, slot).isclose(getattr(m, slot),
                                                  8 * eps * a.max_abs())


def test_to_column_examples():
    assert to_column(Spinor.standard()) == ColumnSpinor(H(1), H())
    assert to_column(Spinor(I_S3)) == ColumnSpinor(I, H())
    assert to_column(Spinor(I_S1)) == ColumnSpinor(H(), I)
    assert to_column(Spinor(J_S3)) == ColumnSpinor(J, H())


def test_to_column_is_matrix_on_standard_column(rng):
    chi = ColumnSpinor(H(1), H())
    for _ in range(50):
        psi = Spinor(rand_subalgebra(rng))
        assert to_column(psi) == to_matrix(psi.value).apply(chi)


def test_from_column_examples_and_round_trip(rng):
    assert from_column(ColumnSpinor(H(1), H())).value == ONE
    assert from_column(ColumnSpinor(J, H())).value == J_S3
    for _ in range(300):
        psi = Spinor(rand_subalgebra(rng))
        assert from_column(to_column(psi)).value == psi.value
        col = ColumnSpinor(rand_hyper(rng), rand_hyper(rng))
        assert to_column(from_column(col)) == col


def _bits(half):
    return [(c.real.hex(), c.imag.hex()) for c in half]


def test_library_spin_values_have_m_sigma_of_p_bit_for_bit(rng):
    # every rotor and spinor the library builds comes from its p half, so
    # its m half is _sigma(p) to the sign of every zero (Rotor * Rotor is
    # equal only up to zero signs, and is left out)
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310,
                1e300, -1e300)
    finite_specials = (0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300)

    def field(choices=specials, size=10.0):
        if rng.random() < 0.3:
            return rng.choice(choices)
        return rng.uniform(-size, size)

    def angle():
        return field((0.0, -0.0, 5e-324, -1e-310), 7.0)

    values = [IDENTITY.value]
    for _ in range(400):
        values += [
            rotation([field(finite_specials) for _ in range(3)]).value,
            boost([angle() for _ in range(3)]).value,
            spin_transform(LorentzParams(
                field(finite_specials), field(finite_specials),
                field((0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan),
                      30.0))).value,
            from_even_components(EvenComponents(
                *(field() for _ in range(8)))).value,
            from_odd_components(OddComponents(
                tuple(field() for _ in range(4)),
                tuple(field() for _ in range(4)))).value,
            from_column(ColumnSpinor(H(*(field() for _ in range(4))),
                                     H(*(field() for _ in range(4))))).value,
        ]
    values += [rotation((0.0, -0.0, 0.0)).value, boost((-0.0, 0.0, 0.0)).value]
    for a in values:
        assert _bits(a.m) == _bits(_sigma(a.p)), a


def test_act_identity_and_closure(rng):
    psi = Spinor(rand_subalgebra(rng))
    assert act(ONE, psi).value == psi.value
    assert act(ONE, psi).isclose(psi, 0.0)
    assert not act(PSEUDOSCALAR, psi).isclose(psi)
    with pytest.raises(NotInSpinorAlgebra):
        act(S1, psi)


def test_act_equivariance(rng):
    for omega in OPERATORS:
        mat = to_matrix(omega)
        for _ in range(25):
            psi = Spinor(rand_subalgebra(rng))
            lhs = to_column(act(omega, psi))
            rhs = mat.apply(to_column(psi))
            assert lhs.isclose(rhs, 1e-13)


def test_sprod_column_examples():
    chi = ColumnSpinor(H(1), H())
    assert sprod_column(chi, chi) == H(1)
    assert sprod_column(chi, ColumnSpinor(I, H())) == I
    assert sprod_column(ColumnSpinor(I, H()), ColumnSpinor(I, H())) == H(1)


def test_sprod_algebraic_examples():
    std = Spinor.standard()
    assert sprod_algebraic(std, std) == H(1)
    assert_hyper_close(sprod_algebraic(std, Spinor(I_S3)), I, 1e-15)
    assert_hyper_close(sprod_algebraic(Spinor(I_S1), Spinor(I_S2)), I, 1e-15)


def test_sprod_equivalence(rng):
    for _ in range(300):
        a, b = Spinor(rand_subalgebra(rng)), Spinor(rand_subalgebra(rng))
        lhs = sprod_algebraic(a, b)
        rhs = sprod_column(to_column(a), to_column(b))
        assert_hyper_close(lhs, rhs, 1e-12)


def test_sprod_residual_guard():
    # a value outside the spinor span leaves non-scalar terms behind
    with pytest.raises(NonScalarResidual):
        sprod_algebraic(Spinor(S1), Spinor.standard())


def test_sprod_residual_guard_refuses_nan():
    # a NaN in either factor reaches the product's non-scalar slots
    psi = spinor_of(0.5, 1.0, -0.3)
    base = psi.value.coeffs16()
    for k in range(16):
        coeffs = list(base)
        coeffs[k] = math.nan
        bad = Spinor(Multivector.from_coeffs16(coeffs))
        for a, b in ((bad, psi), (psi, bad)):
            with pytest.raises(NonScalarResidual) as err:
                sprod_algebraic(a, b)
            assert math.isnan(err.value.residual), k


@pytest.mark.parametrize("scale", (1e-3, 1.0, 1e6))
def test_membership_guards_at_their_threshold(scale):
    # a member of size scale plus one coefficient d outside the span, whose
    # residual is exactly d: it passes up to 1e-12 * max(1, scale), inclusive
    limit = 1e-12 * max(1.0, scale)
    guards = (
        (lambda d: extract(Multivector(H(scale, d))), NotAParavector),
        (lambda d: from_multivector(Multivector(H(scale, d))),
         NotInSpinorAlgebra),
        # sprod(1, scale + d*s1) = scale + d*s1 - d*i*s2
        (lambda d: sprod_algebraic(Spinor.standard(),
                                   Spinor(Multivector(H(scale), H(d)))),
         NonScalarResidual),
    )
    above = math.nextafter(limit, math.inf)
    for guard, error in guards:
        guard(math.nextafter(limit, 0.0))
        guard(limit)
        with pytest.raises(error) as err:
            guard(above)
        assert err.value.residual == above, error
        with pytest.raises(error) as err:
            guard(math.nan)
        assert math.isnan(err.value.residual), error


def test_membership_guards_refuse_an_infinite_residual():
    # inf <= 1e-12 * max(1, max_abs = inf) holds, so a bound test alone
    # passed these and returned NaN or infinite components
    with pytest.raises(NotAParavector) as err:
        extract(Multivector(H(0.0, 0.0, math.inf)))
    assert err.value.residual == math.inf
    with pytest.raises(NotInSpinorAlgebra) as err:
        from_multivector(Multivector(H(1.0), H(math.inf)))
    assert err.value.residual == math.inf


def test_scalar_guard_refuses_a_non_finite_scalar():
    # the scalar guard's span is the whole scalar slot, so an infinite part
    # there leaves nothing outside the span to show it
    for z in (H(math.inf), H(0.0, 0.0, 0.0, -math.inf), H(math.nan)):
        with pytest.raises(NonScalarResidual) as err:
            NonScalarResidual.check(Multivector(z))
        assert math.isnan(err.value.residual), z


def test_normalization(rng):
    for _ in range(100):
        params = LorentzParams(rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, math.pi), rng.uniform(-3, 3))
        psi = from_rotor(spin_transform(params))
        col = to_column(psi)
        assert_hyper_close(sprod_column(col, col), H(1), 1e-12)
        assert rel_close(psi.value.bar() * psi.value, ONE, 1e-12)


def test_product_modulus_against_column_oracle(rng):
    std = Spinor.standard()
    for _ in range(100):
        params = LorentzParams(rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, math.pi), rng.uniform(-3, 3))
        psi = from_rotor(spin_transform(params))
        m2 = product_modulus_sq(psi, std)
        oracle = sprod_column(to_column(psi), to_column(std))
        assert_hyper_close(m2, oracle * oracle.conj(), 1e-12)
        # the product against the standard frame is purely real: cos^2(theta/2)
        assert abs(m2.x - math.cos(params.theta / 2) ** 2) < 1e-12
        assert abs(m2.w) < 1e-12 and m2.y == m2.v == 0.0


def test_product_modulus_elastic_values():
    std = Spinor.standard()
    m2 = product_modulus_sq(spinor_of(0.0, math.pi / 2, 0.0), std)
    assert abs(m2.x - 0.5) < 1e-14 and abs(m2.w) < 1e-14
    for phi in (0.0, 1.0, 2.5):
        m2 = product_modulus_sq(spinor_of(phi, 0.0, 0.0), std)
        assert_hyper_close(m2, H(1), 1e-14)


def test_general_pair_modulus_can_have_hyperbolic_part():
    from hypalg import boost, rotation
    a = from_rotor(rotation((0.0, -0.9, 0.0)))
    b = from_rotor(boost((0.0, 1.4, 0.0)))
    m2 = product_modulus_sq(a, b)
    assert abs(m2.w) > 1e-3


# -- the half route of product_modulus_sq -------------------------------------
#
# product_modulus_sq takes the spinor product on the two M2(C) halves when
# both values carry one and |a|^2 |b|^2 <= 2**1000, and sprod_algebraic
# otherwise.  The oracle below is
# independent of both routes: sprod_column of the two columns, in exact
# Fraction arithmetic through the unit table, with the eight components read
# from the stored p half, (s + i p, b10 + i b32, b20 + i b13, b30 + i b21).

EPS = 2.0 ** -52
K = 16  # the error bounds' constant, as in perfbench's checks


def _exact_product(x, y):
    """The ring product of two (1, i, j, ij) 4-tuples of Fractions."""
    out = [Fraction(0)] * 4
    for s, a in enumerate(x):
        for t, b in enumerate(y):
            sign, unit = UNIT_TABLE[s][t]
            out[unit] += sign * a * b
    return out


def _exact_column(half):
    """to_column of the span value with the p half, as two exact 4-tuples."""
    (s, p), (b10, b32), (b20, b13), (b30, b21) = [
        (Fraction(c.real), Fraction(c.imag)) for c in half]
    return (s, b21, b30, p), (-b13, b32, b10, b20)


def _exact_conj(z):
    x, y, v, w = z
    return (x, -y, -v, w)


def _exact_modulus_sq(a: Spinor, b: Spinor) -> tuple[Fraction, Fraction]:
    """The p part of the exact product_modulus_sq(a, b), as (re, im)."""
    (a1, a2), (b1, b2) = _exact_column(a.value.p), _exact_column(b.value.p)
    z = [u + v for u, v in zip(_exact_product(_exact_conj(a1), b1),
                               _exact_product(_exact_conj(a2), b2))]
    x, y, v, w = _exact_product(z, _exact_conj(z))
    return x + v, y + w


def _norm_sq(a: Spinor) -> Fraction:
    """|a|^2, the sum of the squares of the eight components."""
    return sum(Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in a.value.p)


def _error_sq(m2: HyperComplex, exact: tuple[Fraction, Fraction]) -> Fraction:
    """|m2.p - exact|^2, exactly."""
    re, im = exact
    return (Fraction(m2.p.real) - re) ** 2 + (Fraction(m2.p.imag) - im) ** 2


def _error(m2: HyperComplex, exact: tuple[Fraction, Fraction],
           scale: Fraction) -> float:
    """|m2.p - exact| / scale."""
    return math.sqrt(_error_sq(m2, exact) / scale ** 2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a refusal is an outcome to compare
        return exc


def _finite(m2) -> bool:
    return not isinstance(m2, Exception) and all(
        math.isfinite(c) for z in (m2.p, m2.m) for c in (z.real, z.imag))


def _algebraic_modulus_sq(a: Spinor, b: Spinor) -> HyperComplex:
    return sprod_algebraic(a, b).modulus_sq()


def test_product_modulus_half_route_is_within_its_error_bound(rng):
    # spin transforms up to |xi| = 30 and span values with coefficients of
    # 1e-8 to 1e8: the half route is within K eps |a|^2 |b|^2 of the exact
    # value, and its worst error is no larger than sprod_algebraic's
    def spin():
        return from_rotor(spin_transform(LorentzParams(
            rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
            rng.uniform(-30, 30))))

    def member():
        return from_even_components(EvenComponents(*(
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8, 8)
            for _ in range(8))))

    worst = {"half": 0.0, "algebraic": 0.0}
    for draw in (spin, member):
        for _ in range(300):
            a, b = draw(), draw()
            exact = _exact_modulus_sq(a, b)
            scale = _norm_sq(a) * _norm_sq(b)
            half = _error(product_modulus_sq(a, b), exact, scale)
            assert half <= K * EPS, (a, b, half)
            worst["half"] = max(worst["half"], half)
            worst["algebraic"] = max(worst["algebraic"], _error(
                _algebraic_modulus_sq(a, b), exact, scale))
    assert worst["half"] <= worst["algebraic"], worst


def test_product_modulus_keeps_every_refused_and_non_finite_outcome(rng):
    # on values with special fields, wherever either route refuses or gives
    # a NaN or infinite part, product_modulus_sq gives exactly what
    # sprod_algebraic(a, b).modulus_sq() gives: the same bits, or the same
    # exception type and message; where both are finite, both are within
    # K eps |a|^2 |b|^2 of the exact value, plus K units of 2**-1074 for
    # what a subnormal result loses
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
                3e154, -3e154, 1e308, -1e308, 1e-300, 5e-324, -5e-324,
                1e-310, 2.2250738585072014e-308, 1.0, -1.0)

    def field():
        return rng.choice(specials) if rng.random() < 0.5 else rng.uniform(-10, 10)

    def value():
        r = rng.random()
        if r < 0.6:
            return from_even_components(EvenComponents(
                *(field() for _ in range(8))))
        if r < 0.8:  # from_rotor refuses the NaN parts of xi = inf, NaN
            return Spinor(spin_transform(LorentzParams(
                rng.uniform(-7, 7), rng.uniform(-4, 4), rng.choice(
                    (rng.uniform(-30, 30), 1400.0, -1400.0, math.inf,
                     math.nan)))).value)
        # off the half route: a finite part of the m half moved
        psi = from_even_components(EvenComponents(
            *(rng.uniform(-10, 10) for _ in range(8))))
        return Spinor(psi.value + Multivector(H(0.0, 0.0, 0.0, 1e-300)))

    kept = 0
    for _ in range(3000):
        a, b = value(), value()
        got = _outcome(product_modulus_sq, a, b)
        want = _outcome(_algebraic_modulus_sq, a, b)
        if _finite(got) and _finite(want):
            exact = _exact_modulus_sq(a, b)
            scale = _norm_sq(a) * _norm_sq(b)
            bound = K * Fraction(EPS) * scale + K * Fraction(5e-324)
            assert _error_sq(got, exact) <= bound ** 2, (a, b)
            assert _error_sq(want, exact) <= bound ** 2, (a, b)
        elif isinstance(want, Exception) or isinstance(got, Exception):
            assert (type(got), str(got)) == (type(want), str(want)), (a, b)
            kept += 1
        else:
            assert _bits((got.p, got.m)) == _bits((want.p, want.m)), (a, b)
            kept += 1
    assert kept > 1000


def test_product_modulus_takes_the_half_route(monkeypatch):
    # with the algebraic route out of reach, spin transforms against the
    # standard spinor still give cos^2(theta/2), to K eps (1 + cosh xi)
    def refuse(*args, **kwargs):
        raise AssertionError("sprod_algebraic called")

    monkeypatch.setattr("hypalg.spinor.sprod_algebraic", refuse)
    std = Spinor.standard()
    for phi, theta, xi in ((0.7, 1.1, 0.9), (4.4, 2.9, -2.2), (2.0, 0.2, 9.5),
                           (0.0, math.pi / 2, 0.0)):
        m2 = product_modulus_sq(
            from_rotor(spin_transform(LorentzParams(phi, theta, xi))), std)
        bound = K * EPS * (1 + math.cosh(xi))
        assert abs(m2.x - math.cos(theta / 2) ** 2) <= bound
        assert abs(m2.w) <= bound and m2.y == m2.v == 0.0
    with pytest.raises(AssertionError):  # a value without a half
        product_modulus_sq(Spinor(S1), std)


def test_spin_values_are_accepted_without_the_spinor_guard(monkeypatch):
    # a value with m == sigma(p) and finite parts has nothing outside the
    # span; every other value still meets the guard
    def refuse(*args, **kwargs):
        raise AssertionError("guard called")

    monkeypatch.setattr(NotInSpinorAlgebra, "check", refuse)
    rotor = spin_transform(LorentzParams(0.5, 1.0, -0.3))
    psi = from_rotor(rotor)
    assert psi.value == rotor.value
    for off_span in (S1, spin_transform(LorentzParams(0.5, 1.0, math.inf)).value):
        with pytest.raises(AssertionError):
            from_multivector(off_span)


def test_rebuilt_spinors_keep_the_half_route(monkeypatch):
    # a spinor or rotor that pickle or copy rebuilds carries its entries:
    # with the guard, sprod_algebraic, from_multivector and the multivector
    # product made to raise, from_rotor and product_modulus_sq still answer
    import copy
    import pickle

    t = spin_transform(LorentzParams(0.7, 1.1, 0.9))
    psi, std = from_rotor(t), Spinor.standard()
    want = product_modulus_sq(psi, std)

    def refuse(*args, **kwargs):
        raise AssertionError("full route taken")

    monkeypatch.setattr(NotInSpinorAlgebra, "check", refuse)
    monkeypatch.setattr("hypalg.spinor.sprod_algebraic", refuse)
    monkeypatch.setattr("hypalg.spinor.from_multivector", refuse)
    monkeypatch.setattr(Multivector, "__mul__", refuse)

    def rebuilt(a):
        return [pickle.loads(pickle.dumps(a, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] \
            + [copy.copy(a), copy.deepcopy(a)]

    for a, b in zip(rebuilt(psi), rebuilt(t)):
        assert a._half is not None and a == psi
        assert from_rotor(b)._half is not None and from_rotor(b) == psi
        assert product_modulus_sq(a, std) == want
    with pytest.raises(AssertionError):  # a spinor without a half
        product_modulus_sq(Spinor(S1), std)


def test_product_modulus_matches_mpmath_up_to_xi_1400(rng):
    # the paper's quantity: spin_transform against the standard spinor is
    # cos^2(theta/2) with no ij part at every rapidity; on the entries it is
    # within K eps of it, relatively, up to |xi| = 1400 (the value on the
    # Pauli coefficients cancelled to 0 from about |xi| = 40 on)
    import mpmath

    std = Spinor.standard()
    xis = [0.0, 20.0, 40.0, -40.0, 700.0, 1400.0, -1400.0]
    xis += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(1400))
            for _ in range(300)]
    for xi in xis:
        phi, theta = rng.uniform(-7.0, 7.0), rng.uniform(-3.0, 3.0)
        m2 = product_modulus_sq(spinor_of(phi, theta, xi), std)
        with mpmath.workprec(113):
            want = mpmath.cos(mpmath.mpf(theta) / 2) ** 2
            assert abs(mpmath.mpf(m2.x) - want) <= K * EPS * want, (phi, theta, xi)
            assert abs(m2.w) <= K * EPS * want, (phi, theta, xi)
        assert m2.y == m2.v == 0.0


def test_pickle_and_copy_keep_the_entries_bit_for_bit():
    # closed-form entries differ from the entries of the stored value's p
    # half, and a rebuilt rotor or spinor keeps the former: the same bits,
    # and the same results from every operation that reads them
    import copy
    import pickle

    from hypalg import FourVector, apply, matrix_of

    def bits(h):
        return [(z.real.hex(), z.imag.hex()) for z in h]

    std = Spinor.standard()
    x = FourVector(1.0, 0.5, -2.0, 0.25)
    for t in (spin_transform(LorentzParams(0.7, 1.1, 40.0)),
              spin_transform(LorentzParams(-2.0, 0.3, -700.0)),
              boost((0.3, -0.2, 25.0)) * rotation((0.1, 0.2, -0.3))):
        psi = from_rotor(t)
        results = (apply(t, x), matrix_of(t).tolist(), bits(t.inverse()._half),
                   product_modulus_sq(psi, std), bits(act(t.value, psi)._half))
        for copied in ([pickle.loads(pickle.dumps(t, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
                       + [copy.copy(t), copy.deepcopy(t)]):
            assert type(copied) is Rotor and copied == t
            assert bits(copied._half) == bits(t._half)
            spinor = pickle.loads(pickle.dumps(from_rotor(copied)))
            assert bits(copy.deepcopy(spinor)._half) == bits(t._half)
            assert (apply(copied, x), matrix_of(copied).tolist(),
                    bits(copied.inverse()._half),
                    product_modulus_sq(spinor, std),
                    bits(act(copied.value, spinor)._half)) == results


def test_mott_factor():
    assert mott_factor(0.0) == 1.0
    assert abs(mott_factor(math.pi)) < 1e-30
    assert abs(mott_factor(math.pi / 2) - 0.5) < 1e-15


def test_nonrel_vector():
    assert nonrel_vector(0.0, 0.0) == (0.0, 0.0, 0.0)
    x = nonrel_vector(math.pi, math.pi)
    assert abs(x[0] - 1.0) < 1e-15 and abs(x[1]) < 1e-15 and abs(x[2]) < 1e-16
    phi, theta = 0.8, 1.7
    base = nonrel_vector(phi, theta)
    shifted = nonrel_vector(phi + 2 * math.pi, theta)
    returned = nonrel_vector(phi + 4 * math.pi, theta)
    assert max(abs(p + q) for p, q in zip(base, shifted)) < 1e-12
    assert max(abs(p - q) for p, q in zip(base, returned)) < 1e-12
    ec = even_components(spinor_of(phi, theta, 0.0))
    assert max(abs(p - q) for p, q in zip(base, (ec.b32, ec.b13, ec.b21))) \
        < 1e-14
