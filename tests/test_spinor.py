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
# both values carry one, at every magnitude, and sprod_algebraic otherwise.
# The oracle below is independent of both routes: sprod_column of the two
# columns, in exact Fraction arithmetic through the unit table, with the
# eight components read from the stored p half, (s + i p, b10 + i b32,
# b20 + i b13, b30 + i b21).

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


def _direct_modulus(a: Spinor, b: Spinor):
    """_pair of c = P Q formed directly from the entries of a and b, where
    product_modulus_sq's direct test holds for them, else None.

    P and Q are (adj A B)00 and (adj B A)00; the test is |P|^2 >= 2**-1000,
    |Q|^2 >= 2**-1000 and |P|^2 |Q|^2 < 2**1000, which a NaN fails.
    """
    from hypalg.hypernum import _pair

    (a00, a01, a10, a11), (b00, b01, b10, b11) = a._half, b._half
    p, q = a11 * b00 - a01 * b10, b11 * a00 - b01 * a10
    t = p.real * p.real + p.imag * p.imag
    u = q.real * q.real + q.imag * q.imag
    if not (2.0 ** -1000 <= t and 2.0 ** -1000 <= u and t * u < 2.0 ** 1000):
        return None
    c = p * q
    return _pair(c, c.conjugate())


# the least magnitude that rounds past the float max, 2**1024 - 2**970
FLOAT_LIMIT = Fraction(2 ** 1024 - 2 ** 970)


def _exact_form(h, k) -> tuple[Fraction, Fraction]:
    """c = (A11 B00 - A01 B10) (B11 A00 - B01 A10) of the entries h and k,
    exactly, as (re, im)."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    (a00, a01, a10, a11), (b00, b01, b10, b11) = [
        [(Fraction(z.real), Fraction(z.imag)) for z in e] for e in (h, k)]
    return mul(sub(mul(a11, b00), mul(a01, b10)),
               sub(mul(b11, a00), mul(b01, a10)))


def _term_scale(h, k) -> Fraction:
    """(|A11| |B00| + |A01| |B10|) (|B11| |A00| + |B01| |A10|) of the
    entries h and k, exactly, with |z| taken as |re z| + |im z|: the size
    of the terms that c = P Q is formed from."""
    (a00, a01, a10, a11), (b00, b01, b10, b11) = [
        [abs(Fraction(z.real)) + abs(Fraction(z.imag)) for z in e]
        for e in (h, k)]
    return (a11 * b00 + a01 * b10) * (b11 * a00 + b01 * a10)


def _assert_entries_outcome(got, a: Spinor, b: Spinor) -> str:
    """product_modulus_sq's outcome got on two spinors with entries.

    Where the direct test holds, got is _pair of the direct c bit for bit.
    Either way got is within K eps |a|^2 |b|^2 + K 2**-1074 of the exact
    value of the p half, and within K eps _term_scale + K 2**-1074 of the
    exact value of the entries (_exact_form), or it is an OverflowError
    where a part of each of these exact values is past the float range, to
    its bound.  Returns the route: "direct" or "scaled".
    """
    direct = _direct_modulus(a, b)
    if direct is not None:
        assert _bits((got.p, got.m)) == _bits((direct.p, direct.m)), (a, b)
    tiny = K * Fraction(5e-324)
    for exact, scale in (
            (_exact_modulus_sq(a, b), _norm_sq(a) * _norm_sq(b)),
            (_exact_form(a._half, b._half), _term_scale(a._half, b._half))):
        bound = K * Fraction(EPS) * scale + tiny
        if isinstance(got, OverflowError):
            assert str(got).startswith(
                "squared spinor product beyond the float range: "), got
            assert max(map(abs, exact)) >= FLOAT_LIMIT - bound, (a, b)
        else:
            assert _finite(got) and got.m == got.p.conjugate(), (a, b, got)
            assert _error_sq(got, exact) <= bound ** 2, (a, b)
    return "scaled" if direct is None else "direct"


def test_product_modulus_keeps_every_refused_and_non_finite_outcome(rng):
    # on values with special fields: where a value has no entries,
    # product_modulus_sq gives exactly what sprod_algebraic(a, b).modulus_sq()
    # gives, the same bits or the same exception type and message, and
    # every refused or non-finite outcome of it stands; on two values with
    # entries it is the entries' value (_assert_entries_outcome): within
    # K eps |a|^2 |b|^2 of the exact value, plus K units of 2**-1074 for
    # what a subnormal result loses, or an OverflowError past the float
    # range, also where sprod_algebraic refuses or is not finite
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

    kept = mended = refused = 0
    for _ in range(3000):
        a, b = value(), value()
        got = _outcome(product_modulus_sq, a, b)
        want = _outcome(_algebraic_modulus_sq, a, b)
        if _finite(want):
            exact = _exact_modulus_sq(a, b)
            scale = _norm_sq(a) * _norm_sq(b)
            bound = K * Fraction(EPS) * scale + K * Fraction(5e-324)
            assert _error_sq(want, exact) <= bound ** 2, (a, b)
        if a._half is None or b._half is None:
            _assert_same_outcome(got, want, a, b)
            kept += not _finite(want)
            continue
        _assert_entries_outcome(got, a, b)
        refused += isinstance(got, OverflowError)
        mended += _finite(got) and not _finite(want)
    assert kept > 1000 and mended > 100 and refused > 100, (
        kept, mended, refused)


def _assert_same_outcome(got, want, *context):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), context
    else:
        assert _bits((got.p, got.m)) == _bits((want.p, want.m)), context


def _pair_norm_sq(h) -> float:
    """|a|^2 of the spin value a with the entries h, half the sum of
    |h_ij|^2, in floats."""
    h00, h01, h10, h11 = h
    return (h00 * h00.conjugate() + h01 * h01.conjugate()
            + h10 * h10.conjugate() + h11 * h11.conjugate()).real * 0.5


def _norm_past_bound(a: Spinor, b: Spinor) -> bool:
    """Whether |a|^2 |b|^2, in floats, passes 2**1000: the bound past which
    product_modulus_sq once also ran sprod_algebraic."""
    return not _pair_norm_sq(a._half) * _pair_norm_sq(b._half) <= 2.0 ** 1000


def test_product_modulus_forms_the_pair_modulus_in_place(rng):
    # product_modulus_sq forms c = P Q and the pair (c, conj(c)), where P and
    # Q are (adj A B)00 and (adj B A)00: bit for bit modulus_sq of the pair
    # (P, conj(Q)), since conj(conj(Q)) is exact, where the direct test
    # holds, and on columns scaled by powers of two elsewhere; on both
    # routes, also where |a|^2 |b|^2 passes 2**1000, it is within its error
    # bound of the exact value (_assert_entries_outcome)
    def value():
        r = rng.random()
        if r < 0.4:  # |xi| past about 693: |a|^2 |b|^2 passes 2**1000
            xi = rng.choice((rng.uniform(-30, 30), rng.uniform(-1400, 1400)))
            return spinor_of(rng.uniform(-7, 7), rng.uniform(-4, 4), xi)
        scale = rng.choice((1.0, 1e-160, 1e75, 1e150, 3e154))
        return from_even_components(EvenComponents(*(
            rng.choice((0.0, -0.0, rng.uniform(-10, 10) * scale))
            for _ in range(8))))

    routes = {"direct": 0, "scaled": 0}
    beyond = 0
    for _ in range(3000):
        a, b = value(), value()
        routes[_assert_entries_outcome(_outcome(product_modulus_sq, a, b),
                                       a, b)] += 1
        beyond += _norm_past_bound(a, b)
    assert 3000 - beyond > 1000 and beyond > 500, beyond
    assert min(routes.values()) > 500, routes


def test_product_modulus_range_test_reads_entry_magnitudes(rng):
    # no range test on entry magnitudes is left: around the bound that the
    # old one took, (sum |A_ij|) (sum |B_ij|) <= 2**500, and the one before
    # it, |a|^2 |b|^2 <= 2**1000 (|a|^2 |b|^2 in [2**990, 2**1002]), and
    # where abs of a finite entry overflows (components near 1.3e308),
    # every result is the entries' value (_assert_entries_outcome)
    def unit():
        return [rng.choice((0.0, rng.uniform(-1, 1))) for _ in range(8)]

    def scaled(u, e):
        """The span value of u scaled so that |a|^2 is about 2**e."""
        psi = from_even_components(EvenComponents(*u))
        n = _pair_norm_sq(psi._half) or 1.0
        f = 2.0 ** (e / 2) / math.sqrt(n)
        return from_even_components(EvenComponents(*(c * f for c in u)))

    def near_bound():
        r = rng.random()
        if r < 0.3:  # spin transforms against the standard spinor
            xi = rng.choice((-1.0, 1.0)) * rng.uniform(680.0, 700.0)
            return (spinor_of(rng.uniform(-7, 7), rng.uniform(-4, 4), xi),
                    Spinor.standard())
        e = rng.uniform(990.0, 1002.0)
        ea = rng.uniform(0.0, e)
        return scaled(unit(), ea), scaled(unit(), e - ea)

    def huge():
        # A00 = (s + b30) + i (p + b21) and A11 = (s - b30) + i (p - b21)
        s, p = (rng.choice((-1.0, 1.0)) * rng.uniform(1.2e308, 1.34e308)
                for _ in range(2))
        a = from_even_components(EvenComponents(
            s, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p))
        b = rng.choice((Spinor.standard(), a, from_even_components(
            EvenComponents(*(rng.uniform(-1e-300, 1e-300) for _ in range(8))))))
        return (a, b) if rng.random() < 0.5 else (b, a)

    moved = overflowed = refused = 0
    routes = {"direct": 0, "scaled": 0}
    for draw in (near_bound, huge):
        for _ in range(1500):
            a, b = draw()
            if a._half is None or b._half is None:
                continue
            got = _outcome(product_modulus_sq, a, b)
            route = _assert_entries_outcome(got, a, b)
            routes[route] += 1
            refused += isinstance(got, OverflowError)
            if not all(math.hypot(z.real, z.imag) < math.inf
                       for z in a._half + b._half):
                overflowed += 1  # abs of an entry overflows
            elif not _norm_past_bound(a, b) and (
                    sum(map(abs, a._half)) * sum(map(abs, b._half))
                    > 2.0 ** 500):
                moved += 1  # the old bound took the entries alone
    assert moved > 200 and overflowed > 500, (moved, overflowed)
    assert min(routes.values()) > 100 and refused > 100, (routes, refused)


def _mp_entries(phi, theta, xi):
    """spin_transform's entries [[a ct E, -a st / E], [conj(a) st E,
    conj(a) ct / E]], a = e^{-i phi/2}, E = e^{xi/2}, in mpmath."""
    import mpmath

    a = mpmath.expj(-mpmath.mpf(phi) / 2)
    half = mpmath.mpf(theta) / 2
    ct, st = mpmath.cos(half), mpmath.sin(half)
    up = mpmath.exp(mpmath.mpf(xi) / 2)
    return (a * ct * up, -a * st / up, mpmath.conj(a) * st * up,
            mpmath.conj(a) * ct / up)


def test_product_modulus_takes_the_half_route(monkeypatch, rng):
    # with the algebraic route out of reach, spin transforms against the
    # standard spinor still give cos^2(theta/2), to K eps (1 + cosh xi);
    # spin transforms at |xi_a| from 600 to 1419.5 against ones at |xi_b|
    # <= 40, where the direct c can overflow or lose bits, are within
    # K eps cosh^2(xi_b/2) of c formed by mpmath at 200 bits; a value past
    # the float range raises OverflowError
    import mpmath

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

    # the first pair once gave x = inf, y = nan, and is 0.9455234934114745;
    # the second's direct Q = B11 A00 - B01 A10 overflows, its value does not
    pairs = [((0.9881633305042796, 1.1525594022431522, 911.8407340596626),
              (0.6424387336956671, 0.7729252147723286, 18.49469734235393)),
             ((0.3, 1.2, 1419.0), (1.1, 0.7, -39.0))]
    a, b = spinor_of(*pairs[1][0]), spinor_of(*pairs[1][1])
    (a00, a01, a10, a11), (b00, b01, b10, b11) = a._half, b._half
    c = (a11 * b00 - a01 * b10) * (b11 * a00 - b01 * a10)
    assert not (math.isfinite(c.real) and math.isfinite(c.imag)), c
    for _ in range(200):
        sign = rng.choice((-1.0, 1.0))
        pairs.append(((rng.uniform(-7, 7), rng.uniform(-4, 4),
                       sign * rng.uniform(600.0, 1419.5)),
                      (rng.uniform(-7, 7), rng.uniform(-4, 4),
                       rng.uniform(-40.0, 40.0))))
    with mpmath.workprec(200):
        for pa, pb in pairs:
            A, B = _mp_entries(*pa), _mp_entries(*pb)
            # P and Q trade places when a and b do, so c is the same
            c = (A[3] * B[0] - A[1] * B[2]) * (B[3] * A[0] - B[1] * A[2])
            bound = K * EPS * math.cosh(pb[2] / 2) ** 2
            for x, y in ((pa, pb), (pb, pa)):
                m2 = product_modulus_sq(spinor_of(*x), spinor_of(*y))
                assert abs(m2.x - c.real) <= bound, (x, y, m2)
                assert abs(m2.w - c.imag) <= bound, (x, y, m2)
                assert m2.y == m2.v == 0.0

    # past the range: c = A11 A00 A11 A00 = 1e640 for A = 1e160 (identity);
    # and c = (A11 B00) (B11 A00) = 9e538 for A = [[1e-30, 1e300], [0,
    # 1e-30]] and B = diag(1e299, 9e299), whose A11 is 1e-330 of its column
    huge = from_even_components(EvenComponents(1e160, *(0.0,) * 7))
    a = from_even_components(EvenComponents(1e-30, 0.0, 5e299, 0.0, 5e299,
                                            0.0, 0.0, 0.0))
    b = from_even_components(EvenComponents(5e299, *(0.0,) * 5, -4e299, 0.0))
    assert a._half == (1e-30, 1e300, 0.0, 1e-30)
    assert b._half == (1e299, 0.0, 0.0, 9e299)
    for x, y in ((huge, huge), (a, b), (b, a)):
        with pytest.raises(OverflowError, match="squared spinor product "
                           "beyond the float range"):
            product_modulus_sq(x, y)
    with pytest.raises(AssertionError):  # a value without a half
        product_modulus_sq(Spinor(S1), std)


def test_scaled_route_keeps_small_parts():
    # three pairs on the scaled route whose c has no difference to lose
    # bits in, so that each part of c is within K eps of itself (plus K
    # units of 2**-1074 for a part below the float range): a spin
    # transform at xi = 1419.4, whose A11 is subnormal, against B00 = 0.75
    # + 1e-300 i, where P = 0.75 A11 loses bits and |P|^2 < 2**-1000 (the
    # direct c is off by 155 eps); against B = 1, entries whose direct
    # |Q|^2 overflows, A's second column of size 2.5e300 with A11 of size
    # 10 in it, where c = A11 A00 has a real part 1e-67 of |c|; and,
    # against B = 1, entries (1e308, 1e300, 1, 1e-30), where c = A11 A00 =
    # 1e278 though A11 is 1e-330 of the other entry in its column
    from hypalg.lorentz import _spin_value

    def spin_value(h):
        """The spinor with the entries h, its p half read off them."""
        a00, a01, a10, a11 = h
        return _spin_value(Spinor, ((a00 + a11) / 2, (a01 + a10) / 2,
                                    (a10 - a01) / 2j, (a00 - a11) / 2), h)

    a = spinor_of(0.0, 3.11, 1419.4)
    b = from_even_components(EvenComponents(0.375, 0.0, 0.0, 0.0, 0.0, 0.0,
                                            0.375, 1e-300))
    assert 0 < abs(a._half[3]) < 2.0 ** -1022 and b._half[0] == 0.75 + 1e-300j
    h = (complex(-2e300, 9.80949847473463e232),
         complex(-1.2261873093418288e233, -2.5e300),
         complex(-2e300, -2.5e300), complex(-2.5e-300, 10.677733557154678))
    std = Spinor.standard()
    for x, y in ((a, b), (spin_value(h), std),
                 (spin_value((1e308 + 0j, 1e300 + 0j, 1 + 0j, 1e-30 + 0j)),
                  std)):
        m2 = product_modulus_sq(x, y)
        for got, want in zip((m2.x, m2.w), _exact_form(x._half, y._half)):
            bound = K * Fraction(EPS) * abs(want) + K * Fraction(5e-324)
            assert abs(Fraction(got) - want) <= bound, (x, y, m2)


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
