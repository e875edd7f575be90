"""Geometric product, involutions, products, and the paravector embedding."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypalg import (E0, E1, E2, E3, I, IJ, J, PSEUDOSCALAR, S1, S2, S3,
                    FourVector, HyperComplex, IndexOutOfRange, Multivector,
                    NotAParavector, ZeroDivisor, antisym, embed, extract,
                    minkowski_dot, sym, triparavector)
from hypalg.cayley import ONE, scalar
from hypalg.hypernum import _mul_i

from conftest import (multivector_matrix, rand_multivector, rand_subalgebra,
                      rel_close)


def test_gp_pauli_relations():
    assert S1 * S2 == S3 * HyperComplex(0, 1)
    assert S2 * S3 == S1 * HyperComplex(0, 1)
    assert S3 * S1 == S2 * HyperComplex(0, 1)
    assert S1 * S1 == ONE and S2 * S2 == ONE and S3 * S3 == ONE


def test_gp_paravector_examples():
    assert E1 * E2 == S3 * HyperComplex(0, 1)
    assert E1 * E1.bar() == scalar(-1.0)
    assert E1 * E2 * E3 == PSEUDOSCALAR


def test_gp_matches_matrix_representation(rng):
    for _ in range(200):
        a, b = rand_multivector(rng), rand_multivector(rng)
        lhs = multivector_matrix(a * b)
        rhs = multivector_matrix(a) @ multivector_matrix(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gp_associative(rng):
    for _ in range(1000):
        a, b, c = (rand_multivector(rng) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
        assert lhs.isclose(rhs, 1e-11 * scale)


def _slot_product(a, b):
    """The geometric product written on HyperComplex slots, the form it had
    before the pair kernel: s_a s_b = delta_ab + i eps_abc s_c."""
    a0, a1, a2, a3 = a.slots()
    b0, b1, b2, b3 = b.slots()
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
            a0 * b1 + a1 * b0 + _mul_i(a2 * b3 - a3 * b2),
            a0 * b2 + a2 * b0 + _mul_i(a3 * b1 - a1 * b3),
            a0 * b3 + a3 * b0 + _mul_i(a1 * b2 - a2 * b1))


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300)


def _same_float(x: float, y: float) -> bool:
    """Equal with the same sign (so 0.0 is not -0.0), or both NaN."""
    return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) \
        or (x != x and y != y)


def _same(u: complex, v: complex) -> bool:
    """Equal parts with the same signs, or NaN in the same places."""
    return _same_float(u.real, v.real) and _same_float(u.imag, v.imag)


def _same_slots(got, want) -> bool:
    return all(_same(g.p, w.p) and _same(g.m, w.m) for g, w in zip(got, want))


def _special(rng) -> float:
    return rng.choice(SPECIAL) if rng.random() < 0.3 else rng.uniform(-1, 1)


def _pair_draws(rng) -> list:
    """500 random pairs of multivectors, then 1000 with SPECIAL values mixed in."""
    def special() -> Multivector:
        return Multivector(*(HyperComplex(*(_special(rng) for _ in range(4)))
                             for _ in range(4)))

    draws = [(rand_multivector(rng), rand_multivector(rng)) for _ in range(500)]
    return draws + [(special(), special()) for _ in range(1000)]


def test_gp_pair_kernel_matches_slot_formula(rng):
    for a, b in _pair_draws(rng):
        assert _same_slots((a * b).slots(), _slot_product(a, b)), (a, b)


def _slot_inverse(a):
    """Multivector.inverse written on HyperComplex slots."""
    z0, z1, z2, z3 = a.slots()
    f = (z0 * z0 - z1 * z1 - z2 * z2 - z3 * z3).inverse()
    return (z0 * f, -(z1 * f), -(z2 * f), -(z3 * f))


def _slot_extract(x: FourVector):
    """extract(embed(x)) written on HyperComplex slots; None if refused."""
    z0, z1, z2, z3 = (HyperComplex(x.x0), HyperComplex(0.0, 0.0, x.x1),
                      HyperComplex(0.0, 0.0, x.x2), HyperComplex(0.0, 0.0, x.x3))
    outside = (z0.y, z0.v, z0.w) + tuple(c for z in (z1, z2, z3)
                                         for c in (z.x, z.y, z.w))
    if any(c != 0.0 for c in outside):  # NaN counts as nonzero
        return None
    return (z0.x, z1.v, z2.v, z3.v)


def test_slot_ops_on_the_parts_match_slot_formulas(rng):
    # every slot-level operation, run on the eight parts, against its form on
    # HyperComplex slots, bit for bit (NaN in the same places)
    for a, b in _pair_draws(rng):
        za, zb = a.slots(), b.slots()
        cases = ((a + b, [x + y for x, y in zip(za, zb)]),
                 (a - b, [x - y for x, y in zip(za, zb)]),
                 (-a, [-x for x in za]),
                 (a.bar(), [x.conj() for x in za]),
                 (a.dagger(), [x.rev() for x in za]),
                 (a.hat(), [x.grade() for x in za]))
        for got, want in cases:
            assert _same_slots(got.slots(), want), (a, b)

        try:
            want = _slot_inverse(a)
        except ZeroDivisor as err:
            with pytest.raises(ZeroDivisor) as got:
                a.inverse()
            assert _same_slots([got.value.value], [err.value])
            assert all(_same_float(getattr(got.value, k), getattr(err, k))
                       for k in ("norm", "tol", "scale")), a
        else:
            assert _same_slots(a.inverse().slots(), want), a

        sizes = [z.max_abs() for z in za]
        want = math.nan if any(map(math.isnan, sizes)) else max(sizes)
        assert _same_float(a.max_abs(), want), a
        want = [getattr(z, c) for c in ("x", "y", "v", "w") for z in za]
        assert all(map(_same_float, a.coeffs16(), want)), a

        x = FourVector(*(_special(rng) for _ in range(4)))
        want = _slot_extract(x)
        if want is None:
            with pytest.raises(NotAParavector):
                extract(embed(x))
        else:
            # the slot formula drops the sign of a -0.0 component, embed keeps it
            got = extract(embed(x)).components()
            assert got == want and all(map(_same_float, got, x.components())), x


def test_involution_sign_table():
    # rows: element, (bar, dagger, hat) signs
    table = [
        (E0, 1, 1, 1),
        (E1, -1, 1, -1), (E2, -1, 1, -1), (E3, -1, 1, -1),
        (S1, 1, 1, 1), (S2, 1, 1, 1), (S3, 1, 1, 1),
        (scalar(I), -1, -1, 1),
        (scalar(J), -1, 1, -1),
    ]
    for m, sb, sd, sh in table:
        assert m.bar() == m * float(sb)
        assert m.dagger() == m * float(sd)
        assert m.hat() == m * float(sh)


def test_hat_of_ij():
    assert scalar(IJ).hat() == scalar(-IJ)


def test_involution_laws(rng):
    for _ in range(300):
        a, b = rand_multivector(rng), rand_multivector(rng)
        ab = a * b
        assert rel_close(ab.bar(), b.bar() * a.bar(), 1e-12)
        assert rel_close(ab.dagger(), b.dagger() * a.dagger(), 1e-12)
        assert rel_close(ab.hat(), a.hat() * b.hat(), 1e-12)
        assert a.bar() == a.hat().dagger()


def test_sym_antisym_examples():
    assert sym(E0, E0) == ONE
    assert sym(E1, E1) == scalar(-1.0)
    assert sym(E1, E2) == scalar(0.0)
    assert antisym(E1, E0) == E1
    assert antisym(E1, E2) == S3 * HyperComplex(0, -1)
    m = rand_multivector(random.Random(3))
    assert antisym(m, m).isclose(scalar(0.0), 1e-15)


def _hex(a: Multivector) -> list[str]:
    """Every stored part as float.hex, so the sign of a zero counts."""
    return [x.hex() for c in a.p + a.m for x in (c.real, c.imag)]


def test_scalars_scale_each_half_as_each_slot(rng):
    # a scalar is central: a * s and s * a are s times each slot, bit for
    # bit, for reals (SPECIAL values included) and hyperbolic-complex s
    for a, b in _pair_draws(rng):
        for s in (_special(rng), b.z0, b.z3):
            want = _hex(Multivector(*(z * s for z in a.slots())))
            assert _hex(a * s) == want and _hex(s * a) == want, (a, s)
    # a real taken as a multivector would reach every slot with inf * 0
    assert (Multivector(HyperComplex(math.inf)) * 0.5).p == (
        complex(math.inf, 0.0), 0j, 0j, 0j)


def test_every_real_type_scales_as_its_float():
    # float takes a fast path ahead of the numbers.Real test; ints, bools,
    # Fractions and numpy scalars still take the numbers.Real one, and on
    # dyadic values every product is exact, so each equals its float's
    a = Multivector.from_coeffs16([k / 8 - 1 for k in range(16)])
    z = HyperComplex(0.5, -1.25, 3.0, -0.0)
    for r in (3, True, False, Fraction(1, 4), np.float64(0.5),
              np.float32(-0.25), np.int64(-2)):
        f = float(r)
        assert _hex(a * r) == _hex(a * f) and _hex(r * a) == _hex(a * f), r
        assert z * r == z * f and r * z == z * f, r
        assert (a + r) == (a + f) and (z - r) == (z - f), r
        if f:
            assert z / r == z / f, r
    for other in (1j, "2", None):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            z * other


def test_sym_and_antisym_take_one_product(rng):
    # bar is an anti-involution, so b * bar(a) is bar(a * bar(b)): the one
    # product form gives the two-product one bit for bit on dense finite
    # values, and to the sign of a zero where coefficients are exact zeros
    def dense():
        return rng.choice((rand_multivector(rng), rand_subalgebra(rng),
                           rand_multivector(rng, -1e150, 1e150)))

    def sparse():
        coeffs = [0.0] * 16
        for _ in range(rng.randint(1, 4)):
            coeffs[rng.randrange(16)] = rng.choice((rng.uniform(-1, 1), -0.0))
        return Multivector.from_coeffs16(coeffs)

    def check(a, b, exact):
        for got, want in ((sym(a, b), (a * b.bar() + b * a.bar()) * 0.5),
                          (antisym(a, b), (a * b.bar() - b * a.bar()) * 0.5)):
            assert got == want, (a, b)  # == does not see zero signs
            assert not exact or _hex(got) == _hex(want), (a, b)

    for _ in range(1000):
        check(dense(), dense(), True)
        check(sparse(), rng.choice((dense(), sparse())), False)


def test_sym_plus_antisym_is_product(rng):
    for _ in range(100):
        a, b = rand_multivector(rng), rand_multivector(rng)
        assert rel_close(sym(a, b) + antisym(a, b), a * b.bar(), 1e-13)


def test_metric_all_pairs_exact():
    g = [1.0, -1.0, -1.0, -1.0]
    basis = (E0, E1, E2, E3)
    for mu in range(4):
        for nu in range(4):
            want = scalar(g[mu]) if mu == nu else scalar(0.0)
            assert sym(basis[mu], basis[nu]) == want


def test_sym_of_embedded_vectors_is_real_scalar(rng):
    for _ in range(100):
        x = FourVector(*(rng.uniform(-3, 3) for _ in range(4)))
        y = FourVector(*(rng.uniform(-3, 3) for _ in range(4)))
        s = sym(embed(x), embed(y))
        assert abs(s.z0.x - minkowski_dot(x, y)) <= 1e-13
        off = Multivector(HyperComplex(0, s.z0.y, s.z0.v, s.z0.w),
                          s.z1, s.z2, s.z3)
        assert off.isclose(scalar(0.0), 1e-14)


def test_minkowski_examples():
    assert minkowski_dot(FourVector(1, 0, 0, 0), FourVector(1, 0, 0, 0)) == 1.0
    assert minkowski_dot(FourVector(0, 0, 0, 1), FourVector(0, 0, 0, 1)) == -1.0
    for phi, theta, xi in [(0.3, 1.0, 0.5), (2.0, 2.5, -1.7), (4.0, 0.1, 2.9)]:
        x = FourVector(math.sinh(xi),
                       math.cosh(xi) * math.sin(theta) * math.cos(phi),
                       math.cosh(xi) * math.sin(theta) * math.sin(phi),
                       math.cosh(xi) * math.cos(theta))
        assert abs(minkowski_dot(x, x) + 1.0) < 1e-12


def test_triparavector_values():
    i_h = HyperComplex(0, 1)
    assert triparavector(1, 1, 2) == scalar(0.0)
    assert triparavector(1, 2, 3) == scalar(-IJ)
    assert triparavector(0, 1, 2) == S3 * -i_h
    assert triparavector(0, 1, 3) == S2 * i_h
    assert triparavector(0, 2, 3) == S1 * -i_h


def test_triparavector_antisymmetry_and_span():
    base = triparavector(0, 1, 2)
    assert triparavector(1, 0, 2) == base * -1.0
    assert triparavector(2, 0, 1) == base
    for mu in range(4):
        for nu in range(4):
            for sig in range(4):
                t = triparavector(mu, nu, sig)
                # pseudovector span: only ij and i*s_k components survive
                assert abs(t.z0.x) == 0.0 and abs(t.z0.y) == 0.0 \
                    and abs(t.z0.v) == 0.0
                for z in t.slots()[1:]:
                    assert z.x == 0.0 and z.v == 0.0 and z.w == 0.0


def test_triparavector_index_check():
    with pytest.raises(IndexOutOfRange):
        triparavector(0, 1, 4)
    with pytest.raises(IndexOutOfRange):
        triparavector(-1, 1, 2)


def test_inverse_examples():
    assert ONE.inverse() == ONE
    assert S1.inverse() == S1
    with pytest.raises(ZeroDivisor):
        (ONE + E3).inverse()


def test_inverse_random_and_adjugate_oracle(rng):
    from hypalg import from_matrix, to_matrix
    done = 0
    while done < 1000:
        a = rand_multivector(rng)
        try:
            inv = a.inverse()
        except ZeroDivisor:
            continue
        assert rel_close(inv * a, ONE, 1e-10)
        m = to_matrix(a)
        det = m.m11 * m.m22 - m.m12 * m.m21
        adj = from_matrix(type(m)(m.m22, -m.m12, -m.m21, m.m11))
        assert rel_close(inv, adj * det.inverse(), 1e-9)
        done += 1


def test_embed_extract_round_trip(rng):
    for _ in range(50):
        x = FourVector(*(rng.uniform(-5, 5) for _ in range(4)))
        assert extract(embed(x)) == x
    with pytest.raises(NotAParavector):
        extract(S1)
    with pytest.raises(NotAParavector):
        extract(scalar(I))


def test_extract_and_apply_finite_near_float_max():
    from hypalg.lorentz import IDENTITY, apply
    x = FourVector(1e308, -1e308, 0.0, 1e308)
    assert embed(x).max_abs() == 1e308
    assert extract(embed(x)) == x
    assert apply(IDENTITY, x) == x


def test_extract_refuses_nan_outside_span():
    # NaN fails `residual > tol` and max() drops it unless it comes first;
    # k = 1 is extract(Multivector(1, HyperComplex(nan, 0, 2)))
    base = embed(FourVector(1.0, 2.0, 3.0, 4.0)).coeffs16()
    for k in sorted(set(range(16)) - {0, 9, 10, 11}):
        coeffs = list(base)
        coeffs[k] = math.nan
        with pytest.raises(NotAParavector) as err:
            extract(Multivector.from_coeffs16(coeffs))
        assert math.isnan(err.value.residual), k


def test_max_abs_is_nan_when_a_slot_has_nan():
    for k in range(4):
        slots = [HyperComplex(1.0)] * 4
        slots[k] = HyperComplex(math.nan)
        assert math.isnan(Multivector(*slots).max_abs()), k
    assert Multivector(HyperComplex(1.0), z3=HyperComplex(0, -3.0)).max_abs() == 3.0


def test_coeffs16_round_trip(rng):
    m = rand_multivector(rng)
    flat = m.coeffs16()
    assert len(flat) == 16
    assert Multivector.from_coeffs16(flat) == m
    # basis-first ordering: unit block, then i, j, ij blocks
    assert flat[0] == m.z0.x and flat[1] == m.z1.x
    assert flat[4] == m.z0.y and flat[8] == m.z0.v and flat[12] == m.z0.w


def test_text_rendering():
    assert str(E1) == "j*s1"
    assert str(ONE * 2.0 + S3 * HyperComplex(0, -1)) == "2 - i*s3"
    assert str(scalar(0.0)) == "0"
