"""Symbolic certificates of the identities the closed forms rest on."""

import sympy as sp

A0, A1, A2, A3 = sp.symbols("a0:4", complex=True)
S = sp.symbols("s", complex=True)
PAULI = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
         sp.Matrix([[1, 0], [0, -1]]))


def test_vector_part_squares_to_a_scalar():
    # (a.s)^2 = (a1^2 + a2^2 + a3^2) 1 for complex a1..a3, so on each
    # idempotent half exp(a0 + a.s) = exp(a0) (cosh s + (sinh s / s) a.s)
    vector = A1 * PAULI[0] + A2 * PAULI[1] + A3 * PAULI[2]
    residual = vector * vector - (A1 ** 2 + A2 ** 2 + A3 ** 2) * sp.eye(2)
    assert residual.expand() == sp.zeros(2, 2)


def test_eigenvalue_form_is_the_hyperbolic_form():
    # the two branches of the closed form agree: with e+- = exp(a0 +- s),
    # (e+ + e-)/2 = exp(a0) cosh s and (e+ - e-)/(2 s) = exp(a0) sinh(s)/s
    plus, minus = sp.exp(A0 + S), sp.exp(A0 - S)
    for eigen, hyperbolic in (((plus + minus) / 2, sp.exp(A0) * sp.cosh(S)),
                              ((plus - minus) / (2 * S),
                               sp.exp(A0) * sp.sinh(S) / S)):
        assert sp.expand((eigen - hyperbolic).rewrite(sp.exp)) == 0


# -- the spinor span in the pair picture -------------------------------------------
#
# A coefficient x + y i + v j + w ij has the idempotent pair parts
# p = (x + v) + i(y + w) and m = (x - v) + i(y - w) (see hypalg.hypernum);
# the p half of a multivector is the 4-tuple of its coefficients' p parts.

def pair(x, y, v, w):
    return (x + v) + sp.I * (y + w), (x - v) + sp.I * (y - w)


def halves(slots):
    """The p and m halves of the multivector with the coefficient slots."""
    parts = [pair(*z) for z in slots]
    return tuple(p for p, _ in parts), tuple(m for _, m in parts)


def sigma(p):
    return (sp.conjugate(p[0]),) + tuple(-sp.conjugate(q) for q in p[1:])


def same(a, b):
    return all(sp.expand(x - y) == 0 for x, y in zip(a, b, strict=True))


def test_spinor_span_is_the_pair_form():
    # s + b32 i s1 + b13 i s2 + b21 i s3 + b10 j s1 + b20 j s2 + b30 j s3
    # + p ij has the p half v + i eta and the m half sigma of it
    s, b32, b13, b21, b10, b20, b30, p = sp.symbols(
        "s b32 b13 b21 b10 b20 b30 p", real=True)
    phalf, mhalf = halves(((s, 0, 0, p), (0, b32, b10, 0), (0, b13, b20, 0),
                           (0, b21, b30, 0)))
    assert same(phalf, (s + sp.I * p, b10 + sp.I * b32, b20 + sp.I * b13,
                        b30 + sp.I * b21))
    assert same(mhalf, sigma(phalf))


def test_every_pair_form_lies_in_the_spinor_span():
    # (P, sigma(P)) for any complex P has x + iy = (p + m)/2 and
    # v + iw = (p - m)/2 in each slot; the coefficients outside the span
    # (y and v of z0, x and w of z1..z3) vanish
    re = sp.symbols("r0:4", real=True)
    im = sp.symbols("q0:4", real=True)
    phalf = tuple(a + sp.I * b for a, b in zip(re, im))
    for k, (p, m) in enumerate(zip(phalf, sigma(phalf))):
        xy, vw = sp.expand((p + m) / 2), sp.expand((p - m) / 2)
        outside = (sp.im(xy), sp.re(vw)) if k == 0 else (sp.re(xy), sp.im(vw))
        assert all(sp.simplify(c) == 0 for c in outside)


def pauli_half(a):
    return a[0] * sp.eye(2) + sum((c * s for c, s in zip(a[1:], PAULI)),
                                  sp.zeros(2, 2))


def pauli_coeffs(matrix):
    return (matrix.trace() / 2,) + tuple((s * matrix).trace() / 2
                                         for s in PAULI)


def test_sigma_is_multiplicative_and_kept_by_bar_and_dagger():
    # sigma(AB) = sigma(A) sigma(B) on one half; each half multiplies alone,
    # so a product of values with m = sigma(p) keeps it
    a = tuple(sp.symbols(f"a{k}r a{k}i", real=True) for k in range(4))
    b = tuple(sp.symbols(f"b{k}r b{k}i", real=True) for k in range(4))
    pa = tuple(x + sp.I * y for x, y in a)
    pb = tuple(x + sp.I * y for x, y in b)
    product = pauli_coeffs(pauli_half(pa) * pauli_half(pb))
    assert same(sigma(product), pauli_coeffs(pauli_half(sigma(pa))
                                             * pauli_half(sigma(pb))))
    # bar flips i and j in every coefficient, dagger flips i and ij; read
    # in the pair picture, both keep m = sigma(p) on the span
    names = sp.symbols("s b32 b13 b21 b10 b20 b30 p", real=True)
    s, b32, b13, b21, b10, b20, b30, p = names
    slots = ((s, 0, 0, p), (0, b32, b10, 0), (0, b13, b20, 0),
             (0, b21, b30, 0))
    for flip in ((1, -1, -1, 1), (1, -1, 1, -1)):
        phalf, mhalf = halves([tuple(f * c for f, c in zip(flip, z))
                               for z in slots])
        assert same(mhalf, sigma(phalf))


def test_the_spinor_guard_sees_only_zeros_outside_its_span():
    # the coefficients of (P, sigma(P)) in slot order (x, y, v, w of z0,
    # then of z1...): those outside NotInSpinorAlgebra's span are 0, and
    # those inside are s, b32, b13, b21, b10, b20, b30, p of the half
    # P = (s + i p, b10 + i b32, b20 + i b13, b30 + i b21), in the span's
    # order; so from_multivector may accept such a value without the guard
    from hypalg.spinor import NotInSpinorAlgebra

    names = sp.symbols("s b32 b13 b21 b10 b20 b30 p", real=True)
    s, b32, b13, b21, b10, b20, b30, p = names
    phalf = (s + sp.I * p, b10 + sp.I * b32, b20 + sp.I * b13,
             b30 + sp.I * b21)
    coeffs = []
    for q, m in zip(phalf, sigma(phalf)):
        xy, vw = sp.expand((q + m) / 2), sp.expand((q - m) / 2)
        coeffs += [sp.re(xy), sp.im(xy), sp.re(vw), sp.im(vw)]
    span = NotInSpinorAlgebra.span
    assert all(sp.simplify(c) == 0 for k, c in enumerate(coeffs)
               if k not in span)
    assert same([coeffs[k] for k in span], names)


# -- the spinor product on the half ----------------------------------------------

E3 = ((0, 0, 0, 1), (0, 0, 0, -1))  # j s3: the pair (1, -1) in slot 3


def geometric(a, b):
    """The product of two multivectors given as (p half, m half)."""
    return tuple(pauli_coeffs(pauli_half(x) * pauli_half(y))
                 for x, y in zip(a, b))


def bar(a):
    """hypernum.conj on every coefficient: (p, m) -> (m*, p*)."""
    p, m = a
    return tuple(sp.conjugate(c) for c in m), tuple(sp.conjugate(c) for c in p)


def sym(a, b):
    """(a bar(b) + b bar(a)) / 2, as cayley.sym's docstring defines it."""
    x, y = geometric(a, bar(b)), geometric(b, bar(a))
    return tuple(tuple((u + v) / 2 for u, v in zip(hx, hy))
                 for hx, hy in zip(x, y))


def test_half_product_is_the_spinor_product():
    # for a = (P, sigma(P)) and b = (Q, sigma(Q)), with A = M(P) and
    # B = M(Q), sym(a, b) + sym(a, b e3) J has the scalar slot
    # ((adj A B)00, conj((adj B A)00)) and nothing else; lorentz._entries
    # forms A's entries as A00 = P0 + P3, A01 = P1 - i P2, A10 = P1 + i P2
    # and A11 = P0 - P3
    def half(name):
        re, im = sp.symbols(f"{name}r0:4", real=True), sp.symbols(
            f"{name}i0:4", real=True)
        return tuple(x + sp.I * y for x, y in zip(re, im))

    P, Q = half("p"), half("q")
    a, b = (P, sigma(P)), (Q, sigma(Q))
    A, B = pauli_half(P), pauli_half(Q)
    assert same((A[0, 0], A[0, 1], A[1, 0], A[1, 1]),
                (P[0] + P[3], P[1] - sp.I * P[2], P[1] + sp.I * P[2],
                 P[0] - P[3]))
    s, t = sym(a, b), sym(a, geometric(b, E3))
    total = (tuple(u + v for u, v in zip(s[0], t[0])),   # J is +1 on p
             tuple(u - v for u, v in zip(s[1], t[1])))   # and -1 on m
    assert same(total[0], ((A.adjugate() * B)[0, 0], 0, 0, 0))
    assert same(total[1], (sp.conjugate((B.adjugate() * A)[0, 0]), 0, 0, 0))
    assert same(((A.adjugate() * B)[0, 0],),
                (A[1, 1] * B[0, 0] - A[0, 1] * B[1, 0],))


# -- rotors on the half ------------------------------------------------------------


def complex_half(name):
    """Four complex symbols name0..name3, each from a real and imaginary part."""
    re, im = sp.symbols(f"{name}r0:4", real=True), sp.symbols(
        f"{name}i0:4", real=True)
    return tuple(x + sp.I * y for x, y in zip(re, im))


def sandwich_terms(a00, a01, a10, a11):
    """lorentz._sandwich_terms of the entries A, in exact arithmetic."""
    conj = sp.conjugate
    n00, n01, n10, n11 = (z * conj(z) for z in (a00, a01, a10, a11))
    u, v, p, q = a01 * conj(a00), a11 * conj(a10), a10 * conj(a00), \
        a11 * conj(a01)
    return (n00 + n10, n01 + n11, n00 - n10, n01 - n11, 2 * (u + v),
            2 * (u - v), p + q, p - q, a11 * conj(a00), a10 * conj(a01))


def test_sandwich_terms_give_the_sandwich():
    # lorentz._sandwich_terms and _spin_sandwich: for any entries A and real x,
    # with X = [[x0+x3, x1-i x2], [x1+i x2, x0-x3]], Y = A X A^dagger has
    # x0 = (g0 d0 + g1 d1 + Re(c gc)) / 2, x3 = (k0 d0 + k1 d1 + Re(c kc)) / 2
    # and Y10 = x0 w0 + x3 w3 + c w1 + conj(c) w2, where d0, d1 = x0 +- x3
    # and c = x1 + i x2
    a00, a01, a10, a11 = complex_half("a")
    x0, x1, x2, x3 = sp.symbols("x0:4", real=True)
    A = sp.Matrix([[a00, a01], [a10, a11]])
    c, d0, d1 = x1 + sp.I * x2, x0 + x3, x0 - x3
    Y = A * sp.Matrix([[d0, sp.conjugate(c)], [c, d1]]) * A.H
    conj = sp.conjugate
    g0, g1, k0, k1, gc, kc, w0, w3, w1, w2 = sandwich_terms(a00, a01, a10,
                                                            a11)
    assert sp.expand((Y[0, 0] + Y[1, 1]) / 2
                     - (g0 * d0 + g1 * d1 + sp.re(sp.expand(c * gc))) / 2) == 0
    assert sp.expand((Y[0, 0] - Y[1, 1]) / 2
                     - (k0 * d0 + k1 * d1 + sp.re(sp.expand(c * kc))) / 2) == 0
    assert sp.expand(Y[1, 0] - (x0 * w0 + x3 * w3 + c * w1 + conj(c) * w2)) == 0


def test_matrix_entries_give_the_lorentz_matrix():
    # lorentz._matrix_entries: its entry (mu, nu), written in the ten trace
    # terms, is Lambda^mu_nu = tr(s_mu A s_nu A^dagger) / 2 with s_0 = 1
    # (Penrose and Rindler), the mu-th component of A's image of e_nu; its
    # x1 and x2 rows are Y10 = x0 w0 + x3 w3 + c w1 + conj(c) w2 at x = e_nu
    A = sp.Matrix(2, 2, complex_half("a"))
    g0, g1, k0, k1, gc, kc, w0, w3, w1, w2 = sandwich_terms(*A)
    re, im = (lambda z: sp.re(sp.expand(z))), (lambda z: sp.im(sp.expand(z)))
    half = sp.Rational(1, 2)
    rows03 = (((g0 + g1) * half, (k0 + k1) * half),
              (re(gc) * half, re(kc) * half),
              (-im(gc) * half, -im(kc) * half),
              ((g0 - g1) * half, (k0 - k1) * half))
    basis = (sp.eye(2),) + PAULI
    for nu, (row0, row3) in enumerate(rows03):
        x0, x1, x2, x3 = (int(k == nu) for k in range(4))
        c = x1 + sp.I * x2
        y10 = x0 * w0 + x3 * w3 + c * w1 + sp.conjugate(c) * w2
        for mu, entry in enumerate((row0, re(y10), im(y10), row3)):
            lam = (basis[mu] * A * basis[nu] * A.H).trace() * half
            assert sp.expand(entry - lam) == 0, (mu, nu)


def test_adjugate_is_the_half_of_bar_and_the_inverse():
    # value.bar() has the p half conj(sigma(P)) = (P0, -P1, -P2, -P3), whose
    # matrix is adj A = (A11, -A01, -A10, A00), for every A; where
    # det A = 1, adj A is A's inverse (Rotor.inverse)
    P = complex_half("p")
    A = pauli_half(P)
    bar_half = tuple(sp.conjugate(c) for c in sigma(P))
    assert (pauli_half(bar_half) - A.adjugate()).expand() == sp.zeros(2, 2)
    assert (A.adjugate() - sp.Matrix([[A[1, 1], -A[0, 1]],
                                      [-A[1, 0], A[0, 0]]])) == sp.zeros(2, 2)
    assert (A.adjugate() * A - A.det() * sp.eye(2)).expand() == sp.zeros(2, 2)


def _vanishes(expr) -> bool:
    return sp.simplify(sp.expand(expr.rewrite(sp.exp))) == 0


def spin_transform_entries(phi, theta, xi):
    """lorentz.spin_transform's entries as written there, on the products
    cp ct, sp st, cp st and sp ct that the components use."""
    cp, sp_, ct, st = (sp.cos(phi / 2), sp.sin(phi / 2), sp.cos(theta / 2),
                       sp.sin(theta / 2))
    up, down = sp.exp(xi / 2), sp.exp(-xi / 2)
    cpct, spst, cpst, spct = cp * ct, sp_ * st, cp * st, sp_ * ct
    return sp.Matrix([[cpct * up - sp.I * spct * up,
                       -cpst * down + sp.I * spst * down],
                      [cpst * up + sp.I * spst * up,
                       cpct * down + sp.I * spct * down]])


def test_spin_transform_entries_are_the_matrix_of_its_components():
    # lorentz.spin_transform: the matrix of the even-component closed form
    # is [[a ct E, -a st / E], [conj(a) st E, conj(a) ct / E]] with
    # a = cp - i sp = e^{-i phi/2} and E = e^{xi/2}
    phi, theta, xi = sp.symbols("phi theta xi", real=True)
    cp, sp_, ct, st = (sp.cos(phi / 2), sp.sin(phi / 2), sp.cos(theta / 2),
                       sp.sin(theta / 2))
    ch, sh = sp.cosh(xi / 2), sp.sinh(xi / 2)
    s, b32, b13, b21 = cp * ct * ch, sp_ * st * ch, -cp * st * ch, -sp_ * ct * ch
    b10, b20, b30, p = cp * st * sh, sp_ * st * sh, cp * ct * sh, -sp_ * ct * sh
    M = pauli_half((s + sp.I * p, b10 + sp.I * b32, b20 + sp.I * b13,
                    b30 + sp.I * b21))
    want = spin_transform_entries(phi, theta, xi)
    up, down = sp.exp(xi / 2), sp.exp(-xi / 2)
    assert all(_vanishes(e) for e in M - want)
    a = cp - sp.I * sp_
    assert _vanishes(sp.exp(sp.I * phi / 2) * a - 1)
    assert all(_vanishes(e) for e in want - sp.Matrix(
        [[a * ct * up, -a * st * down],
         [sp.conjugate(a) * st * up, sp.conjugate(a) * ct * down]]))


def test_cross_section_is_cos_sq_with_no_ij_part():
    # cross-section's value is product_modulus_sq of spin_transform's spinor
    # and the standard one: on their entries A and B = 1, the product is the
    # pair ((adj A B)00, conj((adj B A)00)), and modulus_sq of a pair (P, M)
    # is the pair (c, conj(c)) with c = P conj(M).  That is cos^2(theta/2)
    # with an ij part of exactly 0, so c10's target cos^2(theta/2) (1 +
    # ij sinh xi sin phi) misses it by its ij part, the reason c10 is red
    phi, theta, xi = sp.symbols("phi theta xi", real=True)
    A, B = spin_transform_entries(phi, theta, xi), sp.eye(2)
    P, M = (A.adjugate() * B)[0, 0], sp.conjugate((B.adjugate() * A)[0, 0])
    c = sp.expand(P * sp.conjugate(M))
    xy, vw = (c + sp.conjugate(c)) / 2, (c - sp.conjugate(c)) / 2
    x, y, v, w = sp.re(xy), sp.im(xy), sp.re(vw), sp.im(vw)
    assert _vanishes(x - sp.cos(theta / 2) ** 2)
    assert all(_vanishes(e) for e in (y, v, w))
    target_ij = sp.cos(theta / 2) ** 2 * sp.sinh(xi) * sp.sin(phi)
    miss = (w - target_ij).subs({phi: sp.pi / 2, theta: 0, xi: -3})
    assert sp.simplify(miss - sp.sinh(3)) == 0


def test_boost_entries_are_the_matrix_of_its_components():
    # lorentz.boost: for x = (bx, by, bz), t = |x| and s = sinh(t/2)/t, the
    # matrix of cosh(t/2) + j s (x.s) is [[ch + s bz, s (bx - i by)],
    # [s (bx + i by), ch - s bz]]; the entry on the side of bz's sign is
    # ch + s |bz| and the other e^{-t/2} + s (bx^2 + by^2) / (t + |bz|),
    # with bx^2 + by^2 = t^2 - bz^2
    t = sp.symbols("t", positive=True)
    bx, by, bz = sp.symbols("bx by bz", real=True)
    ch, s = sp.cosh(t / 2), sp.sinh(t / 2) / t
    M = pauli_half((ch, s * bx, s * by, s * bz))
    assert (M - sp.Matrix([[ch + s * bz, s * (bx - sp.I * by)],
                           [s * (bx + sp.I * by), ch - s * bz]])).expand() \
        == sp.zeros(2, 2)
    for sign in (1, -1):  # bz = sign |bz|
        w = sign * bz
        far = sp.exp(-t / 2) + s * (t ** 2 - bz ** 2) / (t + w)
        assert _vanishes(far - (ch - s * w))


def pauli_formula(a, b):
    """cayley._pauli as written, with its quarter turn i*c as I*c."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c1, c2, c3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
            a0 * b1 + a1 * b0 + sp.I * c1,
            a0 * b2 + a2 * b0 + sp.I * c2,
            a0 * b3 + a3 * b0 + sp.I * c3)


def test_composition_on_the_half_is_the_full_product():
    # _pauli is the product of the halves' matrices, and _pauli(sigma(P),
    # sigma(Q)) = sigma(_pauli(P, Q)): the m half _sigma(p) that composition
    # (lorentz._spin_product) gives is the full product's m half
    P, Q = complex_half("p"), complex_half("q")
    product = pauli_formula(P, Q)
    assert same(product, pauli_coeffs(pauli_half(P) * pauli_half(Q)))
    assert same(pauli_formula(sigma(P), sigma(Q)), sigma(product))

