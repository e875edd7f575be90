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
    # ((adj A B)00, conj((adj B A)00)) and nothing else; cayley._spin_sprod
    # reads A's entries as A00 = P0 + P3, A01 = P1 - i P2, A10 = P1 + i P2
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


def test_matrix_of_columns_are_permuted_halves():
    # A s_nu for A = M(P) is P with its parts permuted and turned a quarter,
    # as cayley._spin_columns forms it, and conj(P) is A^dagger, so column
    # nu of matrix_of is the p half of the sandwich of e_nu
    P = complex_half("p")
    A = pauli_half(P)
    want = ((P[1], P[0], sp.I * P[3], -sp.I * P[2]),
            (P[2], -sp.I * P[3], P[0], sp.I * P[1]),
            (P[3], sp.I * P[2], -sp.I * P[1], P[0]))
    for s, w in zip(PAULI, want):
        assert same(pauli_coeffs(A * s), w)
    assert (pauli_half(tuple(map(sp.conjugate, P))) - A.H).expand() \
        == sp.zeros(2, 2)


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
    # (cayley._spin_product) gives is the full product's m half
    P, Q = complex_half("p"), complex_half("q")
    product = pauli_formula(P, Q)
    assert same(product, pauli_coeffs(pauli_half(P) * pauli_half(Q)))
    assert same(pauli_formula(sigma(P), sigma(Q)), sigma(product))

