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
