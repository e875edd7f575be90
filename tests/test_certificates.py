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
