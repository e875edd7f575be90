"""Algebraic spinors, column spinors, and the spinor products.

A spinor lives in the eight-real-dimensional subalgebra spanned by
``{1, i*s_k, j*s_k, ij}``, the closure of the operators that the basis
paravectors can generate.  The identity rotor is the standard spinor; a
general one is the spin transformation itself.

Component conventions follow the expansion

    psi = s + b32*i*s1 + b13*i*s2 + b21*i*s3
            + b10*j*s1 + b20*j*s2 + b30*j*s3 + p*ij

whose names record the (antisymmetric) biparavector index pairs.  The same
eight numbers relabel as a paravector plus pseudovector: v = (s, b10, b20,
b30) on the paravector basis and eta = (p, b32, b13, b21) with the ij*eta^mu
pseudovector expanding to ij*eta0 + i*eta^k*s_k.
"""

from __future__ import annotations

import math

from .cayley import E3, ONE, _SPAN_TOL, Multivector, _ResidualError, sym
from .hypernum import HyperComplex, J, _Frozen, _mul_i, _pair, _rebuild
from .lorentz import (LorentzParams, Rotor, _spin_half, _spin_product,
                      _spinor_span, _SpinValue, _with_half, spin_transform)


class NotInSpinorAlgebra(_ResidualError, ValueError):
    """A multivector with components outside span{1, i*s_k, j*s_k, ij}."""

    text = "residual {:.3e} outside the spinor subalgebra"
    # s, b32, b13, b21, b10, b20, b30, p: x of z0, y and v of z1..z3, w of z0
    span = (0, 5, 9, 13, 6, 10, 14, 3)


class NonScalarResidual(_ResidualError, ArithmeticError):
    """A spinor product left non-scalar terms above tolerance."""

    text = "non-scalar residual {:.3e} in spinor product"
    span = (0, 1, 2, 3)  # z0


class Spinor(_SpinValue):
    """A multivector confined to the spinor subalgebra.

    product_modulus_sq and act read its M2(C) entries (lorentz._SpinValue).
    """

    __slots__ = __match_args__ = ("value",)

    @classmethod
    def standard(cls) -> "Spinor":
        return cls(ONE)

    def isclose(self, other: "Spinor", tol: float = 1e-12) -> bool:
        return self.value.isclose(other.value, tol)


def from_rotor(t: Rotor) -> Spinor:
    """Identify the spin transformation itself as the spinor.

    A rotor that carries entries passes them on, without a test; every
    other rotor's value meets from_multivector.
    """
    if t._half is None:
        return from_multivector(t.value)
    return _with_half(Spinor, t.value, t._half)


def from_multivector(m: Multivector) -> Spinor:
    """m as a Spinor; NotInSpinorAlgebra unless m lies in the spinor span.

    A value whose m half is _sigma of its p half, with finite entries
    (lorentz._spin_half), as every rotor and spinor the library builds, has
    every coefficient outside the span exactly 0, so it is accepted without
    the guard; the guard decides every other value.
    """
    p = _spin_half(m)
    if p is None:
        NotInSpinorAlgebra.check(m)
    return _with_half(Spinor, m, p)


# -- component views ----------------------------------------------------------

class EvenComponents(_Frozen):
    """The eight scalars of the even-index expansion (see module docstring)."""

    __slots__ = __match_args__ = ("s", "b32", "b13", "b21", "b10", "b20", "b30",
                                  "p")

    def __init__(self, s: float, b32: float, b13: float, b21: float,
                 b10: float, b20: float, b30: float, p: float):
        self._fill(s, b32, b13, b21, b10, b20, b30, p)

    @property
    def b(self) -> tuple[float, float, float, float, float, float]:
        """The six biparavector scalars in canonical listing order."""
        return (self.b32, self.b13, self.b21, self.b10, self.b20, self.b30)

    def biparavector_tensor(self) -> list[list[float]]:
        """Redundant 4x4 antisymmetric view reconstructed from the six scalars."""
        t = [[0.0] * 4 for _ in range(4)]
        for (mu, nu), val in (((3, 2), self.b32), ((1, 3), self.b13),
                              ((2, 1), self.b21), ((1, 0), self.b10),
                              ((2, 0), self.b20), ((3, 0), self.b30)):
            t[mu][nu] = val
            t[nu][mu] = -val
        return t

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class OddComponents(_Frozen):
    """Paravector components v and pseudovector components eta."""

    __slots__ = __match_args__ = ("v", "eta")

    def __init__(self, v: tuple[float, float, float, float],
                 eta: tuple[float, float, float, float]):
        self._fill(v, eta)


def even_components(psi: Spinor) -> EvenComponents:
    return EvenComponents(*NotInSpinorAlgebra.components(psi.value))


def from_even_components(ec: EvenComponents) -> Spinor:
    return _spinor_span(Spinor, ec.s, *ec.b, ec.p)


def odd_components(psi: Spinor) -> OddComponents:
    ec = even_components(psi)
    return OddComponents(v=(ec.s, ec.b10, ec.b20, ec.b30),
                         eta=(ec.p, ec.b32, ec.b13, ec.b21))


def from_odd_components(oc: OddComponents) -> Spinor:
    return _spinor_span(Spinor, oc.v[0], *oc.eta[1:], *oc.v[1:],
                        oc.eta[0])


# -- matrix representation -------------------------------------------------------

class HMat2(_Frozen):
    """2x2 matrix with hyperbolic-complex entries: the Pauli matrix of a multivector.

    Stored as the multivector ``pauli`` it represents; the entries ``m11``,
    ``m12``, ``m21`` and ``m22`` are read-only views.  Entries stored as
    idempotent pairs could not hold the 16 real coefficients exactly (a part
    of ``z0 + z3`` is the sum of two parts and needs one more bit), so the
    Pauli coefficients are what the matrix keeps.  Built from its entries, a
    matrix is decomposed into Pauli coefficients by half sums and
    differences, to rounding.  The product of two matrices is the matrix of
    the product of their multivectors, so to_matrix is exactly a
    homomorphism.
    """

    __slots__ = ("pauli",)
    __match_args__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: HyperComplex, m12: HyperComplex,
                 m21: HyperComplex, m22: HyperComplex):
        self._fill(Multivector((m11 + m22) * 0.5,
                               (m12 + m21) * 0.5,
                               _mul_i(m12 - m21) * 0.5,
                               (m11 - m22) * 0.5))

    @property
    def m11(self) -> HyperComplex:
        return self.pauli.z0 + self.pauli.z3

    @property
    def m12(self) -> HyperComplex:
        return self.pauli.z1 - _mul_i(self.pauli.z2)

    @property
    def m21(self) -> HyperComplex:
        return self.pauli.z1 + _mul_i(self.pauli.z2)

    @property
    def m22(self) -> HyperComplex:
        return self.pauli.z0 - self.pauli.z3

    def __mul__(self, other: "HMat2") -> "HMat2":
        if not isinstance(other, HMat2):
            return NotImplemented
        return to_matrix(self.pauli * other.pauli)

    def apply(self, c: "ColumnSpinor") -> "ColumnSpinor":
        return ColumnSpinor(self.m11 * c.c1 + self.m12 * c.c2,
                            self.m21 * c.c1 + self.m22 * c.c2)


class ColumnSpinor(_Frozen):
    """Two-component matrix-picture spinor."""

    __slots__ = __match_args__ = ("c1", "c2")

    def __init__(self, c1: HyperComplex, c2: HyperComplex):
        self._fill(c1, c2)

    def isclose(self, other: "ColumnSpinor", tol: float = 1e-12) -> bool:
        return self.c1.isclose(other.c1, tol) and self.c2.isclose(other.c2, tol)


def to_matrix(a: Multivector) -> HMat2:
    """Pauli representation s1=[[0,1],[1,0]], s2=[[0,-i],[i,0]], s3=[[1,0],[0,-1]].

    An algebra isomorphism onto all 16 real dimensions.  The matrix represents
    a itself (see HMat2), so from_matrix inverts it exactly.
    """
    return _rebuild(HMat2, (a,))


def from_matrix(m: HMat2) -> Multivector:
    """Inverse of to_matrix: the multivector the matrix represents."""
    return m.pauli


def to_column(psi: Spinor) -> ColumnSpinor:
    """The matrix of psi applied to the standard column (1, 0).

    Componentwise: (s + i*b21 + j*b30 + ij*p, -b13 + i*b32 + j*b10 + ij*b20).
    """
    m = to_matrix(psi.value)
    return ColumnSpinor(m.m11, m.m21)


def from_column(c: ColumnSpinor) -> Spinor:
    """Inverse of to_column to rounding (eight real components each way).

    A column entry such as m11 = z0 + z3 sums two coefficients' pair parts,
    and each component read back halves and adds two of those, so the round
    trip is exact only where these sums are representable, for instance for
    components on a common binary grid.
    """
    (s, b21, b30, p), (x2, b32, b10, b20) = c.c1.coeffs(), c.c2.coeffs()
    return _spinor_span(Spinor, s, b32, -x2, b21, b10, b20, b30, p)


def act(omega: Multivector, psi: Spinor) -> Spinor:
    """Left multiplication by a spinor-subalgebra operator.

    lorentz._spin_product on entries; else omega meets the guard.
    """
    out = _spin_product(Spinor, omega, _spin_half(omega), psi.value, psi._half)
    if out is None:
        NotInSpinorAlgebra.check(omega)
        out = Spinor(omega * psi.value)
    return out


# -- spinor products ------------------------------------------------------------

def sprod_column(a: ColumnSpinor, b: ColumnSpinor) -> HyperComplex:
    """conj(a1)*b1 + conj(a2)*b2, the correlation via conjugation."""
    return a.c1.conj() * b.c1 + a.c2.conj() * b.c2


def sprod_algebraic(a: Spinor, b: Spinor, tol: float = _SPAN_TOL) -> HyperComplex:
    """a . b + j (a . (b e3)), read off as a hyperbolic-complex scalar.

    Equals sprod_column of the column pictures.  The symmetric products leave
    the scalar slot exactly on spinor-subalgebra arguments; any residual above
    tolerance, or a NaN or infinite residual, raises NonScalarResidual.
    """
    total = sym(a.value, b.value) + sym(a.value, b.value * E3) * J
    NonScalarResidual.check(total, tol)
    return total.scalar()


def product_modulus_sq(a: Spinor, b: Spinor) -> HyperComplex:
    """Squared modulus of the spinor product, of the form re + ij*hyper.

    On the entries A and B of a and b, the product (sprod_algebraic's) is
    ((adj A B)00, conj((adj B A)00)), A11 B00 - A01 B10 being Penrose and
    Rindler's antisymmetric form.  Where |a|^2 |b|^2 <= 2**1000 (|a|^2 =
    sum |A_ij|^2 / 2) no part either route forms exceeds about 2**1011, so
    both are finite.  Beyond it, and without entries, sprod_algebraic runs
    too: its NaN, inf or NonScalarResidual stands, else the entries' value.
    """
    h, k = a._half, b._half
    if h is None or k is None:
        return sprod_algebraic(a, b).modulus_sq()
    a00, a01, a10, a11 = h
    b00, b01, b10, b11 = k
    m2 = _pair(a11 * b00 - a01 * b10,
               (b11 * a00 - b01 * a10).conjugate()).modulus_sq()
    if _norm_sq(h) * _norm_sq(k) <= _RANGE:
        return m2
    want = sprod_algebraic(a, b).modulus_sq()
    return m2 if m2.p - m2.p == 0 and want.p - want.p == 0 else want


_RANGE = 2.0 ** 1000  # the largest |a|^2 |b|^2 taken on the entries alone


def _norm_sq(h: tuple) -> float:
    """|a|^2 for the spin value a with the entries h: half the sum of |h_ij|^2."""
    h00, h01, h10, h11 = h
    return (h00 * h00.conjugate() + h01 * h01.conjugate()
            + h10 * h10.conjugate() + h11 * h11.conjugate()).real * 0.5


def mott_factor(theta: float) -> float:
    """cos^2(theta/2): the spin contribution to elastic scattering."""
    return math.cos(theta / 2.0) ** 2


def nonrel_vector(phi: float, theta: float) -> tuple[float, float, float]:
    """(b32, b13, b21) at zero rapidity: a rotation parametrized with 4-pi period."""
    ec = even_components(from_rotor(spin_transform(LorentzParams(phi, theta))))
    return (ec.b32, ec.b13, ec.b21)
