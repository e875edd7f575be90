"""Multivectors over hyperbolic-complex scalars on the Pauli basis.

An element is ``z0 + z1*s1 + z2*s2 + z3*s3`` with hyperbolic-complex
coefficients (16 real dimensions).  The basis obeys
``s_a s_b = delta_ab + i eps_abc s_c`` with i and j central.  Minkowski
four-vectors embed as paravectors ``x0 + x1*j*s1 + x2*j*s2 + x3*j*s3``.
"""

from __future__ import annotations

import numbers

from .hypernum import ZeroDivisor  # noqa: F401  (re-raised here)
from .hypernum import ZERO, HyperComplex, _Frozen, _pair, _setters


class _ResidualError(Exception):
    """A membership guard's failure.

    ``residual`` is the largest coefficient the guard found outside its span,
    NaN when one of them is NaN; ``text`` formats it into the message.
    """

    text = "residual {:.3e}"

    def __init__(self, residual: float):
        super().__init__(residual)
        self.residual = residual

    def __str__(self) -> str:
        return self.text.format(self.residual)


class NotAParavector(_ResidualError, ValueError):
    """A multivector expected to be an embedded four-vector is not one."""

    text = "residual {:.3e} outside the paravector span"


class IndexOutOfRange(IndexError):
    """A spacetime index outside 0..3."""


class Multivector(_Frozen):
    """z0 + z1*s1 + z2*s2 + z3*s3 with hyperbolic-complex coefficients."""

    __slots__ = __match_args__ = ("z0", "z1", "z2", "z3")

    def __init__(self, z0: HyperComplex = ZERO, z1: HyperComplex = ZERO,
                 z2: HyperComplex = ZERO, z3: HyperComplex = ZERO):
        _set_z0(self, z0)
        _set_z1(self, z1)
        _set_z2(self, z2)
        _set_z3(self, z3)

    # -- linear structure --------------------------------------------------

    def __add__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.z0 + o.z0, self.z1 + o.z1,
                           self.z2 + o.z2, self.z3 + o.z3)

    __radd__ = __add__

    def __sub__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.z0 - o.z0, self.z1 - o.z1,
                           self.z2 - o.z2, self.z3 - o.z3)

    def __rsub__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Multivector":
        return Multivector(-self.z0, -self.z1, -self.z2, -self.z3)

    def __mul__(self, other) -> "Multivector":
        """Geometric product (scalar operands multiply coefficientwise).

        Computed on each idempotent half alone (see _pauli).
        """
        o = _coerce(other)
        if o is None:
            return NotImplemented
        ap, am = _parts(self)
        bp, bm = _parts(o)
        return _from_parts(_pauli(ap, bp), _pauli(am, bm))

    def __rmul__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "Multivector":
        """Conjugation: hypernum.conj on every coefficient.  Anti-involution."""
        return Multivector(self.z0.conj(), self.z1.conj(),
                           self.z2.conj(), self.z3.conj())

    def dagger(self) -> "Multivector":
        """Reversion: hypernum.rev on every coefficient.  Anti-involution."""
        return Multivector(self.z0.rev(), self.z1.rev(),
                           self.z2.rev(), self.z3.rev())

    def hat(self) -> "Multivector":
        """Graduation: hypernum.grade on every coefficient.  Automorphism."""
        return Multivector(self.z0.grade(), self.z1.grade(),
                           self.z2.grade(), self.z3.grade())

    # -- inversion -------------------------------------------------------------

    def inverse(self) -> "Multivector":
        """(z0 - z1*s1 - z2*s2 - z3*s3) / (z0^2 - z1^2 - z2^2 - z3^2).

        The denominator is a central hyperbolic-complex scalar; ZeroDivisor
        propagates from its inversion when the multivector is singular.
        """
        d = self.z0 * self.z0 - self.z1 * self.z1 - self.z2 * self.z2 \
            - self.z3 * self.z3
        f = d.inverse()
        return Multivector(self.z0 * f, -(self.z1 * f), -(self.z2 * f),
                           -(self.z3 * f))

    # -- helpers -----------------------------------------------------------------

    def scalar(self) -> HyperComplex:
        """The coefficient of 1."""
        return self.z0

    def slots(self) -> tuple[HyperComplex, HyperComplex, HyperComplex, HyperComplex]:
        return (self.z0, self.z1, self.z2, self.z3)

    def max_abs(self) -> float:
        """The largest coefficient magnitude; NaN if any coefficient is NaN."""
        return _max_or_nan([self.z0.max_abs(), self.z1.max_abs(),
                            self.z2.max_abs(), self.z3.max_abs()])

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return (self.z0.isclose(other.z0, tol) and self.z1.isclose(other.z1, tol)
                and self.z2.isclose(other.z2, tol) and self.z3.isclose(other.z3, tol))

    def coeffs16(self) -> list[float]:
        """Flat real coefficients, ordered (1, i, j, ij) x (1, s1, s2, s3)."""
        zs = self.slots()
        out: list[float] = []
        for part in ("x", "y", "v", "w"):
            out.extend(getattr(z, part) for z in zs)
        return out

    @classmethod
    def from_coeffs16(cls, coeffs) -> "Multivector":
        c = list(coeffs)
        if len(c) != 16:
            raise ValueError("expected 16 coefficients")
        return cls(*(HyperComplex(c[k], c[4 + k], c[8 + k], c[12 + k])
                     for k in range(4)))

    def __str__(self) -> str:
        from .hypernum import render_terms
        labels = ("",) + BASIS_LABELS[1:]
        return render_terms(zip(self.coeffs16(), labels))


_set_z0, _set_z1, _set_z2, _set_z3 = _setters(Multivector)


def _parts(a: Multivector) -> tuple[tuple, tuple]:
    """The p parts and the m parts of a's slots z0..z3 (see hypernum)."""
    z0, z1, z2, z3 = a.z0, a.z1, a.z2, a.z3
    return (z0.p, z1.p, z2.p, z3.p), (z0.m, z1.m, z2.m, z3.m)


def _from_parts(ps: tuple, ms: tuple) -> Multivector:
    """The multivector whose slots have the p parts ps and the m parts ms."""
    p0, p1, p2, p3 = ps
    m0, m1, m2, m3 = ms
    return Multivector(_pair(p0, m0), _pair(p1, m1), _pair(p2, m2),
                       _pair(p3, m3))


def _pauli(a: tuple, b: tuple) -> tuple:
    """One idempotent half of the geometric product, in complex arithmetic.

    a and b are the four complex parts (all p, or all m) of two
    multivectors' slots; each half multiplies as four complex Pauli
    coefficients, s_a s_b = delta_ab + i eps_abc s_c.  The quarter turn i*c
    is the exact complex(-c.imag, c.real), as in hypernum._mul_i; 1j*c would
    turn an infinite part into NaN and flip the sign of some zeros.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c1 = a2 * b3 - a3 * b2
    c2 = a3 * b1 - a1 * b3
    c3 = a1 * b2 - a2 * b1
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
            a0 * b1 + a1 * b0 + complex(-c1.imag, c1.real),
            a0 * b2 + a2 * b0 + complex(-c2.imag, c2.real),
            a0 * b3 + a3 * b0 + complex(-c3.imag, c3.real))


def _coerce(value) -> Multivector | None:
    if isinstance(value, Multivector):
        return value
    if isinstance(value, HyperComplex):
        return Multivector(value)
    if isinstance(value, numbers.Real):
        return Multivector(HyperComplex(float(value)))
    return None


def scalar(value) -> Multivector:
    """Embed a real or hyperbolic-complex scalar."""
    m = _coerce(value)
    if m is None:
        raise TypeError(f"not a scalar: {value!r}")
    return m


# -- symmetric / antisymmetric products ------------------------------------------

def sym(a: Multivector, b: Multivector) -> Multivector:
    """(a * bar(b) + b * bar(a)) / 2, the scalar product of paravectors."""
    return (a * b.bar() + b * a.bar()) * 0.5


def antisym(a: Multivector, b: Multivector) -> Multivector:
    """(a * bar(b) - b * bar(a)) / 2, the wedge product (biparavector)."""
    return (a * b.bar() - b * a.bar()) * 0.5


def triparavector(mu: int, nu: int, sig: int) -> Multivector:
    """Fully antisymmetrized triple product of basis paravectors.

    Vanishes when two indices coincide; the nonzero values span the
    pseudovector directions {ij, i*s1, i*s2, i*s3}.
    """
    for idx in (mu, nu, sig):
        if not 0 <= idx <= 3:
            raise IndexOutOfRange(f"index {idx} outside 0..3")
    a, b, c = E[mu], E[nu], E[sig]
    total = (a * b.bar() * c + b * c.bar() * a + c * a.bar() * b
             - b * a.bar() * c - a * c.bar() * b - c * b.bar() * a)
    return total * (1.0 / 6.0)


# -- Minkowski four-vectors ---------------------------------------------------------

class FourVector(_Frozen):
    """A Minkowski four-vector (x0, x1, x2, x3)."""

    __slots__ = __match_args__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0: float = 0.0, x1: float = 0.0, x2: float = 0.0,
                 x3: float = 0.0):
        _set_x0(self, x0)
        _set_x1(self, x1)
        _set_x2(self, x2)
        _set_x3(self, x3)

    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    def isclose(self, other: "FourVector", tol: float = 1e-12) -> bool:
        return all(abs(p - q) <= tol
                   for p, q in zip(self.components(), other.components()))


_set_x0, _set_x1, _set_x2, _set_x3 = _setters(FourVector)


def embed(x: FourVector) -> Multivector:
    """x0 + x1*j*s1 + x2*j*s2 + x3*j*s3."""
    return Multivector(HyperComplex(x.x0),
                       HyperComplex(0.0, 0.0, x.x1),
                       HyperComplex(0.0, 0.0, x.x2),
                       HyperComplex(0.0, 0.0, x.x3))


def _max_or_nan(values: list[float]) -> float:
    """The largest of the non-negative values, or NaN if one of them is NaN.

    max() alone keeps a NaN only when it comes first, and a guard written as
    ``residual > tol`` lets a NaN residual through.
    """
    total = sum(values)
    return total if total != total else max(values)


def extract(m: Multivector, tol: float = 1e-12) -> FourVector:
    """Invert embed; raises NotAParavector if m has other components.

    A NaN outside the span raises too.  A NaN coefficient shares its
    idempotent pair part with one outside the span, so any NaN does.
    """
    (p0, p1, p2, p3), (m0, m1, m2, m3) = _parts(m)
    # p + m = 2(x + iy) and p - m = 2(v + iw) on each slot (see hypernum)
    s0, s1, s2, s3 = p0 + m0, p1 + m1, p2 + m2, p3 + m3
    d0, d1, d2, d3 = p0 - m0, p1 - m1, p2 - m2, p3 - m3
    # y, v, w of z0 and x, y, w of z1, z2, z3
    residual = _max_or_nan([abs(s0.imag), abs(d0.real), abs(d0.imag),
                            abs(s1.real), abs(s1.imag), abs(d1.imag),
                            abs(s2.real), abs(s2.imag), abs(d2.imag),
                            abs(s3.real), abs(s3.imag), abs(d3.imag)]) * 0.5
    if not residual <= tol * max(1.0, m.max_abs()):
        raise NotAParavector(residual)
    return FourVector(s0.real * 0.5, d1.real * 0.5, d2.real * 0.5,
                      d3.real * 0.5)


def minkowski_dot(x: FourVector, y: FourVector) -> float:
    """Scalar part of sym(embed(x), embed(y)); signature (+,-,-,-)."""
    return x.x0 * y.x0 - x.x1 * y.x1 - x.x2 * y.x2 - x.x3 * y.x3


# -- fixed elements ------------------------------------------------------------------

ONE = Multivector(HyperComplex(1.0))
S1 = Multivector(z1=HyperComplex(1.0))
S2 = Multivector(z2=HyperComplex(1.0))
S3 = Multivector(z3=HyperComplex(1.0))
E0 = ONE
E1 = Multivector(z1=HyperComplex(0.0, 0.0, 1.0))
E2 = Multivector(z2=HyperComplex(0.0, 0.0, 1.0))
E3 = Multivector(z3=HyperComplex(0.0, 0.0, 1.0))
E = (E0, E1, E2, E3)

# Volume element e1*e2*e3 of the paravector basis.
PSEUDOSCALAR = Multivector(HyperComplex(0.0, 0.0, 0.0, 1.0))

BASIS_LABELS = (
    "1", "s1", "s2", "s3",
    "i", "i*s1", "i*s2", "i*s3",
    "j", "j*s1", "j*s2", "j*s3",
    "ij", "ij*s1", "ij*s2", "ij*s3",
)
