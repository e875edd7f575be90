"""Multivectors over hyperbolic-complex scalars on the Pauli basis.

An element is ``z0 + z1*s1 + z2*s2 + z3*s3`` with hyperbolic-complex
coefficients (16 real dimensions).  The basis obeys
``s_a s_b = delta_ab + i eps_abc s_c`` with i and j central.  Minkowski
four-vectors embed as paravectors ``x0 + x1*j*s1 + x2*j*s2 + x3*j*s3``.

A multivector is stored as its eight idempotent parts, the 4-tuples of its
coefficients' p and m parts (see hypernum).  Each half is an element of
M2(C) on the Pauli basis, and every operation acts on the halves alone.
"""

from __future__ import annotations

import math
from operator import add, itemgetter, neg, sub

from .hypernum import ZeroDivisor  # noqa: F401  (re-raised here)
from .hypernum import _coerce as _coerce_scalar
from .hypernum import (_REAL, ZERO, HyperComplex, _coeffs, _Frozen, _max_or_nan,
                       _new, _pair, _part_abs, _scaled, render_terms)

# the membership guards' default tolerance, extract's and check's
_SPAN_TOL = 1e-12


class _ResidualError(Exception):
    """A membership guard's failure.

    A guard class states its ``span``: the indices in slot order (4*slot + k,
    k over x, y, v, w) of the coefficients it admits, in the order it returns
    them.  ``residual`` is the largest coefficient the guard found outside its
    span, NaN when one of them is NaN; ``text`` formats it into the message.
    """

    text = "residual {:.3e}"

    def __init__(self, residual: float):
        super().__init__(residual)
        self.residual = residual

    def __init_subclass__(cls):
        cls._inside = itemgetter(*cls.span)
        cls._outside = itemgetter(*(k for k in range(16) if k not in cls.span))

    def __str__(self) -> str:
        return self.text.format(self.residual)

    @classmethod
    def check(cls, a: Multivector, tol: float = _SPAN_TOL) -> tuple[float, ...]:
        """The membership test; a's coefficients in the span if it passes.

        Raises cls(residual) unless the residual is finite and at most
        tol * max(1, a.max_abs()); a NaN or infinite residual raises even
        where a.max_abs() is infinite too.  A finite residual beside a
        non-finite coefficient in the span is read as NaN: such a
        coefficient's pair partner lies in the span too where the span holds
        a whole slot (NonScalarResidual's), so nothing outside it shows it.
        """
        coeffs = _slot_coeffs(a)
        inside = cls._inside(coeffs)
        residual = _max_or_nan(list(map(abs, cls._outside(coeffs))))
        if residual < math.inf and sum([c - c for c in inside]) != 0:
            residual = math.nan  # c - c is 0 for a finite c, NaN otherwise
        # max(1, ...) is at least 1, so a residual within tol needs no max_abs
        within = residual <= tol or residual <= tol * max(1.0, a.max_abs())
        if not (within and residual < math.inf):
            raise cls(residual)
        return inside

    @classmethod
    def components(cls, a: Multivector) -> tuple[float, ...]:
        """a's coefficients in the span, without the test."""
        return cls._inside(_slot_coeffs(a))


class NotAParavector(_ResidualError, ValueError):
    """A multivector expected to be an embedded four-vector is not one."""

    text = "residual {:.3e} outside the paravector span"
    span = (0, 6, 10, 14)  # x0..x3: x of z0, v of z1..z3


class IndexOutOfRange(IndexError):
    """A spacetime index outside 0..3."""


class Multivector(_Frozen):
    """z0 + z1*s1 + z2*s2 + z3*s3, stored as parts p, m; z0..z3 are views."""

    __slots__ = ("p", "m")
    __match_args__ = ("z0", "z1", "z2", "z3")

    def __init__(self, z0: HyperComplex = ZERO, z1: HyperComplex = ZERO,
                 z2: HyperComplex = ZERO, z3: HyperComplex = ZERO):
        _set_p(self, (z0.p, z1.p, z2.p, z3.p))
        _set_m(self, (z0.m, z1.m, z2.m, z3.m))

    z0, z1, z2, z3 = (property(lambda self, k=k: _pair(self.p[k], self.m[k]))
                      for k in range(4))

    # -- linear structure --------------------------------------------------

    def __add__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _halves(tuple(map(add, self.p, o.p)),
                       tuple(map(add, self.m, o.m)))

    __radd__ = __add__

    def __sub__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _halves(tuple(map(sub, self.p, o.p)),
                       tuple(map(sub, self.m, o.m)))

    def __rsub__(self, other) -> "Multivector":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Multivector":
        return _halves(tuple(map(neg, self.p)), tuple(map(neg, self.m)))

    def __mul__(self, other) -> "Multivector":
        """Geometric product, computed on each idempotent half alone.

        Two multivectors multiply half by half (see _pauli).  A scalar is
        central and acts on each half by its own part: a HyperComplex z
        multiplies the p parts by z.p and the m parts by z.m, as z times
        each slot does, and a real scales every part through
        hypernum._scaled.  A real taken as a multivector would meet every
        slot in _pauli, and an infinite part times its zeros would put NaN
        in all of them.
        """
        if isinstance(other, Multivector):
            return _halves(_pauli(self.p, other.p), _pauli(self.m, other.m))
        if isinstance(other, HyperComplex):
            return _halves(tuple([c * other.p for c in self.p]),
                           tuple([c * other.m for c in self.m]))
        if isinstance(other, _REAL):
            return _halves(tuple([_scaled(c, other) for c in self.p]),
                           tuple([_scaled(c, other) for c in self.m]))
        return NotImplemented

    __rmul__ = __mul__

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "Multivector":
        """Conjugation: hypernum.conj on every coefficient.  Anti-involution."""
        return _halves(tuple(map(_conj, self.m)), tuple(map(_conj, self.p)))

    def dagger(self) -> "Multivector":
        """Reversion: hypernum.rev on every coefficient.  Anti-involution."""
        return _halves(tuple(map(_conj, self.p)), tuple(map(_conj, self.m)))

    def hat(self) -> "Multivector":
        """Graduation: hypernum.grade on every coefficient.  Automorphism."""
        return _halves(self.m, self.p)

    # -- inversion -------------------------------------------------------------

    def inverse(self) -> "Multivector":
        """(z0 - z1*s1 - z2*s2 - z3*s3) / (z0^2 - z1^2 - z2^2 - z3^2).

        The denominator is a central hyperbolic-complex scalar; ZeroDivisor
        propagates from its inversion when the multivector is singular.
        """
        p0, p1, p2, p3 = self.p
        m0, m1, m2, m3 = self.m
        f = _pair(p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3,
                  m0 * m0 - m1 * m1 - m2 * m2 - m3 * m3).inverse()
        fp, fm = f.p, f.m
        return _halves((p0 * fp, -(p1 * fp), -(p2 * fp), -(p3 * fp)),
                      (m0 * fm, -(m1 * fm), -(m2 * fm), -(m3 * fm)))

    # -- helpers -----------------------------------------------------------------

    def scalar(self) -> HyperComplex:
        """The coefficient of 1."""
        return self.z0

    def slots(self) -> tuple[HyperComplex, HyperComplex, HyperComplex, HyperComplex]:
        return tuple(map(_pair, self.p, self.m))

    def max_abs(self) -> float:
        """The largest coefficient magnitude, as HyperComplex.max_abs reads it.

        NaN when a stored part is NaN, and otherwise inf when one is infinite.
        """
        return _max_or_nan([v for pair in map(_part_abs, self.p, self.m)
                            for v in pair])

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return all(a.isclose(b, tol) for a, b in zip(self.slots(), other.slots()))

    def coeffs16(self) -> list[float]:
        """Flat real coefficients, ordered (1, i, j, ij) x (1, s1, s2, s3)."""
        return [c for block in zip(*map(_coeffs, self.p, self.m))
                for c in block]

    @classmethod
    def from_coeffs16(cls, coeffs) -> "Multivector":
        c = list(coeffs)
        if len(c) != 16:
            raise ValueError("expected 16 coefficients")
        return cls(*(HyperComplex(c[k], c[4 + k], c[8 + k], c[12 + k])
                     for k in range(4)))

    def __repr__(self) -> str:
        z0, z1, z2, z3 = self.slots()
        return f"Multivector(z0={z0!r}, z1={z1!r}, z2={z2!r}, z3={z3!r})"

    def __str__(self) -> str:
        labels = ("",) + BASIS_LABELS[1:]
        return render_terms(zip(self.coeffs16(), labels))


_set_p, _set_m = Multivector._setters
_conj = complex.conjugate


def _slot_coeffs(a: Multivector) -> tuple[float, ...]:
    """The 16 real coefficients in slot order: x, y, v, w of z0, then of z1..."""
    return sum(map(_coeffs, a.p, a.m), ())


def _halves(p: tuple, m: tuple) -> Multivector:
    """The multivector with the p parts p and the m parts m (cf. _pair)."""
    a = _new(Multivector)
    _set_p(a, p)
    _set_m(a, m)
    return a


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


# -- the spin half ---------------------------------------------------------------
#
# An element of the spinor span {1, i*s_k, j*s_k, ij} has the m half
# _sigma(p) of its p half p, so it is one element A of M2(C), and a
# paravector's p half is the Hermitian X = x0 + x.s: rotors act as A X
# A^dagger (R. Penrose and W. Rindler, *Spinors and Space-Time*, vol. 1,
# 1984).  Spin values keep A's entries, which the closed forms write: A11 =
# p0 - p3 is a difference of terms of size cosh(xi/2) for a boost.

def _sigma(p: tuple) -> tuple:
    """The m half that the spinor span pairs with the p half p."""
    p0, p1, p2, p3 = p
    return (p0.conjugate(), -p1.conjugate(), -p2.conjugate(), -p3.conjugate())


def _zero_if_finite(q: tuple) -> complex:
    """0 when the four complex parts q are finite; NaN in a part otherwise."""
    q0, q1, q2, q3 = q
    return (q0 - q0) + (q1 - q1) + (q2 - q2) + (q3 - q3)  # inf - inf is NaN


def _entries(p: tuple) -> tuple:
    """(A00, A01, A10, A11) of A = p0 + p.s; i*p2 is an exact quarter turn."""
    p0, p1, p2, p3 = p
    ip2 = complex(-p2.imag, p2.real)
    return (p0 + p3, p1 - ip2, p1 + ip2, p0 - p3)


def _spin_half(a: Multivector) -> tuple | None:
    """_entries(a.p) when a.m == _sigma(a.p) and they are finite, else None."""
    h = _entries(a.p) if a.m == _sigma(a.p) else None
    return h if h is not None and _zero_if_finite(h) == 0 else None


class _SpinValue(_Frozen):
    """Base of lorentz.Rotor and spinor.Spinor: a value and its M2(C) entries.

    The slot _half keeps the entries: _spin_half(value) (also in _fill), a
    closed form's, or a composition's product.  The slot _terms keeps
    _sandwich_terms of them, formed by the first _kept_terms call and unset
    until then.  Outside a subclass's __slots__, equality, hashing and repr
    see neither; pickling carries the entries, not the terms.
    """

    __slots__ = ("_half", "_terms")

    def __init__(self, value: Multivector):
        self._setters[0](self, value)
        _set_half(self, _spin_half(value))

    _fill = __init__

    def __reduce__(self):
        return _with_half, (type(self), self.value, self._half)


_set_half, _set_terms = _SpinValue._setters


def _kept_terms(t: _SpinValue) -> tuple:
    """_sandwich_terms(t._half), formed on the first call and kept in t.

    Two threads that both form them write the same terms.
    """
    try:
        return t._terms
    except AttributeError:
        terms = _sandwich_terms(t._half)
        _set_terms(t, terms)
        return terms


def _with_half(cls: type, value: Multivector, half: tuple | None) -> _SpinValue:
    """The cls with the value value and the entries half, found by the caller."""
    obj = _new(cls)
    cls._setters[0](obj, value)
    _set_half(obj, half)
    return obj


def _spinor_span(cls: type, s: float, b32: float, b13: float, b21: float,
                 b10: float, b20: float, b30: float, p: float,
                 entries: tuple | None = None) -> _SpinValue:
    """The cls with the spinor-span value of the even components s, ..., p.

    That is s + b32 i s1 + ... + p ij (see hypalg.spinor): the p half
    v + i*eta, v = (s, b10, b20, b30) and eta = (p, b32, b13, b21), and the
    m half _sigma of it.  Its entries, a closed form's or _entries of the p
    half, are kept when finite.  Every spin-span builder builds through here.
    """
    half = (complex(s, p), complex(b10, b32), complex(b20, b13),
            complex(b30, b21))
    if entries is None:
        entries = _entries(half)
    return _with_half(cls, _halves(half, _sigma(half)),
                      entries if _zero_if_finite(entries) == 0 else None)


def _spin_product(cls: type, a: Multivector, h: tuple | None, b: Multivector,
                  k: tuple | None) -> _SpinValue | None:
    """The cls of the product of the spin values a and b, with entries h and k.

    The value is the pair form of _pauli(a.p, b.p), the full product's up to
    the sign of a zero; None where h or k is None or a part is not finite.
    """
    if h is None or k is None:
        return None
    p = _pauli(a.p, b.p)
    h00, h01, h10, h11 = h
    k00, k01, k10, k11 = k
    entries = (h00 * k00 + h01 * k10, h00 * k01 + h01 * k11,
               h10 * k00 + h11 * k10, h10 * k01 + h11 * k11)
    if _zero_if_finite(p) != 0 or _zero_if_finite(entries) != 0:
        return None
    return _with_half(cls, _halves(p, _sigma(p)), entries)


def _sandwich_terms(h: tuple) -> tuple:
    """The coefficients of x -> A X A^dagger for the entries h of A.

    With X = [[x0+x3, conj(c)], [c, x0-x3]], c = x1 + i x2, the image's x0
    and x3 are half the traces of X A^dagger A and X A^dagger s3 A, and its
    x1 + i x2 is (A X A^dagger)10; (A^dagger A)10 and (A A^dagger)10 cancel
    exactly for a unitary A.
    """
    a00, a01, a10, a11 = h
    b00, b01, b10 = a00.conjugate(), a01.conjugate(), a10.conjugate()
    n00, n01, n10, n11 = ((a00 * b00).real, (a01 * b01).real,
                          (a10 * b10).real, (a11 * a11.conjugate()).real)
    u, v, p, q = a01 * b00, a11 * b10, a10 * b00, a11 * b01
    return (n00 + n10, n01 + n11, n00 - n10, n01 - n11, 2.0 * (u + v),
            2.0 * (u - v), p + q, p - q, a11 * b00, a10 * b01)


def _spin_sandwich(terms: tuple, x0: float, x1: float, x2: float,
                   x3: float) -> tuple[float, float, float, float] | None:
    """x0..x3 of A X A^dagger from _sandwich_terms, or None.

    X's diagonal is d + e, d the rounded x0 +- x3 and e its error (TwoSum),
    and x0 and x3 are each half of one math.fsum: exact for A = 1.  The
    image is Hermitian by construction.  None where a part is not finite or
    a sum, or |a|^2 max|x_k| (|a|^2 = sum |A_ij|^2 / 2), passes the range,
    and where |a|^2 < _TINY, whose rounded squares |A_ij|^2 lose bits.
    """
    g0, g1, k0, k1, gc, kc, w0, w3, w1, w2 = terms
    d0, d1 = x0 + x3, x0 - x3
    z0, z1 = d0 - x0, d1 - x0
    e0, e1 = (x0 - (d0 - z0)) + (x3 - z0), (x0 - (d1 - z1)) - (x3 + z1)
    c = complex(x1, x2)
    try:
        y0 = 0.5 * math.fsum((g0 * d0, g0 * e0, g1 * d1, g1 * e1,
                              (c * gc).real))
        y3 = 0.5 * math.fsum((k0 * d0, k0 * e0, k1 * d1, k1 * e1,
                              (c * kc).real))
    except (OverflowError, ValueError):  # a partial past the range, inf - inf
        return None
    y = x0 * w0 + x3 * w3 + c * w1 + c.conjugate() * w2
    a2 = (g0 + g1) * 0.5
    if (y0 - y0) + (y3 - y3) + (y - y) != 0 or not _TINY <= a2 or not (
            a2 * max(abs(x0), abs(x1), abs(x2), abs(x3)) < math.inf):
        return None
    return (y0, y.real, y.imag, y3)


# the least |a|^2 taken on the trace terms: a subnormal |A_ij|^2 is off by
# at most 2^-1075, under 2^-23 eps |a|^2 (cf. spinor._RANGE)
_TINY = 2.0 ** -1000


_LN2 = math.log(2.0)


def _exp_pauli(a: tuple) -> tuple:
    """One idempotent half of the exponential, in closed form.

    a holds the four complex parts of one half, a0 + a.s in M2(C).  Since
    (a.s)^2 = s^2 with s^2 = a1^2 + a2^2 + a3^2, the exponential is
    c + k a.s with c = exp(a0) cosh s and k = exp(a0) sinh(s) / s (k =
    exp(a0) at s = 0, the nilpotent case).  From |s| = 1 on, c and k are
    taken from the eigenvalue exponentials e+- = exp(a0 +- s) as
    (e+ + e-) / 2 and (e+ - e-) / (2 s), since cosh s alone can overflow
    where c does not (a0 = -1000, s = 1000 gives c = 1/2).  Each exponential
    is of its argument less ln 2, the 2 restored last, so none overflows
    where c and k a are in range (exp(709.9) does, cosh(709.9) does not).
    Where s^2 overflows, s is taken from a1..a3 scaled by a power of two and
    scaled back.  OverflowError is raised when cmath.exp or its argument
    overflows and when s does.  cmath is imported on the first call, so
    importing hypalg does not load it.
    """
    import cmath

    a0, a1, a2, a3 = a
    s = cmath.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if not cmath.isfinite(s):  # as lorentz.rotation falls back to math.hypot
        n = math.frexp(max([abs(c) for z in (a1, a2, a3)
                            for c in (z.real, z.imag)]))[1]
        b1, b2, b3 = a1 * 2.0 ** -n, a2 * 2.0 ** -n, a3 * 2.0 ** -n
        s = cmath.sqrt(b1 * b1 + b2 * b2 + b3 * b3) * 2.0 ** (n - 1) * 2.0
    # abs(s) raises past the float range, math.hypot gives inf
    if not math.hypot(s.real, s.imag) < math.inf:
        raise OverflowError("a1^2 + a2^2 + a3^2 is beyond the float range")
    if abs(s) < 1.0:
        half = cmath.exp(a0 - _LN2)
        c = half * cmath.cosh(s) * 2.0
        k = (half * (cmath.sinh(s) / s) if s else half) * 2.0
    else:
        plus, minus = cmath.exp(a0 + s - _LN2), cmath.exp(a0 - s - _LN2)
        # an infinite argument (a0 + s past the float range) does not raise
        if not (cmath.isfinite(plus) and cmath.isfinite(minus)):
            raise OverflowError("math range error")
        c, k = plus + minus, (plus - minus) / s
    return (c, k * a1, k * a2, k * a3)


def _coerce(value) -> Multivector | None:
    if isinstance(value, Multivector):
        return value
    z = _coerce_scalar(value)
    return None if z is None else Multivector(z)


def scalar(value) -> Multivector:
    """Embed a real or hyperbolic-complex scalar."""
    m = _coerce(value)
    if m is None:
        raise TypeError(f"not a scalar: {value!r}")
    return m


# -- symmetric / antisymmetric products ------------------------------------------

def sym(a: Multivector, b: Multivector) -> Multivector:
    """(a * bar(b) + b * bar(a)) / 2, the scalar product of paravectors.

    One geometric product: bar is an anti-involution, so b * bar(a) is
    bar(a * bar(b)).
    """
    x = a * b.bar()
    return (x + x.bar()) * 0.5


def antisym(a: Multivector, b: Multivector) -> Multivector:
    """(a * bar(b) - b * bar(a)) / 2, the wedge product (biparavector).

    One geometric product, as in sym.
    """
    x = a * b.bar()
    return (x - x.bar()) * 0.5


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


_set_x0, _set_x1, _set_x2, _set_x3 = FourVector._setters


def embed(x: FourVector) -> Multivector:
    """x0 + x1*j*s1 + x2*j*s2 + x3*j*s3; j is +1 on the p half, -1 on the m."""
    x0, x1, x2, x3 = complex(x.x0), complex(x.x1), complex(x.x2), complex(x.x3)
    return _halves((x0, x1, x2, x3), (x0, -x1, -x2, -x3))


def extract(m: Multivector, tol: float = _SPAN_TOL) -> FourVector:
    """Invert embed; raises NotAParavector if m has other components.

    Every non-finite coefficient raises too: one in the span shares its
    idempotent pair part with one outside it, which is then NaN or infinite,
    so the components returned are finite.
    """
    return FourVector(*NotAParavector.check(m, tol))


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
