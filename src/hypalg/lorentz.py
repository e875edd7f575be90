"""Rotors, boosts, Lorentz generators, the spin transformation, and the
spin-value kernel that rotors and spinors share.

Rotations are ``exp(-i theta^k s_k / 2)`` and boosts ``exp(j xi^k s_k / 2)``;
both act on embedded four-vectors by the two-sided sandwich ``t x dagger(t)``.
"""

from __future__ import annotations

import math

from .cayley import (ONE, S1, S2, S3, FourVector, Multivector, _halves,
                     _pauli, embed, extract)
from .hypernum import HyperComplex, _Frozen, _new


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
    """Base of Rotor and spinor.Spinor: a value and its M2(C) entries.

    A spin value keeps what its builder computed.  The slot _src holds the
    value itself, a Multivector (Rotor(m), Spinor(m), and _spin_value from a
    value, as in pickling), or the source it is formed from: its p half, a
    4-tuple of complex, or the factors spin_transform formed, a 5-tuple of
    floats.  The read-only property value forms _halves(p, _sigma(p)) of
    such a source's p half on its first read and stores it back in _src;
    two threads that both form it store the same bits, and _p_half reads
    the same p half from either form.  The slot _half keeps the entries:
    _spin_half(value), a closed form's, or a composition's product; _terms,
    _sandwich_terms of them, is formed by _kept_terms for apply and
    matrix_of.  Equality, hashing and repr read value alone; pickling
    carries value and the entries.
    """

    __slots__ = ("_src", "_half", "_terms")
    __match_args__ = ("value",)

    def __init__(self, value: Multivector):
        _set_src(self, value)
        _set_half(self, _spin_half(value))

    @property
    def value(self) -> Multivector:
        src = self._src
        if isinstance(src, Multivector):
            return src
        p = _p_half(src)
        value = _halves(p, _sigma(p))
        _set_src(self, value)
        return value

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(value={self.value!r})"

    def __reduce__(self):
        return _spin_value, (type(self), self.value, self._half)


_set_src, _set_half, _set_terms = _SpinValue._setters


def _spin_value(cls: type, src, entries: tuple | None) -> _SpinValue:
    """The cls with the source src and entries (finite or None) as given.

    src is the value, a p half or spin_transform's factors (see _SpinValue).
    """
    obj = _new(cls)
    _set_src(obj, src)
    _set_half(obj, entries)
    return obj


def _kept_terms(t: _SpinValue) -> tuple:
    """t's trace terms: _sandwich_terms of its entries, kept on first use."""
    try:
        return t._terms
    except AttributeError:
        terms = _sandwich_terms(t._half)
        _set_terms(t, terms)
        return terms


def _p_half(src) -> tuple:
    """The p half of the spin value with the source src, without its value.

    A p half is itself.  spin_transform's factors (cp ct, sp st, cp st,
    sp ct, xi/2) give the closed form its docstring states, with
    cosh(xi/2) and sinh(xi/2) formed here.  spin_transform has refused every
    parameter for which they raise: exp(|xi|/2) overflows before they do.
    """
    if src.__class__ is not tuple:
        return src.p
    if len(src) == 4:
        return src
    cpct, spst, cpst, spct, x = src
    ch, sh = math.cosh(x), math.sinh(x)
    return (complex(cpct * ch, -spct * sh), complex(cpst * sh, spst * ch),
            complex(spst * sh, -cpst * ch), complex(cpct * sh, -spct * ch))


def _spinor_span(cls: type, s: float, b32: float, b13: float, b21: float,
                 b10: float, b20: float, b30: float, p: float,
                 entries: tuple | None = None) -> _SpinValue:
    """The cls with the spinor-span value of the even components s, ..., p.

    That is s + b32 i s1 + ... + p ij (see hypalg.spinor): the p half
    v + i*eta, v = (s, b10, b20, b30) and eta = (p, b32, b13, b21), and the
    m half _sigma of it.  Its entries, a closed form's or _entries of the p
    half, are kept when finite; the p half is the value's source, so the
    value is formed on its first read.  spin_transform keeps its factors
    instead, and _p_half writes the same layout from them; every other
    spin-span builder comes here.
    """
    half = (complex(s, p), complex(b10, b32), complex(b20, b13),
            complex(b30, b21))
    if entries is None:
        entries = _entries(half)
    return _spin_value(cls, half,
                       entries if _zero_if_finite(entries) == 0 else None)


def _spin_product(cls: type, a, h: tuple | None, b,
                  k: tuple | None) -> _SpinValue | None:
    """The cls of the product of the spin values with the sources a and b.

    a and b are _SpinValue sources (a Multivector, a p half or
    spin_transform's factors) with the entries h and k.  The value is the
    pair form of _pauli of their p halves (_p_half), the full product's up
    to the sign of a zero; None where h or k is None or a part is not
    finite.
    """
    if h is None or k is None:
        return None
    p = _pauli(_p_half(a), _p_half(b))
    h00, h01, h10, h11 = h
    k00, k01, k10, k11 = k
    entries = (h00 * k00 + h01 * k10, h00 * k01 + h01 * k11,
               h10 * k00 + h11 * k10, h10 * k01 + h11 * k11)
    if _zero_if_finite(p) != 0 or _zero_if_finite(entries) != 0:
        return None
    return _spin_value(cls, p, entries)


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
# at most 2^-1075, under 2^-23 eps |a|^2; also the least |P|^2 and |Q|^2
# that spinor.product_modulus_sq forms c = P Q from directly
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
    importing hypalg.lorentz does not load it.
    """
    import cmath

    a0, a1, a2, a3 = a
    s = cmath.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if not cmath.isfinite(s):  # as rotation falls back to math.hypot
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


class NoConvergence(ArithmeticError):
    """exp_general's refusal of an input with a NaN or infinite part.

    The exponential is a closed form that sums no series and squares
    nothing, so exp_general raises it with ``terms`` and ``squarings`` both
    0, and its message says the input is not finite.
    """

    def __init__(self, terms: int, squarings: int):
        super().__init__(terms, squarings)
        self.terms = terms
        self.squarings = squarings

    def __str__(self) -> str:
        if not self.terms:
            return "exponential series did not settle: the input is not finite"
        return f"exponential series did not settle in {self.terms} terms"


class LorentzParams(_Frozen):
    """Azimuth phi, polar angle theta (radians) and rapidity xi."""

    __slots__ = __match_args__ = ("phi", "theta", "xi")

    def __init__(self, phi: float = 0.0, theta: float = 0.0, xi: float = 0.0):
        self._fill(phi, theta, xi)


class Rotor(_SpinValue):
    """A spin-group element: value * bar(value) == 1.

    apply, matrix_of, composition, inverse and spinor.from_rotor read its
    M2(C) entries (see _SpinValue), found once, when it is built;
    apply and matrix_of read their trace terms, formed on the first of them
    (_kept_terms).  Its value is formed on its first read where it was
    built from a source.
    """

    __slots__ = ()

    def __mul__(self, other: "Rotor") -> "Rotor":
        """Composition; (t2 * t1) acts as t2 after t1.

        On two rotors with entries, _spin_product; otherwise, or
        where that is not finite, the geometric product.
        """
        if not isinstance(other, Rotor):
            return NotImplemented
        t = _spin_product(Rotor, self._src, self._half, other._src,
                          other._half)
        return Rotor(self.value * other.value) if t is None else t

    def inverse(self) -> "Rotor":
        """Rotor(value.bar()), with the entries adj A: A^-1 where det A = 1."""
        h = self._half
        return Rotor(self.value.bar()) if h is None else _spin_value(
            Rotor, self.value.bar(), (h[3], -h[1], -h[2], h[0]))

    def is_unit(self, tol: float = 1e-12) -> bool:
        v = self.value
        return (v * v.bar()).isclose(ONE, tol)


IDENTITY = _spinor_span(Rotor, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def rotation(axis_angle) -> Rotor:
    """Closed form cos(|t|/2) - i sin(|t|/2) (t_hat . s) for axis-angle t.

    An infinite |t| raises ValueError (from math.sin), also where the
    components are finite and their norm overflows, since math.hypot then
    gives inf; a finite |t| whose squares overflow is taken from math.hypot.
    """
    tx, ty, tz = axis_angle
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    if t == math.inf:
        t = math.hypot(tx, ty, tz)
    if t == 0.0:
        return IDENTITY
    s = -math.sin(t / 2.0) / t
    return _spinor_span(Rotor, math.cos(t / 2.0), s * tx, s * ty, s * tz,
                        0.0, 0.0, 0.0, 0.0)


def boost(rapidity) -> Rotor:
    """Closed form cosh(|x|/2) + j sinh(|x|/2) (x_hat . s) for rapidity x.

    OverflowError is raised when cosh(|x|/2) is not finite: from math.sinh
    for a finite |x| past about 1420, and here for an |x| that is NaN or
    inf, where math.sinh and math.cosh return NaN or inf.  Squares that
    overflow need no math.hypot, as rotation's do: their |x| is over 1e154.

    The entries take no difference: the diagonal one on n3's side (n = x/|x|)
    is cosh + sinh |n3|, the other e^{-|x|/2} + sinh (1 - |n3|), formed as
    e^{-|x|/2} + sinh (x1^2 + x2^2) / (|x| (|x| + |x3|)).
    """
    bx, by, bz = rapidity
    t = math.sqrt(bx * bx + by * by + bz * bz)
    if not t < math.inf:
        raise OverflowError(f"cosh(|x|/2) is not finite: x = ({bx}, {by}, {bz})")
    if t == 0.0:
        return IDENTITY
    s = math.sinh(t / 2.0) / t
    ch, w = math.cosh(t / 2.0), abs(bz)
    near = complex(ch + s * w)
    far = complex(math.exp(-t / 2.0) + s * ((bx * bx + by * by) / (t + w)))
    a01 = complex(s * bx, -s * by)
    a00, a11 = (near, far) if bz >= 0.0 else (far, near)
    return _spinor_span(Rotor, ch, 0.0, 0.0, 0.0, s * bx, s * by, s * bz, 0.0,
                        (a00, a01, a01.conjugate(), a11))


def exp_general(a: Multivector) -> Multivector:
    """The exponential, in closed form on each idempotent half.

    Agrees with the rotation/boost closed forms on their generators; exists
    as an independent cross-check of those formulas.  A NaN or infinite
    input raises NoConvergence(0, 0).  OverflowError is raised where
    cmath.exp, its argument or s overflows (see _exp_pauli) and for
    a result with a part beyond the float range, so every result returned
    is finite.
    """
    if not math.isfinite(a.max_abs()):
        raise NoConvergence(0, 0)
    e = _halves(_exp_pauli(a.p), _exp_pauli(a.m))
    if not math.isfinite(e.max_abs()):
        raise OverflowError(f"exp beyond the float range: max_abs {e.max_abs()}")
    return e


def apply(t: Rotor, x: FourVector) -> FourVector:
    """Sandwich t x dagger(t) on the embedded paravector.

    On t's entries, A X A^dagger from the trace terms t keeps
    (_spin_sandwich).  Otherwise, and where that has no image, the
    full product: NotAParavector propagates when it leaves the paravector
    span (t is not actually a rotor) or a part of it is not finite.
    """
    if t._half is not None:
        y = _spin_sandwich(_kept_terms(t), x.x0, x.x1, x.x2, x.x3)
        if y is not None:
            return FourVector(*y)
    v = t.value
    return extract(v * embed(x) * v.dagger())


def generators() -> tuple[tuple[Multivector, ...], tuple[Multivector, ...]]:
    """The rotation generators s_k/2 and boost generators ij s_k/2."""
    half = HyperComplex(0.5)
    ij_half = HyperComplex(0.0, 0.0, 0.0, 0.5)
    J = tuple(sigma * half for sigma in (S1, S2, S3))
    K = tuple(sigma * ij_half for sigma in (S1, S2, S3))
    return J, K


def commutator(a: Multivector, b: Multivector) -> Multivector:
    return a * b - b * a


def spin_transform(p: LorentzParams) -> Rotor:
    """exp(-i phi s3/2) exp(-i theta s2/2) exp(j xi s3/2), in closed form.

    With cp, sp = cos, sin(phi/2), ct, st = cos, sin(theta/2) and
    ch, sh = cosh, sinh(xi/2), the even components (see hypalg.spinor) are
    s = cp ct ch, b32 = sp st ch, b13 = -cp st ch, b21 = -sp ct ch,
    b10 = cp st sh, b20 = sp st sh, b30 = cp ct sh and p = -sp ct sh, each
    correct to a few eps times cosh(xi/2); ``hypalg spinor --check``
    compares them with the product of the three exponentials
    (hypalg.checks).  The entries [[a ct E, -a st / E], [conj(a) st E,
    conj(a) ct / E]], a = e^{-i phi/2} and E = e^{xi/2}, take no difference.
    OverflowError is raised from |xi| = 2 ln(max float) = 1419.565425786768.

    Only what can refuse is computed here: the factors and the entries.
    The rotor keeps the factors (cp ct, sp st, cp st, sp ct, xi/2) as the
    source of its value, which _p_half forms on its first read.
    """
    cp, sp = math.cos(p.phi / 2.0), math.sin(p.phi / 2.0)
    ct, st = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    x = p.xi / 2.0  # -x is -p.xi / 2.0 bit for bit
    up, down = math.exp(x), math.exp(-x)
    cpct, spst, cpst, spct = cp * ct, sp * st, cp * st, sp * ct
    h = (complex(cpct * up, -spct * up), complex(-cpst * down, spst * down),
         complex(cpst * up, spst * up), complex(cpct * down, spct * down))
    # h is finite where cpct spst up down is: an infinite angle or a finite
    # |xi| past the range raised, and NaN or xi = +-inf makes that NaN
    finite = cpct * spst * up * down
    return _spin_value(Rotor, (cpct, spst, cpst, spct, x),
                       h if finite - finite == 0 else None)


def matrix_of(t: Rotor):
    """The 4x4 real numpy array M with M x = apply(t, x).

    On t's trace terms, the closed form _matrix_entries.  Otherwise, and
    where that has none, column nu is apply's image of the basis vector
    e_nu, and the first column that leaves the span raises.  numpy is
    imported on the first call, so importing hypalg does not load it.
    """
    import numpy as np

    if t._half is not None:
        entries = _matrix_entries(_kept_terms(t))
        if entries is not None:
            return np.array(entries).reshape(4, 4)
    return np.array([apply(t, FourVector(*e)).components()
                     for e in _BASIS]).T


_BASIS = tuple(tuple(float(k == nu) for k in range(4)) for nu in range(4))
# c = x1 + i x2 of e0 and e3 (_C0), e1 (_C1) and e2 (_C2), and conj(c)
# (_D0.._D2), as _spin_sandwich forms them
_C0, _C1, _C2 = complex(0.0, 0.0), complex(1.0, 0.0), complex(0.0, 1.0)
_D0, _D1, _D2 = _C0.conjugate(), _C1.conjugate(), _C2.conjugate()


def _matrix_entries(terms: tuple) -> tuple | None:
    """M's 16 entries in row order from the trace terms, or None.

    Column e0's x0 and x3 are (g0 + g1) / 2 and (k0 + k1) / 2, e3's the same
    with g0 - g1 and k0 - k1, and e1's and e2's are read from gc and kc.
    Rows x1 and x2 are the real and imaginary parts of _spin_sandwich's
    x0 w0 + x3 w3 + c w1 + conj(c) w2 at e_nu's constants, each product of
    a zero formed once.  So each entry is what _spin_sandwich makes of
    e_nu, bit for bit, zero signs included.  None where |a|^2 =
    (g0 + g1) / 2 is outside [_TINY, 2^1000), which keeps every term finite.
    """
    g0, g1, k0, k1, gc, kc, w0, w3, w1, w2 = terms
    if not _TINY <= (g0 + g1) * 0.5 < 2.0 ** 1000:
        return None
    z0, z3, z1, z2 = 0.0 * w0, 0.0 * w3, _C0 * w1, _D0 * w2
    y0, y3 = 1.0 * w0 + z3 + z1 + z2, z0 + 1.0 * w3 + z1 + z2
    y1, y2 = z0 + z3 + _C1 * w1 + _D1 * w2, z0 + z3 + _C2 * w1 + _D2 * w2
    # math.fsum gives +0.0 for a zero sum, as adding 0.0 does
    return (0.5 * (g0 + g1), 0.5 * (gc.real + 0.0), 0.5 * (0.0 - gc.imag),
            0.5 * (g0 - g1),
            y0.real, y1.real, y2.real, y3.real,
            y0.imag, y1.imag, y2.imag, y3.imag,
            0.5 * (k0 + k1), 0.5 * (kc.real + 0.0), 0.5 * (0.0 - kc.imag),
            0.5 * (k0 - k1))
