"""Rotors, boosts, Lorentz generators, and the spin transformation.

Rotations are ``exp(-i theta^k s_k / 2)`` and boosts ``exp(j xi^k s_k / 2)``;
both act on embedded four-vectors by the two-sided sandwich ``t x dagger(t)``.
"""

from __future__ import annotations

import math

from .cayley import (_TINY, ONE, S1, S2, S3, FourVector, Multivector,
                     _exp_pauli, _halves, _kept_terms, _spin_product,
                     _spin_sandwich, _spinor_span, _SpinValue, _with_half,
                     embed, extract)
from .hypernum import HyperComplex, _Frozen


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
    M2(C) entries (see cayley._SpinValue), found once, when it is built;
    apply and matrix_of read their trace terms, formed on the first of them.
    """

    __slots__ = __match_args__ = ("value",)

    def __mul__(self, other: "Rotor") -> "Rotor":
        """Composition; (t2 * t1) acts as t2 after t1.

        On two rotors with entries, cayley._spin_product; otherwise, or
        where that is not finite, the geometric product.
        """
        if not isinstance(other, Rotor):
            return NotImplemented
        t = _spin_product(Rotor, self.value, self._half, other.value,
                          other._half)
        return Rotor(self.value * other.value) if t is None else t

    def inverse(self) -> "Rotor":
        """Rotor(value.bar()), with the entries adj A: A^-1 where det A = 1."""
        h = self._half
        return Rotor(self.value.bar()) if h is None else _with_half(
            Rotor, self.value.bar(), (h[3], -h[1], -h[2], h[0]))

    def is_unit(self, tol: float = 1e-12) -> bool:
        return (self.value * self.value.bar()).isclose(ONE, tol)


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
    cmath.exp, its argument or s overflows (see cayley._exp_pauli) and for
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
    (cayley._spin_sandwich).  Otherwise, and where that has no image, the
    full product: NotAParavector propagates when it leaves the paravector
    span (t is not actually a rotor) or a part of it is not finite.
    """
    if t._half is not None:
        y = _spin_sandwich(_kept_terms(t), x.x0, x.x1, x.x2, x.x3)
        if y is not None:
            return FourVector(*y)
    return extract(t.value * embed(x) * t.value.dagger())


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
    """
    cp, sp = math.cos(p.phi / 2.0), math.sin(p.phi / 2.0)
    ct, st = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    ch, sh = math.cosh(p.xi / 2.0), math.sinh(p.xi / 2.0)
    up, down = math.exp(p.xi / 2.0), math.exp(-p.xi / 2.0)
    cpct, spst, cpst, spct = cp * ct, sp * st, cp * st, sp * ct
    return _spinor_span(Rotor, cpct * ch, spst * ch, -cpst * ch, -spct * ch,
                        cpst * sh, spst * sh, cpct * sh, -spct * sh,
                        (complex(cpct * up, -spct * up),
                         complex(-cpst * down, spst * down),
                         complex(cpst * up, spst * up),
                         complex(cpct * down, spct * down)))


def matrix_of(t: Rotor):
    """The 4x4 real numpy array M with M x = apply(t, x).

    On t's trace terms, the closed form _matrix_entries.  Otherwise, and
    where that has none, column nu is apply's image of the basis vector
    e_nu, by apply's route, and the first column that leaves the span
    raises.  numpy is imported on the first call, so importing hypalg does
    not load it.
    """
    import numpy as np

    if t._half is None:
        columns = [apply(t, FourVector(*e)).components() for e in _BASIS]
    else:
        terms = _kept_terms(t)
        entries = _matrix_entries(terms)
        if entries is not None:
            return np.array(entries).reshape(4, 4)
        columns = [_spin_sandwich(terms, *e)
                   or apply(t, FourVector(*e)).components() for e in _BASIS]
    return np.array(columns).T


_BASIS = tuple(tuple(float(k == nu) for k in range(4)) for nu in range(4))


def _matrix_entries(terms: tuple) -> tuple | None:
    """M's 16 entries in row order from the trace terms, or None.

    Column e0 is (g0 + g1, 2 w0, k0 + k1) / 2, w0 split into its real and
    imaginary parts, e3 the same with g0 - g1, w3 and k0 - k1, and e1 and
    e2 are read from gc, kc and w1 +- w2: each entry is the one sum or read
    that cayley._spin_sandwich makes of e_nu, bit for bit.  None where
    |a|^2 = (g0 + g1) / 2 is outside [_TINY, 2^1000), which keeps every
    term finite, and where an image's x1 or x2 is 0, whose sign this form
    does not follow (a pure rotation's e0 image, for one).
    """
    g0, g1, k0, k1, gc, kc, w0, w3, w1, w2 = terms
    s, d = w1 + w2, w1 - w2
    if not (_TINY <= (g0 + g1) * 0.5 < 2.0 ** 1000 and w0.real and w0.imag
            and s.real and s.imag and d.real and d.imag and w3.real
            and w3.imag):
        return None
    # math.fsum gives +0.0 for a zero sum, as adding 0.0 does
    return (0.5 * (g0 + g1), 0.5 * (gc.real + 0.0), 0.5 * (0.0 - gc.imag),
            0.5 * (g0 - g1),
            w0.real, s.real, -d.imag, w3.real,
            w0.imag, s.imag, d.real, w3.imag,
            0.5 * (k0 + k1), 0.5 * (kc.real + 0.0), 0.5 * (0.0 - kc.imag),
            0.5 * (k0 - k1))
