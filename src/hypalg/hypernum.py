"""Hyperbolic-complex scalars.

The commutative ring of numbers ``x + y*i + v*j + w*ij`` with two central
units satisfying ``i*i = -1`` and ``j*j = +1``.  The ring has zero divisors
(``1 + j`` is one), so inversion is partial.

The idempotents ``e+ = (1 + j)/2`` and ``e- = (1 - j)/2`` split the ring into
two copies of the complex numbers (the bicomplex decomposition; G. B. Price,
*An Introduction to Multicomplex Spaces and Functions*, 1991):

    z = p*e+ + m*e-,   p = (x + v) + i(y + w),   m = (x - v) + i(y - w).

``HyperComplex`` stores the pair ``(p, m)``.  The ring operations act on each
part alone, the involutions swap and conjugate the parts, and the squared
modulus is one complex product with no cancelling subtraction, so it is
multiplicative to rounding.  The real coefficients ``x, y, v, w`` are
read-only views recovered from the pair.

Storing the pair rounds ``x + v`` and ``x - v`` (and ``y + w``, ``y - w``), so
the views are accurate to eps*max(|x|, |v|) (or eps*max(|y|, |w|)) absolutely,
not to their own size: ``HyperComplex(1e-17, 0, 1, 0).x`` is 0.0 and
``HyperComplex(0.1, 0, 0.2, 0).x`` is 0.10000000000000002.  They are exact
whenever those sums and differences are representable, for instance for
components on a common binary grid no wider than the float mantissa.

Every hypalg value class, here and in the other modules, derives from
``_Frozen``, defined here as the bottom module: a plain class with
``__slots__`` whose fields cannot be assigned or deleted, and which is the
one home of filling the fields, equality, hashing, repr and pickling for all
of them; spin values (``lorentz._SpinValue``) override ``_key``, ``__repr__``
and ``__reduce__`` to read their ``value``, a property.  Being the bottom
module, it is also the home of what the CLI's commands and its expression
language share: ``format_real``, ``NonFiniteResult`` and ``_check_angles``.
"""

from __future__ import annotations

import math
import numbers


class ZeroDivisor(ArithmeticError):
    """Inversion attempted on an element of the null cone.

    ``norm`` is the element's real norm, ``tol`` the threshold
    ``1e-14 * scale**4`` it did not exceed and ``scale`` its largest
    component; ``value`` is the element itself.  The test itself runs on the
    element scaled by a power of two (see HyperComplex.inverse); ``norm`` and
    ``tol`` are its figures scaled back, inf or 0 where that leaves the float
    range.
    """

    def __init__(self, value, norm: float, tol: float, scale: float):
        super().__init__(value, norm, tol, scale)
        self.value = value
        self.norm = norm
        self.tol = tol
        self.scale = scale

    def __str__(self) -> str:
        return f"no inverse: {self.value} lies on the null cone"


class NonFiniteResult(ArithmeticError):
    """A result with a NaN or infinite number, refused rather than printed."""


def format_real(value: float) -> str:
    """12-significant-digit rendering with negative zero normalized."""
    if value == 0.0:
        value = 0.0
    return f"{value:.12g}"


def _check_angles(angles: list[tuple[str, float]],
                  axis_angle: bool = False) -> None:
    """Refuse the first infinite angle, before a rotor is built from them.

    angles are (label, value) pairs, each label formatting its value into
    the message.  math.cos and math.sin refuse an infinite angle with a bare
    ValueError; here it is a result with no finite value, NonFiniteResult,
    named even where a NaN angle comes before it.  When the angles are the
    components of an axis_angle for rotation, whose cos and sin read their
    norm, finite components whose norm is past the float range (math.hypot
    gives inf) are refused too, named by the largest of them.  The CLI reads
    its angles through here, in its options and in its expressions alike.
    """
    infinite = [pair for pair in angles if math.isinf(pair[1])]
    if axis_angle and math.hypot(*[a for _, a in angles]) == math.inf:
        infinite.append(max(angles, key=lambda pair: abs(pair[1])))
    if infinite:
        label, angle = infinite[0]
        raise NonFiniteResult(
            "infinite angle: " + label.format(format_real(angle)))


_new = object.__new__

# a real operand; float comes first, since isinstance tries the tuple in order
# and float's test takes about 0.02 us against 0.5 us for the numbers.Real ABC
_REAL = (float, numbers.Real)


class _Frozen:
    """Base of the immutable value classes.

    A subclass names its stored fields in ``__slots__``, in constructor order,
    and fills them in its own ``__init__`` through ``_fill``, since
    assignment and deletion raise AttributeError.  ``_setters`` holds the
    ``__set__`` of each slot, in ``__slots__`` order; the classes built on the
    hot path call them directly, which skips ``_fill``'s loop.  Equality and
    hashing need the same class and read every field, through ``_key``; the
    CLI's AST nodes override ``_key`` to leave out their source offset.  repr
    shows every field; pickling and copying store the fields as they are and
    rebuild without calling ``__init__``.
    """

    __slots__ = ()
    _setters: tuple = ()

    def __init_subclass__(cls):
        cls._setters = tuple([cls.__dict__[name].__set__
                              for name in cls.__slots__])

    def _fill(self, *values) -> None:
        """Store values in the fields, one per slot in ``__slots__`` order."""
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), tuple([getattr(self, name)
                                            for name in self.__slots__]))


def _rebuild(cls: type, values: tuple) -> _Frozen:
    """The instance of cls with the stored fields values (for pickle, copy)."""
    obj = _new(cls)
    obj._fill(*values)
    return obj


class HyperComplex(_Frozen):
    """One hyperbolic-complex number, stored as its idempotent pair (p, m).

    Built from the real quadruple on (1, i, j, ij); ``x``, ``y``, ``v`` and
    ``w`` read it back to within eps times the larger of the two components
    each pair part mixes (see the module docstring), so
    ``HyperComplex(*z.coeffs()) == z`` is not guaranteed.  Equality compares
    the stored pair.
    """

    __slots__ = ("p", "m")
    __match_args__ = ("x", "y", "v", "w")

    def __init__(self, x: float = 0.0, y: float = 0.0, v: float = 0.0,
                 w: float = 0.0):
        _set_p(self, complex(x + v, y + w))
        _set_m(self, complex(x - v, y - w))

    # -- real coefficients ------------------------------------------------

    x, y, v, w = (property(lambda self, k=k: _coeffs(self.p, self.m)[k])
                  for k in range(4))

    # -- ring structure ---------------------------------------------------

    def __add__(self, other) -> "HyperComplex":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _pair(self.p + o.p, self.m + o.m)

    __radd__ = __add__

    def __sub__(self, other) -> "HyperComplex":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _pair(self.p - o.p, self.m - o.m)

    def __rsub__(self, other) -> "HyperComplex":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "HyperComplex":
        return _pair(-self.p, -self.m)

    def __mul__(self, other) -> "HyperComplex":
        if isinstance(other, HyperComplex):
            # complex multiplication commutes bit-exactly, so a*b == b*a
            return _pair(self.p * other.p, self.m * other.m)
        if isinstance(other, _REAL):
            return _pair(_scaled(self.p, other), _scaled(self.m, other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HyperComplex":
        if isinstance(other, HyperComplex):
            return self * other.inverse()
        if isinstance(other, _REAL):
            p, m = self.p, self.m
            return _pair(complex(p.real / other, p.imag / other),
                         complex(m.real / other, m.imag / other))
        return NotImplemented

    # -- involutions -------------------------------------------------------

    def conj(self) -> "HyperComplex":
        """Flip the sign of both i and j (ij is kept): (p, m) -> (m*, p*)."""
        return _pair(self.m.conjugate(), self.p.conjugate())

    def rev(self) -> "HyperComplex":
        """Flip the sign of i only (so ij flips too): (p, m) -> (p*, m*)."""
        return _pair(self.p.conjugate(), self.m.conjugate())

    def grade(self) -> "HyperComplex":
        """Flip the sign of j only: (p, m) -> (m, p).

        conj == rev o grade == grade o rev.
        """
        return _pair(self.m, self.p)

    # -- modulus and inversion ----------------------------------------------

    def modulus_sq(self) -> "HyperComplex":
        """z * conj(z) = a + ij*b, computed as the pair (c, c*) with c = p * m*.

        One complex product and no cancelling subtraction, so the result is
        accurate relative to |p|*|m| and multiplicative to rounding; its i and
        j coefficients are exactly 0.
        """
        c = self.p * self.m.conjugate()
        return _pair(c, c.conjugate())

    def real_norm(self) -> float:
        """a^2 + b^2 for modulus_sq = a + ij*b, evaluated as |p|^2 * |m|^2.

        Real, degree 4, >= 0; vanishes exactly on the null cone (p = 0 or
        m = 0), where the element has no inverse.
        """
        p, m = self.p, self.m
        return _norm(p.real, p.imag, m.real, m.imag)

    def inverse(self) -> "HyperComplex":
        """Multiplicative inverse, the pair (1/p, 1/m).

        Raises ZeroDivisor when the real norm |p|^2 |m|^2 is at most 1e-14
        times the fourth power of the largest component (the norm is degree 4
        in the components), or when p or m is 0.  The test is evaluated on the
        element times the power of two 2**k that brings the largest component
        into [0.5, 1), so neither fourth power overflows or underflows; it
        decides as the unscaled test does wherever that test's figures are
        finite and nonzero.  Raises OverflowError when 1/p or 1/m is beyond
        the float range.
        """
        scale = self.max_abs()
        k = -math.frexp(scale)[1]
        p, m = self.p, self.m
        norm = _norm(math.ldexp(p.real, k), math.ldexp(p.imag, k),
                     math.ldexp(m.real, k), math.ldexp(m.imag, k))
        tol = 1e-14 * math.ldexp(scale, k) ** 4
        # a zero part with an infinite one makes the norm NaN
        if norm <= tol or not (p and m):
            raise ZeroDivisor(self, _ldexp_or_inf(norm, -4 * k),
                              _ldexp_or_inf(tol, -4 * k), scale)
        ip, im = 1.0 / p, 1.0 / m
        if math.inf in (abs(ip.real), abs(ip.imag), abs(im.real), abs(im.imag)):
            raise OverflowError(f"no inverse within the float range: {self}")
        return _pair(ip, im)

    # -- helpers -------------------------------------------------------------

    def max_abs(self) -> float:
        """The largest of |x|, |y|, |v|, |w|, read from the stored pair.

        _part_abs reads max(|x|, |v|) and max(|y|, |w|) from p and m.  The
        result is NaN when a part of p or m is NaN, and otherwise inf when
        one is infinite, even where a view is inf - inf, which is NaN:
        HyperComplex(0, 0, inf) has x NaN and max_abs() inf.  inverse relies
        on that infinite scale to refuse such a value.
        """
        return _max_or_nan(_part_abs(self.p, self.m))

    def isclose(self, other: "HyperComplex", tol: float = 1e-12) -> bool:
        """Componentwise comparison with an absolute tolerance."""
        return all([abs(a - b) <= tol
                    for a, b in zip(self.coeffs(), other.coeffs())])

    def coeffs(self) -> tuple[float, float, float, float]:
        return _coeffs(self.p, self.m)

    def __repr__(self) -> str:
        x, y, v, w = self.coeffs()
        return f"HyperComplex(x={x!r}, y={y!r}, v={v!r}, w={w!r})"

    def __str__(self) -> str:
        return render_terms(zip(self.coeffs(), ("", "i", "j", "ij")))


_set_p, _set_m = HyperComplex._setters


def _pair(p: complex, m: complex) -> HyperComplex:
    """The element p*e+ + m*e-, built from its idempotent parts."""
    z = _new(HyperComplex)
    _set_p(z, p)
    _set_m(z, m)
    return z


def _scaled(c: complex, r: float) -> complex:
    """c * r for a real r, the real and imaginary halves each alone.

    A complex product with complex(r, 0) would form inf * 0 and give an
    infinite part a NaN half: complex(inf, 0) * complex(0.5, 0) is inf+nanj,
    and so is complex(inf, 0) * 0.5 on Pythons that promote the real.
    """
    return complex(c.real * r, c.imag * r)


def _mul_i(z: HyperComplex) -> HyperComplex:
    """i * z, exact: i is (i, i) on the pair, a quarter turn of each part."""
    p, m = z.p, z.m
    return _pair(complex(-p.imag, p.real), complex(-m.imag, m.real))


def _coeffs(p: complex, m: complex) -> tuple[float, float, float, float]:
    """(x, y, v, w) of p*e+ + m*e-: x + iy = p/2 + m/2, v + iw = p/2 - m/2.

    Each part is halved before the two are added, so finite parts never
    give an infinite coefficient.
    """
    pr, pi, mr, mi = p.real * 0.5, p.imag * 0.5, m.real * 0.5, m.imag * 0.5
    return (pr + mr, pi + mi, pr - mr, pi - mi)


def _norm(pr: float, pi: float, mr: float, mi: float) -> float:
    """|p|^2 |m|^2 for p = pr + i*pi and m = mr + i*mi (see real_norm)."""
    return (pr * pr + pi * pi) * (mr * mr + mi * mi)


def _ldexp_or_inf(x: float, n: int) -> float:
    """x * 2**n for x >= 0, inf where that overflows (math.ldexp raises)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.inf


def _part_abs(p: complex, m: complex) -> list[float]:
    """[max(|x|, |v|), max(|y|, |w|)] of the pair (p, m), for max_abs.

    max(|x|, |v|) = |Re p|/2 + |Re m|/2, and likewise for y and w; each is
    NaN when a part it reads is NaN, and inf when one is infinite.
    """
    return [abs(p.real) * 0.5 + abs(m.real) * 0.5,
            abs(p.imag) * 0.5 + abs(m.imag) * 0.5]


def _max_or_nan(values: list[float]) -> float:
    """The largest of the non-negative values, or NaN if one of them is NaN.

    max() alone keeps a NaN only when it comes first, and a guard written as
    ``residual > tol`` lets a NaN residual through.
    """
    total = sum(values)
    return total if total != total else max(values)


def _coerce(value) -> HyperComplex | None:
    if isinstance(value, HyperComplex):
        return value
    if isinstance(value, _REAL):
        return HyperComplex(float(value))
    return None


def render_terms(terms) -> str:
    """Join (coefficient, basis-label) pairs into reparseable text.

    Zero terms are suppressed; an all-zero value renders as "0".  Products
    are written with an explicit '*' so the output stays inside the CLI
    expression grammar.
    """
    parts: list[str] = []
    for coeff, label in terms:
        if coeff == 0.0:
            continue
        if not label:
            body = format_real(abs(coeff))
        elif abs(coeff) == 1.0:
            body = label
        else:
            body = f"{format_real(abs(coeff))}*{label}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


ZERO = HyperComplex()
I = HyperComplex(0.0, 1.0)
J = HyperComplex(0.0, 0.0, 1.0)
IJ = HyperComplex(0.0, 0.0, 0.0, 1.0)
