"""Shared fixtures and independent matrix-representation oracles.

The oracles below never touch the library's own arithmetic: hyperbolic
numbers are multiplied through a hand-written unit table, and multivectors
are mapped to 8x8 real matrices (Pauli structure over the 4x4 regular
representation of the scalar ring) with plain numpy products.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from hypalg import HyperComplex, Multivector, Rotor
from hypalg.lorentz import _spinor_span

# unit products of (1, i, j, ij): UNIT_TABLE[a][b] = (sign, unit)
UNIT_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (1, 3), (1, 0), (1, 1)),
    ((1, 3), (-1, 2), (1, 1), (-1, 0)),
)


def h_mul_tuple(a, b):
    """Reference product of two hyperbolic numbers given as 4-tuples."""
    out = [0.0, 0.0, 0.0, 0.0]
    for p in range(4):
        if a[p] == 0.0:
            continue
        for q in range(4):
            if b[q] == 0.0:
                continue
            sign, unit = UNIT_TABLE[p][q]
            out[unit] += sign * a[p] * b[q]
    return tuple(out)


def hyper_matrix(h) -> np.ndarray:
    """4x4 regular representation: hyper_matrix(z) @ vec(u) == vec(z*u)."""
    coeffs = h.coeffs() if isinstance(h, HyperComplex) else tuple(h)
    m = np.zeros((4, 4))
    for c in range(4):
        unit = (0.0,) * c + (1.0,) + (0.0,) * (3 - c)
        m[:, c] = h_mul_tuple(coeffs, unit)
    return m


# Pauli matrices with entries written as hyperbolic 4-tuples.
_O = (0.0, 0.0, 0.0, 0.0)
_1 = (1.0, 0.0, 0.0, 0.0)
_PAULI = (
    ((_1, _O), (_O, _1)),
    ((_O, _1), (_1, _O)),
    ((_O, (0.0, -1.0, 0.0, 0.0)), ((0.0, 1.0, 0.0, 0.0), _O)),
    ((_1, _O), (_O, (-1.0, 0.0, 0.0, 0.0))),
)


def multivector_matrix(m: Multivector) -> np.ndarray:
    """Faithful 8x8 real representation of a multivector."""
    out = np.zeros((8, 8))
    for k, z in enumerate(m.slots()):
        zc = z.coeffs()
        for r in range(2):
            for c in range(2):
                entry = h_mul_tuple(zc, _PAULI[k][r][c])
                out[4 * r:4 * r + 4, 4 * c:4 * c + 4] += hyper_matrix(entry)
    return out


# -- random values --------------------------------------------------------------

def rand_hyper(rng: random.Random, lo: float = -1.0, hi: float = 1.0) -> HyperComplex:
    return HyperComplex(*(rng.uniform(lo, hi) for _ in range(4)))


def rand_multivector(rng: random.Random, lo: float = -1.0,
                     hi: float = 1.0) -> Multivector:
    return Multivector(*(rand_hyper(rng, lo, hi) for _ in range(4)))


def rand_subalgebra(rng: random.Random, lo: float = -1.0,
                    hi: float = 1.0) -> Multivector:
    """Random element of span{1, i*s_k, j*s_k, ij}."""
    u = [rng.uniform(lo, hi) for _ in range(8)]
    return Multivector(HyperComplex(u[0], 0.0, 0.0, u[1]),
                       HyperComplex(0.0, u[2], u[3]),
                       HyperComplex(0.0, u[4], u[5]),
                       HyperComplex(0.0, u[6], u[7]))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC1FF)


# -- comparison helpers --------------------------------------------------------------

def assert_hyper_close(a: HyperComplex, b: HyperComplex, tol: float = 1e-12):
    assert a.isclose(b, tol), f"{a} != {b} (tol {tol})"


def assert_mv_close(a: Multivector, b: Multivector, tol: float = 1e-12):
    assert a.isclose(b, tol), f"{a} != {b} (tol {tol})"


def rel_close(a: Multivector, b: Multivector, tol: float) -> bool:
    scale = max(1.0, a.max_abs(), b.max_abs())
    return a.isclose(b, tol * scale)


def slot_set(value, name: str) -> bool:
    """Whether value's slot name holds a value, read through the slot's own
    descriptor, so that nothing else of that name on the class is read."""
    slot = next(cls.__dict__[name] for cls in type(value).__mro__
                if name in cls.__dict__)
    try:
        slot.__get__(value)
    except AttributeError:
        return False
    return True


# -- spin values -----------------------------------------------------------------

def spin_transform_span(phi, theta, xi) -> Rotor:
    """_spinor_span of spin_transform's eight closed-form components and its
    closed-form entries, each formed as the docstring writes it."""
    cp, sp = math.cos(phi / 2.0), math.sin(phi / 2.0)
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ch, sh = math.cosh(xi / 2.0), math.sinh(xi / 2.0)
    up, down = math.exp(xi / 2.0), math.exp(-xi / 2.0)
    cpct, spst, cpst, spct = cp * ct, sp * st, cp * st, sp * ct
    return _spinor_span(Rotor, cpct * ch, spst * ch, -cpst * ch, -spct * ch,
                        cpst * sh, spst * sh, cpct * sh, -spct * sh,
                        (complex(cpct * up, -spct * up),
                         complex(-cpst * down, spst * down),
                         complex(cpst * up, spst * up),
                         complex(cpct * down, spct * down)))


def spin_bits(t):
    """The bits of a spin value's halves and of its kept entries, or None."""
    def bits(q):
        return None if q is None else [(c.real.hex(), c.imag.hex()) for c in q]
    return bits(t.value.p), bits(t.value.m), bits(t._half)
