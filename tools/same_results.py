"""Compare hypalg's results between two source trees, call by call.

    python tools/same_results.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories that contain the ``hypalg`` package
(a checkout's ``src``).  Each side runs in one subprocess, which imports
hypalg from its tree and computes a fixed seeded set of results:

- library calls (products, involutions, inverses, the coefficient views,
  a scalar times and divided by a real, a multivector times a real or a
  scalar on either side, sym, antisym, ``str``, extract, apply (also on a
  pickled rotor), matrix_of, rotor composition and inverse (also on a
  pickled rotor), from_rotor, from_multivector, even_components, act (also
  on a pickled rotor's spinor), to_column, from_column, sprod_algebraic,
  product_modulus_sq (also of spin transforms at |xi| from 20 to 1400, of
  pairs near the bounds that once sent it to sprod_algebraic: spin
  transforms at |xi| from 680 to 700, span values scaled to |a|^2 |b|^2
  from 2^990 to 2^1002 and entries near the float max, of spin transforms
  at |xi_a| from 600 to 1419.5 against ones at |xi_b| up to 40, and of spin
  values whose value is first read after a pickle or copy, after
  composition or through from_rotor),
  exp_general, rotation, boost, spin_transform, from_even_components,
  from_odd_components, and the HMat2 product and apply) on random values
  and on
  special ones (signed zeros, infinities, NaN, huge, tiny and subnormal
  numbers); a raised exception is a result too, recorded as its type, its
  message and its fields (``residual``, ``norm``, ...); the rotors are
  boost-rotation products, pure rotations and boosts, spin transforms,
  sparse spin-span values and random multivectors, so that some images
  have zero parts;
- values built from random fields (HMat2 from its entries, EvenComponents,
  OddComponents, ColumnSpinor, LorentzParams, parsed ASTs), with their
  pickle and copy round trips;
- CLI commands run in process through ``hypalg.cli.main``, each recorded as
  its stdout, its stderr and its exit code, ``--help``, ``verify`` and
  commands with both a NaN and an infinite angle included, and
  ``cross-section`` at |xi| from 20 to 1400.

Values are encoded exactly: floats as ``float.hex``, value classes as their
stored fields, and a Rotor or Spinor also by the M2(C) entries it keeps
(``_half``, or None).  Each result is digested twice: once over its
encoding, and once with every negative zero read as a positive one.  The
report gives, per op, the number of results compared, the number that
differ and how many of those differ only in the sign of a zero (equal in the
second digest), with up to three differing results of each op.  The exit
status is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
import os
import pickle
import platform
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

SEED = 20061
N_LIB = 8000   # draws per library op
N_CLI = 3200   # random CLI commands, besides the fixed ones below
N_LARGE_XI = 400  # cross-section commands at |xi| from 20 to 1400
N_SHOWN = 3    # differing results printed per op
N_TRANSCRIPT = 1000  # random CLI commands in the golden transcript

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRANSCRIPT = os.path.join(ROOT, "tests", "cli_transcript.txt")

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 3e154,
            -3e154, 1e308, -1e308, 1e-300, 5e-324, -5e-324, 1e-310,
            2.2250738585072014e-308, 1.0, -1.0)


# -- encoding -------------------------------------------------------------------

def encode(value):
    """A JSON-able form of value that keeps every bit of every float."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, BaseException):
        fields = {k: encode(v) for k, v in sorted(vars(value).items())}
        return ["raised", type(value).__name__, str(value), fields]
    if hasattr(value, "tolist"):  # a numpy array
        return encode(value.tolist())
    cls = type(value)
    fields = [encode(getattr(value, name)) for name in cls.__slots__]
    if hasattr(cls, "_half"):  # a Rotor or Spinor: its kept entries too
        fields.append(encode(value._half))
    return [cls.__name__] + fields


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # every exception is a result to compare
        return exc


# -- random inputs ------------------------------------------------------------------

def special(rng: random.Random) -> float:
    return rng.choice(SPECIALS)


def real(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.7:
        return rng.uniform(-10.0, 10.0)
    if r < 0.85:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)
    return special(rng)


def finite(rng: random.Random, size: float = 3.0) -> float:
    return rng.uniform(-size, size)


def finite_real(rng: random.Random) -> float:
    """real(rng) drawn again until it is finite (signed zeros, 1e300 and
    subnormals stay in)."""
    x = real(rng)
    while not math.isfinite(x):
        x = real(rng)
    return x


def lib_cases(H):
    """(op name, callable of one rng returning a result) for the library."""
    from hypalg import cayley, cli, spinor

    def hyper(rng, draw=real):
        if rng.random() < 0.1:  # on the null cone: s*(1 +- j), i*s*(1 +- j)
            s, t = draw(rng), rng.choice((1.0, -1.0))
            return rng.choice((H.HyperComplex(s, 0.0, t * s, 0.0),
                               H.HyperComplex(0.0, s, 0.0, t * s)))
        return H.HyperComplex(*(draw(rng) for _ in range(4)))

    def mv(rng, draw=real):
        if rng.random() < 0.5:  # a few nonzero coefficients
            coeffs = [0.0] * 16
            for _ in range(rng.randint(1, 4)):
                coeffs[rng.randrange(16)] = draw(rng)
            return H.Multivector.from_coeffs16(coeffs)
        return H.Multivector(*(hyper(rng, draw) for _ in range(4)))

    def member(rng, draw=real):
        """An element of the spinor subalgebra, sometimes perturbed."""
        u = [draw(rng) for _ in range(8)]
        a = H.Multivector(H.HyperComplex(u[0], 0.0, 0.0, u[1]),
                          H.HyperComplex(0.0, u[2], u[3]),
                          H.HyperComplex(0.0, u[4], u[5]),
                          H.HyperComplex(0.0, u[6], u[7]))
        if rng.random() < 0.2:
            a = a + small(rng)
        return a

    def small(rng):
        """A perturbation, built from scaled coefficients rather than by a
        product, so that it does not depend on Multivector * real."""
        scale = 10.0 ** rng.uniform(-16.0, 0.0)
        return mv(rng, lambda rng: real(rng) * scale)

    def four(rng, draw=real):
        return H.FourVector(*(draw(rng) for _ in range(4)))

    def rotor(rng):
        """A boost times a rotation, a pure rotation or boost (some
        components 0 or -0.0), a spin transform, a sparse spin-span value
        (components from {0, -0.0, 1, -2.5}) or a random multivector; the
        pure and sparse ones have images with zero parts."""
        def component(size):
            return (rng.choice((0.0, -0.0)) if rng.random() < 0.3
                    else finite(rng, size))
        r = rng.random()
        if r < 0.45:
            return (H.boost([finite(rng) for _ in range(3)])
                    * H.rotation([finite(rng, 7.0) for _ in range(3)]))
        if r < 0.55:
            return H.rotation([component(7.0) for _ in range(3)])
        if r < 0.6:
            return H.boost([component(3.0) for _ in range(3)])
        if r < 0.7:
            return H.Rotor(H.from_even_components(H.EvenComponents(
                *(rng.choice((0.0, -0.0, 1.0, -2.5)) for _ in range(8)))).value)
        if r < 0.8:
            xi = rng.choice((finite(rng, 30.0), rng.choice(
                (1400.0, -1400.0, math.inf, math.nan))))  # cosh(710) overflows
            return H.spin_transform(H.LorentzParams(
                finite(rng, 7.0), finite(rng, 4.0), xi))
        return H.Rotor(mv(rng))

    def axis(rng):
        """An axis-angle or rapidity; some components square past the
        float range (from 1.3e154 on), some are infinite or NaN."""
        def component():
            r = rng.random()
            if r < 0.5:
                return finite(rng, 7.0)
            if r < 0.6:
                return 0.0
            if r < 0.9:
                return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(154.12,
                                                                     308.25)
            return rng.choice((math.inf, -math.inf, math.nan))
        return [component() for _ in range(3)]

    def matrix(rng):
        """The matrix of a random multivector, or one of special entries."""
        if rng.random() < 0.5:
            return H.to_matrix(mv(rng))
        return outcome(H.HMat2, *(hyper(rng, special) for _ in range(4)))

    def scaled(rng):
        z, r = hyper(rng), special(rng)
        return (outcome(lambda: z * r), outcome(lambda: r * z),
                outcome(lambda: z / r))

    def mv_scaled(rng):
        a, r, z = mv(rng), special(rng), hyper(rng, special)
        return (outcome(lambda: a * r), outcome(lambda: r * a),
                outcome(lambda: a * z), outcome(lambda: z * a))

    def text(rng):
        """str of values some of whose parts are infinite or NaN."""
        def draw(rng):
            return special(rng) if rng.random() < 0.5 else real(rng)
        return str(hyper(rng, draw)), str(mv(rng, draw))

    def value_class(rng):
        """A value built from random fields by its constructor."""
        k = rng.randrange(6)
        if k == 0:
            return H.HMat2(*(hyper(rng) for _ in range(4)))
        if k == 1:
            return H.EvenComponents(*(real(rng) for _ in range(8)))
        if k == 2:
            return H.OddComponents(tuple(real(rng) for _ in range(4)),
                                   tuple(real(rng) for _ in range(4)))
        if k == 3:
            return H.ColumnSpinor(hyper(rng), hyper(rng))
        if k == 4:
            return H.LorentzParams(real(rng), real(rng), real(rng))
        return cli.parse(expression(rng))

    def round_trips(rng):
        a = outcome(value_class, rng)
        if isinstance(a, Exception):
            return a
        copies = [pickle.loads(pickle.dumps(a, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(a), copy.deepcopy(a)]
        return a, copies, [b == a for b in copies]

    def involutions(a):
        if isinstance(a, H.HyperComplex):
            return a.conj(), a.rev(), a.grade()
        return a.bar(), a.dagger(), a.hat()

    def views(a):
        if isinstance(a, H.HyperComplex):
            return a.x, a.y, a.v, a.w, a.max_abs()
        return a.coeffs16(), a.max_abs()

    def extract_case(rng):
        if rng.random() < 0.5:
            a = cayley.embed(four(rng))
            if rng.random() < 0.5:
                a = a + small(rng)
            return outcome(H.extract, a)
        return outcome(H.extract, mv(rng))

    def large_xi(rng):
        """A rapidity of size 20 to 1400, log-uniform, either sign."""
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
            math.log10(20.0), math.log10(1400.0))

    def spin_large_xi(rng):
        """spin_transform at a large |xi| as a spinor, against the standard
        spinor or another one."""
        psi = H.from_rotor(H.spin_transform(H.LorentzParams(
            finite(rng, 7.0), finite(rng, 4.0), large_xi(rng))))
        if rng.random() < 0.7:
            return psi, H.Spinor.standard()
        return psi, H.from_rotor(H.spin_transform(H.LorentzParams(
            finite(rng, 7.0), finite(rng, 4.0), finite(rng, 30.0))))

    def pickled(a):
        return pickle.loads(pickle.dumps(a))

    def spin(rng, xi):
        return H.from_rotor(H.spin_transform(H.LorentzParams(
            finite(rng, 7.0), finite(rng, 4.0), xi)))

    def span_scaled(rng, e):
        """A span value with |a|^2 (the sum of its squared components)
        about 2^e."""
        u = [rng.choice((0.0, finite(rng, 1.0))) for _ in range(8)]
        f = 2.0 ** (e / 2.0) / math.sqrt(sum(c * c for c in u) or 1.0)
        return H.from_even_components(H.EvenComponents(*(c * f for c in u)))

    def member_spinor(rng):
        return H.from_even_components(H.EvenComponents(
            *(finite(rng) for _ in range(8))))

    def near_range(rng):
        """Two spinors near the bounds past which product_modulus_sq once
        also ran sprod_algebraic, |a|^2 |b|^2 = 2^1000 and (sum |A_ij|)
        (sum |B_ij|) = 2^500, or with entries whose abs overflows."""
        r = rng.random()
        if r < 0.35:
            return (spin(rng, rng.choice((-1.0, 1.0)) * rng.uniform(680.0,
                                                                    700.0)),
                    H.Spinor.standard())
        if r < 0.7:
            e = rng.uniform(990.0, 1002.0)
            ea = rng.uniform(0.0, e)
            return span_scaled(rng, ea), span_scaled(rng, e - ea)
        # A00 = (s + b30) + i (p + b21): finite, its abs past the float max
        s, p = (rng.choice((-1.0, 1.0)) * rng.uniform(1.2e308, 1.34e308)
                for _ in range(2))
        a = H.from_even_components(H.EvenComponents(
            s, *(finite(rng, 1.0) for _ in range(6)), p))
        return a, rng.choice((a, H.Spinor.standard(), member_spinor(rng)))

    def far_pair(rng):
        """A spin transform at |xi| from 600 to 1419.5 and one at |xi| up
        to 40, in either order, where a part of c = P Q formed directly can
        overflow."""
        a = spin(rng, rng.choice((-1.0, 1.0)) * rng.uniform(600.0, 1419.5))
        b = spin(rng, finite(rng, 40.0))
        return (a, b) if rng.random() < 0.5 else (b, a)

    def first_read_late(rng):
        """A spinor whose value is first read after its rotor's pickle or
        copy, after composition or through from_rotor; the spinor, its
        product with the standard spinor, then the rotor."""
        t = rotor(rng)
        r = rng.random()
        if r < 0.2:
            psi = H.from_rotor(pickled(t))
        elif r < 0.4:
            psi = H.from_rotor(rng.choice((copy.copy, copy.deepcopy))(t))
        elif r < 0.7:
            psi = H.from_rotor(t * rotor(rng))
        else:
            psi = H.from_rotor(t)
        return psi, H.product_modulus_sq(psi, H.Spinor.standard()), t

    def inverse_pickled(rng):
        """A pickled rotor's inverse, and that inverse applied."""
        t = pickled(rotor(rng)).inverse()
        return t, outcome(H.apply, t, four(rng))

    def act_pickled(rng):
        """act on the spinor of a pickled rotor, and the result's product
        with the standard spinor."""
        t = pickled(rotor(rng))
        omega = member(rng) if rng.random() < 0.5 else t.value

        def chain():
            psi = H.act(omega, H.from_rotor(t))
            return psi, H.product_modulus_sq(psi, H.Spinor.standard())
        return outcome(chain)

    def spinor_pair(rng):
        """Two spinors, the second sometimes a spin transform, at |xi| up to
        30 or at xi = +-1400 (where parts near the float range cancel), inf
        or NaN, taken as a Spinor without from_rotor's guard."""
        if rng.random() < 0.7:
            return H.Spinor(member(rng)), H.Spinor(member(rng))
        xi = rng.choice((finite(rng, 30.0), rng.choice(
            (1400.0, -1400.0, math.inf, math.nan))))
        return H.Spinor(member(rng)), H.Spinor(H.spin_transform(
            H.LorentzParams(finite(rng, 7.0), finite(rng, 4.0), xi)).value)

    return (
        ("hyper.mul", lambda rng: outcome(lambda a, b: a * b, hyper(rng),
                                          hyper(rng))),
        ("hyper.involutions", lambda rng: involutions(hyper(rng))),
        ("hyper.inverse", lambda rng: outcome(H.HyperComplex.inverse,
                                              hyper(rng))),
        ("hyper.views", lambda rng: views(hyper(rng))),
        ("hyper.scaled", scaled),
        ("str", text),
        ("mv.mul", lambda rng: outcome(lambda a, b: a * b, mv(rng), mv(rng))),
        ("mv.involutions", lambda rng: involutions(mv(rng))),
        ("mv.inverse", lambda rng: outcome(H.Multivector.inverse, mv(rng))),
        ("mv.views", lambda rng: views(mv(rng))),
        ("mv.scaled", mv_scaled),
        ("sym", lambda rng: outcome(cayley.sym, mv(rng), mv(rng))),
        ("antisym", lambda rng: outcome(cayley.antisym, mv(rng), mv(rng))),
        ("extract", extract_case),
        ("apply", lambda rng: outcome(H.apply, rotor(rng), four(rng))),
        # a rotor rebuilt by pickle, which carries its M2(C) entries
        ("apply.pickled", lambda rng: outcome(
            H.apply, pickle.loads(pickle.dumps(rotor(rng))), four(rng))),
        ("matrix_of", lambda rng: outcome(H.matrix_of, rotor(rng))),
        ("rotor.mul", lambda rng: outcome(lambda a, b: a * b, rotor(rng),
                                          rotor(rng))),
        ("rotor.inverse", lambda rng: outcome(H.Rotor.inverse, rotor(rng))),
        ("rotor.inverse.pickled", inverse_pickled),
        ("from_rotor", lambda rng: outcome(H.from_rotor, rotor(rng))),
        ("to_column", lambda rng: outcome(
            H.to_column, H.Spinor(member(rng) if rng.random() < 0.8
                                  else mv(rng)))),
        ("from_column", lambda rng: outcome(
            H.from_column, H.ColumnSpinor(hyper(rng), hyper(rng)))),
        ("sprod_algebraic", lambda rng: outcome(H.sprod_algebraic,
                                                *spinor_pair(rng))),
        ("product_modulus_sq", lambda rng: outcome(H.product_modulus_sq,
                                                   *spinor_pair(rng))),
        ("product_modulus_sq.large_xi", lambda rng: outcome(
            lambda: H.product_modulus_sq(*spin_large_xi(rng)))),
        ("product_modulus_sq.near_range", lambda rng: outcome(
            lambda: H.product_modulus_sq(*near_range(rng)))),
        ("product_modulus_sq.far_pair", lambda rng: outcome(
            lambda: H.product_modulus_sq(*far_pair(rng)))),
        ("product_modulus_sq.first_read", lambda rng: outcome(
            first_read_late, rng)),
        ("exp_general", lambda rng: outcome(
            H.exp_general, mv(rng, finite) if rng.random() < 0.9
            else mv(rng))),
        ("from_multivector", lambda rng: outcome(spinor.from_multivector,
                                                 member(rng))),
        ("even_components", lambda rng: outcome(
            H.even_components, H.Spinor(member(rng) if rng.random() < 0.7
                                        else mv(rng)))),
        ("act", lambda rng: outcome(
            H.act, member(rng) if rng.random() < 0.7 else mv(rng),
            H.Spinor(member(rng)))),
        ("act.pickled", act_pickled),
        ("hmat.mul", lambda rng: outcome(lambda a, b: a * b, matrix(rng),
                                         matrix(rng))),
        ("hmat.apply", lambda rng: outcome(
            lambda a, c: a.apply(c), matrix(rng),
            H.ColumnSpinor(hyper(rng), hyper(rng)))),
        ("rotation", lambda rng: outcome(H.rotation, axis(rng))),
        ("boost", lambda rng: outcome(H.boost, axis(rng))),
        # finite angles: math.cos refuses an infinite one before any
        # value is built
        ("spin_transform", lambda rng: outcome(
            H.spin_transform, H.LorentzParams(
                finite_real(rng), finite_real(rng), real(rng)))),
        ("from_even_components", lambda rng: outcome(
            H.from_even_components,
            H.EvenComponents(*(real(rng) for _ in range(8))))),
        ("from_odd_components", lambda rng: outcome(
            H.from_odd_components,
            H.OddComponents(tuple(real(rng) for _ in range(4)),
                            tuple(real(rng) for _ in range(4))))),
        ("values.round_trips", round_trips),
    )


# -- CLI commands -----------------------------------------------------------------

NUMBERS = ("0", "1", "2", "0.5", ".25", "3e2", "1e308", "1e-100", "1e100",
           "1e-300", "1e300", "1e-310", "1e400", "1.5707963")
CONSTS = ("e0", "e1", "e2", "e3", "s1", "s2", "s3", "i", "j", "ij")
FUNCS = (("bar", 1), ("rev", 1), ("grad", 1), ("exp", 1), ("inv", 1),
         ("norm2", 1), ("dot", 2), ("wedge", 2), ("sprod", 2),
         ("commutator", 2), ("boost", 3), ("rot", 3), ("spinor", 3))
VALUES = ("0", "1", "-1", "0.5", "-.5", "-2", "3", "-1e-3", "1e-3", "inf",
          "-inf", "nan", "800", "-800", "1e308", "20", "-30", "abc", "")

FIXED_COMMANDS = (
    ["-h"], ["--help"], ["eval", "-h"], ["transform", "--help"],
    ["spinor", "-h"], ["cross-section", "-h"], ["verify", "-h"],
    ["verify"], [], ["bogus"], ["spinor", "--phi"], ["transform"],
    ["eval"], ["eval", "--", "-(e3)"], ["eval", "--json", "--", "-j"],
    # a NaN angle before an infinite one: the infinite one is named
    ["spinor", "--phi", "nan", "--theta", "inf"],
    ["transform", "--vector", "1,0,0,0", "--rotate", "nan,inf,0"],
    ["eval", "spinor(0*1e400, 1e400, 0)"],
    # finite rotation angles whose norm is past the float range
    ["transform", "--vector", "1,0,0,0", "--rotate", "1.3e308,1.3e308,0"],
    ["eval", "rot(1.3e308, 1.3e308, 0)"],
)


def expression(rng: random.Random, depth: int = 3) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.3:
        atom = rng.choice(NUMBERS) if rng.random() < 0.5 else rng.choice(CONSTS)
        return f"-{atom}" if rng.random() < 0.15 else atom
    if r < 0.6:
        text = (f"{expression(rng, depth - 1)} {rng.choice('+-*')} "
                f"{expression(rng, depth - 1)}")
        return f"({text})" if rng.random() < 0.3 else text
    if r < 0.9:
        name, arity = rng.choice(FUNCS)
        if rng.random() < 0.1:
            arity = rng.randint(0, 3)
        args = ", ".join(expression(rng, depth - 1) for _ in range(arity))
        return f"{name}({args})"
    if r < 0.97:
        return f"-({expression(rng, depth - 1)})"
    return expression(rng, depth - 1) + rng.choice(("$", ")", "(", " 1", ""))


def value(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return repr(round(rng.uniform(-4.0, 4.0), rng.randint(0, 6)))
    return rng.choice(VALUES)


def option(rng: random.Random, name: str, text: str) -> list[str]:
    return [f"{name}={text}"] if rng.random() < 0.3 else [name, text]


def command(rng: random.Random) -> list[str]:
    r = rng.random()
    if r < 0.4:
        argv = ["eval", expression(rng)]
        if rng.random() < 0.3:
            argv.insert(rng.choice((1, 2)), "--json")
        return argv
    if r < 0.6:
        def numbers(n):
            n = n if rng.random() < 0.9 else rng.choice((n - 1, n + 1))
            return ",".join(value(rng) for _ in range(n))
        argv = ["transform"] + option(rng, "--vector", numbers(4))
        for name in ("--boost", "--rotate"):
            if rng.random() < 0.7:
                argv += option(rng, name, numbers(3))
        return argv + (["--json"] if rng.random() < 0.3 else [])
    sub = "spinor" if r < 0.8 else "cross-section"
    argv = [sub]
    for name in ("--phi", "--theta", "--xi"):
        if rng.random() < 0.8:
            argv += option(rng, name, value(rng))
    if sub == "spinor":
        argv += rng.choice(([], ["--even"], ["--odd"], ["--column"]))
        argv += ["--check"] if rng.random() < 0.5 else []
    return argv + (["--json"] if rng.random() < 0.3 else [])


def cli_commands(n: int) -> list[list[str]]:
    """The fixed commands, then the first n seeded random ones."""
    rng = random.Random(f"{SEED}:cli")
    return list(FIXED_COMMANDS) + [command(rng) for _ in range(n)]


def large_xi_commands(n: int) -> list[list[str]]:
    """n seeded cross-section commands at |xi| from 20 to 1400."""
    rng = random.Random(f"{SEED}:large-xi")
    return [["cross-section", "--phi", repr(round(rng.uniform(-7.0, 7.0), 6)),
             "--theta", repr(round(rng.uniform(-4.0, 4.0), 6)), "--xi",
             repr(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                 math.log10(20.0), math.log10(1400.0)))] for _ in range(n)]


def run_cli(main, argv: list[str]) -> tuple[str, str, object]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a result to compare too
            code = encode(exc)
    return out.getvalue(), err.getvalue(), code


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# -- the golden transcript ----------------------------------------------------------

def transcript_header() -> str:
    return (f"# python {platform.python_version()}, {sys.platform} "
            f"{platform.machine()}, {' '.join(platform.libc_ver())}")


def transcript_lines(main) -> list[str]:
    """One line per transcript command: the digest of its stdout, stderr
    and exit code, then the command as JSON.  Help texts are formatted for
    80 columns, so COLUMNS must be 80."""
    return [f"{digest(json.dumps(run_cli(main, argv)))} {json.dumps(argv)}"
            for argv in cli_commands(N_TRANSCRIPT)]


def write_transcript() -> None:
    os.environ["COLUMNS"] = "80"
    cli = import_cli(os.path.join(ROOT, "src"))
    with open(TRANSCRIPT, "w", encoding="utf-8") as f:
        f.write("\n".join([transcript_header()] + transcript_lines(cli.main))
                + "\n")


# -- the two sides -----------------------------------------------------------------

def import_cli(src: str):
    """hypalg.cli, imported from the tree src."""
    sys.path.insert(0, os.path.abspath(src))
    import hypalg
    from hypalg import cli

    if not os.path.abspath(hypalg.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"hypalg imported from {hypalg.__file__}, not {src}")
    return cli


def worker(src: str) -> None:
    """Print one JSON line [op, digest, zero-sign digest, preview] per
    result, hypalg from src."""
    cli = import_cli(src)
    import hypalg

    def emit(op: str, result) -> None:
        text = json.dumps(result)
        unsigned = text.replace('"-0x0.0p+0"', '"0x0.0p+0"')
        print(json.dumps([op, digest(text), digest(unsigned), text[:400]]))

    for op, case in lib_cases(hypalg):
        rng = random.Random(f"{SEED}:{op}")
        for _ in range(N_LIB):
            emit(op, encode(case(rng)))
    for argv in cli_commands(N_CLI) + large_xi_commands(N_LARGE_XI):
        kind = argv[0] if argv and not argv[0].startswith("-") else "top"
        for stream, result in zip(("stdout", "stderr", "exit"),
                                  run_cli(cli.main, argv)):
            emit(f"cli.{kind}.{stream}", [argv, result])


def results(src: str) -> dict[str, list[tuple[str, str, str]]]:
    env = dict(os.environ, COLUMNS="80", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, __file__, "--worker", src],
                          env=env, stdout=subprocess.PIPE, check=True,
                          text=True)
    table: dict[str, list[tuple[str, str, str]]] = {}
    for line in proc.stdout.splitlines():
        op, digest, unsigned, preview = json.loads(line)
        table.setdefault(op, []).append((digest, unsigned, preview))
    return table


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        worker(argv[1])
        return 0
    if argv == ["--transcript"]:
        write_transcript()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, change = results(argv[0]), results(argv[1])
    if base.keys() != change.keys():
        print(f"ops differ: {sorted(base.keys() ^ change.keys())}")
        return 1
    print(f"{'op':32} {'compared':>9} {'differ':>7} {'zero-sign':>9}")
    totals = {"library": [0, 0, 0], "cli": [0, 0, 0]}
    examples = []
    for op in base:
        pairs = list(zip(base[op], change[op]))
        differ = [k for k, (a, b) in enumerate(pairs) if a[0] != b[0]]
        zero_sign = sum(pairs[k][0][1] == pairs[k][1][1] for k in differ)
        counts = (len(pairs), len(differ), zero_sign)
        print(f"{op:32} {counts[0]:9d} {counts[1]:7d} {counts[2]:9d}")
        total = totals["cli" if op.startswith("cli.") else "library"]
        for k, n in enumerate(counts):
            total[k] += n
        examples += [f"{op} #{k}\n  base   {pairs[k][0][2]}\n"
                     f"  change {pairs[k][1][2]}" for k in differ[:N_SHOWN]]
    for name, (compared, differ, zero_sign) in totals.items():
        print(f"{'total ' + name:32} {compared:9d} {differ:7d} {zero_sign:9d}")
    commands = sum(len(v) for op, v in base.items() if op.endswith(".exit"))
    print(f"cli commands: {commands}")
    if examples:
        print(f"\nfirst {N_SHOWN} differences per op (truncated):")
        print("\n".join(examples))
    return 1 if any(total[1] for total in totals.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
