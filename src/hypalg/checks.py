"""Run-time checks of the algebra: ``hypalg verify`` and ``spinor --check``.

``verify_suites`` yields the identity suites: the involution signs, the
paravector metric and the Lorentz-generator brackets.  ``product_route_error``
compares spin_transform's closed form against the product of its three
exponentials.  Only those two commands import this module.
"""

from __future__ import annotations

import math
import sys

from .cayley import E, E0, E1, E2, E3, S1, S2, S3, scalar, sym
from .hypernum import I, J, HyperComplex, _max_or_nan, format_real
from .lorentz import LorentzParams, boost, commutator, generators, rotation
from .spinor import Spinor, even_components

_SIGN_TABLE = (
    ("e0", E0, (1, 1, 1)),
    ("e1", E1, (-1, 1, -1)),
    ("e2", E2, (-1, 1, -1)),
    ("e3", E3, (-1, 1, -1)),
    ("s1", S1, (1, 1, 1)),
    ("s2", S2, (1, 1, 1)),
    ("s3", S3, (1, 1, 1)),
    ("i", scalar(I), (-1, -1, 1)),
    ("j", scalar(J), (-1, 1, -1)),
)

# absolute bound on every coefficient of a bracket's error; NaN fails it
BRACKET_TOL = 1e-14

# product_route_error's bound, in units of eps * cosh(xi/2), the size of the
# largest component; the two routes differ by about 2 of these units at worst.
CHECK_K = 16


def verify_suites():
    """Yield (name, passed, detail) for the built-in identity suites."""
    for name, element, signs in _SIGN_TABLE:
        got = (element.bar(), element.dagger(), element.hat())
        want = tuple(element * float(s) for s in signs)
        yield (f"involution signs of {name}", got == want, f"{signs}")

    for mu in range(4):
        for nu in range(4):
            want = 0.0
            if mu == nu:
                want = 1.0 if mu == 0 else -1.0
            got = sym(E[mu], E[nu])
            ok = got == scalar(want)
            yield (f"metric e{mu}.e{nu} = {format_real(want)}", ok, str(got))

    J_gen, K_gen = generators()
    for a in range(3):
        for b in range(3):
            # the Levi-Civita sign of (a+1, b+1, c+1), 0 when a == b
            eps = (b - a + 1) % 3 - 1
            c = (3 - a - b) % 3
            i_eps = HyperComplex(0.0, float(eps))
            checks = (
                ("J,J", commutator(J_gen[a], J_gen[b]), J_gen[c] * i_eps),
                ("J,K", commutator(J_gen[a], K_gen[b]), K_gen[c] * i_eps),
                ("K,K", commutator(K_gen[a], K_gen[b]), J_gen[c] * (-i_eps)),
            )
            for label, got, want in checks:
                err = (got - want).max_abs()
                yield (f"bracket [{label}] indices ({a + 1},{b + 1})",
                       err <= BRACKET_TOL,
                       f"max_abs(got - want) {err:.3e} > tol {BRACKET_TOL:.0e}")


def product_route_error(params: LorentzParams,
                        psi: Spinor) -> tuple[float, float, float]:
    """(worst, tol, scale) for psi, spin_transform(params) read as a spinor,
    against rotation((0, 0, phi)) * rotation((0, theta, 0)) * boost((0, 0, xi)).

    worst is the largest error of the eight even components, NaN when one is
    NaN.  The check passes when worst <= tol = CHECK_K * eps * scale, where
    scale = cosh(xi/2) is the size of the largest component.
    """
    product = rotation((0.0, 0.0, params.phi)) \
        * rotation((0.0, params.theta, 0.0)) * boost((0.0, 0.0, params.xi))
    want = even_components(Spinor(product.value)).as_dict()
    worst = _max_or_nan([abs(v - want[k])
                         for k, v in even_components(psi).as_dict().items()])
    scale = math.cosh(params.xi / 2.0)
    return worst, CHECK_K * sys.float_info.epsilon * scale, scale
