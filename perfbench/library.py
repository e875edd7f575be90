"""The two in-process workloads: the cross-section grid and Lorentz frames.

Every check compares against an oracle that does not use hypalg: closed
forms evaluated in mpmath at 113 bits, or Python's own complex arithmetic.
Each bound is K * eps times the magnitude the error scales with; K = 16
covers the longest chain of roundings in the products below (a 4-term
scalar product inside a 4-term Pauli product, twice for a sandwich) with
a margin of about two.
"""

from __future__ import annotations

import cmath
import math
import random

import hypalg as H
from mpmath import mp, mpf

from common import EPS, Workload, ratio

K = 16.0


def _cos2_half(theta: float):
    with mp.workprec(113):
        c = mp.cos(mpf(theta) / 2)
        return c * c


def _err(got: float, want) -> float:
    """|got - want| with the difference taken at 113 bits."""
    with mp.workprec(113):
        return float(abs(mpf(got) - want))


class XsecGrid(Workload):
    """The paper's workload: the squared spinor product over a parameter grid.

    Points run in table order (phi, then theta, then xi innermost), so
    neighbouring points share their rotation factors.  The seed offsets the
    phi and theta origin; the xi axis always spans [-XI_MAX, XI_MAX] with its
    ends, where the error bound is widest, so the worst error of a run does
    not hinge on how near the seed puts a point to them.
    """

    name = "xsec_grid"
    setup_code = ("import hypalg as H; p = H.LorentzParams(0.5, 1.0, 0.25); "
                  "H.product_modulus_sq(H.from_rotor(H.spin_transform(p)), "
                  "H.Spinor.standard()); H.mott_factor(1.0)")
    N_PHI, N_THETA, N_XI = 32, 24, 48  # about one pass in a 30 s run
    XI_MAX = 10.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        u_phi, u_theta = rng.random(), rng.random()
        self.phis = [2.0 * math.pi * (k + u_phi) / self.N_PHI for k in range(self.N_PHI)]
        self.thetas = [math.pi * (k + u_theta) / self.N_THETA for k in range(self.N_THETA)]
        self.xis = [-self.XI_MAX + 2.0 * self.XI_MAX * k / (self.N_XI - 1)
                    for k in range(self.N_XI)]
        self.standard = H.Spinor.standard()

    def inputs(self):
        while True:
            for phi in self.phis:
                for theta in self.thetas:
                    for xi in self.xis:
                        yield H.LorentzParams(phi, theta, xi)

    def op(self, p):
        psi = H.from_rotor(H.spin_transform(p))
        return psi, H.product_modulus_sq(psi, self.standard), H.mott_factor(p.theta)

    @staticmethod
    def _bound(p) -> float:
        # The spinor's components are O(cosh(xi/2)); the squared product sums
        # their squares, of size 2 cosh^2(xi/2) = 1 + cosh(xi).
        return K * EPS * (1.0 + math.cosh(p.xi))

    def check(self, p, out) -> float:
        """re = cos^2(theta/2) and ij = 0 to K eps (1 + cosh xi); mott to K eps."""
        _, m2, mott = out
        want = _cos2_half(p.theta)
        tol = self._bound(p)
        exact_zero = max(abs(m2.y), abs(m2.v))  # modulus_sq has no i or j part
        return max(_err(m2.x, want) / tol, ratio(m2.w, 0.0, tol),
                   math.inf if exact_zero else 0.0,
                   _err(mott, want) / (K * EPS))

    def probe(self, p, out, tracer) -> float:
        """The column product on the op's own spinor: the fast-path reference."""
        psi = out[0]
        a = tracer.time_call("spinor.to_column", H.to_column, psi, counted=False)
        b = tracer.time_call("spinor.to_column", H.to_column, self.standard, counted=False)
        m2 = tracer.time_call("spinor.sprod_column", H.sprod_column, a, b,
                              counted=False).modulus_sq()
        want = _cos2_half(p.theta)
        tol = self._bound(p)
        return max(_err(m2.x, want) / tol, ratio(m2.w, 0.0, tol))

    @staticmethod
    def corrupt(out):
        psi, m2, mott = out
        return psi, H.HyperComplex(m2.x + 1e-6, m2.y, m2.v, m2.w), mott


# -- Lorentz frames ----------------------------------------------------------------


def _unit_vector(rng) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(a), r * math.sin(a), z)


def lorentz_matrix(angle, rapidity):
    """boost(rapidity) after rotation(angle) as a 4x4 mpf matrix.

    Rodrigues' formula for the right-handed rotation, and the pure boost
    that takes the rest frame to velocity tanh|rapidity| along its axis.
    """
    with mp.workprec(113):
        a = [mpf(c) for c in angle]
        t = mp.sqrt(sum(c * c for c in a))
        n = [c / t for c in a]
        c, s = mp.cos(t), mp.sin(t)
        cross = [[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]]
        rot = [[(c if i == j else 0) + (1 - c) * n[i] * n[j] + s * cross[i][j]
                for j in range(3)] for i in range(3)]
        b = [mpf(c) for c in rapidity]
        eta = mp.sqrt(sum(c * c for c in b))
        m = [c / eta for c in b]
        ch, sh = mp.cosh(eta), mp.sinh(eta)
        boost = [[ch] + [sh * m[j] for j in range(3)]]
        boost += [[sh * m[i]] + [(1 if i == j else 0) + (ch - 1) * m[i] * m[j]
                                 for j in range(3)] for i in range(3)]
        r4 = [[mpf(1), 0, 0, 0]] + [[0] + rot[i] for i in range(3)]
        return [[sum(boost[i][k] * r4[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]


def matvec(m, x):
    with mp.workprec(113):
        return [sum(m[i][j] * mpf(x[j]) for j in range(4)) for i in range(4)]


def _minkowski(x):
    with mp.workprec(113):
        x = [mpf(c) for c in x]
        return x[0] * x[0] - x[1] * x[1] - x[2] * x[2] - x[3] * x[3]


class Frame:
    __slots__ = ("angle", "rapidity", "vectors", "scalar", "p", "m", "null")


class LorentzFrames(Workload):
    """Independent seeded frames: nothing computed for one is reused by the next."""

    name = "lorentz_frames"
    setup_code = ("import hypalg as H; t = H.boost((0.1, 0.2, 0.3)) * "
                  "H.rotation((0.3, 0.2, 0.1)); x = H.FourVector(1.0, 0.0, 0.0, 0.0); "
                  "H.apply(H.Rotor(t.value.inverse()), H.apply(t, x)); H.matrix_of(t); "
                  "H.HyperComplex(1.0, 0.5, 0.25, 0.125).inverse()")
    MAX_RAPIDITY = 3.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _frame(self) -> Frame:
        rng = self.rng
        f = Frame()
        f.angle = tuple(c * rng.uniform(0.1, math.pi) for c in _unit_vector(rng))
        f.rapidity = tuple(c * rng.uniform(0.1, self.MAX_RAPIDITY)
                           for c in _unit_vector(rng))
        vectors = []
        for x0_over_r in (rng.uniform(1.1, 3.0), 1.0, rng.uniform(0.0, 0.9)):
            r = rng.uniform(0.5, 2.0)
            d = _unit_vector(rng)
            vectors.append(H.FourVector(x0_over_r * r, r * d[0], r * d[1], r * d[2]))
        f.vectors = vectors  # timelike, null, spacelike
        # The scalar is set through its idempotent parts p and m, so the
        # oracle inverse is 1/p and 1/m in Python complex arithmetic.
        f.p = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        f.m = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        f.scalar = H.HyperComplex((f.p.real + f.m.real) / 2, (f.p.imag + f.m.imag) / 2,
                                  (f.p.real - f.m.real) / 2, (f.p.imag - f.m.imag) / 2)
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        f.null = H.HyperComplex(x, y, -x, -y)  # p = 0: on the null cone
        return f

    def inputs(self):
        while True:
            yield self._frame()

    def op(self, f):
        t = H.boost(f.rapidity) * H.rotation(f.angle)
        images = [H.apply(t, x) for x in f.vectors]
        matrix = H.matrix_of(t)
        t_inv = H.Rotor(t.value.inverse())
        back = [H.apply(t_inv, y) for y in images]
        inverse = f.scalar.inverse()
        try:
            f.null.inverse()
            null_raised = False
        except H.ZeroDivisor:
            null_raised = True
        return images, matrix, back, inverse, null_raised

    def check(self, f, out) -> float:
        images, matrix, back, inverse, null_raised = out
        if not null_raised:
            return math.inf
        lam = lorentz_matrix(f.angle, f.rapidity)
        grow = math.exp(math.hypot(*f.rapidity))  # largest entry of the matrix, within 2x
        worst = 0.0
        for x, y, z in zip(f.vectors, images, back):
            size = math.hypot(*x.components())
            got, orig = y.components(), x.components()
            want = matvec(lam, orig)
            tol = K * EPS * grow * size
            via_matrix = [math.fsum(matrix[i, j] * orig[j] for j in range(4)) for i in range(4)]
            worst = max(worst,
                        max(_err(g, w) / tol for g, w in zip(got, want)),
                        max(ratio(v, g, tol) for v, g in zip(via_matrix, got)),
                        _err(_minkowski(got), _minkowski(orig)) / (tol * grow * size),
                        max(ratio(b, a, tol * grow) for b, a in zip(z.components(), orig)))
        worst = max(worst, max(_err(matrix[i, j], lam[i][j]) / (K * EPS * grow)
                               for i in range(4) for j in range(4)))
        p_inv, m_inv = 1.0 / f.p, 1.0 / f.m
        want = ((p_inv.real + m_inv.real) / 2, (p_inv.imag + m_inv.imag) / 2,
                (p_inv.real - m_inv.real) / 2, (p_inv.imag - m_inv.imag) / 2)
        scale = max(abs(f.p), abs(f.m)) ** 3 / (abs(f.p) * abs(f.m)) ** 2
        return max(worst, max(ratio(g, w, K * EPS * scale)
                              for g, w in zip(inverse.coeffs(), want)))

    @staticmethod
    def corrupt(out):
        images, matrix, back, inverse, null_raised = out
        y = images[0]
        return ([H.FourVector(y.x0, y.x1 + 1e-6, y.x2, y.x3)] + images[1:],
                matrix, back, inverse, null_raised)
