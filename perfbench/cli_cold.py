"""The CLI cold-start workload: one `python -m hypalg.cli` child per op.

Goldens are hand-written text or closed forms evaluated in mpmath, never
hypalg itself.  Numbers printed with `%.12g` are compared within half a unit
in their 12th digit plus K * eps times the magnitude their error scales
with; everything else (structure, keys, exit codes, exact integer results,
the `verify` listing) must match byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from mpmath import mp, mpf

from common import BARE_NOMINAL_S, EPS, Workload, bare_start, round_tol, run_python
from library import K, lorentz_matrix, matvec

BASIS16 = ["1", "s1", "s2", "s3", "i", "i*s1", "i*s2", "i*s3",
           "j", "j*s1", "j*s2", "j*s3", "ij", "ij*s1", "ij*s2", "ij*s3"]
BASIS4 = ["1", "i", "j", "ij"]
EVEN_KEYS = ("s", "b32", "b13", "b21", "b10", "b20", "b30", "p")


class Mismatch(Exception):
    """Output that differs in structure from its golden."""


def _num(text: str, want, scale: float) -> float:
    """Error ratio of one printed number against its exact value."""
    got = float(text)
    tol = round_tol(float(want)) + K * EPS * scale
    with mp.workprec(113):
        r = float(abs(mpf(got) - mpf(want))) / tol
    return r if math.isfinite(r) else math.inf


def _terms(text: str) -> dict[str, float]:
    """Parse `render_terms` output such as `0.5 - 2*i + j` into label -> coeff."""
    out: dict[str, float] = {}
    words = text.split(" ")
    if words[0].startswith("-"):
        words[0:1] = ["-", words[0][1:]]
    else:
        words.insert(0, "+")
    if len(words) % 2:
        raise Mismatch(f"cannot read terms from {text!r}")
    for sign, body in zip(words[0::2], words[1::2]):
        if sign not in "+-":
            raise Mismatch(f"cannot read terms from {text!r}")
        if "*" in body:
            coeff, label = body.split("*", 1)
        elif body[0].isdigit():
            coeff, label = body, ""
        else:
            coeff, label = "1", body
        out[label] = float(coeff) * (-1.0 if sign == "-" else 1.0)
    return out


def _fmt(value: float) -> str:
    value = float(value)
    return f"{0.0 if value == 0.0 else value:.12g}"


def _short(value: float) -> str:
    """Six decimals: the text the command line carries; its float is exact input."""
    return f"{value:.6f}"


class Command:
    __slots__ = ("sub", "argv", "exit", "check")

    def __init__(self, argv, exit_code, check):
        self.sub = argv[0]
        self.argv = argv
        self.exit = exit_code
        self.check = check  # stdout text -> error ratio, raising Mismatch


def _exact(golden: str):
    def check(out: str) -> float:
        if out != golden:
            raise Mismatch(f"expected {golden!r}, got {out!r}")
        return 0.0
    return check


def _lines(out: str, keys) -> list[str]:
    lines = [line.split(" ", 1) for line in out.splitlines()]
    if [w[0] for w in lines] != list(keys) or any(len(w) != 2 for w in lines):
        raise Mismatch(f"expected lines {list(keys)}, got {out!r}")
    return [w[1] for w in lines]


def _json(out: str, keys) -> dict:
    value = json.loads(out)
    if list(value) != list(keys):
        raise Mismatch(f"expected keys {list(keys)}, got {out!r}")
    return value


def _spinor_closed_form(phi, theta, xi) -> dict:
    with mp.workprec(113):
        h = mpf(1) / 2
        cp, sp = mp.cos(mpf(phi) * h), mp.sin(mpf(phi) * h)
        ct, st = mp.cos(mpf(theta) * h), mp.sin(mpf(theta) * h)
        ch, sh = mp.cosh(mpf(xi) * h), mp.sinh(mpf(xi) * h)
        return {"s": cp * ct * ch, "b32": sp * st * ch, "b13": -cp * st * ch,
                "b21": -sp * ct * ch, "b10": cp * st * sh, "b20": sp * st * sh,
                "b30": cp * ct * sh, "p": -sp * ct * sh}


def _verify_golden() -> str:
    lines = [f"ok involution signs of {n}"
             for n in ("e0", "e1", "e2", "e3", "s1", "s2", "s3", "i", "j")]
    for mu in range(4):
        for nu in range(4):
            want = 0 if mu != nu else (1 if mu == 0 else -1)
            lines.append(f"ok metric e{mu}.e{nu} = {want}")
    for a in range(1, 4):
        for b in range(1, 4):
            lines += [f"ok bracket [{p}] indices ({a},{b})" for p in ("J,J", "J,K", "K,K")]
    return "\n".join(lines) + "\n"


VERIFY_GOLDEN = _verify_golden()


class CommandMix:
    """Seeded commands; each cycle holds every kind once, in a seeded order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.kinds = [
            self.eval_int, self.eval_int_json, self.eval_norm2, self.eval_dot,
            self.eval_boost_json, self.transform, self.transform_json,
            self.spinor_even, self.spinor_odd_json, self.spinor_column,
            self.cross_section, self.cross_section_json, self.verify,
            self.syntax_error, self.zero_divisor,
        ]

    def cycle(self) -> list[Command]:
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        return [kind() for kind in kinds]

    def _rapidity(self, top: float):
        r = self.rng
        return tuple(float(_short(r.uniform(-top, top))) for _ in range(3))

    # -- eval ----------------------------------------------------------------

    def eval_int(self) -> Command:
        a, b = self.rng.randint(2, 99), self.rng.randint(2, 99)
        return Command(["eval", f"{a}*j*j - {b}"], 0, _exact(_fmt(a - b) + "\n"))

    def eval_int_json(self) -> Command:
        a, b = self.rng.randint(2, 99), self.rng.randint(2, 99)
        golden = json.dumps({"kind": "hypercomplex", "coeffs": [float(a - b), 0.0, 0.0, 0.0],
                             "basis": BASIS4})
        return Command(["eval", f"{a}*j*j - {b}", "--json"], 0, _exact(golden + "\n"))

    def eval_norm2(self) -> Command:
        a, b, c = (self.rng.randint(1, 9) for _ in range(3))
        d = self.rng.choice([k for k in range(1, 10) if k != c])
        # |z w|^2 = |z|^2 |w|^2 holds exactly on small integers.
        want = (a * a + b * b) * (c * c - d * d)
        return Command(["eval", f"norm2(({a} + {b}*i) * ({c} + {d}*j))"], 0,
                       _exact(_fmt(want) + "\n"))

    def eval_dot(self) -> Command:
        b = self._rapidity(2.0)
        boost = f"boost({', '.join(_short(c) for c in b)})"
        eta = math.hypot(*b)
        # The boosted time axis keeps its projection cosh|b| on e0.
        with mp.workprec(113):
            want = mp.cosh(mp.sqrt(sum(mpf(c) ** 2 for c in b)))

        def check(out: str) -> float:
            return _num(out.strip(), want, math.exp(eta))
        return Command(["eval", f"dot({boost}*e0*rev({boost}), e0)"], 0, check)

    def eval_boost_json(self) -> Command:
        b = self._rapidity(2.0)
        with mp.workprec(113):
            eta = mp.sqrt(sum(mpf(c) ** 2 for c in b))
            want = [mpf(0)] * 16
            want[0] = mp.cosh(eta / 2)
            for k in range(3):
                want[9 + k] = mp.sinh(eta / 2) * b[k] / eta

        def check(out: str) -> float:
            value = _json(out, ("kind", "coeffs", "basis"))
            if value["kind"] != "multivector" or value["basis"] != BASIS16:
                raise Mismatch(f"not a multivector: {out!r}")
            scale = math.cosh(float(eta))
            return max(_num(repr(g), w, scale) for g, w in zip(value["coeffs"], want))
        return Command(["eval", f"boost({','.join(_short(c) for c in b)})", "--json"], 0,
                       check)

    # -- transform -----------------------------------------------------------

    def _transform(self, as_json: bool) -> Command:
        r = self.rng
        angle = tuple(float(_short(r.uniform(-1.5, 1.5))) for _ in range(3))
        rapidity = self._rapidity(1.5)
        vector = tuple(float(_short(r.uniform(-2.0, 2.0))) for _ in range(4))
        want = matvec(lorentz_matrix(angle, rapidity), vector)
        scale = math.exp(math.hypot(*rapidity)) * math.hypot(*vector)
        # `--opt=value`: a value that starts with "-" must not read as an option.
        argv = ["transform", "--rotate=" + ",".join(_short(c) for c in angle),
                "--boost=" + ",".join(_short(c) for c in rapidity),
                "--vector=" + ",".join(_short(c) for c in vector)]

        def check(out: str) -> float:
            if as_json:
                value = _json(out, ("kind", "coeffs"))
                if value["kind"] != "fourvector":
                    raise Mismatch(f"not a four-vector: {out!r}")
                got = [repr(c) for c in value["coeffs"]]
            else:
                got = out.strip().split(" ")
            if len(got) != 4 or not out.endswith("\n"):
                raise Mismatch(f"expected four components: {out!r}")
            return max(_num(g, w, scale) for g, w in zip(got, want))
        return Command(argv + (["--json"] if as_json else []), 0, check)

    def transform(self) -> Command:
        return self._transform(False)

    def transform_json(self) -> Command:
        return self._transform(True)

    # -- spinor and cross-section --------------------------------------------

    def _params(self):
        r = self.rng
        return (float(_short(r.uniform(0.0, 2.0 * math.pi))),
                float(_short(r.uniform(0.0, math.pi))),
                float(_short(r.uniform(-3.0, 3.0))))

    @staticmethod
    def _param_argv(sub, params):
        phi, theta, xi = params
        return [sub, f"--phi={_short(phi)}", f"--theta={_short(theta)}", f"--xi={_short(xi)}"]

    def spinor_even(self) -> Command:
        params = self._params()
        want = _spinor_closed_form(*params)
        scale = math.cosh(params[2])

        def check(out: str) -> float:
            got = _lines(out, EVEN_KEYS)
            return max(_num(g, want[k], scale) for g, k in zip(got, EVEN_KEYS))
        return Command(self._param_argv("spinor", params) + ["--even", "--check"], 0, check)

    def spinor_odd_json(self) -> Command:
        params = self._params()
        c = _spinor_closed_form(*params)
        want = {"v": [c["s"], c["b10"], c["b20"], c["b30"]],
                "eta": [c["p"], c["b32"], c["b13"], c["b21"]]}
        scale = math.cosh(params[2])

        def check(out: str) -> float:
            value = _json(out, ("v", "eta"))
            return max(_num(repr(g), w, scale)
                       for key in ("v", "eta") for g, w in zip(value[key], want[key], strict=True))
        return Command(self._param_argv("spinor", params) + ["--odd", "--check", "--json"],
                       0, check)

    def spinor_column(self) -> Command:
        params = self._params()
        c = _spinor_closed_form(*params)
        want = {"c1": dict(zip(BASIS4, (c["s"], c["b21"], c["b30"], c["p"]))),
                "c2": dict(zip(BASIS4, (-c["b13"], c["b32"], c["b10"], c["b20"])))}
        scale = math.cosh(params[2])

        def check(out: str) -> float:
            worst = 0.0
            for key, text in zip(("c1", "c2"), _lines(out, ("c1", "c2"))):
                got = _terms(text)
                labels = {"" if k == "1" else k: v for k, v in want[key].items()}
                if not set(got) <= set(labels):
                    raise Mismatch(f"unexpected basis label in {text!r}")
                worst = max(worst, max(_num(repr(got.get(lab, 0.0)), w, scale)
                                       for lab, w in labels.items()))
            return worst
        return Command(self._param_argv("spinor", params) + ["--column", "--check"], 0,
                       check)

    def _cross_section(self, as_json: bool) -> Command:
        params = self._params()
        with mp.workprec(113):
            mott = mp.cos(mpf(params[1]) / 2) ** 2
        # The squared spinor product is cos^2(theta/2) with no ij part.
        want = {"re": mott, "ij": mpf(0), "mott": mott}
        scale = math.cosh(params[2])

        def check(out: str) -> float:
            if as_json:
                value = _json(out, ("kind", "re", "ij", "mott"))
                if value["kind"] != "cross-section":
                    raise Mismatch(f"not a cross-section: {out!r}")
                got = [repr(value[k]) for k in ("re", "ij", "mott")]
            else:
                got = _lines(out, ("re", "ij", "mott"))
            return max(_num(g, want[k], scale) for g, k in zip(got, ("re", "ij", "mott")))
        argv = self._param_argv("cross-section", params) + (["--json"] if as_json else [])
        return Command(argv, 0, check)

    def cross_section(self) -> Command:
        return self._cross_section(False)

    def cross_section_json(self) -> Command:
        return self._cross_section(True)

    # -- verify and errors ---------------------------------------------------

    def verify(self) -> Command:
        return Command(["verify"], 0, _exact(VERIFY_GOLDEN))

    def syntax_error(self) -> Command:
        return Command(["eval", f"{self.rng.randint(2, 99)} +"], 2, _exact(""))

    def zero_divisor(self) -> Command:
        a = self.rng.randint(2, 99)
        return Command(["eval", f"inv({a}*(1+j))"], 3, _exact(""))


def _compare(cmd: Command, code: int, out: bytes, err: bytes) -> float:
    if code != cmd.exit:
        raise Mismatch(f"exit {code}, expected {cmd.exit}: {err[-200:]!r}")
    if cmd.exit != 0 and not err.startswith(b"error: "):
        raise Mismatch(f"expected an error message, got {err[-200:]!r}")
    return cmd.check(out.decode())


class CliCold(Workload):
    """Sequential cold starts; each op's time is its wall time less that of
    a bare `python -c pass`, which is also the reference run after every op.
    """

    name = "cli_cold"
    in_process = False
    setup_code = "import hypalg.cli as C; C.main(['eval', 'j*j'])"
    WINDOW = 10  # bare starts around an op: a single one is as noisy as the op
    REF_NOMINAL_S = BARE_NOMINAL_S
    SUBTRACT_REF = True
    PER_BLOCK = False  # about ten ops a block: too few for a p90 of their own

    def __init__(self, seed: int):
        self.mix = CommandMix(random.Random(seed))

    def inputs(self):
        while True:
            yield from self.mix.cycle()

    def op(self, cmd: Command):
        return run_python(["-m", "hypalg.cli", *cmd.argv])

    def reference(self) -> float:
        return bare_start()

    def check(self, cmd: Command, out) -> float:
        _, code, stdout, stderr = out
        return _compare(cmd, code, stdout, stderr)

    def probe(self, cmd: Command, out, tracer) -> float:
        """Run the same command in-process: cli.main, and parse/evaluate for eval."""
        from hypalg import cli

        if cmd.sub == "eval":
            try:
                node = tracer.time_call("cli.parse", cli.parse, cmd.argv[1])
                tracer.time_call("cli.evaluate", cli.evaluate, node)
            except (cli.ExprSyntaxError, cli.EvalTypeError, ArithmeticError):
                pass
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tracer.time_call(f"cli.main.{cmd.sub}", cli.main, cmd.argv)
        return _compare(cmd, code, stdout.getvalue().encode(), stderr.getvalue().encode())

    @staticmethod
    def corrupt(out):
        wall, code, stdout, stderr = out
        return wall, code, stdout + b"0", stderr
