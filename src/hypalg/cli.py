"""Command-line front end with a small expression language.

Grammar (left-associative, unary minus binds tightest):

    expr  := term (("+" | "-") term)*
    term  := unary ("*" unary)*
    unary := "-" unary | atom
    atom  := NUMBER | CONST | IDENT "(" [expr ("," expr)*] ")" | "(" expr ")"

Constants: e0 e1 e2 e3 s1 s2 s3 i j ij.  Functions: bar rev grad exp inv
dot wedge boost rot spinor sprod norm2 commutator.  Angles are radians,
rapidities dimensionless.  Nesting of parentheses, calls and unary minus is
limited to MAX_DEPTH levels.  Exit codes: 1 verify or --check failure,
2 parse/type error, 3 zero divisor, 4 overflow, non-convergence or a
non-finite result.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys

from . import cayley, lorentz, spinor
from .cayley import (E0, E1, E2, E3, S1, S2, S3, FourVector, Multivector,
                     _ResidualError, antisym, extract, minkowski_dot, scalar)
from .hypernum import (I, IJ, J, HyperComplex, ZeroDivisor, _Frozen,
                       format_real)
from .lorentz import LorentzParams, NoConvergence, boost, commutator, \
    exp_general, rotation, spin_transform
from .spinor import (Spinor, even_components, from_rotor, mott_factor,
                     product_modulus_sq, sprod_algebraic)

CONSTANTS: dict[str, Multivector | HyperComplex] = {
    "e0": E0, "e1": E1, "e2": E2, "e3": E3,
    "s1": S1, "s2": S2, "s3": S3,
    "i": I, "j": J, "ij": IJ,
}

FUNCTION_ARITY = {
    "bar": 1, "rev": 1, "grad": 1, "exp": 1, "inv": 1, "norm2": 1,
    "dot": 2, "wedge": 2, "sprod": 2, "commutator": 2,
    "boost": 3, "rot": 3, "spinor": 3,
}


class ExprSyntaxError(ValueError):
    def __init__(self, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"syntax error at offset {offset}: expected {', '.join(expected)}")


class EvalTypeError(TypeError):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"type error at offset {offset}: {message}")


class NonFiniteResult(ArithmeticError):
    """A result with a NaN or infinite number, refused rather than printed."""


# -- abstract syntax ----------------------------------------------------------

class _Node(_Frozen):
    """Base of the AST nodes.  Every node ends with its source offset pos,
    which equality and hashing leave out, so that reparsing rendered text
    yields an equal AST."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__[:-1]])


class Num(_Node):
    __slots__ = __match_args__ = ("value", "pos")

    def __init__(self, value: float, pos: int = 0):
        self._fill(value, pos)


class Const(_Node):
    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: str, pos: int = 0):
        self._fill(name, pos)


class Neg(_Node):
    __slots__ = __match_args__ = ("operand", "pos")

    def __init__(self, operand, pos: int = 0):
        self._fill(operand, pos)


class BinOp(_Node):
    """A binary operation.  A long chain such as 1+1+...+1 nests its BinOps
    in lhs, so equality, hashing and repr walk that left spine in a loop
    (see _left_spine) instead of recursing once per link."""

    __slots__ = __match_args__ = ("op", "lhs", "rhs", "pos")

    def __init__(self, op: str, lhs, rhs, pos: int = 0):
        self._fill(op, lhs, rhs, pos)

    def _key(self) -> tuple:
        # equal exactly when (op, lhs, rhs) are equal at every link
        leaf, links = _left_spine(self)
        return leaf, tuple([(link.op, link.rhs) for link in links])

    def __repr__(self) -> str:
        leaf, links = _left_spine(self)
        heads = [f"BinOp(op={link.op!r}, lhs=" for link in reversed(links)]
        tails = [f", rhs={link.rhs!r}, pos={link.pos!r})" for link in links]
        return "".join(heads + [repr(leaf)] + tails)


class Call(_Node):
    __slots__ = __match_args__ = ("name", "args", "pos")

    def __init__(self, name: str, args: tuple, pos: int = 0):
        self._fill(name, args, pos)


# -- tokenizer / parser -------------------------------------------------------

_PUNCT = "+-*(),"


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; kinds NUMBER, NAME, one-char punct, EOF."""
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdecimal() or (ch == "." and src[pos + 1:pos + 2].isdecimal()):
            start = pos
            pos = _digits_end(src, pos)
            if pos < n and src[pos] == ".":
                pos = _digits_end(src, pos + 1)
            if pos < n and src[pos] in "eE":
                mark = pos + 1
                if mark < n and src[mark] in "+-":
                    mark += 1
                end = _digits_end(src, mark)
                if end > mark:  # without a digit the number ends before e
                    pos = end
            tokens.append(("NUMBER", src[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(("NAME", src[start:pos], start))
            continue
        raise ExprSyntaxError(pos, ("a number", "a name", "an operator"))
    tokens.append(("EOF", "", n))
    return tokens


def _digits_end(src: str, i: int) -> int:
    """The offset past the decimal digits of src from offset i on.

    A digit is whatever str.isdecimal accepts, which is what float() reads
    (Arabic-Indic and other Unicode decimal digits included); the
    tokenizer's digit runs all end here.
    """
    while i < len(src) and src[i].isdecimal():
        i += 1
    return i


_ATOM_EXPECTED = ("a number", "a constant", "a function call", "'('", "'-'")

# Levels of parentheses, calls and unary minus, counted together; each level
# costs a few stack frames in the parser and the evaluator.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0
        self.depth = 0  # levels open around the unary being parsed

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], (f"'{kind}'",))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprSyntaxError(tok[2], ("'+'", "'-'", "'*'", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] == "*":
            _, _, pos = self.advance()
            node = BinOp("*", node, self.unary(), pos)
        return node

    def unary(self):
        # Every level of nesting passes through here once.
        tok = self.peek()
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                tok[2], (f"at most {MAX_DEPTH} levels of parentheses, calls "
                         "and unary minus",))
        self.depth += 1
        if tok[0] == "-":
            self.advance()
            node = Neg(self.unary(), tok[2])
        else:
            node = self.atom()
        self.depth -= 1
        return node

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "NUMBER":
            self.advance()
            return Num(float(text), pos)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "NAME":
            self.advance()
            if text in FUNCTION_ARITY:
                self.expect("(")
                args = []
                if self.peek()[0] != ")":
                    args.append(self.expr())
                    while self.peek()[0] == ",":
                        self.advance()
                        args.append(self.expr())
                self.expect(")")
                return Call(text, tuple(args), pos)
            if text in CONSTANTS:
                return Const(text, pos)
            raise ExprSyntaxError(pos, ("a constant", "a function name"))
        raise ExprSyntaxError(pos, _ATOM_EXPECTED)


def parse(src: str):
    """Parse source text into an AST; positions are source offsets."""
    return _Parser(src).parse()


def render(node) -> str:
    """Canonical text for an AST; reparsing it yields an equal AST."""
    if isinstance(node, Num):
        return format_real(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({', '.join(render(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = render(node.operand)
        if isinstance(node.operand, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        leaf, links = _left_spine(node)
        text = render(leaf)
        for link in links:
            rhs = render(link.rhs)
            if link.op == "*":
                if isinstance(link.lhs, BinOp) and link.lhs.op != "*":
                    text = f"({text})"
                if isinstance(link.rhs, BinOp):
                    rhs = f"({rhs})"
                text = f"{text}*{rhs}"
            else:
                if isinstance(link.rhs, BinOp) and link.rhs.op != "*":
                    rhs = f"({rhs})"
                text = f"{text} {link.op} {rhs}"
        return text
    raise TypeError(f"not an AST node: {node!r}")


def _left_spine(node: BinOp) -> tuple[object, list[BinOp]]:
    """The leftmost operand of a chain of BinOps and its links, innermost first.

    A chain such as 1+1+...+1 parses left-deep; walking its left spine in a
    loop keeps its length off the stack.
    """
    links = []
    while isinstance(node, BinOp):
        links.append(node)
        node = node.lhs
    links.reverse()
    return node, links


# -- evaluation ------------------------------------------------------------------

def _check_angles(angles: list[tuple[str, float]],
                  axis_angle: bool = False) -> None:
    """Refuse the first infinite angle, before a rotor is built from them.

    angles are (label, value) pairs, each label formatting its value into
    the message.  math.cos and math.sin refuse an infinite angle with a bare
    ValueError; here it is a result with no finite value, NonFiniteResult,
    named even where a NaN angle comes before it.  When the angles are the
    components of an axis_angle for rotation, whose cos and sin read their
    norm, finite components whose norm is past the float range (math.hypot
    gives inf) are refused too, named by the largest of them.
    """
    infinite = [pair for pair in angles if math.isinf(pair[1])]
    if axis_angle and math.hypot(*[a for _, a in angles]) == math.inf:
        infinite.append(max(angles, key=lambda pair: abs(pair[1])))
    if infinite:
        label, angle = infinite[0]
        raise NonFiniteResult(
            "infinite angle: " + label.format(format_real(angle)))


def _as_real(value, pos: int) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, HyperComplex) and value.y == value.v == value.w == 0.0:
        return value.x
    raise EvalTypeError(pos, "expected a real number")


def _members(convert, args: list, positions: list[int],
             message: str = "{}") -> list:
    """convert(scalar(value)) per argument, convert being a membership guard.

    A finite residual is a type error at the argument's offset, its text
    formatted into message; a NaN or infinite residual propagates."""
    converted = []
    for value, p in zip(args, positions):
        try:
            converted.append(convert(scalar(value)))
        except _ResidualError as exc:
            if not math.isfinite(exc.residual):
                raise
            raise EvalTypeError(p, message.format(exc))
    return converted


# The operands' own methods promote a real to a scalar and a scalar to a
# multivector.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval_call(name: str, args: list, positions: list[int]):
    if name in ("bar", "rev", "grad"):
        val = args[0]
        if isinstance(val, float):
            return val
        if isinstance(val, HyperComplex):
            return {"bar": val.conj, "rev": val.rev, "grad": val.grade}[name]()
        return {"bar": val.bar, "rev": val.dagger, "grad": val.hat}[name]()
    if name == "exp":
        val = args[0]
        if isinstance(val, float):
            return math.exp(val)
        if isinstance(val, HyperComplex):
            return exp_general(Multivector(val)).scalar()
        return exp_general(val)
    if name == "inv":
        val = args[0]
        if isinstance(val, float):
            val = HyperComplex(val)
        return val.inverse()
    if name == "norm2":
        val = args[0]
        if isinstance(val, Multivector):
            raise EvalTypeError(positions[0], "expected a scalar, got a multivector")
        return (HyperComplex(val) if isinstance(val, float) else val).modulus_sq()
    if name == "dot":
        return minkowski_dot(*_members(
            extract, args, positions, "dot needs embedded four-vectors ({})"))
    if name == "wedge":
        return antisym(scalar(args[0]), scalar(args[1]))
    if name == "commutator":
        return commutator(scalar(args[0]), scalar(args[1]))
    if name == "sprod":
        return sprod_algebraic(*_members(spinor.from_multivector, args,
                                         positions))
    reals = [_as_real(value, p) for value, p in zip(args, positions)]
    if name == "boost":
        return boost(reals).value
    angles = [(f"{{}} at offset {p}", a) for a, p in zip(reals, positions)]
    if name == "rot":
        _check_angles(angles, axis_angle=True)
        return rotation(reals).value
    _check_angles(angles[:2])  # phi and theta; xi is a rapidity
    return spin_transform(LorentzParams(*reals)).value


def evaluate(node):
    """Evaluate an AST to a real, hyperbolic-complex, or multivector value."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return 0.0 - evaluate(node.operand)
    if isinstance(node, BinOp):
        leaf, links = _left_spine(node)
        value = evaluate(leaf)
        for link in links:
            value = _BINARY[link.op](value, evaluate(link.rhs))
        return value
    if isinstance(node, Call):
        arity = FUNCTION_ARITY[node.name]
        if len(node.args) != arity:
            raise EvalTypeError(
                node.pos,
                f"{node.name} takes {arity} argument(s), got {len(node.args)}")
        args = [evaluate(a) for a in node.args]
        positions = [a.pos for a in node.args]
        return _eval_call(node.name, args, positions)
    raise TypeError(f"not an AST node: {node!r}")


# -- output formatting --------------------------------------------------------------

def value_to_json(value) -> dict:
    if isinstance(value, Multivector):
        return {"kind": "multivector", "coeffs": value.coeffs16(),
                "basis": list(cayley.BASIS_LABELS)}
    if isinstance(value, HyperComplex):
        return {"kind": "hypercomplex", "coeffs": list(value.coeffs()),
                "basis": ["1", "i", "j", "ij"]}
    return {"kind": "real", "coeffs": [value], "basis": ["1"]}


def _emit(as_json: bool, doc: dict, text: str | None = None) -> int:
    """Print doc as JSON if as_json, else text; refuse NaN and infinity.

    Every subcommand prints its numbers through here, so no NaN or infinite
    result leaves with exit 0: NonFiniteResult is exit 4.  JSON carries every
    number rounded to format_real's 12 digits.  Without text, each key but
    "kind" prints as one line: the key, then its numbers.
    """
    rows = {key: value if isinstance(value, list) else [value]
            for key, value in doc.items()}
    for key, numbers in rows.items():
        for number in numbers:
            if isinstance(number, float) and not math.isfinite(number):
                raise NonFiniteResult(f"{number} in {key!r}")
    if as_json:
        import json
        text = json.dumps(_rounded(doc))
    elif text is None:
        text = "\n".join([" ".join([key, *map(format_real, numbers)])
                          for key, numbers in rows.items() if key != "kind"])
    print(text)
    return 0


def _rounded(value):
    """value with every float in it rounded to format_real's 12 digits."""
    if isinstance(value, float):
        return float(format_real(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


# -- subcommands -------------------------------------------------------------------

def _cmd_eval(args) -> int:
    value = evaluate(parse(args.expr))
    text = str(value) if isinstance(value, (Multivector, HyperComplex)) \
        else format_real(value)
    return _emit(args.json, value_to_json(value), text)


def _floats(text: str, n: int, option: str) -> list[float]:
    """The n comma-separated numbers of an option's value (ValueError: exit 2)."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{option} needs {n} comma-separated values: {text!r}")
    return parts


def _cmd_transform(args) -> int:
    vector = _floats(args.vector, 4, "--vector")
    rapidity = _floats(args.boost, 3, "--boost")
    rotate = _floats(args.rotate, 3, "--rotate")
    _check_angles([("--rotate {}", a) for a in rotate], axis_angle=True)
    image = lorentz.apply(boost(rapidity) * rotation(rotate),
                          FourVector(*vector)).components()
    return _emit(args.json, {"kind": "fourvector", "coeffs": list(image)},
                 " ".join(format_real(c) for c in image))


def _spin_params(args) -> LorentzParams:
    """The parameters of --phi, --theta and --xi, for spin_transform.

    An infinite --phi or --theta is refused here, before a rotor is built.
    """
    _check_angles([("--phi {}", args.phi), ("--theta {}", args.theta)])
    return LorentzParams(args.phi, args.theta, args.xi)


def _cmd_spinor(args) -> int:
    params = _spin_params(args)
    # This rotor and --check's product lie in the spinor subalgebra by
    # construction, so both are read without from_rotor's membership guard,
    # which refuses any NaN: a NaN angle then fails --check, and a NaN --xi
    # is refused by --check's boost or as output (exit 4).
    psi = Spinor(spin_transform(params).value)
    if args.check:
        from . import checks
        worst, tol, scale = checks.product_route_error(params, psi)
        if not worst <= tol:
            print(f"check failed: max component error {worst:.3e} exceeds "
                  f"tolerance {tol:.3e} ({checks.CHECK_K} eps at scale "
                  f"cosh(xi/2) = {scale:.6g})", file=sys.stderr)
            return 1
    if args.view == "odd":
        oc = spinor.odd_components(psi)
        return _emit(args.json, {"v": list(oc.v), "eta": list(oc.eta)})
    if args.view == "column":
        col = spinor.to_column(psi)
        return _emit(args.json, {"c1": list(col.c1.coeffs()),
                                 "c2": list(col.c2.coeffs())},
                     f"c1 {col.c1}\nc2 {col.c2}")
    return _emit(args.json, even_components(psi).as_dict())


def _cmd_cross_section(args) -> int:
    psi = from_rotor(spin_transform(_spin_params(args)))
    m2 = product_modulus_sq(psi, Spinor.standard())
    mott = mott_factor(args.theta)
    return _emit(args.json, {"kind": "cross-section", "re": m2.x, "ij": m2.w,
                             "mott": mott})


def _cmd_verify(_args) -> int:
    from . import checks
    failed = 0
    for name, ok, detail in checks.verify_suites():
        if ok:
            print(f"ok {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypalg",
        description="Hyperbolic-complex Clifford algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    angles = argparse.ArgumentParser(add_help=False)
    for name in ("--phi", "--theta", "--xi"):
        angles.add_argument(name, type=float, default=0.0)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    p_eval.set_defaults(func=_cmd_eval)

    p_tr = sub.add_parser("transform",
                          help="apply a rotation then a boost to a four-vector")
    p_tr.add_argument("--boost", default="0,0,0", metavar="BX,BY,BZ")
    p_tr.add_argument("--rotate", default="0,0,0", metavar="AX,AY,AZ")
    p_tr.add_argument("--vector", required=True, metavar="X0,X1,X2,X3")
    p_tr.set_defaults(func=_cmd_transform)

    p_sp = sub.add_parser("spinor", parents=[angles],
                          help="spinor components for given parameters")
    view = p_sp.add_mutually_exclusive_group()
    view.add_argument("--even", dest="view", action="store_const", const="even")
    view.add_argument("--odd", dest="view", action="store_const", const="odd")
    view.add_argument("--column", dest="view", action="store_const",
                      const="column")
    p_sp.set_defaults(view="even")
    p_sp.add_argument("--check", action="store_true",
                      help="cross-check against the closed-form components")
    p_sp.set_defaults(func=_cmd_spinor)

    p_cs = sub.add_parser("cross-section", parents=[angles],
                          help="spinor-product square and elastic factor")
    p_cs.set_defaults(func=_cmd_cross_section)

    p_v = sub.add_parser("verify", help="run the built-in identity suites")
    p_v.set_defaults(func=_cmd_verify)
    for p in (p_eval, p_tr, p_sp, p_cs):
        p.add_argument("--json", action="store_true")
    return parser


# The options that take a value; it may begin with '-' (-1e-3, -inf, -1,0,0).
_VALUE_OPTIONS = ("--boost", "--rotate", "--vector", "--phi", "--theta", "--xi")


def _dash_values(argv: list[str]) -> list[str]:
    """argv with each value that begins with '-' made plain to argparse.

    argparse takes such a token for an option unless it is a plain decimal
    such as -2.  A value option, or a prefix of exactly one (argparse
    accepts such an abbreviation), followed by one is joined to it as
    --opt=value, and an eval expression that begins with '-' moves behind
    '--'.  Long options, -h and everything from '--' on are left as they are.
    """
    def dashed(token: str) -> bool:
        return token[:1] == "-" and token[:2] != "--" and token != "-h"

    def value_option(token: str) -> bool:
        return sum(option.startswith(token) for option in _VALUE_OPTIONS) == 1

    out, expr = [], []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            out += argv[i:]
            break
        if value_option(token) and i + 1 < len(argv) and dashed(argv[i + 1]):
            out.append(f"{token}={argv[i + 1]}")
            i += 1
        elif argv[0] == "eval" and i > 0 and not expr and dashed(token):
            expr = ["--", token]
        else:
            out.append(token)
        i += 1
    return out + expr


def _fail(code: int, exc: Exception) -> int:
    """Print exc to stderr as an error line, and return the exit status code.

    The one home of the prefixes: exit 4, a result with no finite value,
    says so after "error: ".
    """
    prefix = "error: no finite result: " if code == 4 else "error: "
    print(f"{prefix}{exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_dash_values(argv))
    try:
        return args.func(args)
    except _ResidualError as exc:
        # exit 4 for a guard that met a NaN or inf
        return _fail(2 if math.isfinite(exc.residual) else 4, exc)
    except (ExprSyntaxError, EvalTypeError, ValueError) as exc:
        return _fail(2, exc)
    except ZeroDivisor as exc:
        return _fail(3, exc)
    except (OverflowError, NoConvergence, NonFiniteResult) as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
