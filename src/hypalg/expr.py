"""The CLI's expression language: tokenizer, parser, AST, render, evaluate.

Grammar (left-associative, unary minus binds tightest):

    expr  := term (("+" | "-") term)*
    term  := unary ("*" unary)*
    unary := "-" unary | atom
    atom  := NUMBER | CONST | IDENT "(" [expr ("," expr)*] ")" | "(" expr ")"

Constants: e0 e1 e2 e3 s1 s2 s3 i j ij.  Functions: bar rev grad exp inv
dot wedge boost rot spinor sprod norm2 commutator.  Angles are radians,
rapidities dimensionless.  Nesting of parentheses, calls and unary minus is
limited to MAX_DEPTH levels.

Only ``hypalg eval`` loads this module, and it loads ``lorentz`` and
``spinor`` only for the functions that need them.  It never imports
``hypalg.cli``: under ``python -m hypalg.cli`` that module runs as
``__main__``, and importing it would compile it a second time.
"""

from __future__ import annotations

import math
import operator

from .cayley import (E0, E1, E2, E3, S1, S2, S3, Multivector, _ResidualError,
                     antisym, extract, minkowski_dot, scalar)
from .hypernum import (I, IJ, J, HyperComplex, _check_angles, _Frozen,
                       format_real)

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
        from .lorentz import exp_general
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
    # the rest need lorentz, and sprod spinor too; each loads on first use
    if name == "commutator":
        from .lorentz import commutator
        return commutator(scalar(args[0]), scalar(args[1]))
    if name == "sprod":
        from .spinor import from_multivector, sprod_algebraic
        return sprod_algebraic(*_members(from_multivector, args, positions))
    reals = [_as_real(value, p) for value, p in zip(args, positions)]
    from .lorentz import LorentzParams, boost, rotation, spin_transform
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

