"""Command-line front end: the hypalg command and its subcommands.

Each subcommand loads only the modules it uses, so that a cold start
compiles only those: ``eval`` loads the expression language
(``hypalg.expr``, where its grammar is documented), ``transform`` loads
``lorentz``, and ``spinor`` and ``cross-section`` load ``spinor`` as well;
``verify`` and ``spinor --check`` load ``hypalg.checks``.  The language's
names (parse, evaluate, render, the AST nodes and its errors) can be read
here too; the first such read loads ``hypalg.expr``.  ``main`` reads a
plain command line itself from the one grammar ``_GRAMMAR``; argparse, built
from the same grammar, is loaded only for every other command line, and
prints help, usage and errors.  Exit codes: 1 verify or --check failure, 2
parse/type error, 3 zero divisor, 4 overflow, non-convergence or a
non-finite result.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from .cayley import BASIS_LABELS, FourVector, Multivector, _ResidualError
from .hypernum import (HyperComplex, NonFiniteResult, ZeroDivisor,
                       _check_angles, format_real)

# Names of the expression language that callers read from this module; the
# first such read loads hypalg.expr.
_EXPR_NAMES = frozenset({
    "parse", "evaluate", "render", "ExprSyntaxError", "EvalTypeError",
    "MAX_DEPTH", "_tokenize", "Num", "Const", "Neg", "BinOp", "Call",
})


def __getattr__(name: str):
    if name in _EXPR_NAMES:
        from . import expr
        return getattr(expr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _loaded(module: str, *names: str) -> tuple:
    """The named classes of hypalg.<module>, or () while it is not loaded.

    An exception of such a class can only have been raised once its module
    is loaded, so main catches it without loading the module.
    """
    owner = sys.modules.get(f"{__package__}.{module}")
    return tuple([getattr(owner, name) for name in names]) if owner else ()


# -- output formatting --------------------------------------------------------------

def value_to_json(value) -> dict:
    if isinstance(value, Multivector):
        return {"kind": "multivector", "coeffs": value.coeffs16(),
                "basis": list(BASIS_LABELS)}
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
    from .expr import evaluate, parse
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
    from .lorentz import apply, boost, rotation
    image = apply(boost(rapidity) * rotation(rotate),
                  FourVector(*vector)).components()
    return _emit(args.json, {"kind": "fourvector", "coeffs": list(image)},
                 " ".join(format_real(c) for c in image))


def _spin_params(args):
    """The LorentzParams of --phi, --theta and --xi, for spin_transform.

    An infinite --phi or --theta is refused here, before a rotor is built.
    """
    _check_angles([("--phi {}", args.phi), ("--theta {}", args.theta)])
    from .lorentz import LorentzParams
    return LorentzParams(args.phi, args.theta, args.xi)


def _cmd_spinor(args) -> int:
    from .lorentz import spin_transform
    from .spinor import Spinor, even_components, odd_components, to_column
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
        oc = odd_components(psi)
        return _emit(args.json, {"v": list(oc.v), "eta": list(oc.eta)})
    if args.view == "column":
        col = to_column(psi)
        return _emit(args.json, {"c1": list(col.c1.coeffs()),
                                 "c2": list(col.c2.coeffs())},
                     f"c1 {col.c1}\nc2 {col.c2}")
    return _emit(args.json, even_components(psi).as_dict())


def _cmd_cross_section(args) -> int:
    from .lorentz import spin_transform
    from .spinor import Spinor, from_rotor, mott_factor, product_modulus_sq
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


# -- the command line -----------------------------------------------------------

_ANGLES = (("--phi", float, 0.0, None), ("--theta", float, 0.0, None),
           ("--xi", float, 0.0, None))
_JSON = ("--json", "flag", False, None)

# The one grammar of the command line, which _dash_values, _read_plain and
# _build_parser read.  Per subcommand: its help, its handler and its
# arguments in the order that -h lists them, each as (name, kind, default,
# text).  Kind float or str is an option that takes a value and reads it
# with kind; a None default makes it required, and text is its metavar.
# "flag" is a flag (text is its help), "view" one of spinor's exclusive
# views, stored as view, and "expr" is eval's one positional.
_GRAMMAR = {
    "eval": ("evaluate an expression", _cmd_eval,
             (("expr", "expr", None, None), _JSON)),
    "transform": ("apply a rotation then a boost to a four-vector",
                  _cmd_transform,
                  (("--boost", str, "0,0,0", "BX,BY,BZ"),
                   ("--rotate", str, "0,0,0", "AX,AY,AZ"),
                   ("--vector", str, None, "X0,X1,X2,X3"), _JSON)),
    "spinor": ("spinor components for given parameters", _cmd_spinor,
               (*_ANGLES, ("--even", "view", "even", None),
                ("--odd", "view", "even", None),
                ("--column", "view", "even", None),
                ("--check", "flag", False,
                 "cross-check against the closed-form components"), _JSON)),
    "cross-section": ("spinor-product square and elastic factor",
                      _cmd_cross_section, (*_ANGLES, _JSON)),
    "verify": ("run the built-in identity suites", _cmd_verify, ()),
}


def _dest(name: str, kind) -> str:
    """The namespace attribute that an argument of _GRAMMAR sets."""
    return "view" if kind == "view" else name.lstrip("-")


def _dash_values(argv: list[str]) -> list[str]:
    """argv with each value that begins with '-' made plain to argparse.

    argparse takes such a token for an option unless it is a plain decimal
    such as -2.  An option of _GRAMMAR that takes a value (-1e-3, -inf,
    -1,0,0), or a prefix of exactly one (argparse accepts such an
    abbreviation), followed by one is joined to it as --opt=value, and an
    eval expression that begins with '-' moves behind '--'.  Long options,
    -h and everything from '--' on are left as they are.
    """
    value_options = {name for _, _, arguments in _GRAMMAR.values()
                     for name, kind, _, _ in arguments if kind in (float, str)}

    def dashed(token: str) -> bool:
        return token[:1] == "-" and token[:2] != "--" and token != "-h"

    def value_option(token: str) -> bool:
        return sum(option.startswith(token) for option in value_options) == 1

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


def _build_parser():
    """argparse's parser for _GRAMMAR: the one source of help, usage and errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="hypalg",
        description="Hyperbolic-complex Clifford algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, func, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_)
        views = None
        for name, kind, default, text in arguments:
            if kind == "expr":
                p.add_argument(name)
            elif kind == "view":
                views = views or p.add_mutually_exclusive_group()
                views.add_argument(name, dest="view", action="store_const",
                                   const=name[2:], default=default)
            elif kind == "flag":
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=kind, default=default,
                               required=default is None, metavar=text)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]):
    """The namespace argparse gives for a plain command line, else None.

    Plain is a subcommand, then each of its arguments at most once: an
    option by its full name, as --opt=value or followed by a value that
    does not begin with '-', a flag, and eval's one expression, also after
    one '--' as the last two tokens; a float option's value is one that
    float() reads, and every required argument is there.  argparse reads
    every other command line (help, any other '--', abbreviated or unknown
    options, errors) and prints its messages.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, func, arguments = _GRAMMAR[argv[0]]
    kinds = {name: kind for name, kind, _, _ in arguments}
    args = {_dest(name, kind): default for name, kind, default, _ in arguments}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--" and "expr" in kinds:  # one expression, or None
            rest = list(tokens)
            name, eq, text = "expr", "", rest[0] if len(rest) == 1 else None
        elif token[:1] == "-":
            name, eq, text = token.partition("=")
        else:
            name, eq, text = "expr", "", token
        kind = kinds.get(name)
        dest = _dest(name, kind)
        if kind is None or dest in given:
            return None
        given.add(dest)
        if kind in (float, str):
            if not eq:
                text = next(tokens, "-")  # a missing value reads as '-'
                if text[:1] == "-":
                    return None
            try:
                args[dest] = kind(text)
            except ValueError:
                return None
        elif eq:
            return None
        elif kind == "view":
            args[dest] = name[2:]
        else:
            args[dest] = text if kind == "expr" else True
    if None in args.values():
        return None
    return SimpleNamespace(command=argv[0], **args, func=func)


def _fail(code: int, exc: Exception) -> int:
    """Print exc to stderr as an error line, and return the exit status code.

    The one home of the prefixes: exit 4, a result with no finite value,
    says so after "error: ".
    """
    prefix = "error: no finite result: " if code == 4 else "error: "
    print(f"{prefix}{exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = _dash_values(sys.argv[1:] if argv is None else list(argv))
    args = _read_plain(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ResidualError as exc:
        # exit 4 for a guard that met a NaN or inf
        return _fail(2 if math.isfinite(exc.residual) else 4, exc)
    except (*_loaded("expr", "ExprSyntaxError", "EvalTypeError"),
            ValueError) as exc:
        return _fail(2, exc)
    except ZeroDivisor as exc:
        return _fail(3, exc)
    except (OverflowError, *_loaded("lorentz", "NoConvergence"),
            NonFiniteResult) as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
