"""Expression grammar, evaluator dispatch, subcommands, and exit codes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypalg
from hypalg import HyperComplex, Multivector
from hypalg.cli import (MAX_DEPTH, BinOp, Call, Const, EvalTypeError,
                        ExprSyntaxError, Num, _tokenize, evaluate, main, parse,
                        render)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -------------------------------------------------------------------

def test_parse_examples():
    assert parse("e1 * bar(e1)") == BinOp("*", Const("e1"),
                                          Call("bar", (Const("e1"),)))
    assert parse("boost(0,0,1.5)") == Call("boost",
                                           (Num(0.0), Num(0.0), Num(1.5)))
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4


def test_parse_reports_offsets_and_expectations():
    with pytest.raises(ExprSyntaxError) as err:
        parse("dot(e0 e0)")
    assert err.value.offset == 7
    with pytest.raises(ExprSyntaxError) as err:
        parse("frobnicate(1)")
    assert err.value.offset == 0
    assert "constant" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + 2)")
    assert err.value.offset == 5
    # str.isdigit accepts superscripts, which float() refuses; an exponent
    # without digits is left to the next token
    for src, offset in (("²", 0), ("1²", 1), ("2e", 1)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(src)
        assert err.value.offset == offset, src


def test_tokenize_number_tokens():
    # (kind, text, offset) of every token; an exponent needs a digit, so
    # "1e+" and "2e" end their number before the e
    cases = {
        "1.": [("NUMBER", "1.", 0)],
        ".5": [("NUMBER", ".5", 0)],
        "1.5e-3": [("NUMBER", "1.5e-3", 0)],
        "2E+5": [("NUMBER", "2E+5", 0)],
        "1.e5": [("NUMBER", "1.e5", 0)],
        "\u0663": [("NUMBER", "\u0663", 0)],  # ARABIC-INDIC DIGIT THREE
        "1e+": [("NUMBER", "1", 0), ("NAME", "e", 1), ("+", "+", 2)],
        "2e": [("NUMBER", "2", 0), ("NAME", "e", 1)],
    }
    for src, tokens in cases.items():
        assert _tokenize(src) == tokens + [("EOF", "", len(src))], src
        for kind, text, _ in tokens:
            if kind == "NUMBER":
                float(text)  # every NUMBER is text that float() reads


def test_parse_depth_limit(capsys):
    # 2000 levels of each kind of nesting are refused at the first token
    # nested deeper than MAX_DEPTH levels, not by a RecursionError
    deep = MAX_DEPTH + 1
    cases = (("(" * 2000 + "1" + ")" * 2000, deep),
             ("exp(" * 2000 + "1" + ")" * 2000, 4 * deep),
             ("-" * 2000 + "1", deep),
             ("-bar((" * 2000 + "1" + "))" * 2000, None))
    for src, offset in cases:
        with pytest.raises(ExprSyntaxError) as err:
            parse(src)
        assert offset is None or err.value.offset == offset
        assert f"at most {MAX_DEPTH} levels" in str(err.value)
        code, out, err_text = run(capsys, "eval", "--", src)
        assert code == 2 and out == "" and "syntax error" in err_text
    assert evaluate(parse("(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH)) == 2.0
    assert evaluate(parse("-" * MAX_DEPTH + "2")) == 2.0


def test_long_chains_evaluate():
    add, mul = " + ".join(["1"] * 5000), "*".join(["j"] * 5001)
    assert evaluate(parse(add)) == 5000.0
    assert evaluate(parse(mul)) == HyperComplex(0, 0, 1)
    # both sources are canonical, so rendering gives them back
    assert render(parse(add)) == add and render(parse(mul)) == mul


def test_long_chains_compare_hash_and_repr():
    add, mul = " + ".join(["1"] * 5000), "*".join(["j"] * 5000)
    for src, longer, other in ((add, add + " + 1", add[:-1] + "2"),
                               (mul, mul + "*j", mul[:-1] + "i")):
        a, b = parse(src), parse(src)
        assert a == b and hash(a) == hash(b)
        assert a != parse(longer) and a != parse(other)
    # 1 at offset 4k, '+' at 4k - 2; j at 2k, '*' at 2k - 1
    assert repr(parse(add)) == "BinOp(op='+', lhs=" * 4999 \
        + "Num(value=1.0, pos=0)" + "".join(
            f", rhs=Num(value=1.0, pos={4 * k}), pos={4 * k - 2})"
            for k in range(1, 5000))
    assert repr(parse(mul)) == "BinOp(op='*', lhs=" * 4999 \
        + "Const(name='j', pos=0)" + "".join(
            f", rhs=Const(name='j', pos={2 * k}), pos={2 * k - 1})"
            for k in range(1, 5000))


def test_precedence_and_associativity():
    assert evaluate(parse("-2*3+1")) == -5.0
    assert evaluate(parse("1 - 2 - 3")) == -4.0
    assert evaluate(parse("-(1+2)*2")) == -6.0
    assert evaluate(parse("2*3*4")) == 24.0
    assert evaluate(parse("2 - -3")) == 5.0


def test_render_parse_fixed_point():
    sources = [
        "e1*bar(e1)",
        "1 + 2*i - 3*ij",
        "-(1 + 2)*j",
        "norm2(sprod(spinor(0.3, 1.1, 0.7), spinor(0, 0, 0)))",
        "commutator(s1, s2) - rot(0, 0, 1)*2",
        "--4*-2",
        "1 - (2 - 3)",
        "(1 + 2)*3",
        "2*(3*4)",
    ]
    for src in sources:
        ast = parse(src)
        text = render(ast)
        assert parse(text) == ast, src
        assert render(parse(text)) == text, src


def test_hyper_rendering_reparses():
    import random
    from conftest import rand_hyper
    rng = random.Random(5)
    for _ in range(50):
        h = rng.choice([rand_hyper(rng), HyperComplex(1, -2, 0, 0.5),
                        HyperComplex(), HyperComplex(0, 1)])
        got = evaluate(parse(str(h)))
        if isinstance(got, float):
            got = HyperComplex(got)
        assert got.isclose(h, 1e-9)


def test_value_rendering_reparses(capsys):
    code, out, _ = run(capsys, "eval", "boost(0.3,0.1,1.5)")
    assert code == 0
    code2, out2, _ = run(capsys, "eval", out.strip())
    assert code2 == 0
    first = Multivector.from_coeffs16(
        json.loads(run(capsys, "eval", "boost(0.3,0.1,1.5)", "--json")[1])["coeffs"])
    second = Multivector.from_coeffs16(
        json.loads(run(capsys, "eval", out.strip(), "--json")[1])["coeffs"])
    assert first.isclose(second, 1e-9)


# -- evaluation ----------------------------------------------------------------

def test_eval_scalar_identities():
    assert evaluate(parse("j*j")) == HyperComplex(1)
    assert evaluate(parse("i*i")) == HyperComplex(-1)
    assert evaluate(parse("dot(e0,e0)")) == 1.0
    assert evaluate(parse("dot(e3,e3)")) == -1.0
    assert str(evaluate(parse("wedge(e1, e2)"))) == "-i*s3"
    assert str(evaluate(parse("commutator(s1, s2)"))) == "2*i*s3"
    # a real-valued hypercomplex argument counts as a real
    assert str(evaluate(parse("rot(j*j, 0, 0)"))) \
        == "0.87758256189 - 0.479425538604*i*s1"


def test_eval_spinor_product_value():
    got = evaluate(parse("norm2(sprod(spinor(0.3,1.1,0.7), spinor(0,0,0)))"))
    assert isinstance(got, HyperComplex)
    assert abs(got.x - math.cos(0.55) ** 2) < 1e-12
    assert abs(got.w) < 1e-12


def test_eval_involution_functions():
    assert evaluate(parse("bar(1 + i + j + ij)")) == HyperComplex(1, -1, -1, 1)
    assert evaluate(parse("rev(i)")) == HyperComplex(0, -1)
    assert evaluate(parse("grad(j)")) == HyperComplex(0, 0, -1)
    assert evaluate(parse("bar(e1)")) == evaluate(parse("-e1"))
    for name in ("bar", "rev", "grad"):
        assert evaluate(parse(f"{name}(2)")) == 2.0


def test_eval_exp_and_inverse():
    assert abs(evaluate(parse("exp(1)")) - math.e) < 1e-12
    got = evaluate(parse("exp(j)"))
    assert got.isclose(HyperComplex(math.cosh(1), 0, math.sinh(1)), 1e-12)
    assert evaluate(parse("inv(2)")) == HyperComplex(0.5)
    got = evaluate(parse("inv(s1)"))
    assert isinstance(got, Multivector)


def test_eval_type_errors():
    with pytest.raises(EvalTypeError):
        evaluate(parse("dot(s1, e0)"))
    with pytest.raises(EvalTypeError):
        evaluate(parse("norm2(e1)"))
    with pytest.raises(EvalTypeError):
        evaluate(parse("boost(1, 2, j)"))
    with pytest.raises(EvalTypeError):
        evaluate(parse("sprod(s1, e0)"))
    with pytest.raises(EvalTypeError):
        evaluate(parse("exp(1, 2)"))


# -- subcommands ---------------------------------------------------------------

def test_cli_eval_exp_of_a_large_phase(capsys):
    # exp(i t) has modulus 1 however large t is
    assert run(capsys, "eval", "exp(1e17*i)") == \
        (0, "-0.885557328298 - 0.464530104835*i\n", "")


def test_cli_eval_exit_codes(capsys):
    assert run(capsys, "eval", "j*j")[0] == 0
    code, _, err = run(capsys, "eval", "1 + * 2")
    assert code == 2 and "offset 4" in err
    code, _, err = run(capsys, "eval", "inv(1+j)")
    assert code == 3 and "null cone" in err
    code, _, err = run(capsys, "eval", "dot(s1, s1)")
    assert code == 2


def test_cli_no_finite_result_exit_code(capsys):
    cases = (
        (("eval", "boost(0,0,2000)"), "range error"),           # OverflowError
        (("cross-section", "--xi", "2000"), "range error"),
        (("eval", "exp(1e400*s1)"), "did not settle"),          # NoConvergence
        (("eval", "exp(1.5e308*s1 + 1.5e308*s2)"), "beyond the float range"),
        (("eval", "1e400*e1"), "nan"),                          # NaN result
        (("eval", "1e308 + 1e308*j", "--json"), "inf"),         # inf result
        (("spinor", "--phi", "nan"), "nan"),
        # a membership guard that meets a NaN
        (("transform", "--boost", "0,0,1400", "--vector", "1,0,0,0"),
         "residual nan outside the paravector span"),
        (("cross-section", "--phi", "nan"), "residual nan"),
        (("eval", "sprod(spinor(1e400*0, 0, 0), 1)"), "residual nan"),
        (("eval", "dot(1e400*e1 - 1e400*e1, e0)"), "residual nan"),
        # math.cos and math.sin refuse an infinite angle as a math domain
        # error; the message names the option, or the offset, and the value
        (("spinor", "--theta", "inf"), "infinite angle: --theta inf\n"),
        (("cross-section", "--phi=-inf"), "infinite angle: --phi -inf\n"),
        (("transform", "--vector", "1,0,0,0", "--rotate", "inf,0,0"),
         "infinite angle: --rotate inf\n"),
        (("eval", "rot(1e400, 0, 0)"), "infinite angle: inf at offset 4\n"),
        # the first infinite angle is named, also after a NaN one
        (("spinor", "--phi", "nan", "--theta", "inf"),
         "infinite angle: --theta inf\n"),
        (("transform", "--vector", "1,0,0,0", "--rotate", "nan,inf,0"),
         "infinite angle: --rotate inf\n"),
        (("eval", "spinor(0*1e400, 1e400, 0)"),
         "infinite angle: inf at offset 16\n"),
        # finite components whose norm is past the float range: the
        # largest is named
        (("transform", "--vector", "1,0,0,0", "--rotate", "1.3e308,1.3e308,0"),
         "infinite angle: --rotate 1.3e+308\n"),
        (("eval", "rot(1.3e308, 1.3e308, 0)"),
         "infinite angle: 1.3e+308 at offset 4\n"),
    )
    for argv, detail in cases:
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert out == "" and err.startswith("error: no finite result") \
            and detail in err, (argv, err)
    # an infinite scalar slot beside a finite residual: the scalar guard
    # reads NaN, not the slot's own inf
    for argv in (("eval", "(1e400 + (sprod(-e0, 1e308) - -(1e-100)))",
                  "--json"),
                 ("eval", "-(sprod(1.5707963, 1e308)) + "
                          "sprod((-1e400 - 1e-310), e3 + .25)")):
        assert run(capsys, *argv) == (
            4, "", "error: no finite result: non-scalar residual nan in "
                   "spinor product\n"), argv


def test_cli_spinor_check_tolerance_scales(capsys):
    # components near cosh(11) ~ 3e4 differ between the two routes by a few
    # eps of that size, far above a bare 1e-12 and within the scaled bound
    code, out, err = run(capsys, "spinor", "--phi", "0.3", "--theta", "0.3",
                         "--xi", "22", "--check")
    assert code == 0 and err == "" and out.startswith("s ")
    code, out, err = run(capsys, "spinor", "--phi", "nan", "--check")
    assert code == 1 and out == ""
    assert "error nan exceeds tolerance" in err and "cosh(xi/2) = 1" in err


def test_cli_spinor_check_failure_message(capsys, monkeypatch):
    # a product route whose boost is off by 1e-6 in xi misses by a finite
    # amount, far above the bound
    from hypalg import checks
    real = checks.boost
    monkeypatch.setattr(checks, "boost",
                        lambda r: real((r[0], r[1], r[2] + 1e-6)))
    assert run(capsys, "spinor", "--phi", "0.7", "--theta", "1.1", "--xi", "2",
               "--check") == (
        1, "", "check failed: max component error 6.179e-07 exceeds "
               "tolerance 5.482e-15 (16 eps at scale cosh(xi/2) = 1.54308)\n")


def test_import_does_not_load_numpy():
    # the import budget of every hypalg command: numpy loads only for
    # matrix_of, json only for --json, cmath only for exp, hypalg.checks only
    # for verify and spinor --check, argparse (which brings gettext and
    # locale) only for help and errors, and no value class needs dataclasses
    # (which brings inspect)
    src = str(Path(hypalg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypalg.cli; assert 'numpy' not in sys.modules; "
         "print(*sorted({'argparse', 'cmath', 'dataclasses', 'gettext',"
         " 'hypalg.checks', 'inspect', 'json', 'locale'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], proc.stdout


# Runs each command in one child and prints whether it loaded hypalg.checks,
# unloading it again before the next command.
CHECKS_LOADED_BY = """
import io, sys
from contextlib import redirect_stdout
import hypalg
from hypalg.cli import main
for argv in (["eval", "j*j"], ["transform", "--vector", "1,0,0,0"],
             ["cross-section"], ["verify"], ["spinor", "--check"]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print("hypalg.checks" in sys.modules)
    sys.modules.pop("hypalg.checks", None)
    hypalg.__dict__.pop("checks", None)
"""


def test_only_verify_and_spinor_check_load_checks():
    src = str(Path(hypalg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHECKS_LOADED_BY],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 3 + ["True"] * 2


# The hypalg modules each command loads as `python -m hypalg.cli`: the package
# brings hypernum and cayley, and the rest load only where a command uses
# them.  hypalg.cli runs as __main__ and is never imported a second time.
_PACKAGE = ("hypalg", "hypalg.hypernum", "hypalg.cayley")
MODULES_LOADED_BY = (
    (["eval", "j*j"], ("hypalg.expr",)),
    (["eval", "exp(2)*bar(e1)"], ("hypalg.expr",)),
    (["eval", "boost(0.1,0.2,0.3)"], ("hypalg.expr", "hypalg.lorentz")),
    (["eval", "exp(e1)"], ("hypalg.expr", "hypalg.lorentz")),
    (["eval", "sprod(spinor(0.1,0.2,0.3), spinor(0,0,0))"],
     ("hypalg.expr", "hypalg.lorentz", "hypalg.spinor")),
    (["transform", "--vector", "1,0,0,0"], ("hypalg.lorentz",)),
    (["spinor"], ("hypalg.lorentz", "hypalg.spinor")),
    (["cross-section"], ("hypalg.lorentz", "hypalg.spinor")),
    (["spinor", "--check"],
     ("hypalg.lorentz", "hypalg.spinor", "hypalg.checks")),
    (["verify"], ("hypalg.lorentz", "hypalg.spinor", "hypalg.checks")),
)


# What argparse brings: a plain command line is read without it.
_ARGPARSE = {"argparse", "gettext", "locale"}


def _run_importtime(argv):
    """(exit code, stdout, stderr without its import lines, modules imported)
    of `python -X importtime -m hypalg.cli argv`; -X importtime logs every
    module the child imports, once, by name."""
    src = str(Path(hypalg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hypalg.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"},
        capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:") and "|" in line}
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, imported


@pytest.mark.parametrize("argv, loads", MODULES_LOADED_BY,
                         ids=[" ".join(argv) for argv, _ in MODULES_LOADED_BY])
def test_each_command_loads_only_its_modules(argv, loads):
    code, _, err, imported = _run_importtime(argv)
    assert code == 0, err
    assert {m for m in imported if m.split(".")[0] == "hypalg"} \
        == {*_PACKAGE, *loads}
    assert "hypalg.cli" not in imported
    assert not imported & _ARGPARSE


TRANSFORM_USAGE = (
    "usage: hypalg transform [-h] [--boost BX,BY,BZ] [--rotate AX,AY,AZ] "
    "--vector\n                        X0,X1,X2,X3 [--json]\n")
ARGPARSE_READS = (
    (["eval", "-h"], 0,
     "usage: hypalg eval [-h] [--json] expr\n\npositional arguments:\n"
     "  expr\n\noptions:\n  -h, --help  show this help message and exit\n"
     "  --json\n", ""),
    (["transform", "--bogus"], 2, "",
     TRANSFORM_USAGE + "hypalg transform: error: the following arguments "
     "are required: --vector\n"),
)


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_READS,
                         ids=[" ".join(argv) for argv, *_ in ARGPARSE_READS])
def test_help_and_errors_load_argparse(argv, code, out, err):
    *got, imported = _run_importtime(argv)
    assert got == [code, out, err]
    assert _ARGPARSE <= imported


def test_cli_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "e1", "--json")
    doc = json.loads(out)
    assert doc["kind"] == "multivector" and len(doc["coeffs"]) == 16
    assert doc["basis"][9] == "j*s1" and doc["coeffs"][9] == 1.0
    doc = json.loads(run(capsys, "eval", "j*j", "--json")[1])
    assert doc["kind"] == "hypercomplex" and doc["coeffs"] == [1.0, 0, 0, 0]
    doc = json.loads(run(capsys, "eval", "dot(e0,e0)", "--json")[1])
    assert doc["kind"] == "real" and doc["coeffs"] == [1.0]
    # numbers are rounded to 12 significant digits, as the text is
    doc = json.loads(run(capsys, "eval", "0.1 + 0.2", "--json")[1])
    assert doc["coeffs"] == [0.3]


def test_cli_transform(capsys):
    code, out, _ = run(capsys, "transform", "--boost", "0,0,1.2",
                       "--vector", "1,0,0,0")
    assert code == 0
    got = [float(p) for p in out.split()]
    assert abs(got[0] - math.cosh(1.2)) < 1e-10
    assert abs(got[3] - math.sinh(1.2)) < 1e-10

    # rotation is applied before the boost
    code, out, _ = run(capsys, "transform", "--rotate", "0,0,1.5707963267948966",
                       "--boost", "0,0,0.5", "--vector", "0,1,0,0", "--json")
    doc = json.loads(out)
    assert doc["kind"] == "fourvector"
    assert abs(doc["coeffs"][2] - 1.0) < 1e-9 and abs(doc["coeffs"][1]) < 1e-9

    code, _, err = run(capsys, "transform", "--vector", "1,0,0")
    assert code == 2


def test_cli_spinor_views(capsys):
    code, out, _ = run(capsys, "spinor", "--phi", "0.7", "--theta", "1.1",
                       "--xi", "0.9", "--even", "--check", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"s", "b32", "b13", "b21", "b10", "b20", "b30", "p"}

    code, out, _ = run(capsys, "spinor", "--phi", "0.7", "--theta", "1.1",
                       "--xi", "0.9", "--odd", "--json")
    odd = json.loads(out)
    assert odd["v"][0] == doc["s"] and odd["eta"][0] == doc["p"]
    assert odd["v"][1:] == [doc["b10"], doc["b20"], doc["b30"]]
    assert odd["eta"][1:] == [doc["b32"], doc["b13"], doc["b21"]]

    code, out, _ = run(capsys, "spinor", "--phi", "0.7", "--theta", "1.1",
                       "--xi", "0.9", "--column", "--json")
    col = json.loads(out)
    assert col["c1"] == [doc["s"], doc["b21"], doc["b30"], doc["p"]]


def test_cli_cross_section_values(capsys):
    code, out, _ = run(capsys, "cross-section", "--phi", "1.3", "--theta",
                       "0.6", "--xi", "2.0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["re"] - math.cos(0.3) ** 2) < 1e-9
    assert abs(doc["mott"] - math.cos(0.3) ** 2) < 1e-9
    assert doc["mott"] == float(f"{math.cos(0.3) ** 2:.12g}")


def test_cli_verify(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok ") >= 52  # 9 sign rows + 16 metric pairs + 27 brackets


def test_cli_verify_bracket_failure_reports_margin(capsys, monkeypatch):
    # perturb the second bracket computed, [J1, K1], whose wanted value is 0
    from hypalg import S3, checks
    for perturbation, measured in ((3e-13, "3.000e-13"), (math.nan, "nan")):
        calls = []

        def commutator(a, b, real=checks.commutator):
            calls.append((a, b))
            got = real(a, b)
            return got + S3 * perturbation if len(calls) == 2 else got

        monkeypatch.setattr(checks, "commutator", commutator)
        code, out, err = run(capsys, "verify")
        monkeypatch.undo()
        assert code == 1 and err == "1 check(s) failed\n"
        assert [line for line in out.splitlines() if not line.startswith("ok ")] \
            == [f"FAIL bracket [J,K] indices (1,1): max_abs(got - want) "
                f"{measured} > tol 1e-14"]


def test_cli_values_that_begin_with_dash(capsys):
    # argparse alone reads these values as options ("expected one
    # argument"); each must act as its --opt=value or "eval --" form
    cases = (
        (("eval", "-(e3)"), ("eval", "--", "-(e3)")),
        (("eval", "-(e3)", "--json"), ("eval", "--json", "--", "-(e3)")),
        (("eval", "--json", "-(e3)"), ("eval", "--json", "--", "-(e3)")),
        (("transform", "--vector", "-1,0,0,0"),
         ("transform", "--vector=-1,0,0,0")),
        (("transform", "--vec", "-1,0,0,0"),
         ("transform", "--vector=-1,0,0,0")),
        (("transform", "--boost", "-1,0,0", "--vector", "1,0,0,0"),
         ("transform", "--boost=-1,0,0", "--vector=1,0,0,0")),
        (("spinor", "--xi", "-1e-3"), ("spinor", "--xi=-1e-3")),
        (("cross-section", "--theta", "-inf"),
         ("cross-section", "--theta=-inf")),
    )
    for argv, plain in cases:
        got = run(capsys, *argv)
        assert got == run(capsys, *plain), argv
        assert "expected one argument" not in got[2] and "usage" not in got[2]
    assert run(capsys, "eval", "-(e3)")[1] == "-j*s3\n"
    assert run(capsys, "transform", "--vector", "-1,0,0,0")[1] == "-1 0 0 0\n"
    assert run(capsys, "spinor", "--xi", "-1e-3")[0] == 0
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "-h"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage")


def test_cli_dash_value_in_a_child_process():
    src = str(Path(hypalg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hypalg.cli", "transform", "--vector",
         "-1,0,0,0", "--boost", "-1e-3,0,0"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split()[0] == "-1.0000005"


def test_cli_comma_lists_name_their_option(capsys):
    for option, text, n in (("--vector", "1,0,0", 4), ("--boost", "1,0", 3),
                            ("--rotate", "0,0,0,1", 3)):
        argv = ["transform", "--vector", "1,0,0,0", option, text]
        assert run(capsys, *argv) == (
            2, "", f"error: {option} needs {n} comma-separated values: "
                   f"{text!r}\n")


def test_cli_extreme_magnitudes(capsys):
    assert run(capsys, "transform", "--vector", "1e308,0,0,0") \
        == (0, "1e+308 0 0 0\n", "")
    for expr, out in (("inv(1e-100)", "1e+100\n"), ("inv(1e100)", "1e-100\n"),
                      ("inv(1e100*s1)", "1e-100*s1\n")):
        assert run(capsys, "eval", expr) == (0, out, ""), expr
    # the constructor's x + v overflows: out of the views' reach
    assert run(capsys, "eval", "1e308 + 1e308*j")[0] == 4
    assert run(capsys, "eval", "inv(1e308 + 1e308*j)")[0] == 3
    assert run(capsys, "eval", "inv(1e-310)")[0] == 4
    # the angle's squares overflow, the angle does not
    assert run(capsys, "transform", "--vector", "1,0,0,0", "--rotate",
               "1e200,0,0") == (0, "1 0 0 0\n", "")
    code, out, err = run(capsys, "spinor", "--phi", "1e308", "--check")
    assert (code, err) == (0, "") and out.startswith("s ")


def test_cli_cross_section_on_the_entries(capsys):
    # cos^2(0.55) = 0.726798060713 at xi = 40, where the value on the Pauli
    # coefficients printed re 0; the null boost's image is e^{-20}
    assert run(capsys, "cross-section", "--phi", "0.7", "--theta", "1.1",
               "--xi", "40") == (0, "re 0.726798060713\nij 0\n"
                                    "mott 0.726798060713\n", "")
    assert run(capsys, "transform", "--boost", "0,0,20", "--vector",
               "1,0,0,-1") == (0, "2.06115362244e-09 0 0 -2.06115362244e-09\n",
                               "")


def test_cli_cross_section_at_the_overflow_edge(capsys):
    # e^{|xi|/2} leaves the float range from |xi| = 1419.565425786768 on:
    # up to there cross-section prints cos^2(theta/2), with an ij part
    # within K eps of 0, beyond it exit 4, never a NaN or a 0 with exit 0
    edge = 1419.565425786768
    for k in range(401):
        for xi in (1418.0 + 0.01 * k, -1418.0 - 0.01 * k, edge, -edge,
                   math.nextafter(edge, math.inf)):
            got = run(capsys, "cross-section", "--phi", "0.7", "--theta",
                      "1.1", "--xi", repr(xi))
            if abs(xi) <= edge:
                code, out, err = got
                re, ij, mott = out.splitlines()
                assert (code, re, mott, err) == (0, "re 0.726798060713",
                                                 "mott 0.726798060713", ""), xi
                assert abs(float(ij.split()[1])) <= 16 * 2.0 ** -52, xi
            else:
                assert got == (4, "", "error: no finite result: math range "
                                      "error\n"), xi


GOLDEN_CROSS_SECTION = "re 0.500000013397\nij 0\nmott 0.500000013397\n"
GOLDEN_SPINOR_EVEN = ("s 1\nb32 0\nb13 0\nb21 0\nb10 0\nb20 0\nb30 0\np 0\n")


def test_cli_golden_outputs(capsys):
    runs = [run(capsys, "cross-section", "--theta", "1.5707963", "--xi", "0",
                "--phi", "0")[1] for _ in range(2)]
    assert runs[0] == runs[1] == GOLDEN_CROSS_SECTION

    runs = [run(capsys, "spinor", "--phi", "0", "--theta", "0", "--xi", "0",
                "--even")[1] for _ in range(2)]
    assert runs[0] == runs[1] == GOLDEN_SPINOR_EVEN

    assert run(capsys, "verify")[0] == 0


def _same_results():
    """tools/same_results.py, which owns the transcript's commands."""
    path = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
    spec = importlib.util.spec_from_file_location("same_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_transcript(monkeypatch):
    # tests/cli_transcript.txt holds the digest of stdout, stderr and exit
    # code of each command; `python tools/same_results.py --transcript`
    # rewrites it when output changes on purpose
    same_results = _same_results()
    monkeypatch.setenv("COLUMNS", "80")
    header, *want = Path(same_results.TRANSCRIPT).read_text(
        encoding="utf-8").splitlines()
    got = same_results.transcript_lines(main)
    assert len(got) == len(want)
    differ = [line.split(" ", 1)[1] for line, old in zip(got, want)
              if line != old]
    assert not differ, (f"{len(differ)} commands differ; transcript written "
                        f"with {header[2:]}, run with "
                        f"{same_results.transcript_header()[2:]}", differ[:10])


def _namespace(args) -> dict:
    """vars(args) with each float as its repr, so that NaN equals NaN."""
    return {key: repr(value) if isinstance(value, float) else value
            for key, value in vars(args).items()}


def test_plain_reader_reads_as_argparse_does():
    # every transcript command, 3,200 seeded ones and eval's expression
    # after one '--': _read_plain declines a command line or gives exactly
    # argparse's namespace for it
    from hypalg.cli import _build_parser, _dash_values, _read_plain
    same_results = _same_results()
    parser = _build_parser()
    accepted = 0
    dashed = [["eval", "--", "-j*j"], ["eval", "-j*j"], ["eval", "-(e3)"],
              ["eval", "--json", "--", "-j"], ["eval", "-j", "--json"],
              ["eval", "--", "j"], ["eval", "--", "--json"], ["eval", "--", "-h"],
              ["eval", "--", "--"], ["eval", "--", ""]]
    for argv in (same_results.cli_commands(same_results.N_TRANSCRIPT)
                 + same_results.cli_commands(3200) + dashed):
        argv = _dash_values(argv)
        args = _read_plain(argv)
        if args is not None:
            accepted += 1
            assert _namespace(args) == _namespace(parser.parse_args(argv)), \
                argv
    assert accepted == 4047


def test_plain_reader_declines_what_argparse_owns():
    from hypalg.cli import _build_parser, _dash_values, _read_plain
    for argv in (["-h"], ["--help"], ["eval", "-h"], ["spinor", "--help"],
                 ["eval", "--"], ["eval", "--", "x", "y"],
                 ["eval", "x", "--", "y"], ["eval", "x", "--"],
                 ["spinor", "--", "1"], ["spinor", "--ph", "1"], ["transform", "--vec=1,0,0,0"],
                 ["spinor", "--bogus"], ["spinor", "--json=1"],
                 ["spinor", "--even", "--odd"], ["spinor", "--phi", "x"],
                 ["transform"], ["eval"], ["eval", "j", "i"], ["verify", "x"],
                 ["verify", "--json"], ["spinor", "--phi"], [], ["bogus"]):
        assert _read_plain(_dash_values(argv)) is None, argv
    # every form that cli_cold's commands take, and the same with
    # `--opt value` and values that begin with '-'
    parser = _build_parser()
    for argv in (
            ["eval", "12*j*j - 7"], ["eval", "boost(0.1,-0.2,0.3)", "--json"],
            ["eval", "--json", "inv(3*(1+j))"], ["eval", "4 +"],
            ["transform", "--rotate=0.1,-0.2,0.3", "--boost=-1,0,0",
             "--vector=1,0,0,0"],
            ["transform", "--rotate=0,0,0", "--boost=0.5,0,0",
             "--vector=-1,0,0,0", "--json"],
            ["transform", "--vector", "-1,0,0,0", "--boost", "0,0,1.2"],
            ["spinor", "--phi=0.7", "--theta=1.1", "--xi=-0.9", "--even",
             "--check"],
            ["spinor", "--phi=0.7", "--theta=1.1", "--xi=0.9", "--odd",
             "--check", "--json"],
            ["spinor", "--phi", "0.7", "--theta", "1.1", "--xi", "-0.9",
             "--column", "--check"],
            ["cross-section", "--phi=1.3", "--theta=0.6", "--xi=2.0"],
            ["cross-section", "--phi", "-1.3", "--theta", "nan", "--json"],
            ["verify"]):
        argv = _dash_values(argv)
        args = _read_plain(argv)
        assert args is not None, argv
        assert _namespace(args) == _namespace(parser.parse_args(argv)), argv
