"""The package namespace: its public names, and which of them load on use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypalg

# hypalg.__all__, in its order, and the module that defines each name.
ALL = [
    "HyperComplex", "ZeroDivisor", "I", "J", "IJ",
    "Multivector", "FourVector", "NotAParavector", "IndexOutOfRange",
    "sym", "antisym", "triparavector", "embed", "extract", "minkowski_dot",
    "S1", "S2", "S3", "E0", "E1", "E2", "E3", "PSEUDOSCALAR",
    "LorentzParams", "Rotor", "NoConvergence", "rotation", "boost",
    "exp_general", "apply", "generators", "commutator", "spin_transform",
    "matrix_of",
    "Spinor", "ColumnSpinor", "HMat2", "EvenComponents", "OddComponents",
    "NotInSpinorAlgebra", "NonScalarResidual", "from_rotor",
    "from_multivector", "even_components", "from_even_components",
    "odd_components", "from_odd_components", "to_matrix", "from_matrix",
    "to_column", "from_column", "act", "sprod_column", "sprod_algebraic",
    "product_modulus_sq", "mott_factor", "nonrel_vector",
]
OWNER = {name: "hypernum" for name in ALL[:5]}
OWNER.update({name: "cayley" for name in ALL[5:23]})
OWNER.update({name: "lorentz" for name in ALL[23:34]})
OWNER.update({name: "spinor" for name in ALL[34:]})


def test_all_is_unchanged_and_each_name_is_its_modules_own():
    assert hypalg.__all__ == ALL
    for name in ALL:
        module = importlib.import_module(f"hypalg.{OWNER[name]}")
        assert getattr(hypalg, name) is vars(module)[name], name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(ALL) <= set(dir(hypalg))
    assert {"lorentz", "spinor"} <= set(dir(hypalg))
    with pytest.raises(AttributeError, match="'hypalg' has no attribute 'nope'"):
        hypalg.nope  # noqa: B018
    assert not hasattr(hypalg, "Nope")


def test_star_import_binds_everything():
    namespace = {}
    exec("from hypalg import *", namespace)
    assert {name: namespace[name] for name in ALL} \
        == {name: getattr(hypalg, name) for name in ALL}


def test_cli_keeps_the_expression_names():
    from hypalg import cli, expr
    from hypalg.cli import MAX_DEPTH, BinOp, parse
    assert (parse, BinOp, MAX_DEPTH) == (expr.parse, expr.BinOp, expr.MAX_DEPTH)
    with pytest.raises(AttributeError, match="'hypalg.cli' has no attribute"):
        cli.nope  # noqa: B018


# Run in a fresh interpreter, where nothing has touched lorentz or spinor yet.
FIRST_USE = """
import sys
import hypalg
lorentz = {LORENTZ!r}
spinor = {SPINOR!r}
loaded = lambda: sorted(m for m in sys.modules if m.startswith("hypalg."))
assert loaded() == ["hypalg.cayley", "hypalg.hypernum"], loaded()
assert not (set(lorentz) | set(spinor)) & set(vars(hypalg))
# an unknown name meets the hook's own refusal and loads nothing
try:
    hypalg.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'hypalg' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("hypalg.no_such_name")
assert loaded() == ["hypalg.cayley", "hypalg.hypernum"], loaded()
hypalg.boost
assert loaded() == ["hypalg.cayley", "hypalg.hypernum", "hypalg.lorentz"]
assert set(lorentz) <= set(vars(hypalg)), set(lorentz) - set(vars(hypalg))
assert not set(spinor) & set(vars(hypalg))
assert "__getattr__" in vars(hypalg)
from hypalg import Spinor
assert "hypalg.spinor" in sys.modules
assert set(spinor) <= set(vars(hypalg)), set(spinor) - set(vars(hypalg))
assert hypalg.spinor is sys.modules["hypalg.spinor"]
# with every name bound, the hook is gone and plain module lookup remains
assert "__getattr__" not in vars(hypalg)
assert set(dir(hypalg)) >= set(lorentz) | set(spinor)
try:
    hypalg.nope
except AttributeError as exc:
    assert str(exc) == "module 'hypalg' has no attribute 'nope'", exc
else:
    raise AssertionError("hypalg.nope")
print("ok")
"""


def test_lorentz_and_spinor_names_bind_together_on_first_use():
    lorentz = [name for name in ALL if OWNER[name] == "lorentz"]
    spinor = [name for name in ALL if OWNER[name] == "spinor"]
    src = str(Path(hypalg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         FIRST_USE.format(LORENTZ=lorentz, SPINOR=spinor)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
