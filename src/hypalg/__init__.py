"""Hyperbolic-complex Clifford algebra with paravectors, rotors, and spinors.

The scalar and multivector names load with the package; the names of
``lorentz`` and ``spinor`` load with their module on first use (PEP 562), so
that a command which needs neither does not compile them.  The first access
to any name of such a module binds all of its names here at once, after
which each is a plain attribute of the package; once both are bound, the
module ``__getattr__`` removes itself.
"""

from importlib import import_module

from .hypernum import I, IJ, J, HyperComplex, ZeroDivisor
from .cayley import (E0, E1, E2, E3, PSEUDOSCALAR, S1, S2, S3, FourVector,
                     IndexOutOfRange, Multivector, NotAParavector, antisym,
                     embed, extract, minkowski_dot, sym, triparavector)

# The names each module that loads on first use gives the package.
_ON_FIRST_USE = {
    "lorentz": (
        "LorentzParams", "NoConvergence", "Rotor", "apply", "boost",
        "commutator", "exp_general", "generators", "matrix_of", "rotation",
        "spin_transform"),
    "spinor": (
        "ColumnSpinor", "EvenComponents", "HMat2", "NonScalarResidual",
        "NotInSpinorAlgebra", "OddComponents", "Spinor", "act",
        "even_components", "from_column", "from_even_components",
        "from_matrix", "from_multivector", "from_odd_components",
        "from_rotor", "mott_factor", "nonrel_vector", "odd_components",
        "product_modulus_sq", "sprod_algebraic", "sprod_column", "to_column",
        "to_matrix"),
}
_MODULE_OF = {name: module for module, names in _ON_FIRST_USE.items()
              for name in names}

__all__ = [
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

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _ON_FIRST_USE else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing binds the module itself here as well
    owner = vars(import_module(f".{module}", __name__))
    namespace = globals()
    namespace.update({key: owner[key] for key in _ON_FIRST_USE[module]})
    if namespace.keys() >= set(__all__):
        # Nothing is left to load.  CPython does not specialize attribute
        # reads on a module whose namespace holds __getattr__ (each read of
        # hypalg.name then costs about 20 ns more), so the hook goes.
        namespace.pop("__getattr__", None)  # two threads may both get here
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_ON_FIRST_USE})
