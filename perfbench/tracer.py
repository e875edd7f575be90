"""Per-layer timing from outside the library.

`Tracer.patched()` wraps the public functions of each layer in place, for
the duration of a block, so that every call the op makes into a layer, at
any depth, is timed.  Nothing inside `src/` changes.  Spans are aggregated
as they close, so memory stays flat over a long run:

- `durations`: every call's inclusive time, for the median `.us`;
- `calls` / `fails`: calls made while an op runs, and calls that raised;
- `top`: inclusive time of calls made while no other traced call was open.
  Top-level time attributes each instant of an op to the outermost layer
  function the op was in, so the shares of one op sum to at most 1.
"""

from __future__ import annotations

import contextlib
import re
import statistics
import sys
from array import array

from common import clock, run_python

LIB_LAYERS = (
    "hypernum.mul", "hypernum.modulus_sq", "hypernum.inverse",
    "cayley.mul", "cayley.sym", "cayley.inverse",
    "lorentz.spin_transform", "lorentz.compose", "lorentz.apply",
    "lorentz.matrix_of",
    "spinor.from_rotor", "spinor.product_modulus_sq",
    "spinor.to_column", "spinor.sprod_column",
)
SUBCOMMANDS = ("eval", "transform", "spinor", "cross-section", "verify")
CLI_LAYERS = ("cli.parse", "cli.evaluate") + tuple(f"cli.main.{s}" for s in SUBCOMMANDS)
LAYERS = LIB_LAYERS + CLI_LAYERS


def _targets():
    """Layer name -> the (owner, attribute) pairs that implement it."""
    import hypalg
    from hypalg import cayley, lorentz, spinor

    hc, mv = hypalg.HyperComplex, hypalg.Multivector
    return {
        # HyperComplex.__rmul__ is the same function as __mul__.
        "hypernum.mul": [(hc, "__mul__"), (hc, "__rmul__")],
        "hypernum.modulus_sq": [(hc, "modulus_sq")],
        "hypernum.inverse": [(hc, "inverse")],
        # Multivector.__rmul__ calls __mul__, so wrapping __mul__ counts it once.
        "cayley.mul": [(mv, "__mul__")],
        "cayley.sym": [(cayley, "sym")],
        "cayley.inverse": [(mv, "inverse")],
        "lorentz.spin_transform": [(lorentz, "spin_transform")],
        "lorentz.compose": [(hypalg.Rotor, "__mul__")],
        "lorentz.apply": [(lorentz, "apply")],
        "lorentz.matrix_of": [(lorentz, "matrix_of")],
        "spinor.from_rotor": [(spinor, "from_rotor")],
        "spinor.product_modulus_sq": [(spinor, "product_modulus_sq")],
        "spinor.to_column": [(spinor, "to_column")],
        "spinor.sprod_column": [(spinor, "sprod_column")],
    }


class LayerStat:
    __slots__ = ("durations", "calls", "fails", "top")

    def __init__(self):
        self.durations = array("d")
        self.calls = 0
        self.fails = 0
        self.top = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: LayerStat() for name in LAYERS}
        self.in_op = False
        self.open = 0  # traced calls currently on the stack

    def record(self, name: str, dt: float, failed: bool, top: bool,
               counted: bool) -> None:
        st = self.stats[name]
        st.durations.append(dt)
        if counted:
            st.calls += 1
            st.fails += failed
            if top:
                st.top += dt

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            top = self.open == 0
            self.open += 1
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dt = clock() - t0
                self.open -= 1
                self.record(name, dt, failed, top, self.in_op)
        return traced

    def time_call(self, name: str, fn, *args, counted: bool = True):
        """Time one call the benchmark makes itself; re-raise what it raises.

        A counted call is work the op stands for; an uncounted one is a
        reference the benchmark times beside the op, so it adds only to `.us`.
        """
        top = self.open == 0
        self.open += 1
        failed = True
        t0 = clock()
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            dt = clock() - t0
            self.open -= 1
            self.record(name, dt, failed, top, counted)

    @contextlib.contextmanager
    def patched(self):
        """Route every binding of each layer function through a timer.

        Module-level functions are also rebound in every `hypalg` module and
        in the package namespace that imported them by name.
        """
        saved = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hypalg" or n.startswith("hypalg.")]
        try:
            for name, targets in _targets().items():
                wrappers = {}
                for owner, attr in targets:
                    orig = owner.__dict__[attr]
                    wrapper = wrappers.setdefault(id(orig), self._wrap(name, orig))
                    owners = [owner]
                    if not isinstance(owner, type):
                        owners = [m for m in modules if m.__dict__.get(attr) is orig]
                    for o in owners:
                        saved.append((o, attr, orig))
                        setattr(o, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def metrics(self, op_count: int, op_seconds: float) -> dict[str, tuple[float, str]]:
        """`.us`, `.calls`, `.fail` and `.share` for every layer.

        Layers the workload never reaches read 0.
        """
        out = {}
        per_op = 1.0 / op_count if op_count else 0.0
        for name in LAYERS:
            st = self.stats[name]
            us = statistics.median(st.durations) * 1e6 if st.durations else 0.0
            out[f"{name}.us"] = (us, "us")
            out[f"{name}.calls"] = (st.calls * per_op, "1/op")
            out[f"{name}.fail"] = (st.fails * per_op, "1/op")
            out[f"{name}.share"] = (st.top / op_seconds if op_seconds else 0.0, "frac")
        return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def _importtime(stmt: str) -> dict[str, tuple[int, float]]:
    """Module -> (depth, cumulative ms) from `python -X importtime -c stmt`."""
    _, code, _, err = run_python(["-X", "importtime", "-c", stmt])
    if code != 0:
        raise RuntimeError(f"`{stmt}` failed in a fresh interpreter")
    table = {}
    for line in err.decode().splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            table[m.group(4)] = (depth, int(m.group(2)) / 1e3)
    return table


def _hypalg_ms(table) -> float:
    """Cumulative time of the outermost `hypalg` entries of one import."""
    return sum(ms for mod, (depth, ms) in table.items()
               if (mod == "hypalg" or mod.startswith("hypalg.")) and depth == 0)


def import_budget(repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Median `-X importtime` figures for `import hypalg.cli` and `import hypalg`."""
    cli, numpy_ms, lib = [], [], []
    for _ in range(repeats):
        table = _importtime("import hypalg.cli")
        cli.append(_hypalg_ms(table))
        numpy_ms.append(table.get("numpy", (0, 0.0))[1])
        lib.append(_hypalg_ms(_importtime("import hypalg")))
    return {
        "cli.import.ms": (statistics.median(cli), "ms"),
        "cli.import_numpy.ms": (statistics.median(numpy_ms), "ms"),
        "cli.import_hypalg.ms": (statistics.median(lib), "ms"),
    }
