"""Pieces every workload shares: the check tally, error bounds, child
processes, the host-speed reference and the run metadata."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EPS = sys.float_info.epsilon

clock = time.perf_counter


def ratio(got: float, want: float, tol: float) -> float:
    """|got - want| / tol; NaN and inf read as an infinite miss."""
    r = abs(got - want) / tol
    return r if math.isfinite(r) else math.inf


def round_tol(want: float) -> float:
    """Half a unit in the 12th significant digit: what `%.12g` may lose."""
    if want == 0.0 or not math.isfinite(want):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 11)


class Workload:
    """What the measuring loop needs from a workload.

    Subclasses define `name`, `setup_code` (run in a fresh interpreter to
    time set-up), `inputs()`, `op(inp)`, `check(inp, out)` returning the
    worst error ratio, and `corrupt(out)` for the self-test.
    """

    in_process = True  # ops run in this process, so the tracer can wrap them
    WINDOW = 2  # references around an op that set its host speed: before and after it
    REF_NOMINAL_S = 0.2e-3  # host_ref() on a quiet host: what times are scaled to
    SUBTRACT_REF = False  # op time is wall time less the reference (cli_cold)
    PER_BLOCK = True  # timing figures are medians of per-block figures, else pooled

    def reference(self) -> float:
        """Seconds of a fixed piece of work, timed after every op."""
        return host_ref()

    def op_seconds(self, walls: list[float], refs: list[float],
                   scaled: bool = True) -> list[float]:
        """Per-op seconds, each scaled by the host speed around it.

        On a shared host an op runs at the neighbours' mercy: on a 2-vCPU
        VM the same op ran at two speeds about 1.8x apart, in spells from
        one op to whole minutes long.  The reference timed after each op
        slows down with it.  `refs[i]` follows op i, so the WINDOW
        references from `refs[i - WINDOW // 2]` on surround op i, and op i's
        time is multiplied by REF_NOMINAL_S over their median: the time the
        op would take on a host where the reference takes REF_NOMINAL_S.
        A change to hypalg moves the op and not the reference, so it moves
        the scaled time in full.
        """
        out = []
        before = self.WINDOW // 2
        for i, wall in enumerate(walls):
            ref = statistics.median(refs[max(0, i - before):i - before + self.WINDOW])
            base = ref if self.SUBTRACT_REF else 0.0
            out.append((wall - base) * (self.REF_NOMINAL_S / ref if scaled else 1.0))
        return out

    def probe(self, inp, out, tracer) -> float:
        """Traced runs only: extra timed calls beside the op; an error ratio."""
        return 0.0


class Tally:
    """Counts attempted ops and misses; keeps every finite error ratio.

    An op passes when its check returns a ratio <= 1 (every measured error
    within its scaled bound).  An exception or a ratio above 1, NaN
    included, is a miss.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ratios = array("d")
        self.notes: list[str] = []

    def record(self, label: str, outcome) -> bool:
        self.attempted += 1
        if isinstance(outcome, BaseException):
            note = f"{label}: unexpected {type(outcome).__name__}: {outcome}"
        elif outcome <= 1.0:
            self.ratios.append(outcome)
            return True
        else:
            if math.isfinite(outcome):
                self.ratios.append(outcome)
            note = f"{label}: error {outcome:.3g} x its bound"
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)
        return False


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_python(args: list[str], timeout: float = 60.0):
    """Run a fresh interpreter on the source tree; (wall s, exit, out, err).

    `subprocess.run` waits for the child, and kills and reaps it on timeout.
    """
    t0 = clock()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    return clock() - t0, proc.returncode, proc.stdout, proc.stderr


BARE_NOMINAL_S = 0.060  # `python -c pass` on a quiet host: what child times are scaled to


def bare_start() -> float:
    """Wall seconds of a bare `python -c pass`: the reference for child processes."""
    wall, code, _, err = run_python(["-c", "pass"])
    if code != 0:
        raise RuntimeError(f"python -c pass failed: {err.decode()[-300:]}")
    return wall


@dataclass(frozen=True, slots=True)
class _Quad:
    """A four-float value object, like the library's own, defined here so
    that no change to hypalg changes the reference work."""

    x: float
    y: float
    v: float
    w: float

    def __mul__(self, o: "_Quad") -> "_Quad":
        return _Quad(self.x * o.x - self.y * o.y + self.v * o.v - self.w * o.w,
                     self.x * o.y + self.y * o.x + self.v * o.w + self.w * o.v,
                     self.x * o.v + self.v * o.x - self.y * o.w - self.w * o.y,
                     self.x * o.w + self.w * o.x + self.y * o.v + self.v * o.y)

    def __add__(self, o: "_Quad") -> "_Quad":
        return _Quad(self.x + o.x, self.y + o.y, self.v + o.v, self.w + o.w)


def host_ref() -> float:
    """Seconds of a fixed chain of _Quad products; tracks host speed, not hypalg.

    It allocates small objects and does float arithmetic through method
    calls, as hypalg does, so a host slow-down that hits the ops hits it too.
    """
    t0 = clock()
    a, b, acc = _Quad(0.6, 0.8, 0.0, 0.0), _Quad(0.8, -0.6, 0.0, 0.0), _Quad(0.0, 0.0, 0.0, 0.0)
    for i in range(30):
        c = (a * b, b * a)
        acc = acc + c[0] + c[1]
        a, b = b, c[i & 1]
    return clock() - t0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypalg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "src_sha256": _src_digest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
    }


def emit(meta: dict, metrics: dict[str, tuple[float, str]], tally: Tally,
         extra: dict[str, tuple[float, str]]) -> None:
    """Print the metadata, one line per metric, then the result object.

    `extra` holds figures printed beside the metrics but left out of the
    result (they are not gated).
    """
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    for note in tally.notes:
        print(f"miss {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
