"""The hypalg benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload xsec_grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run it from a checkout: it imports hypalg from `src/` and starts CLI
children as `python -m hypalg.cli` with `src` on PYTHONPATH.  With
`--trace 0` it prints the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones; the last line of stdout is the result
object.  `--smoke` runs every workload briefly in both modes, checks the
names and units against BENCHMARK.json, and checks that an injected wrong
value and an injected exception are both counted as misses.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys

from common import (BARE_NOMINAL_S, ROOT, SRC, Tally, bare_start, clock, emit, metadata,
                    quantile, run_python)

WORKLOADS = ("xsec_grid", "lorentz_frames", "cli_cold")
BLOCKS = 10
SETUP_REPEATS = 11


def make_workload(name: str, seed: int):
    if name == "cli_cold":
        from cli_cold import CliCold
        return CliCold(seed)
    from library import LorentzFrames, XsecGrid
    return {"xsec_grid": XsecGrid, "lorentz_frames": LorentzFrames}[name](seed)


class Run:
    """Closed loop, one caller: the next op starts when the last returns.

    After every op, outside its timing, the workload's reference work is
    timed; `Workload.op_seconds` scales each op by it.  A run is BLOCKS
    blocks of equal wall time.  Each timing figure is the median of its
    values per block, so a slow spell that the scaling does not cancel
    moves at most a few blocks.
    """

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.tally = Tally()
        self.blocks: list[tuple[bool, list[float], list[float]]] = []  # (traced, walls, refs)

    def _one(self, inp, traced: bool) -> float:
        w, tracer = self.w, self.tracer
        if traced:
            tracer.in_op = True
        t0 = clock()
        try:
            out = w.op(inp)
        except Exception as exc:  # counted as a miss, the run goes on
            out = exc
        wall = clock() - t0
        if traced:
            tracer.in_op = False
        if isinstance(out, Exception):
            outcome = out
        else:
            try:
                outcome = w.check(inp, out)
                if traced:
                    outcome = max(outcome, w.probe(inp, out, tracer))
            except Exception as exc:
                outcome = exc
        self.tally.record(f"{w.name} op {self.tally.attempted}", outcome)
        return wall

    def measure(self, seconds: float) -> None:
        """In a traced run every other block is traced."""
        inputs = self.w.inputs()
        start = clock()
        for b in range(BLOCKS):
            traced = self.tracer is not None and b % 2 == 1
            patch = self.tracer.patched() if traced and self.w.in_process \
                else contextlib.nullcontext()
            block_end = start + seconds * (b + 1) / BLOCKS
            walls: list[float] = []
            refs: list[float] = []
            with patch:
                while not walls or clock() < block_end:
                    walls.append(self._one(next(inputs), traced))
                    refs.append(self.w.reference())
            self.blocks.append((traced, walls, refs))

    def op_seconds(self, traced: bool, scaled: bool = True) -> list[float]:
        """Per-op times of the traced or the untraced blocks."""
        return [t for tr, walls, refs in self.blocks if tr == traced
                for t in self.w.op_seconds(walls, refs, scaled)]

    def ref_ms(self) -> float:
        return statistics.median(r for _, _, refs in self.blocks for r in refs) * 1e3

    def timing(self, prefix: str = "", scaled: bool = True) -> dict[str, tuple[float, str]]:
        """ops_per_s, op_ms_p50 and op_ms_p90 of the untraced blocks.

        Each is the median of its per-block values, or, for a workload with
        few ops a block, taken over the ops of all untraced blocks at once.
        """
        blocks = [self.w.op_seconds(walls, refs, scaled)
                  for traced, walls, refs in self.blocks if not traced]
        if not self.w.PER_BLOCK:
            blocks = [[t for b in blocks for t in b]]
        return {
            prefix + "ops_per_s": (statistics.median(len(b) / sum(b) for b in blocks), "1/s"),
            prefix + "op_ms_p50": (statistics.median(statistics.median(b) for b in blocks) * 1e3,
                                   "ms"),
            prefix + "op_ms_p90": (statistics.median(quantile(b, 0.9) for b in blocks) * 1e3,
                                   "ms"),
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {**self.timing(), "err_p99_rel": (quantile(self.tally.ratios, 0.99), "ratio")}


def setup_seconds(workload) -> tuple[float, float]:
    """Fresh interpreters that import and run one op: (scaled s, raw s).

    Each set-up is followed by a bare `python -c pass`.  The scaled figure
    is the median set-up time over the median bare start, times
    BARE_NOMINAL_S: the set-up time on a host where a bare start takes
    BARE_NOMINAL_S.
    """
    setups, bares = [], []
    for _ in range(SETUP_REPEATS):
        wall, code, _, err = run_python(["-c", workload.setup_code])
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.decode()[-300:]}")
        setups.append(wall)
        bares.append(bare_start())
    setup = statistics.median(setups)
    return setup / statistics.median(bares) * BARE_NOMINAL_S, setup


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = make_workload(name, seed)
    # A first child compiles the bytecode caches, so no timed run pays for it.
    run_python(["-c", "import hypalg.cli"])
    meta = metadata(name, seed, seconds, trace)
    if not trace:
        r = Run(workload)
        r.measure(seconds)
        metrics = r.end_to_end()
        setup, raw_setup = setup_seconds(workload)
        metrics["setup_s"] = (setup, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(workload), "MiB")
        extra = {**r.timing("raw.", scaled=False), "raw.setup_s": (raw_setup, "s")}
    else:
        from tracer import Tracer, import_budget
        r = Run(workload, Tracer())
        r.measure(seconds)
        raw = r.op_seconds(True, scaled=False)
        metrics = r.tracer.metrics(len(raw), sum(raw))
        metrics.update(import_budget())
        metrics["trace.overhead_frac"] = (
            statistics.median(r.op_seconds(True)) / statistics.median(r.op_seconds(False))
            - 1.0, "frac")
        metrics["host.ref_ms"] = (r.ref_ms(), "ms")
        extra = {}
    extra.update({"ops": (float(r.tally.attempted), "count"),
                  "fail_frac": (r.tally.failed / r.tally.attempted, "frac")})
    if not trace:
        extra["host.ref_ms"] = (r.ref_ms(), "ms")
    emit(meta, metrics, r.tally, extra)
    return 0


# -- smoke mode ----------------------------------------------------------------------


def _self_test(name: str) -> list[str]:
    """Inject a wrong value and an exception; both must count as misses."""
    w = make_workload(name, 1)
    inp = next(w.inputs())
    out = w.op(inp)
    tally = Tally()
    outcomes = [w.check(inp, out)]
    try:
        outcomes.append(w.check(inp, w.corrupt(out)))
    except Exception as exc:
        outcomes.append(exc)
    outcomes.append(RuntimeError("injected"))
    passed = [tally.record(f"self-test {k}", o) for k, o in enumerate(outcomes)]
    if passed != [True, False, False] or (tally.attempted, tally.failed) != (3, 2):
        return [f"{name}: self-test counted {tally.failed} of 2 injected misses ({passed})"]
    return []


def _smoke_run(spec: dict, name: str, trace: int) -> list[str]:
    argv = [sys.executable, __file__, "--workload", name, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        problems.append(f"{where}: result keys {list(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{where}: {result['attempted']} ops, {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("smoke: BENCHMARK.json lists other workloads", file=sys.stderr)
        return 1
    problems = []
    for name in WORKLOADS:
        problems += _self_test(name)
        for trace in (0, 1):
            problems += _smoke_run(spec, name, trace)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hypalg" / "__init__.py").is_file():
        print(f"no hypalg sources under {SRC}: run from a hypalg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
