"""Run perfbench on two commits, interleaved, and write a BENCH_<n>.json.

    python tools/bench_pairs.py PARENT CHANGE BENCH_<n>.json --trace xsec_grid

PARENT and CHANGE are git revisions of this repository.  Each is unpacked
with ``git archive`` into its own new directory, and ``perfbench/run.py``
runs there unchanged, for BENCHMARK.json's ``run_seconds``, one process at
a time, with the same seed for both sides of a pair.  ``PAIRS`` sets the
pairs per workload: ten on each, the fewest with which the reading rule can
call a metric better, so that any workload can carry a claimed gain.
Pairs are made in rounds, one pair per workload per round, and the side
that runs first alternates from pair to pair of each workload (the parent
in even rounds, the change in odd ones), so slow drift of the host and the
cost of running first fall on both sides alike.  The seeds are the change's revision read as a
number plus the round, so each change meets seeds that nobody chose.

The output keeps every run's meta line and result line as perfbench
printed them, and per workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the change over the parent, the number
of pairs each side won, and a reading by ``READING_RULE`` against the
metric's bound.  ``--trace W`` adds ``TRACE_PAIRS`` interleaved pairs of
``--trace 1`` runs of workload W, with each per-layer metric's median per
side and the pairs in which the change read lower or higher.  The exit
status is 0 when every run succeeded and every op of every run passed its
check.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = {"xsec_grid": 10, "lorentz_frames": 10, "cli_cold": 10}
TRACE_PAIRS = 3
READING_RULE = ("per end-to-end metric: better when there are at least 10 "
                "pairs, the change wins at least 9 in 10 of them and the "
                "medians differ by more than the parent's interquartile "
                "range; otherwise unresolved when the parent's interquartile "
                "range is wider than the metric's bound (relative to the "
                "parent's median) and some run of the change reads no better "
                "than some run of the parent; otherwise regression when the "
                "change's median is worse than the parent's by more than the "
                "bound, and within bound when it is not")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def checkout(rev: str, where: str) -> str:
    """The tree of rev, unpacked by git archive into a new directory."""
    path = os.path.join(where, rev[:12])
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(path)
    return path


def command(workload: str, seed, seconds: float, trace) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run(tree: str, argv: list[str]) -> dict:
    """One perfbench process in tree: its meta line and its result line."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=tree, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"meta": None, "result": None, "exit": proc.returncode}
    meta = next((json.loads(line)["meta"] for line in lines
                 if line.startswith('{"meta"')), None)
    return {"meta": meta, "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": median, "q1": q1, "q3": q3}


def reading(metric: dict, values: dict[str, list[float]], better: int,
            parent: dict, change: dict) -> str:
    """READING_RULE on one metric's runs, pair count and quartiles."""
    sign = 1 if metric["better"] == "higher" else -1
    pairs = len(values["parent"])
    spread = parent["q3"] - parent["q1"]
    apart = abs(change["median"] - parent["median"]) > spread
    if pairs >= 10 and better >= math.ceil(0.9 * pairs) and apart:
        return "better"
    separated = (min(sign * v for v in values["change"])
                 > max(sign * v for v in values["parent"]))
    if spread > metric["bound"] * abs(parent["median"]) and not separated:
        return "unresolved"
    worsening = -sign * (change["median"] - parent["median"])
    if worsening > metric["bound"] * abs(parent["median"]):
        return "regression"
    return "within bound"


def paired(runs: list[dict], workload: str, trace: int) -> tuple[int, list]:
    """The pairs of workload's runs at trace: how many were made, and the
    {side: result} of each pair whose two runs both succeeded."""
    pairs: dict[int, dict[str, dict]] = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
    return len(pairs), [p for p in pairs.values()
                        if all(p.get(side) is not None for side in SIDES)]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: ops that failed, and per end-to-end metric the
    quartiles of each side, the change over the parent and the reading."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        made, done = paired(runs, workload, 0)
        entry = {
            "pairs": len(done),
            "correct_all": len(done) == made
            and all(p[side]["correct"] for p in done for side in SIDES),
            "failed": {side: sum(p[side]["failed"] for p in done)
                       for side in SIDES},
        }
        for metric in metrics if len(done) > 1 else ():
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [p[side]["metrics"][name]["value"] for p in done]
                      for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            better = sum(sign * (c - p) > 0 for p, c in zip(*values.values()))
            worse = sum(sign * (c - p) < 0 for p, c in zip(*values.values()))
            entry[name] = {
                **stats,
                "change_over_parent": stats["change"]["median"]
                / stats["parent"]["median"],
                "bound": metric["bound"],
                "change_better_pairs": better,
                "change_worse_pairs": worse,
                "reading": reading(metric, values, better, *stats.values()),
            }
        summary[workload] = entry
    return summary


def summarize_trace(runs: list[dict], workload: str) -> dict:
    """Per metric of workload's traced pairs: each side's median and the
    pairs in which the change read lower or higher than the parent."""
    made, done = paired(runs, workload, 1)
    trace = {"workload": workload, "pairs": len(done),
             "correct_all": len(done) == made}
    for name in done[0]["parent"]["metrics"] if done else ():
        values = {side: [p[side]["metrics"][name]["value"] for p in done]
                  for side in SIDES}
        trace[name] = {
            "unit": done[0]["parent"]["metrics"][name]["unit"],
            **{side: statistics.median(values[side]) for side in SIDES},
            "change_lower_pairs": sum(c < p for p, c in zip(*values.values())),
            "change_higher_pairs": sum(c > p for p, c in zip(*values.values())),
        }
    return trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    parser.add_argument("--trace", metavar="WORKLOAD", choices=PAIRS,
                        help="add traced pairs of WORKLOAD, the workload "
                             "whose gain is claimed")
    parser.add_argument("--note", default="", help="kept as change_note")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    revs = {"parent": git("rev-parse", args.parent).decode().strip(),
            "change": git("rev-parse", args.change).decode().strip()}
    first_seed = int(revs["change"][:4], 16)
    rounds = [(workload, 0, count) for workload, count in PAIRS.items()]
    rounds += [(args.trace, 1, TRACE_PAIRS)] if args.trace else []
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as where:
        trees = {side: checkout(rev, where) for side, rev in revs.items()}
        for k in range(max(count for *_, count in rounds)):
            for workload, trace, count in rounds:
                if k >= count:
                    continue
                seed = first_seed + k
                sides = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in sides:
                    got = run(trees[side], command(workload, seed, seconds, trace))
                    runs.append({"order": len(runs) + 1, "side": side,
                                 "workload": workload, "seed": seed,
                                 "trace": trace, **got})
                    print(f"{len(runs):3d} {side:6} {workload:14} seed {seed} "
                          f"trace {trace}: "
                          f"{'ok' if got['result'] else 'exit ' + str(got['exit'])}",
                          file=sys.stderr, flush=True)
    out = {
        "what": "perfbench runs of the parent commit and of the "
                "change, interleaved one process at a time on one host, each "
                "side from its own clean checkout; each run keeps perfbench's "
                "meta line and result line as printed",
        "command": " ".join(command("W", "S", seconds, "T")),
        "parent": revs["parent"],
        "change": revs["change"],
        "change_note": args.note,
        "reading_rule": READING_RULE,
        "summary": summarize(runs, spec["end_to_end"]),
        **({"trace": summarize_trace(runs, args.trace)} if args.trace else {}),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    ok = all(r["result"] and r["result"]["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
