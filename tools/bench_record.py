"""Record one benchmark file, BENCH_<pr>.json, from perfbench runs.

Usage, from any directory:

    python3 tools/bench_record.py 19 --note "What changed and how it was run."

Runs ``python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace T``
for every workload, three times with T = 0 and once with T = 1 (its counts
repeat exactly), one after the other, and writes ``BENCH_<pr>.json`` at the
repository root: ``commit`` (HEAD of the checkout, so uncommitted work is
named by its parent and told apart by ``source_sha256``), ``note``,
``command``, ``environment`` (read from the record line of the first run)
and ``results[W]["trace T"]``.  For T = 1 that is the run's result line; for
T = 0 it has the same layout with each metric's median over the three runs,
``attempted`` and ``failed`` summed over them, and the three result lines
under ``runs``.  If any run exits non-zero or reports ``correct: false`` the
script exits 1 and writes no file.

The file also holds ``scoreboard``: the verdicts of the normalised sweep
by factor count (see ``scoreboard()``), computed in process.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from workloads import WORKLOADS, sweep_pairs  # noqa: E402  stdlib-only module

from barkfib.kodaira import FiberClass, parse_fiber  # noqa: E402
from barkfib.splitting import (  # noqa: E402
    FORBIDDEN,
    decomposition_verdict,
    enumerate_multisets,
    euler_deficit,
    multiset,
)

COMMAND = "python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace T"
ENVIRONMENT_KEYS = ("cpu_model", "nproc", "python", "source_sha256")
# untraced runs per workload, whose medians are recorded
UNTRACED_RUNS = 3


def run(workload, trace):
    """The record and result objects of one run; RuntimeError when the run
    exits non-zero or its answers are not correct."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "20"]
    argv += ["--trace", str(trace)]
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True, text=True)
    name = " ".join(argv)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (name, proc.returncode, proc.stderr.strip()))
    record_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    if result["correct"] is not True:
        raise RuntimeError("%s is not correct: %s" % (name, result_line))
    return json.loads(record_line)["record"], result


def median_result(runs):
    """One result object for several untraced runs of a workload: each
    metric's median, the summed call counts, and every run kept."""
    metrics = {
        name: dict(metric, value=statistics.median(r["metrics"][name]["value"] for r in runs))
        for name, metric in runs[0]["metrics"].items()
    }
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "runs": runs,
    }


# The scoreboard's verdicts and its factor-count rows; "realizable" stays 0
# until some rule decides a problem realizable.
VERDICTS = ("forbidden", "realizable", "undecided")
FACTOR_ROWS = ("1", "2", "3", "4", "5", "6+")


def scoreboard():
    """Verdicts of the normalised sweep: every (original, main) pair of
    perfbench's ``sweep_pairs()`` with each of its ``enumerate_multisets``
    candidates, the I0 factors dropped, and each problem (original,
    canonical factor multiset) counted once.  Returns ``by_factors``, which
    maps each of FACTOR_ROWS, and "all", to its problems and their count
    by verdict, and ``forbidden_sha256``, the sha256 of the forbidden
    problems' lines "TARGET = PART PART ...", sorted and joined by newlines.
    """
    identity = FiberClass("I", 0)
    problems = set()
    for names in sweep_pairs():
        original, main = map(parse_fiber, names)
        for ms in enumerate_multisets(euler_deficit(original, main)):
            problems.add((original, multiset(*(f for f in (main, *ms) if f != identity))))
    factors = {row: dict.fromkeys(("problems",) + VERDICTS, 0) for row in FACTOR_ROWS}
    forbidden = []
    for target, parts in problems:
        verdict, _ = decomposition_verdict(target, parts)
        counts = factors[FACTOR_ROWS[min(len(parts), len(FACTOR_ROWS)) - 1]]
        counts["problems"] += 1
        counts[verdict] += 1
        if verdict == FORBIDDEN:
            forbidden.append("%s = %s" % (target, " ".join(map(str, parts))))
    digest = hashlib.sha256("\n".join(sorted(forbidden)).encode()).hexdigest()
    factors["all"] = {key: sum(c[key] for c in factors.values()) for key in factors["1"]}
    return {"by_factors": factors, "forbidden_sha256": digest}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number in the file name BENCH_<pr>.json")
    parser.add_argument("--note", required=True, help="what the file measures")
    args = parser.parse_args(argv)

    results, environment = {}, None
    for workload in WORKLOADS:
        runs = []
        for trace in [0] * UNTRACED_RUNS + [1]:
            print("running %s --trace %d" % (workload, trace), file=sys.stderr)
            try:
                record, result = run(workload, trace)
            except RuntimeError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 1
            environment = environment or record["environment"]
            runs.append(result)
        results[workload] = {"trace 0": median_result(runs[:-1]), "trace 1": runs[-1]}
    bench = {
        "commit": environment["commit"],
        "note": args.note,
        "command": COMMAND,
        "environment": {key: environment[key] for key in ENVIRONMENT_KEYS},
        "results": results,
        "scoreboard": scoreboard(),
    }
    path = ROOT / ("BENCH_%d.json" % args.pr)
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
