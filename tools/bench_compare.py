"""Compare the end-to-end metrics of two benchmark files.

Usage, from any directory:

    python3 tools/bench_compare.py BENCH_19.json BENCH_20.json

For each workload and each end-to-end metric that ``BENCHMARK.json``
declares, prints the value in the untraced run (``results[W]["trace 0"]``)
of the old file and of the new one, the relative change (new - old) / old,
the metric's bound, and ``WORSE`` when the change goes against the metric's
``better`` direction by more than that bound.  A metric missing from either
file is printed as ``missing`` and counts as worse.  After each workload's
``peak_rss_mb`` row, a row ``attempted`` gives the calls the untraced runs
made in all, old and new, since that metric grows with the number of calls;
it is information only, marked ``info``, and is left out when neither file
records it.  The ``scoreboard`` rows that follow the workloads are
information too: the normalised sweep's problems and verdicts for each
factor count that either file counts some in, and for all, then the first
8 hex digits of the forbidden problems' sha256.  When ``setup_s`` is worse
than its bound on every workload, a ``note`` line follows the table:
``setup_s`` is process start-up wall time, which nothing corrects for the
machine's load, so a change on all workloads at once most likely reads the
machine, and the parent should be recorded again in the same session as
the change.  Exits 1 when any metric is worse than its bound, and 0
otherwise; the note and the info rows change neither.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _value(bench, workload, metric):
    try:
        return bench["results"][workload]["trace 0"]["metrics"][metric]["value"]
    except KeyError:
        return None


def _attempted(bench, workload):
    try:
        return bench["results"][workload]["trace 0"]["attempted"]
    except KeyError:
        return None


def compare(old, new, spec):
    """One row (workload, metric, old, new, change, bound, worse) per
    workload and end-to-end metric of ``spec``, the parsed BENCHMARK.json;
    ``change`` is None when a value is missing."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _value(old, workload, name), _value(new, workload, name)
            if a is None or b is None:
                rows.append((workload, name, a, b, None, bound, True))
                continue
            change = (b - a) / a
            against = change if metric["better"] == "lower" else -change
            rows.append((workload, name, a, b, change, bound, against > bound))
    return rows


def scoreboard_rows(old, new):
    """One row (name, old, new) per scoreboard count "KEY:FACTORS", where
    KEY is problems or a verdict, kept when FACTORS is "all" or either file
    counts some, then "forbidden_sha" with the first 8 hex digits of each
    forbidden_sha256.  A file without a scoreboard reads None, and there
    are no rows when neither file has one."""
    boards = [bench.get("scoreboard") for bench in (old, new)]
    if boards == [None, None]:
        return []
    tables = [board and board["by_factors"] for board in boards]
    rows = []
    for factors, counts in next(filter(None, tables)).items():
        for key in counts:
            a, b = (table and table[factors][key] for table in tables)
            if factors == "all" or a or b:
                rows.append(("%s:%s" % (key, factors), a, b))
    digests = (board and board["forbidden_sha256"][:8] for board in boards)
    return rows + [("forbidden_sha", *digests)]


def _cell(value):
    return "missing" if value is None else "%.4g" % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="benchmark file before the change")
    parser.add_argument("new", type=Path, help="benchmark file after the change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = (json.loads(path.read_text()) for path in (args.old, args.new))
    rows = compare(old, new, spec)
    print("%-16s %-14s %10s %10s %9s %6s  %s" % (
        "workload", "metric", "old", "new", "change", "bound", "verdict"))
    for workload, name, a, b, change, bound, worse in rows:
        print("%-16s %-14s %10s %10s %9s %5.0f%%  %s" % (
            workload,
            name,
            _cell(a),
            _cell(b),
            "missing" if change is None else "%+.1f%%" % (100 * change),
            100 * bound,
            "WORSE" if worse else "ok",
        ))
        if name == "peak_rss_mb":
            a, b = (_attempted(bench, workload) for bench in (old, new))
            if (a, b) != (None, None):
                print("%-16s %-14s %10s %10s %9s %6s  %s" % (
                    workload,
                    "attempted",
                    "missing" if a is None else a,
                    "missing" if b is None else b,
                    "missing" if None in (a, b) else "%+.1f%%" % (100 * (b - a) / a),
                    "-",
                    "info",
                ))
    for name, a, b in scoreboard_rows(old, new):
        if None in (a, b):
            change = "missing"
        elif isinstance(a, int):
            change = "%+d" % (b - a)
        else:
            change = "same" if a == b else "changed"
        print("%-16s %-14s %10s %10s %9s %6s  %s" % (
            "scoreboard",
            name,
            "missing" if a is None else a,
            "missing" if b is None else b,
            change,
            "-",
            "info",
        ))
    setup = [row[-1] for row in rows if row[1] == "setup_s"]
    if setup and all(setup):
        print(
            "note: setup_s is WORSE on every workload; it is uncorrected wall time"
            " of process start-up, so re-record the parent in the same session"
            " and compare with that"
        )
    return 1 if any(row[-1] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
