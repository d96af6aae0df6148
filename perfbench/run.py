"""Benchmark for barkfib: one workload per process, results as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-exhaust --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
set-up time of fresh processes, then repeated passes over the workload's
query list for ``--seconds`` seconds (and until there are enough samples
for a 90th percentile).  ``--trace 1`` runs a traced pass between two
untraced ones and reports per-layer counts, self times and the tracing
overhead; its spans go to ``perfbench/out/``.  The last line of standard
output is the result object; the line before it records the environment.
See NOTES.md for the workloads and metrics.
"""

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# A 90th percentile needs ten samples beyond it.
MIN_SAMPLES = 100
# Reference time of one calibration kernel run; how often the gauge runs
# it, and how far around a call its samples count.
CALIBRATION_REF_S = 0.0005
GAUGE_INTERVAL_S = 0.05
GAUGE_WINDOW_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_barkfib():
    """Import barkfib from this checkout's ``src``, never from elsewhere."""
    package = SRC / "barkfib"
    if not (package / "__init__.py").is_file():
        raise BenchError("no barkfib sources at %s" % package)
    sys.path.insert(0, str(SRC))
    import barkfib

    if Path(barkfib.__file__).resolve().parent != package.resolve():
        raise BenchError("barkfib imported from %s, not %s" % (barkfib.__file__, package))
    return barkfib


def setup(workload, seed):
    """Everything between a fresh process and ready: import barkfib (numpy
    included), load the frozen answers and build the query list."""
    import_barkfib()
    import barkfib.cli  # noqa: F401  imports every layer

    import workloads

    queries = workloads.build_queries(workload, seed, workloads.load_fixture())
    if len({q.qid for q in queries}) != len(queries):
        raise BenchError("duplicate query ids in workload %s" % workload)
    return queries


class _Cell:
    """A 2x2 integer matrix object, like the ones barkfib's layers build."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        return _Cell(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b and self.c == o.c and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))


_GENERATORS = (_Cell(1, 1, 0, 1), _Cell(1, 0, -1, 1))


def _cell_walk(steps):
    """A fixed walk of matrix products, restarted before entries grow."""
    m = _Cell(1, 0, 0, 1)
    for i in range(steps):
        m = m * _GENERATORS[i % 3 == 0]
        if abs(m.a) > 1000:
            m = _Cell(1, 0, 0, 1)
        yield i, m


class SpeedGauge:
    """How fast the machine runs, sampled every GAUGE_INTERVAL_S.

    While armed, a SIGALRM handler times a fixed calibration kernel made of
    the same kind of work as barkfib's exact layers: matrix objects,
    products, hashing and dict lookups.  A call's factor is
    CALIBRATION_REF_S over the mean kernel time of the samples taken
    within GAUGE_WINDOW_S of it; a wall time times its factor is in
    reference seconds.  ``spent`` is the time the handler took, which the
    caller subtracts from the calls it interrupted.  Only benchmark code
    runs in the kernel, so no change to barkfib moves it.
    """

    def __init__(self):
        self.times, self.kernel_s = [], []
        self.spent = 0.0
        self._table = {m: i for i, m in _cell_walk(4096)}
        self._keys = list(self._table)

    def calibration_kernel(self, steps=400):
        table, keys = self._table, self._keys
        total = 0
        for i, m in _cell_walk(steps):
            total += table.get(m, 0) + table[keys[i * 7919 % len(keys)]]
        return total

    def _sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # the kernel's garbage must not trigger a collection
        try:
            start = perf_counter()
            self.calibration_kernel()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append(end)
        self.kernel_s.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start, end):
        lo = bisect.bisect_left(self.times, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + GAUGE_WINDOW_S)
        return CALIBRATION_REF_S / statistics.fmean(self.kernel_s[lo:hi])


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its ready line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe timed out") from None
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed (exit %s)" % proc.returncode)
        samples.append(elapsed)
    return statistics.median(samples), samples


def run_pass(queries, tally, gauge=None, trace=None):
    """One pass over the queries; returns [(qid, start, end, seconds)].

    Only the call is timed; ``seconds`` excludes the gauge's samples.
    Judging the answer follows outside the timed region; a wrong answer, an
    exception or an unexpected exit code counts as a failure and never
    stops the run.
    """
    timings = []
    for q in queries:
        if trace is not None:
            trace.request = q.qid
        spent = gauge.spent if gauge else 0.0
        start = perf_counter()
        try:
            answer, error = q.call(), None
        except Exception as exc:  # a failing query is a measured outcome
            answer, error = None, exc
        end = perf_counter()
        gauged = gauge.spent - spent if gauge else 0.0
        timings.append((q.qid, start, end, end - start - gauged))
        tally["attempted"] += 1
        try:
            ok = error is None and q.judge(answer)
        except Exception:  # a malformed answer is a wrong answer
            ok = False
        if not ok:
            tally["failed"] += 1
            if len(tally["failures"]) < 20:
                tally["failures"].append(q.qid if error is None else "%s: %r" % (q.qid, error))
    return timings


def measure(queries, seconds):
    """Passes until ``seconds`` have elapsed and MIN_SAMPLES calls were made.

    Latencies are in reference seconds (see SpeedGauge).
    """
    tally = {"attempted": 0, "failed": 0, "failures": []}
    timings = []
    pass_s = []
    start = perf_counter()
    with SpeedGauge() as gauge:
        while True:
            done = run_pass(queries, tally, gauge)
            pass_s.append(sum(t[3] for t in done))
            timings += done
            if perf_counter() - start >= seconds and tally["attempted"] >= MIN_SAMPLES:
                break
    latencies = {}
    for qid, begin, end, wall in timings:
        latencies.setdefault(qid, []).append(wall * gauge.factor(begin, end))
    pooled = [x for values in latencies.values() for x in values]
    metrics = {
        # One pass, each query at its median latency over the passes.
        "run_s": (sum(statistics.median(v) for v in latencies.values()), "s"),
        "query_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(pooled, n=10)[8] * 1e3, "ms"),
    }
    info = {
        "pass_wall_s": pass_s,
        "samples": len(pooled),
        "gauge_samples": len(gauge.kernel_s),
        "speed_factor_median": CALIBRATION_REF_S / statistics.median(gauge.kernel_s),
    }
    return metrics, tally, info


def measure_traced(queries, workload, seed):
    """A traced pass between two untraced ones; per-layer metrics.

    The overhead is the traced pass minus the faster untraced pass, so a
    cold first pass does not hide it.
    """
    from layertrace import LayerTrace

    tally = {"attempted": 0, "failed": 0, "failures": []}

    def pass_seconds(trace=None):
        return sum(t[3] for t in run_pass(queries, tally, trace=trace))

    before = pass_seconds()
    trace = LayerTrace().install()
    try:
        traced = pass_seconds(trace)
    finally:
        trace.uninstall()
    untraced = min(before, pass_seconds())
    values = trace.metrics()
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.json" % (workload, seed))
    spans_path.write_text(json.dumps(trace.spans))
    info = {
        "untraced_run_s": untraced,
        "traced_run_s": traced,
        "spans": len(trace.spans),
        "span_summary": trace.span_summary(),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, tally, info


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(seed):
    import numpy

    import workloads

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.machine(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "answers_frozen_at": workloads.load_fixture().get("frozen_at"),
        "seed": seed,
    }


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "barkfib").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        queries = setup(args.workload, args.seed)
        setup_s = setup_samples = None
        if not args.trace:
            setup_s, setup_samples = measure_setup(args.workload, args.seed)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        metrics, tally, info = measure_traced(queries, args.workload, args.seed)
    else:
        metrics, tally, info = measure(queries, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        info["setup_samples_s"] = setup_samples
    attempted, failed = tally["attempted"], tally["failed"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "queries": len(queries),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": tally["failures"],
        **info,
        "environment": environment(args.seed),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
