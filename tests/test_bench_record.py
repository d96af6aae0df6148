"""``tools/bench_record.py`` writes BENCH_<pr>.json only from good runs.

The perfbench runs are replaced by canned output, so these tests check
the file layout and the refusals without running the benchmark.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
ENVIRONMENT = {"cpu_model": "cpu", "nproc": 2, "python": "3.11.7", "source_sha256": "ab"}
SCOREBOARD = {"by_factors": {}, "forbidden_sha256": "cd"}


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    module = _load()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    # the sweep takes about a second; test_scoreboard_of_the_normalised_sweep runs it
    monkeypatch.setattr(module, "scoreboard", lambda: SCOREBOARD)
    return module


# run_s of a workload's three untraced runs, in run order, and of its traced run
UNTRACED_RUN_S = [0.3, 0.1, 0.2]
TRACED_RUN_S = 0.9


def _fake_runs(monkeypatch, module, bad=None, code=0, correct=False):
    """Every run succeeds, except that the run of the (workload, trace)
    ``bad`` exits with ``code`` and reports ``correct``.  Each run's result
    carries its argv, and its run_s is read from UNTRACED_RUN_S in run
    order, or is TRACED_RUN_S."""
    calls = []

    def fake(argv, **_):
        calls.append(argv)
        environment = dict(ENVIRONMENT, commit="f00", seed=1)
        traced = argv[-1] == "1"
        run_s = TRACED_RUN_S if traced else UNTRACED_RUN_S[(len(calls) - 1) % 4]
        result = {
            "correct": True,
            "attempted": len(calls),
            "failed": 0,
            "argv": argv,
            "metrics": {"run_s": {"value": run_s, "unit": "s"}},
        }
        returncode = 0
        if (argv[argv.index("--workload") + 1], argv[-1]) == bad:
            returncode, result["correct"] = code, correct
        lines = [{"record": {"environment": environment}}, result]
        out = "".join(json.dumps(line) + "\n" for line in lines)
        return subprocess.CompletedProcess(argv, returncode, out, "boom\n")

    monkeypatch.setattr(module.subprocess, "run", fake)
    return calls


def _argv_text(result):
    return " ".join(result["argv"][1:])


def test_writes_every_workload_and_trace(bench_record, tmp_path, monkeypatch):
    calls = _fake_runs(monkeypatch, bench_record)
    assert bench_record.main(["7", "--note", "a note"]) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    # three untraced runs and one traced run per workload
    assert len(calls) == 4 * len(bench_record.WORKLOADS)
    assert bench["commit"] == "f00"
    assert bench["note"] == "a note"
    assert bench["command"] == bench_record.COMMAND
    assert bench["environment"] == ENVIRONMENT
    assert bench["scoreboard"] == SCOREBOARD
    assert list(bench["results"]) == list(bench_record.WORKLOADS)
    want = "perfbench/run.py --workload %s --seed 1 --seconds 20 --trace %d"
    for workload, runs in bench["results"].items():
        assert list(runs) == ["trace 0", "trace 1"]
        assert _argv_text(runs["trace 1"]) == want % (workload, 1)
        assert [_argv_text(run) for run in runs["trace 0"]["runs"]] == [want % (workload, 0)] * 3


def test_untraced_metrics_are_medians_of_three(bench_record, tmp_path, monkeypatch):
    _fake_runs(monkeypatch, bench_record)
    assert bench_record.main(["7", "--note", "n"]) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    for i, runs in enumerate(bench["results"].values()):
        untraced = runs["trace 0"]
        assert untraced["metrics"] == {"run_s": {"value": 0.2, "unit": "s"}}
        assert [run["metrics"]["run_s"]["value"] for run in untraced["runs"]] == UNTRACED_RUN_S
        # the fake's attempted counts the calls so far: 4i+1, 4i+2, 4i+3
        assert (untraced["correct"], untraced["attempted"], untraced["failed"]) == (
            True, 12 * i + 6, 0,
        )
        assert runs["trace 1"]["metrics"]["run_s"]["value"] == TRACED_RUN_S


def test_bench_compare_reads_the_medians(bench_record, tmp_path, monkeypatch):
    _fake_runs(monkeypatch, bench_record)
    assert bench_record.main(["7", "--note", "n"]) == 0
    path = Path(bench_record.__file__).parent / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    run_s = {"name": "run_s", "bound": 0.2, "better": "lower"}
    workloads = {"workloads": [{"name": w} for w in bench["results"]], "end_to_end": [run_s]}
    rows = bench_compare.compare(bench, bench, workloads)
    assert [row[2:] for row in rows] == [(0.2, 0.2, 0.0, 0.2, False)] * len(bench["results"])


@pytest.mark.parametrize("code,correct", [(1, True), (0, False)])
def test_a_failed_run_writes_no_file(bench_record, tmp_path, monkeypatch, capsys, code, correct):
    _fake_runs(monkeypatch, bench_record, ("catalog", "1"), code, correct)
    assert bench_record.main(["7", "--note", "n"]) == 1
    assert not (tmp_path / "BENCH_7.json").exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: perfbench/run.py --workload catalog"
    )


# The normalised sweep by factor count: problems, forbidden, realizable, undecided
SCOREBOARD_COUNTS = {
    "1": (23, 21, 0, 2),
    "2": (359, 199, 0, 160),
    "3": (1183, 2, 0, 1181),
    "4": (2333, 0, 0, 2333),
    "5": (3228, 0, 0, 3228),
    "6+": (13082, 0, 0, 13082),
    "all": (20208, 222, 0, 19986),
}
# sha256 of the 222 forbidden problems, "TARGET = PART PART ..." sorted
FORBIDDEN_SHA256 = "5305a76be8267a143c7664e8612b03ef6e74655a96e3fb9d98fc1fa588dd291b"


def test_scoreboard_of_the_normalised_sweep():
    """A problem that moves between verdicts, or an added or lost problem,
    changes a count or the digest of the forbidden problems."""
    board = _load().scoreboard()
    keys = ("problems", "forbidden", "realizable", "undecided")
    assert board["by_factors"] == {
        row: dict(zip(keys, counts)) for row, counts in SCOREBOARD_COUNTS.items()
    }
    assert board["forbidden_sha256"] == FORBIDDEN_SHA256
