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


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def _fake_runs(monkeypatch, module, bad=None, code=0, correct=False):
    """Every run succeeds, except that the run of the (workload, trace)
    ``bad`` exits with ``code`` and reports ``correct``."""
    calls = []

    def fake(argv, **_):
        calls.append(argv)
        environment = dict(ENVIRONMENT, commit="f00", seed=1)
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"argv": argv}}
        returncode = 0
        if (argv[argv.index("--workload") + 1], argv[-1]) == bad:
            returncode, result["correct"] = code, correct
        lines = [{"record": {"environment": environment}}, result]
        out = "".join(json.dumps(line) + "\n" for line in lines)
        return subprocess.CompletedProcess(argv, returncode, out, "boom\n")

    monkeypatch.setattr(module.subprocess, "run", fake)
    return calls


def test_writes_every_workload_and_trace(bench_record, tmp_path, monkeypatch):
    calls = _fake_runs(monkeypatch, bench_record)
    assert bench_record.main(["7", "--note", "a note"]) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert len(calls) == 8
    assert bench["commit"] == "f00"
    assert bench["note"] == "a note"
    assert bench["command"] == bench_record.COMMAND
    assert bench["environment"] == ENVIRONMENT
    assert list(bench["results"]) == list(bench_record.WORKLOADS)
    for workload, runs in bench["results"].items():
        assert list(runs) == ["trace 0", "trace 1"]
        for trace, result in runs.items():
            want = "perfbench/run.py --workload %s --seed 1 --seconds 20 --trace %s"
            assert " ".join(result["metrics"]["argv"][1:]) == want % (workload, trace[-1])


@pytest.mark.parametrize("code,correct", [(1, True), (0, False)])
def test_a_failed_run_writes_no_file(bench_record, tmp_path, monkeypatch, capsys, code, correct):
    _fake_runs(monkeypatch, bench_record, ("catalog", "1"), code, correct)
    assert bench_record.main(["7", "--note", "n"]) == 1
    assert not (tmp_path / "BENCH_7.json").exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: perfbench/run.py --workload catalog"
    )
