"""``tools/bench_compare.py`` on canned benchmark files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
SPEC = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


@pytest.fixture
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(scale=None, drop=None):
    """A benchmark file whose every metric reads 1.0, except that
    ``scale`` maps (workload, metric) to another value and ``drop`` names
    a (workload, metric) left out."""
    scale = scale or {}
    results = {}
    for workload in WORKLOADS:
        metrics = {
            name: {"value": scale.get((workload, name), 1.0), "unit": "s"}
            for name in METRICS
            if (workload, name) != drop
        }
        results[workload] = {"trace 0": {"metrics": metrics}, "trace 1": {"metrics": {}}}
    return {"results": results}


def _run(module, tmp_path, old, new):
    paths = []
    for name, bench in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(bench))
        paths.append(str(path))
    return module.main(paths)


def _lines(capsys):
    return {
        tuple(line.split()[:2]): line.split()
        for line in capsys.readouterr().out.splitlines()[1:]
    }


def test_equal_files_pass(bench_compare, tmp_path, capsys):
    assert _run(bench_compare, tmp_path, _bench(), _bench()) == 0
    lines = _lines(capsys)
    assert len(lines) == len(WORKLOADS) * len(METRICS)
    assert lines["catalog", "run_s"] == ["catalog", "run_s", "1", "1", "+0.0%", "20%", "ok"]


def test_a_gain_and_a_loss_within_the_bound_pass(bench_compare, tmp_path, capsys):
    new = _bench({("catalog", "query_p50_ms"): 0.5, ("local", "peak_rss_mb"): 1.04})
    assert _run(bench_compare, tmp_path, _bench(), new) == 0
    lines = _lines(capsys)
    assert lines["catalog", "query_p50_ms"][2:] == ["1", "0.5", "-50.0%", "25%", "ok"]
    assert lines["local", "peak_rss_mb"][2:] == ["1", "1.04", "+4.0%", "5%", "ok"]


def test_a_loss_beyond_the_bound_fails(bench_compare, tmp_path, capsys):
    new = _bench({("local", "peak_rss_mb"): 1.06})
    assert _run(bench_compare, tmp_path, _bench(), new) == 1
    assert _lines(capsys)["local", "peak_rss_mb"][-1] == "WORSE"


def test_a_missing_metric_fails(bench_compare, tmp_path, capsys):
    assert _run(bench_compare, tmp_path, _bench(), _bench(drop=("catalog", "setup_s"))) == 1
    assert _lines(capsys)["catalog", "setup_s"][2:] == ["1", "missing", "missing", "25%", "WORSE"]


def test_higher_is_better_metrics_fail_when_they_fall(bench_compare):
    spec = {
        "workloads": [{"name": "catalog"}],
        "end_to_end": [{"name": "run_s", "better": "higher", "bound": 0.2}],
    }
    rows = bench_compare.compare(_bench(), _bench({("catalog", "run_s"): 0.7}), spec)
    assert rows == [("catalog", "run_s", 1.0, 0.7, pytest.approx(-0.3), 0.2, True)]
    rows = bench_compare.compare(_bench(), _bench({("catalog", "run_s"): 2.0}), spec)
    assert rows[0][-1] is False


def test_attempted_counts_are_shown_and_never_fail(bench_compare, tmp_path, capsys):
    old, new = _bench(), _bench()
    for bench, counts in ((old, (100, 40)), (new, (300, None))):
        for workload, count in zip(("catalog", "local"), counts):
            if count is not None:
                bench["results"][workload]["trace 0"]["attempted"] = count
    assert _run(bench_compare, tmp_path, old, new) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out]
    assert ["catalog", "attempted", "100", "300", "+200.0%", "-", "info"] in rows
    assert ["local", "attempted", "40", "missing", "missing", "-", "info"] in rows
    assert not any(row[:2] == ["search-exhaust", "attempted"] for row in rows)
    # each count follows its workload's peak_rss_mb row
    at = [row[:2] for row in rows].index(["catalog", "peak_rss_mb"])
    assert rows[at + 1][:2] == ["catalog", "attempted"]


def test_setup_worse_everywhere_prints_a_note(bench_compare, tmp_path, capsys):
    slow = {(workload, "setup_s"): 2.0 for workload in WORKLOADS}
    assert _run(bench_compare, tmp_path, _bench(), _bench(slow)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("note: setup_s is WORSE on every workload")
    assert "uncorrected wall time" in out[-1] and "re-record the parent" in out[-1]
    # one workload within its bound: no note, and the exit code is the same
    del slow["local", "setup_s"]
    assert _run(bench_compare, tmp_path, _bench(), _bench(slow)) == 1
    assert not any(line.startswith("note") for line in capsys.readouterr().out.splitlines())


def _scoreboard(forbidden_2, sha):
    """A scoreboard of two factor rows, with ``forbidden_2`` forbidden
    two-factor problems and the digest ``sha``."""
    by_factors = {
        "1": {"problems": 2, "forbidden": 1, "realizable": 0, "undecided": 1},
        "2": {"problems": 5, "forbidden": forbidden_2, "realizable": 0, "undecided": 5 - forbidden_2},
    }
    by_factors["all"] = {key: sum(row[key] for row in by_factors.values()) for key in by_factors["1"]}
    return {"by_factors": by_factors, "forbidden_sha256": sha * 64}


def test_scoreboard_rows_are_shown_and_never_fail(bench_compare, tmp_path, capsys):
    old, new = _bench(), _bench()
    old["scoreboard"], new["scoreboard"] = _scoreboard(3, "a"), _scoreboard(0, "b")
    assert _run(bench_compare, tmp_path, old, new) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    board = [row[1:5] for row in rows if row[0] == "scoreboard"]
    assert board == [
        ["problems:1", "2", "2", "+0"],
        ["forbidden:1", "1", "1", "+0"],
        ["undecided:1", "1", "1", "+0"],
        ["problems:2", "5", "5", "+0"],
        ["forbidden:2", "3", "0", "-3"],
        ["undecided:2", "2", "5", "+3"],
        ["problems:all", "7", "7", "+0"],
        ["forbidden:all", "4", "1", "-3"],
        ["realizable:all", "0", "0", "+0"],
        ["undecided:all", "3", "6", "+3"],
        ["forbidden_sha", "aaaaaaaa", "bbbbbbbb", "changed"],
    ]
    assert all(row[5:] == ["-", "info"] for row in rows if row[0] == "scoreboard")
    # an old file without a scoreboard: every count is missing, and a loss
    # beyond a bound still decides the exit code alone
    del old["scoreboard"]
    slow = _bench({("catalog", "run_s"): 2.0})
    slow["scoreboard"] = new["scoreboard"]
    assert _run(bench_compare, tmp_path, old, slow) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["scoreboard", "forbidden_sha", "missing", "bbbbbbbb", "missing", "-", "info"] in rows
    assert ["scoreboard", "undecided:all", "missing", "6", "missing", "-", "info"] in rows


def test_no_scoreboard_rows_without_a_scoreboard(bench_compare, tmp_path, capsys):
    assert _run(bench_compare, tmp_path, _bench(), _bench()) == 0
    assert "scoreboard" not in capsys.readouterr().out
