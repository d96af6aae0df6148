"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from layertrace import LAYERS

run.import_barkfib()
HERE = Path(__file__).resolve().parent


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _traced(workload, seed):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_traced_once = functools.lru_cache(maxsize=None)(_traced)

TRACED_WORKLOADS = ["search-witness", "catalog", "local"]


def _pass(queries):
    tally = {"attempted": 0, "failed": 0, "failures": []}
    run.run_pass(queries, tally)
    return tally


@pytest.mark.parametrize("workload", TRACED_WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = _traced_once(workload, 5), _traced(workload, 5)
    assert first["correct"] and second["correct"]
    counts = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] != "s"
    }
    again = {
        name: m["value"] for name, m in second["metrics"].items() if m["unit"] != "s"
    }
    assert counts == again
    assert any(value > 0 for value in counts.values())


def test_traced_runs_count_work_in_every_layer_and_report_overhead():
    runs = [_traced_once(workload, 5)["metrics"] for workload in TRACED_WORKLOADS]
    for layer in LAYERS:
        assert any(
            m["value"] > 0
            for metrics in runs
            for name, m in metrics.items()
            if name.startswith(layer + ".") and m["unit"] == "count"
        ), layer
    assert all("trace.overhead_s" in metrics for metrics in runs)


def test_corrupted_witness_fails(monkeypatch):
    from barkfib import cli
    from barkfib.sl2z import word
    from barkfib.splitting import FactorizationWitness, verify_witness

    search = cli.search_factorization
    broken = []

    def corrupted(*args, **kwargs):
        # As `verify-words --corrupt` does: append s0 to the first conjugator.
        # That changes nothing when the first factor commutes with s0 (I_n).
        w = search(*args, **kwargs)
        (base, conjugator), rest = w.factors[0], w.factors[1:]
        bad = FactorizationWitness(w.target, ((base, conjugator * word(("s0", 1))),) + rest)
        broken.append(not verify_witness(bad))
        return bad

    queries = [q for q in run.setup("search-witness", 1) if q.qid.endswith(" L1")]
    assert _pass(queries)["failed"] == 0
    monkeypatch.setattr(cli, "search_factorization", corrupted)
    tally = _pass(queries)
    assert tally["failed"] == sum(broken) > 0


def test_corrupted_expected_answer_fails():
    fixture = workloads.load_fixture()
    qid = "factorize IV = I2.I2 L2"
    fixture["answers"][qid] = {"code": 0, "found": True}
    sweep = "full_report II* -> I1"
    fixture["answers"][sweep]["excluded"] += 1
    queries = [
        q for q in workloads.build_queries("search-exhaust", 1, fixture) if q.qid == qid
    ] + [q for q in workloads.build_queries("catalog", 1, fixture) if q.qid == sweep]
    assert len(queries) == 2
    tally = _pass(queries)
    assert tally["failed"] == 2 and tally["attempted"] == 2


def test_missing_frozen_answer_fails():
    fixture = workloads.load_fixture()
    del fixture["answers"]["crusts IV -l 1"]
    queries = [
        q for q in workloads.build_queries("catalog", 1, fixture) if q.qid == "crusts IV -l 1"
    ]
    assert _pass(queries)["failed"] == 1


def test_seed_sets_order_and_generated_inputs_only():
    fixture = workloads.load_fixture()
    for workload in workloads.WORKLOADS:
        a = [q.qid for q in workloads.build_queries(workload, 1, fixture)]
        b = [q.qid for q in workloads.build_queries(workload, 1, fixture)]
        c = [q.qid for q in workloads.build_queries(workload, 2, fixture)]
        assert a == b and a != c
        if workload != "local":
            assert sorted(a) == sorted(c)
        frozen = [q.qid for q in workloads.build_queries(workload, 1, fixture) if q.summarize]
        assert all(qid in fixture["answers"] for qid in frozen)


def test_no_search_at_conjugator_length_zero():
    fixture = workloads.load_fixture()
    for workload in ("search-exhaust", "search-witness"):
        for q in workloads.build_queries(workload, 1, fixture):
            assert not q.qid.endswith(" L0"), q.qid


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "local", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
