"""full_report and the candidate enumeration against oracle_report, and
the reach of the obstruction rules, which lets full_report skip the
verdict call for every candidate no rule can read."""

from collections import Counter
from itertools import combinations_with_replacement

import pytest

import oracle_report
from barkfib import splitting
from barkfib.kodaira import euler, parse_fiber
from barkfib.splitting import (
    FORBIDDEN,
    UNDECIDED,
    decomposition_verdict,
    enumerate_multisets,
    euler_deficit,
    multiset,
    rule_reach,
)
from barkfib.subord import full_report

SWEEP = oracle_report.sweep_pairs()


def test_the_sweep_has_438_pairs():
    assert len(SWEEP) == 438


@pytest.mark.parametrize("total", range(31))
def test_partitions_match_the_recursive_oracle(total):
    # the all-I_n candidates are the partitions of total, fewest parts first
    nodal = [
        tuple(sorted((f.n for f in ms), reverse=True))
        for ms in enumerate_multisets(total)
        if all(f.kind == "I" for f in ms)
    ]
    assert nodal == sorted(oracle_report.int_partitions(total), key=len)


@pytest.mark.parametrize("deficit", range(31))
def test_enumeration_matches_the_oracle(deficit):
    assert enumerate_multisets(deficit) == oracle_report.enumerate_multisets(deficit)


def _assert_same_report(got, want):
    assert got == want
    assert got.candidates == want.candidates
    assert got.to_json() == want.to_json()


def test_sweep_reports_match_the_oracle():
    for original, main in SWEEP:
        _assert_same_report(full_report(original, main), oracle_report.full_report(original, main))


@pytest.mark.parametrize("case", oracle_report.catalog_cases(), ids=lambda case: case[0])
def test_catalog_reports_match_the_oracle(case):
    _, original, main, crust = case
    _assert_same_report(
        full_report(original, main, crust), oracle_report.full_report(original, main, crust)
    )


# ------------------------------------------------------------ rule reach

REACH_TARGETS = oracle_report.sweep_classes() + [parse_fiber("2I3"), parse_fiber("3I2*")]
FACTORS = [parse_fiber(name) for name in ("I0", "I1", "I2", "I3", "II", "III", "IV", "I0*", "IV*")]


@pytest.mark.parametrize("target", REACH_TARGETS, ids=str)
def test_no_rule_reads_past_the_reach(target):
    # Past the reach only the Euler number mod 12 rule acts, and it passes
    # every full_report candidate, whose Euler numbers sum to the deficit.
    size = rule_reach(target) + 1
    for parts in combinations_with_replacement(FACTORS, size):
        total = sum(map(euler, parts))
        if (total - euler(target)) % 12:
            verdict, [reason] = decomposition_verdict(target, parts)
            assert verdict == FORBIDDEN
            assert reason.startswith("Euler number mod 12 rule: e(%s)" % target)
            assert reason.endswith("sum to %d, which is %d mod 12" % (total, total % 12))
        else:
            assert decomposition_verdict(target, parts) == (
                UNDECIDED,
                ["no trace obstruction applies to %d factors" % size],
            )


def test_the_sweep_asks_547_verdicts(monkeypatch):
    calls = []

    def counted(target, parts):
        calls.append(len(parts))
        return decomposition_verdict(target, parts)

    monkeypatch.setattr(splitting, "decomposition_verdict", counted)
    for original, main in SWEEP:
        full_report(original, main)
    assert len(calls) == 547
    assert max(calls) == 3


def test_the_sweep_verdicts_are_frozen():
    """Every (target, factor multiset) the sweep poses, candidates past
    the reach included: 226 of the 30,860 distinct ones are forbidden."""
    problems = {
        (original, multiset(main, *ms))
        for original, main in SWEEP
        for ms in enumerate_multisets(euler_deficit(original, main))
    }
    assert len(problems) == 30860
    rules = Counter()
    for target, parts in problems:
        verdict, reasons = decomposition_verdict(target, parts)
        if verdict == FORBIDDEN:
            rules[reasons[0].partition(":")[0]] += 1
    assert rules == {"trace shift rule": 213, "central pair rule": 7, "central triple rule": 6}
