"""Deficit accounting, candidate enumeration, trace obstructions, witnesses."""

import random
import tracemalloc
from itertools import product

import pytest

from barkfib.kodaira import (
    FiberClass,
    classify,
    euler,
    parse_fiber,
    standard_entries,
    standard_monodromy,
)
from barkfib.sl2z import parse_word, word
from barkfib.splitting import (
    FORBIDDEN,
    MAX_DEFICIT,
    UNDECIDED,
    FactorizationWitness,
    SearchBudgetExceeded,
    _WHOLE,
    _shift_admissible,
    all_witnesses,
    decomposition_verdict,
    enumerate_multisets,
    euler_deficit,
    format_identity,
    multiset,
    parse_identity,
    search_factorization,
    verify_witness,
    witness_I_star_family,
)

import oracle_classes
import oracle_report


def F(text):
    return parse_fiber(text)


def names(ms):
    return "+".join(str(f) for f in ms)


# ---------------------------------------------------------------- deficit


def test_euler_deficit():
    assert euler_deficit(F("II*"), F("I2*")) == 2
    assert euler_deficit(F("IV"), F("IV")) == 0
    assert euler_deficit(F("I5"), F("I5")) == 0


def test_euler_deficit_errors():
    with pytest.raises(ValueError):
        euler_deficit(F("II"), F("IV"))  # negative


# ------------------------------------------------------------ enumeration


def test_enumerate_deficit_zero_is_the_empty_candidate():
    assert enumerate_multisets(0) == ((),)
    with pytest.raises(ValueError):
        enumerate_multisets(-1)


def test_enumerate_deficit_two():
    assert [names(ms) for ms in enumerate_multisets(2)] == ["II", "I2", "I1+I1"]


def test_enumerate_deficit_three():
    assert [names(ms) for ms in enumerate_multisets(3)] == [
        "III",
        "I3",
        "I1+II",
        "I1+I2",
        "I1+I1+I1",
    ]


@pytest.mark.parametrize("deficit", range(1, 21))
def test_enumeration_is_exhaustive_and_balanced(deficit):
    seen = enumerate_multisets(deficit)
    assert len(set(seen)) == len(seen)
    for ms in seen:
        assert ms == multiset(*ms)
        assert sum(euler(f) for f in ms) == deficit
        for f in ms:
            assert str(f).rstrip("0123456789") in ("I", "II", "III")


def _part_key(f):
    return (-euler(f), 0 if f.kind in ("II", "III") else 1)


def oracle_enumerate_multisets(deficit):
    """The sort-based enumeration the closed-form order must reproduce:
    every split of every partition, canonicalised by multiset() and
    sorted by part count, then by the parts' (-euler, nodal) keys."""
    out = []
    for part_sizes in oracle_report.int_partitions(deficit):
        k2, k3 = part_sizes.count(2), part_sizes.count(3)
        plain = [FiberClass("I", n) for n in part_sizes if n not in (2, 3)]
        for a2 in range(k2 + 1):
            for a3 in range(k3 + 1):
                ms = list(plain)
                ms += [FiberClass("II")] * a2 + [FiberClass("I", 2)] * (k2 - a2)
                ms += [FiberClass("III")] * a3 + [FiberClass("I", 3)] * (k3 - a3)
                out.append(multiset(*ms))
    out.sort(key=lambda ms: (len(ms), [_part_key(f) for f in sorted(ms, key=_part_key)]))
    return tuple(out)


@pytest.mark.parametrize("deficit", range(31))
def test_enumeration_matches_sort_oracle(deficit):
    assert enumerate_multisets(deficit) == oracle_enumerate_multisets(deficit)


@pytest.mark.parametrize("deficit", range(11))
def test_small_deficits_are_the_joined_rows_of_the_table(deficit):
    assert enumerate_multisets(deficit) == oracle_report.enumerate_multisets(deficit)


def test_small_deficits_are_the_table_rows_themselves():
    # the table is built once at import, the 345 candidates of deficits 0..10,
    # and a call at deficit <= 10 hands out its row, a tuple, with no copy
    assert len(_WHOLE) == 11 and sum(map(len, _WHOLE)) == 345
    for deficit in range(11):
        assert type(_WHOLE[deficit]) is tuple
        assert enumerate_multisets(deficit) is _WHOLE[deficit]
    # above 10 each call walks anew: no per-deficit memo keeps its candidates
    for deficit in (11, 12, 20):
        first, second = enumerate_multisets(deficit), enumerate_multisets(deficit)
        assert type(first) is tuple
        assert first == second and first is not second


def candidate_counts(top):
    """The number of candidates of each deficit 0..top, read off the
    generating function prod_{n>=1} 1/(1 - x^n) * 1/((1 - x^2)(1 - x^3)):
    one factor per class, I_n weighing n, II 2 and III 3."""
    counts = [1] + [0] * top
    for weight in list(range(1, top + 1)) + [2, 3]:
        for d in range(weight, top + 1):
            counts[d] += counts[d - weight]
    return counts


def test_enumeration_counts():
    counts = [len(enumerate_multisets(d)) for d in range(1, 21)]
    assert counts == [
        1, 3, 5, 9, 14, 24, 35, 55, 80, 118,
        167, 240, 331, 462, 629, 857, 1148, 1540, 2033, 2686,
    ]
    assert candidate_counts(20)[1:] == counts


def test_max_deficit_is_the_last_with_at_most_a_million_candidates():
    counts = candidate_counts(MAX_DEFICIT + 1)
    assert counts[MAX_DEFICIT] == 982004 <= 10**6 < counts[MAX_DEFICIT + 1] == 1177885


def test_enumeration_builds_each_candidate_once():
    # 115,937 candidates take about 15 MB; sort keys and an index beside
    # them would double the peak
    tracemalloc.start()
    try:
        candidates = enumerate_multisets(36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(candidates) == candidate_counts(36)[36]
    assert peak < 24 * 10**6


def test_enumeration_refuses_a_deficit_above_the_limit_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="deficit 48 has more than"):
            enumerate_multisets(MAX_DEFICIT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumeration_order_interleaves_partitions():
    # equal first parts: the cusp class precedes the nodal one across
    # partitions, so II+II+III (3,2,2) sorts before I1+I3+I3 (3,3,1)
    order = [names(ms) for ms in enumerate_multisets(7)]
    assert order.index("II+II+III") < order.index("I1+I3+I3")


def test_normalize_multiset_sorts_canonically():
    ms = multiset(F("III"), F("I1"), F("II"), F("I2"))
    assert names(ms) == "I1+I2+II+III"
    assert multiset(F("II"), F("I1")) == multiset(F("I1"), F("II"))


# ----------------------------------------------------------- obstructions


def verdict(target, *parts):
    return decomposition_verdict(F(target), [F(p) for p in parts])[0]


def test_pair_rule_examples():
    assert verdict("IV", "I2", "I2") == FORBIDDEN
    assert verdict("IV", "I2", "II") == UNDECIDED
    assert verdict("II*", "I8", "II") == FORBIDDEN


def test_central_pair_examples():
    assert verdict("I0*", "I4", "I2") == FORBIDDEN
    assert verdict("I0*", "I3", "I3") == FORBIDDEN
    assert verdict("I0*", "II", "IV") == UNDECIDED


def test_central_triple_examples():
    assert verdict("I0*", "I3", "I1", "I1") == FORBIDDEN
    assert verdict("I0*", "I4", "I1", "I1") == UNDECIDED


ORACLE_CLASSES = [
    FiberClass(kind, n, mult)
    for kind in ("I", "I*")
    for n in range(31)
    for mult in (1, 2)
] + [FiberClass(k) for k in ("II", "III", "IV", "II*", "III*", "IV*")]


@pytest.mark.parametrize("other", ORACLE_CLASSES, ids=str)
def test_shift_admissible_matches_oracle(other):
    """The matrix predicate admits the same shifts as the kind-by-kind
    table, for every shift in [-500, 500]."""
    m = standard_entries(other)
    for c in range(-500, 501):
        assert _shift_admissible(c, m) == oracle_classes.shift_admissible(c, other), c


@pytest.mark.parametrize(
    "target,parts,expected",
    [
        (
            "IV",
            ["I2", "I2"],
            (FORBIDDEN, ["trace shift rule: trace(IV)-trace(I2) = -3 admits no valid multiple of 2"]),
        ),
        ("IV", ["I2", "II"], (UNDECIDED, ["trace shift rule passed for I_2 factor"])),
        (
            "II",
            ["I1", "I1"],
            (
                UNDECIDED,
                ["trace shift rule passed for I_1 factor", "trace shift rule passed for I_1 factor"],
            ),
        ),
        ("I0*", ["I3", "I3"], (FORBIDDEN, ["central pair rule: trace(I3) = 2 but -trace(I3) = -2"])),
        ("I0*", ["II", "IV"], (UNDECIDED, ["central pair rule passed"])),
        (
            "I0*",
            ["I3", "I1", "I1"],
            (FORBIDDEN, ["central triple rule: 3 does not divide trace(I1)+trace(I1)"]),
        ),
        (
            "I0*",
            ["I4", "I1", "I1"],
            (
                UNDECIDED,
                [
                    "central triple rule passed for I_4 factor",
                    "central triple rule passed for I_1 factor",
                    "central triple rule passed for I_1 factor",
                ],
            ),
        ),
        ("IV", ["II", "II"], (UNDECIDED, ["no trace obstruction applies to 2 factors"])),
        ("I0*", ["II", "II", "II"], (UNDECIDED, ["no trace obstruction applies to 3 factors"])),
        ("II*", ["I8", "I1", "I1"], (UNDECIDED, ["no trace obstruction applies to 3 factors"])),
        # Euler numbers 2 + 3 + 4 = 9, not 6 mod 12: no trace rule reads these
        # parts, and the Euler rule forbids them
        (
            "I0*",
            ["II", "III", "IV"],
            (
                FORBIDDEN,
                [
                    "Euler number mod 12 rule: e(I0*) = 6 is 6 mod 12, but the"
                    " factors' Euler numbers sum to 9, which is 9 mod 12"
                ],
            ),
        ),
        # 10 + 3 = 13 is 1 mod 12: Euler numbers need only agree mod 12
        ("I1", ["II*", "III"], (UNDECIDED, ["no trace obstruction applies to 2 factors"])),
    ],
)
def test_rule_reason_texts(target, parts, expected):
    assert decomposition_verdict(F(target), [F(p) for p in parts]) == expected


ONE_FACTOR_CLASSES = (
    ["I%d" % n for n in range(9)]
    + ["II", "III", "IV", "II*", "III*", "IV*"]
    + ["I%d*" % n for n in range(5)]
    + ["2I3"]
)


@pytest.mark.parametrize("target", ONE_FACTOR_CLASSES)
def test_class_rule_decides_one_factor(target):
    """One factor P of T is forbidden exactly when the standard monodromies
    classify differently; otherwise the empty conjugator is a witness."""
    t = F(target)
    for part in ONE_FACTOR_CLASSES:
        p = F(part)
        verdict, reasons = decomposition_verdict(t, [p])
        if classify(standard_monodromy(p)) != classify(standard_monodromy(t)):
            assert (verdict, reasons) == (
                FORBIDDEN, ["class rule: %s and %s are distinct classes" % (t, p)]
            )
        else:
            assert (verdict, reasons) == (UNDECIDED, ["class rule passed"])
            w = search_factorization(t, [p], 0)
            assert w is not None and verify_witness(w)
            assert w.factors == ((p, parse_word("")),)


GRID = [F(name) for name in ONE_FACTOR_CLASSES]


def _check_rules(target, parts):
    """decomposition_verdict on ``parts`` against oracle_classes.rule_verdict;
    returns the starts of the reasons."""
    verdict, reasons = decomposition_verdict(target, parts)
    want, starts = oracle_classes.rule_verdict(target, parts)
    assert (verdict, len(reasons)) == (want, len(starts)), (target, parts, reasons)
    for reason, start in zip(reasons, starts):
        assert reason.startswith(start), (target, parts, reason)
    return starts


@pytest.mark.parametrize("target", ONE_FACTOR_CLASSES)
def test_two_factor_rules_match_oracle_on_grid(target):
    """Every ordered two-factor list over ONE_FACTOR_CLASSES gets the
    verdict that the kind-by-kind oracle derives, with one reason per rule
    that ran."""
    t = F(target)
    for pair in product(GRID, repeat=2):
        _check_rules(t, list(pair))


def test_central_triple_rule_matches_oracle_on_grid():
    """The same for every ordered three-factor list of I0*; the grid meets
    the central triple rule passing for each I_k and forbidding, and the
    Euler number mod 12 rule forbidding."""
    met = set()
    for triple in product(GRID, repeat=3):
        met.update(_check_rules(F("I0*"), list(triple)))
    assert met >= {"central triple rule: ", "Euler number mod 12 rule: "}
    assert {"central triple rule passed for I_%d factor" % k for k in range(1, 9)} <= met


FORBIDDEN_DECOMPOSITIONS = [
    ("IV", ["I2", "I2"]),
    ("II*", ["I8", "II"]),
    ("II*", ["I8", "I2"]),
    ("III*", ["I7", "II"]),
    ("III*", ["I7", "I2"]),
    ("III*", ["I6", "III"]),
    ("III*", ["I6", "I3"]),
    ("IV*", ["I6", "II"]),
    ("IV*", ["I6", "I2"]),
    ("I0*", ["I4", "II"]),
    ("I0*", ["I4", "I2"]),
    ("I0*", ["I3", "III"]),
    ("I0*", ["I3", "I3"]),
    ("I0*", ["I3", "I2", "I1"]),
    ("I1*", ["I5", "II"]),
    ("I1*", ["I5", "I2"]),
]


@pytest.mark.parametrize("target,parts", FORBIDDEN_DECOMPOSITIONS)
def test_forbidden_decompositions(target, parts):
    verdict, reasons = decomposition_verdict(F(target), [F(p) for p in parts])
    assert verdict == FORBIDDEN
    assert reasons


def test_realized_splittings_never_flagged():
    """Everything with an explicit witness must pass the obstructions."""
    for label, w in all_witnesses():
        parts = [base for base, _ in w.factors]
        verdict, _ = decomposition_verdict(w.target, parts)
        assert verdict == UNDECIDED, label


@pytest.mark.parametrize("parts", [["I1", "I2"], ["I2", "I1"]])
def test_a_trace_rule_that_forbids_is_the_one_reason(parts):
    # the Euler number mod 12 rule forbids these too (1 + 2 is not 2 mod 12),
    # but it runs after the trace rules
    k, other = F(parts[0]).n, parts[1]
    verdict, reasons = decomposition_verdict(F("II"), [F(p) for p in parts])
    assert verdict == FORBIDDEN
    assert reasons == [
        "trace shift rule: trace(II)-trace(%s) = -1 admits no valid multiple of %d" % (other, k)
    ]


def test_verdict_carries_reason_strings():
    verdict, reasons = decomposition_verdict(F("II*"), [F("I8"), F("I2")])
    assert verdict == FORBIDDEN
    assert any("trace" in r for r in reasons)


# -------------------------------------------------------------- witnesses


def test_all_witnesses_verify():
    rows = all_witnesses()
    assert len(rows) == 26
    for label, w in rows:
        assert verify_witness(w), label


def test_identity_labels_round_trip():
    for label, w in all_witnesses():
        assert format_identity(w) == label
        assert parse_identity(label) == w
        assert format_identity(parse_identity(label)) == label


@pytest.mark.parametrize(
    "text",
    [
        "II I1 . I1",  # no " = "
        "II=I1 . I1",
        "II = I1 . I1^(s0 s2",  # unclosed "^("
        "II = I1^(s0 s2 . I1",
        "II = I1 . I1^(",
        "II = ",
        "II = I1 . I1^(s1)",
        "X = I1",
    ],
)
def test_parse_identity_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_identity(text)


def test_tampered_witness_fails():
    label, w = all_witnesses()[0]
    base, conjugator = w.factors[0]
    bad = FactorizationWitness(
        w.target, ((base, conjugator * word(("s2", 1))),) + w.factors[1:]
    )
    assert not verify_witness(bad)


@pytest.mark.parametrize("n", range(0, 9))
def test_I_star_family(n):
    assert verify_witness(witness_I_star_family(n))


def test_I_star_family_rejects_negative():
    with pytest.raises(ValueError):
        witness_I_star_family(-1)


def test_witness_product_is_ordered():
    w = FactorizationWitness(
        F("II"), ((F("I1"), parse_word("")), (F("I1"), parse_word("s0 s2")))
    )
    assert verify_witness(w)
    flipped = FactorizationWitness(F("II"), tuple(reversed(w.factors)))
    assert not verify_witness(flipped)


# ----------------------------------------------------------------- search


def test_search_finds_cusp_splitting():
    w = search_factorization(F("II"), [F("I1"), F("I1")], 2)
    assert w is not None
    assert verify_witness(w)


def test_search_trivial_factorization():
    w = search_factorization(F("I1"), [F("I1")], 0)
    assert w is not None
    assert list(w.factors[0][1]) == []


def test_search_exhausts_on_forbidden_split():
    assert search_factorization(F("IV"), [F("I2"), F("I2")], 4) is None


def test_search_budget_is_enforced():
    with pytest.raises(SearchBudgetExceeded):
        search_factorization(F("I2*"), [F("I0*"), F("II")], 6, node_budget=50)


def test_search_mismatched_euler_finds_nothing():
    assert search_factorization(F("II"), [F("I1")], 2) is None


def test_witnesses_conjugate_coherently():
    """Conjugating every factor by one g conjugates the product, so the
    conjugated product still classifies to the target class."""
    from barkfib.kodaira import classify
    from barkfib.sl2z import conj, eval_word

    rng = random.Random(77)
    rows = all_witnesses()
    for _ in range(40):
        label, w = rng.choice(rows)
        g_word = word(
            ("s0", rng.randrange(-3, 4) or 1), ("s2", rng.randrange(-3, 4) or 1)
        )
        g = eval_word(g_word)
        shifted = FactorizationWitness(
            w.target,
            tuple((base, g_word * cw) for base, cw in w.factors),
        )
        assert shifted.product() == conj(w.product(), g)
        assert classify(shifted.product()) == w.target.reduced(), label
