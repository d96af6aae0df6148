"""The integer-tuple kernel of search_factorization: agreement with the
Mat2 arithmetic and with the reference tables of oracle_search, exact
node budgets, frozen first witnesses, and the trace-rule shortcut that
runs before it."""

import functools
import tracemalloc
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barkfib.kodaira import classify, euler, parse_fiber, standard_entries, standard_monodromy
from barkfib.sl2z import IDENTITY, Mat2, Word, conj, eval_word, format_word
from barkfib.splitting import (
    FORBIDDEN,
    WITNESS_TABLE,
    FactorizationWitness,
    SearchBudgetExceeded,
    _ConjugateTables,
    _find_conjugators,
    decomposition_verdict,
    format_identity,
    multiset,
    parse_identity,
    search_factorization,
    verify_witness,
)

from oracle_search import (
    builder_tables,
    conjugate_tables,
    find_conjugators,
    has_factorization,
    search_nodes,
)

BASES = ["I1", "I2", "I3", "II", "III", "IV", "I0*", "I1*", "II*", "III*", "IV*"]
EXP_CAP = 3
EXPS = [e for e in range(-EXP_CAP, EXP_CAP + 1) if e != 0]
OTHER = {"s0": "s2", "s2": "s0"}


def F(text):
    return parse_fiber(text)


def entries(name):
    return standard_monodromy(F(name)).entries()


@st.composite
def conjugators(draw, max_len):
    """Letters of a normalized word with exponents in EXPS."""
    gen = draw(st.sampled_from(["s0", "s2"]))
    letters = []
    for e in draw(st.lists(st.sampled_from(EXPS), max_size=max_len)):
        letters.append((gen, e))
        gen = OTHER[gen]
    return tuple(letters)


@functools.lru_cache(maxsize=None)
def tables(max_len):
    return dict(zip(BASES, builder_tables([entries(b) for b in BASES], max_len, EXP_CAP)))


def words_in_search_order(max_len):
    """The conjugator words the search visits, in its order."""
    out = [()]
    level = [()]
    for _ in range(max_len):
        level = [
            w + ((gen, e),)
            for w in level
            for gen in ("s0", "s2")
            if not w or w[-1][0] != gen
            for e in EXPS
        ]
        out += level
    return out


def test_tables_match_mat2_enumeration():
    """Same keys, same first words, same order as building the tables
    with Mat2 conjugation over the words in search order."""
    for base in BASES:
        m = standard_monodromy(F(base))
        expected = {}
        for letters in words_in_search_order(2):
            expected.setdefault(conj(m, eval_word(Word(letters))).entries(), letters)
        assert list(tables(2)[base].items()) == list(expected.items()), base


# Base lists for the oracle comparison: all parabolic (no elliptic base,
# so the last length builds no s0-children), one elliptic class, and mixed.
ORACLE_BASES = [
    ["I1", "I5", "I3*"],
    ["I0", "I0*", "I2"],
    ["I0"],
    ["II"],
    ["IV*"],
    ["I1", "II", "I0*"],
    ["I2", "III", "I4*", "IV", "II*"],
]


@pytest.mark.parametrize("names", ORACLE_BASES, ids="-".join)
def test_tables_match_oracle(names):
    """Same keys, same first words, same order as the full conjugation
    of every base by every word."""
    bases = [entries(b) for b in names]
    for exp_cap in (0, 1, 3, 8):
        exps = [e for e in range(-exp_cap, exp_cap + 1) if e != 0]
        for max_len in range(4):
            got = builder_tables(bases, max_len, exp_cap)
            want = conjugate_tables(bases, max_len, exps)
            for name, table, expected in zip(names, got, want):
                assert list(table.items()) == list(expected.items()), (name, exp_cap, max_len)


@settings(max_examples=60, deadline=None)
@given(conjugators(3))
def test_tuple_conjugation_equals_conj(g):
    for base in BASES:
        m = standard_monodromy(F(base))
        want = conj(m, eval_word(Word(g))).entries()
        table = tables(3)[base]
        assert want in table
        assert conj(m, eval_word(Word(table[want]))).entries() == want


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(BASES), min_size=2, max_size=3).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(
                conjugators(2 if len(names) == 2 else 1),
                min_size=len(names),
                max_size=len(names),
            ),
        )
    )
)
def test_tuple_products_equal_mat2_products(case):
    """A product of conjugates built with Mat2.__mul__, in the canonical
    order of their classes, is found, and the conjugators found multiply
    back to it."""
    names, gs = case
    parts = multiset(*map(F, names))
    target = IDENTITY
    for f, g in zip(parts, gs):
        target = target * conj(standard_monodromy(f), eval_word(Word(g)))
    found = _find_conjugators(target.entries(), parts, max(map(len, gs)), EXP_CAP, 10**7)
    assert found is not None
    product = IDENTITY
    for f, w in zip(parts, found):
        product = product * conj(standard_monodromy(f), eval_word(Word(w)))
    assert product == target


def by_case(rows):
    """Parameters of (target, parts, length, ...) rows, each with the id of
    its case alone, e.g. II-I1-I1-L2."""
    return [pytest.param(*row, id="-".join([row[0], *row[1], "L%d" % row[2]])) for row in rows]


# The smallest budget with which each search completes.
BUDGET_EDGES = [
    ("II", ["I1", "I1"], 2, 88),
    ("IV", ["I3", "I1"], 2, 119),
    ("III", ["I1", "I1", "I1"], 1, 76),
    # Length 0 is the empty conjugator only: one word, one conjugation,
    # one search node.
    ("I1", ["I1"], 0, 3),
    # Three factors with a distinct last class: pins the two nodes charged
    # for each child whose factor is the last (the child and its leaf).
    ("III*", ["I6", "I1", "I2"], 2, 374),
]

# The three-factor length-3 searches of the search-witness benchmark
# workload: each finds its witness in the pass of length 1.
LENGTH_3_EDGES = [
    ("I6*", ["I10", "I1", "I1"], 3, 449),
    ("II*", ["I8", "I1", "I1"], 3, 229),
    ("III*", ["I6", "I1", "I2"], 3, 374),
]

# Searches the trace rules forbid: search_factorization returns None
# without searching, so the kernel's node accounting is pinned directly.
# Every pass runs, so each is charged the search of every length.
KERNEL_BUDGET_EDGES = [
    ("IV", ["I2", "I2"], 2, 1613),
    ("I0*", ["I3", "I2", "I1"], 1, 750),
]


@pytest.mark.parametrize("target,parts,length,budget", by_case(BUDGET_EDGES + LENGTH_3_EDGES))
def test_budget_edges(target, parts, length, budget):
    args = (F(target), [F(p) for p in parts], length)
    search_factorization(*args, node_budget=budget)
    with pytest.raises(SearchBudgetExceeded):
        search_factorization(*args, node_budget=budget - 1)


# II* = I8 . I1 . I1 at length 1: the empty word costs 1 x 3 = 3 nodes, the
# root of the depth-first search is node 4 and its first child, charged in
# the middle loop before it descends, is node 5.
MIDDLE_LOOP_EDGE = ("II*", ["I8", "I1", "I1"], 1, 4)


def test_budget_edge_in_the_middle_loop():
    target, parts, length, budget = MIDDLE_LOOP_EDGE
    args = (F(target), [F(p) for p in parts], length)
    for node_budget, nodes in ((budget - 1, budget), (budget, budget + 1)):
        with pytest.raises(SearchBudgetExceeded) as raised:
            search_factorization(*args, node_budget=node_budget)
        # charged in the root's frame: its own node, then its first child
        assert raised.traceback[-1].name == "charge"
        frame = raised.traceback[-2]
        assert frame.name == "_complete"
        assert (frame.locals["idx"], frame.locals["builder"].count) == (0, nodes)


# Searches whose witness is found before the tables are full: the lengths
# past its pass are not charged, so their node count does not depend on
# the conjugator length bound.
EARLY_WITNESS_NODES = [
    ("II", ["I1", "I1"], 88),
    ("IV", ["I3", "I1"], 119),
    ("IV", ["II", "II"], 5),
]


@pytest.mark.parametrize(
    "target,parts,length,budget",
    by_case(
        (target, parts, length, budget)
        for target, parts, budget in EARLY_WITNESS_NODES
        for length in (2, 3, 6, 30)
    ),
)
def test_unread_lengths_cost_nothing(target, parts, length, budget):
    args = (F(target), [F(p) for p in parts], length)
    assert search_factorization(*args, node_budget=budget) is not None
    with pytest.raises(SearchBudgetExceeded):
        search_factorization(*args, node_budget=budget - 1)


@pytest.mark.parametrize("target,parts,length,budget", by_case(KERNEL_BUDGET_EDGES))
def test_kernel_budget_edges(target, parts, length, budget):
    args = (entries(target), multiset(*map(F, parts)), length, 8)
    assert _find_conjugators(*args, budget) is None
    with pytest.raises(SearchBudgetExceeded):
        _find_conjugators(*args, budget - 1)


@pytest.mark.parametrize(
    "target,parts,length,budget", by_case(BUDGET_EDGES + KERNEL_BUDGET_EDGES + LENGTH_3_EDGES)
)
def test_oracle_counts_the_budget_edges(target, parts, length, budget):
    assert search_nodes(entries(target), multiset(*map(F, parts)), length, 8)[1] == budget


@st.composite
def small_searches(draw, names=BASES, min_size=1):
    """(target, parts, max_len, exp_cap): min_size to 3 factors drawn from
    ``names``, length at most 2, exp_cap at most 3, and a target that is
    either a product of the parts' conjugates within those bounds or a
    standard matrix."""
    names = draw(st.lists(st.sampled_from(names), min_size=min_size, max_size=3))
    max_len, exp_cap = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        return entries(draw(st.sampled_from(BASES))), names, max_len, exp_cap
    exps = [e for e in EXPS if abs(e) <= exp_cap]
    target = IDENTITY
    for name in names:
        gen = draw(st.sampled_from(["s0", "s2"]))
        letters = []
        for e in draw(st.lists(st.sampled_from(exps), max_size=max_len)) if exps else ():
            letters.append((gen, e))
            gen = OTHER[gen]
        target = target * conj(standard_monodromy(F(name)), eval_word(Word(letters)))
    return target.entries(), names, max_len, exp_cap


@settings(max_examples=50, deadline=None)
@given(small_searches())
def test_search_charges_the_oracle_node_count(search):
    # the leaf loop charges the candidates it has read when it finds the
    # witness and at the end of its table: the count must still be the
    # one-at-a-time count, so the search completes with exactly that budget
    # and raises with one node less
    _assert_oracle_search(*search)


# I_n and I_n* parts with |beta| >= 2 and both signs of alpha (I3, I5 and
# I1 are I + n*N, I2* and I4* are -I - n*N), beside classes with alpha = 0.
UNIT_PARTS = ["I3", "I5", "I2*", "I4*", "I1", "II", "IV*", "I0*"]


@settings(max_examples=50, deadline=None)
@given(small_searches(UNIT_PARTS, min_size=2))
def test_units_with_large_beta_match_the_oracle(search):
    # a last but one factor with |beta| >= 2 skips the scan of a table whose
    # trace difference beta does not divide, but charges it all the same
    _assert_oracle_search(*search)


@settings(max_examples=50, deadline=None)
@given(small_searches())
def test_witness_has_the_shortest_conjugators(search):
    # a witness is found at length L exactly when the full tables of length
    # L hold one, and its longest conjugator is the shortest length that
    # holds one: at one length less the oracle finds none
    target, names, max_len, exp_cap = search
    parts = multiset(*map(F, names))
    found = _find_conjugators(target, parts, max_len, exp_cap, 10**7)
    assert (found is not None) == has_factorization(target, parts, max_len, exp_cap)
    if found is None:
        return
    longest = max(map(len, found))
    assert longest == 0 or find_conjugators(target, parts, longest - 1, exp_cap) is None
    witness = FactorizationWitness(classify(Mat2(*target)), tuple(zip(parts, map(Word, found))))
    assert witness.product().entries() == target
    if witness.target is not None and standard_entries(witness.target) == target:
        assert verify_witness(witness)


def _assert_oracle_search(target, names, max_len, exp_cap):
    """The oracle's first letters, found with exactly its node count, and
    SearchBudgetExceeded with one node less."""
    parts = multiset(*map(F, names))
    want, nodes = search_nodes(target, parts, max_len, exp_cap)
    assert _find_conjugators(target, parts, max_len, exp_cap, nodes) == want
    with pytest.raises(SearchBudgetExceeded):
        _find_conjugators(target, parts, max_len, exp_cap, nodes - 1)


# Searches that find a witness: after it, as after a search with none, the
# count is the oracle's count of one node at a time.
EXACT_COUNTS = [
    ("I6*", ["I10", "I1", "I1"], 3, 8),
    ("II*", ["I8", "I1", "I1"], 3, 8),
    ("III*", ["I6", "I1", "I2"], 3, 8),
    ("II*", ["II", "I2*"], 2, 1),
    ("II*", ["I1"] * 10, 1, 8),
]


@pytest.mark.parametrize("target,parts,length,exp_cap", EXACT_COUNTS)
def test_count_after_a_witness_is_exact(monkeypatch, target, parts, length, exp_cap):
    # charge() is the only code that moves the count
    builders, charged = [], []
    init, charge = _ConjugateTables.__init__, _ConjugateTables.charge

    def capture(self, *args):
        builders.append(self)
        init(self, *args)

    def record(self, nodes):
        charged.append(nodes)
        charge(self, nodes)

    monkeypatch.setattr(_ConjugateTables, "__init__", capture)
    monkeypatch.setattr(_ConjugateTables, "charge", record)
    args = (entries(target), multiset(*map(F, parts)), length, exp_cap)
    want, nodes = search_nodes(*args)
    assert want is not None
    assert _find_conjugators(*args, 10**7) == want
    [builder] = builders
    assert builder.count == sum(charged) == nodes


@pytest.mark.parametrize("target,parts,length,budget", by_case(KERNEL_BUDGET_EDGES))
def test_forbidden_search_builds_nothing(target, parts, length, budget):
    assert decomposition_verdict(F(target), map(F, parts))[0] == FORBIDDEN

    def call():
        args = (F(target), [F(p) for p in parts])
        assert search_factorization(*args, length, node_budget=0) is None
        assert search_factorization(*args, 10**9) is None

    assert _peak_bytes(call) < 10**6


# I0..I8, II, III, IV, I0*..I4*, II*, III*, IV*, in canonical order.
CLASSES = multiset(
    *(F("I%d" % n) for n in range(9)),
    *(F("I%d*" % n) for n in range(5)),
    *map(F, ["II", "III", "IV", "II*", "III*", "IV*"]),
)


def test_forbidden_decompositions_have_no_witness():
    # The search stops at a forbidden verdict, so the rule must never hide
    # a witness the kernel would find: every Euler-matched pair at length 2
    # and triple at length 1 over CLASSES that the rules forbid.
    forbidden = [
        (target, parts)
        for size in (2, 3)
        for target in CLASSES
        for parts in combinations_with_replacement(CLASSES, size)
        if sum(map(euler, parts)) == euler(target)
        and decomposition_verdict(target, parts)[0] == FORBIDDEN
    ]
    assert len(forbidden) == 94
    for target, parts in forbidden:
        length = 2 if len(parts) == 2 else 1
        m = standard_monodromy(target).entries()
        assert _find_conjugators(m, parts, length, 8, 10**7) is None, (target, parts)


# The length-3 searches of the search-witness benchmark workload: the
# two-factor identities of WITNESS_TABLE and five searches of more factors.
LENGTH_3_SEARCHES = [
    (w.target, multiset(*(f for f, _ in w.factors)))
    for _, w in WITNESS_TABLE
    if len(w.factors) == 2
] + [
    (F(target), multiset(*map(F, parts)))
    for target, parts in [
        ("I6*", ["I10", "I1", "I1"]),
        ("II*", ["I8", "I1", "I1"]),
        ("III*", ["I6", "I1", "I2"]),
        ("IV*", ["I0*", "I1", "I1"]),
        ("II*", ["I1"] * 10),
    ]
]


def test_search_matches_eager_oracle():
    # One set of tables grown by a length before each pass gives what tables
    # built afresh for each length give: the same letters, or None.  Every
    # Euler-matched problem over CLASSES, forbidden ones included (one factor
    # at length 3, two at length 2, three at length 1), and the length-3 rows.
    problems = [
        (target, parts, 4 - size)
        for size in (1, 2, 3)
        for target in CLASSES
        for parts in combinations_with_replacement(CLASSES, size)
        if sum(map(euler, parts)) == euler(target)
    ]
    assert len(problems) == 655
    assert len(LENGTH_3_SEARCHES) == 14
    for target, parts, length in problems + [(t, p, 3) for t, p in LENGTH_3_SEARCHES]:
        m = standard_monodromy(target).entries()
        want = find_conjugators(m, parts, length, 8)
        assert _find_conjugators(m, parts, length, 8, 10**7) == want, (target, parts, length)


FIRST_WITNESSES = [
    ("II", ["I1", "I1"], 2, [("I1", "s2^-1"), ("I1", "")]),
    ("IV", ["I3", "I1"], 2, [("I1", "s2^-2"), ("I3", "s2^-1")]),
    ("III*", ["I6", "I1", "I2"], 3, [("I1", "s2^-3"), ("I2", "s2^-1"), ("I6", "")]),
    # Length 3: elliptic factors only, mixed, and parabolic factors only.
    ("IV", ["II", "II"], 3, [("II", ""), ("II", "")]),
    ("II*", ["IV*", "II"], 3, [("II", ""), ("IV*", "")]),
    ("IV", ["III", "I1"], 3, [("I1", ""), ("III", "")]),
    ("I6*", ["I10", "I1", "I1"], 3, [("I1", "s2"), ("I1", "s2^-1"), ("I10", "")]),
    ("II*", ["I8", "I1", "I1"], 3, [("I1", "s2^-6"), ("I1", "s2^-3"), ("I8", "s2^-1")]),
    ("IV*", ["I0*", "I1", "I1"], 3, [("I1", "s2^-1"), ("I1", ""), ("I0*", "")]),
]


@pytest.mark.parametrize("target,parts,length,factors", FIRST_WITNESSES)
def test_first_witness_is_frozen(target, parts, length, factors):
    w = search_factorization(F(target), [F(p) for p in parts], length)
    assert [(str(f), format_word(g)) for f, g in w.factors] == factors


@pytest.mark.parametrize("target,parts,length,factors", FIRST_WITNESSES)
def test_first_witness_identity_round_trips(target, parts, length, factors):
    w = search_factorization(F(target), [F(p) for p in parts], length)
    assert parse_identity(format_identity(w)) == w


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "target,parts",
    [("IV", ["II", "II"]), ("II*", ["IV*", "II"]), ("IV", ["I2", "II"]), ("III", ["II", "I1"])],
)
def test_short_witness_builds_short_tables(target, parts):
    # conjugators of length <= 1 are found before the length-3 tables (8,737
    # words, over 10^6 bytes) are built
    def call():
        assert search_factorization(F(target), [F(p) for p in parts], 3) is not None

    assert _peak_bytes(call) < 10**5


def test_one_unit_store_serves_every_parabolic_class():
    # I6, I1 and I2 read one dict of units g*N*g^-1: their full length-3
    # tables peak near 1.2*10^6 traced bytes, where a dict and a list per
    # class took about 3*10^6
    def call():
        builder = _ConjugateTables([entries(f) for f in ("I6", "I1", "I2")], 3, 8, 10**7)
        while builder.step():
            pass

    assert _peak_bytes(call) < 1.5 * 10**6


def test_over_budget_search_builds_no_exponent_list():
    # 8*10^6 + 1 length-1 words: over the default budget, known from the count
    def call():
        with pytest.raises(SearchBudgetExceeded):
            search_factorization(F("II"), [F("I1"), F("I1")], 1, exp_cap=4 * 10**6)

    assert _peak_bytes(call) < 10**6


def test_length_zero_search_builds_no_exponent_list():
    def call():
        assert search_factorization(F("I1"), [F("I1")], 0, exp_cap=10**6) is not None

    assert _peak_bytes(call) < 10**6


def test_huge_length_is_bounded_by_the_count():
    # only the lengths the search reads are built and charged, the length
    # the budget cannot pay for raises before it is built, and no exponents
    # leave only the empty word
    w = search_factorization(F("II"), [F("I1"), F("I1")], 10**9)
    assert format_identity(w) == "II = I1^(s2^-1) . I1"

    def call():
        with pytest.raises(SearchBudgetExceeded):
            search_factorization(F("I2*"), [F("I0*"), F("II")], 10**9, node_budget=50)

    assert _peak_bytes(call) < 10**6
    assert search_factorization(F("I1"), [F("I1")], 10**9, exp_cap=0) is not None


def test_length_zero_uses_standard_matrices_only():
    # II* = II . IV* with both factors standard, in canonical order
    assert search_factorization(F("II*"), [F("IV*"), F("II")], 0) is not None
    assert search_factorization(F("II"), [F("I1"), F("I1")], 0) is None


def test_many_identical_factors_search_one_order():
    # ten I1 factors are one order, not 10! index permutations
    assert search_factorization(F("II*"), [F("I1")] * 10, 0) is None


# The rule-passing three-factor problems of the normalised sweep that have
# conjugators of length <= 1 in some order of their parts but not in the
# canonical order, which is the only order searched: each needs length 2.
CANONICAL_ORDER_NEEDS_LENGTH_2 = [
    ("I2*", ["I1", "I3", "I4"]),
    *(("I%d*" % n, ["I3", "I%d" % (n + 1), "II"]) for n in range(3, 15)),
    *(("I%d*" % n, ["I1", "I%d" % (n + 3), "II"]) for n in range(8, 15)),
    *(("I%d*" % n, ["I1", "I%d" % (n + 2), "III"]) for n in range(9, 15)),
    *(("I%d*" % n, ["I1", "I%d" % (n + 1), "IV"]) for n in range(9, 15)),
]


def test_canonical_order_trades_length_for_orders():
    assert len(CANONICAL_ORDER_NEEDS_LENGTH_2) == 32
    for target, names in CANONICAL_ORDER_NEEDS_LENGTH_2:
        parts = multiset(*map(F, names))
        m = entries(target)
        assert any(has_factorization(m, order, 1, 8) for order in set(permutations(parts)))
        assert search_factorization(F(target), parts, 1) is None, target
        w = search_factorization(F(target), parts, 2)
        assert w is not None and verify_witness(w), target


@pytest.mark.parametrize(
    "bounds",
    [dict(max_conj_len=-1), dict(exp_cap=-1), dict(node_budget=-5)],
)
def test_negative_bounds_are_rejected(bounds):
    args = dict(max_conj_len=1, exp_cap=2, node_budget=100)
    args.update(bounds)
    with pytest.raises(ValueError, match="must be nonnegative"):
        search_factorization(F("II"), [F("I1"), F("I1")], **args)
