"""Fiber catalog: parsing, Euler numbers, standard monodromies, classification."""

import random
import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barkfib.kodaira import (
    KINDS,
    FiberClass,
    classify,
    euler,
    parse_fiber,
    standard_entries,
    standard_monodromy,
    standard_word,
)
from barkfib.sl2z import IDENTITY, Mat2, S0, S2, Word, conj, eval_word, format_word, trace, word

import oracle_classes


def all_reduced_classes(max_index=4):
    """Representative reduced classes: I_n and I_n* up to max_index plus
    the six elliptic classes."""
    classes = [FiberClass("I", n) for n in range(max_index + 1)]
    classes += [FiberClass(k) for k in ("II", "III", "IV")]
    classes += [FiberClass("I*", n) for n in range(max_index + 1)]
    classes += [FiberClass(k) for k in ("II*", "III*", "IV*")]
    return classes


CATALOG = [
    # name, euler, trace, (a, b, c, d)
    ("I0", 0, 2, (1, 0, 0, 1)),
    ("I1", 1, 2, (1, 1, 0, 1)),
    ("I5", 5, 2, (1, 5, 0, 1)),
    ("II", 2, 1, (0, 1, -1, 1)),
    ("III", 3, 0, (0, 1, -1, 0)),
    ("IV", 4, -1, (-1, 1, -1, 0)),
    ("I0*", 6, -2, (-1, 0, 0, -1)),
    ("I1*", 7, -2, (-1, -1, 0, -1)),
    ("I5*", 11, -2, (-1, -5, 0, -1)),
    ("II*", 10, 1, (1, -1, 1, 0)),
    ("III*", 9, 0, (0, -1, 1, 0)),
    ("IV*", 8, -1, (0, -1, 1, -1)),
]


@pytest.mark.parametrize("name,e,tr,entries", CATALOG)
def test_catalog_row(name, e, tr, entries):
    f = parse_fiber(name)
    assert euler(f) == e
    m = standard_monodromy(f)
    assert m.entries() == entries
    assert trace(m) == tr
    assert m.a * m.d - m.b * m.c == 1


@pytest.mark.parametrize("name,e,tr,entries", CATALOG)
def test_word_letter_count_is_euler(name, e, tr, entries):
    f = parse_fiber(name)
    w = standard_word(f)
    assert sum(abs(exp) for _, exp in w) == e
    assert eval_word(w) == standard_monodromy(f)


STANDARD_WORDS = [
    ("I0", ""),
    ("I1", "s0"),
    ("I5", "s0^5"),
    ("II", "s0 s2"),
    ("III", "s0 s2 s0"),
    ("IV", "s0 s2 s0 s2"),
    ("I0*", "s0 s2 s0 s2 s0 s2"),
    ("I3*", "s0 s2 s0 s2 s0 s2 s0^3"),
    ("IV*", "s0 s2 s0 s2 s0 s2 s0 s2"),
    ("III*", "s0 s2 s0 s2 s0 s2 s0 s2 s0"),
    ("II*", "s0 s2 s0 s2 s0 s2 s0 s2 s0 s2"),
    ("2I3", "s0^3"),
]


@pytest.mark.parametrize("name,text", STANDARD_WORDS)
def test_standard_word_spelling(name, text):
    assert format_word(standard_word(parse_fiber(name))) == text


def test_standard_monodromy_closed_form_equals_word():
    classes = all_reduced_classes(60)
    assert {f.kind for f in classes} == set(KINDS)
    for f in classes:
        assert standard_monodromy(f) == eval_word(standard_word(f)), f


def test_standard_entries_are_the_standard_matrix():
    """standard_entries reads the same matrix as standard_monodromy and as
    the standard word, for I0-I30, I0*-I30*, the six elliptic classes and
    multiplicity 2."""
    classes = all_reduced_classes(30)
    classes += [FiberClass(k, n, 2) for k in ("I", "I*") for n in range(31)]
    for f in classes:
        entries = standard_entries(f)
        assert type(entries) is tuple, f
        assert entries == standard_monodromy(f).entries(), f
        assert entries == eval_word(standard_word(f)).entries(), f


@given(st.sampled_from(["I", "I*"]), st.integers(0, 10**6), st.integers(1, 3))
def test_standard_monodromy_closed_form_property(kind, n, multiplicity):
    f = FiberClass(kind, n, multiplicity)
    assert standard_monodromy(f) == eval_word(standard_word(f))


def test_parse_round_trip():
    for text in ("I0", "I12", "I3*", "II", "IV*", "2I3", "3I0*"):
        assert str(parse_fiber(text)) == text


def test_parse_rejects_garbage():
    for bad in ("I", "V", "I-1", "III**", "0I2", "I2**", "xyz", "", " ", "1II", "2IV*"):
        with pytest.raises(ValueError):
            parse_fiber(bad)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_matches_oracle_on_short_names():
    """Every name of up to 4 characters over `I V * 0 1 2 ␠ ² ٣ x` parses as
    the old scanner parsed it, apart from three groups the grammar refuses
    with its one message: blank names, which the scanner called empty; a
    multiplicity other than 1 before II, III or IV, which it refused with
    its own message; and a multiplicity of 1 there, which it accepted."""
    alphabet = "IV*012 ²٣x"
    names = ["".join(t) for k in range(5) for t in product(alphabet, repeat=k)]
    assert len(names) == 11111
    groups = {"blank": 0, "multiple": 0, "one": 0}
    for text in names:
        old = _outcome(oracle_classes.parse_fiber, text)
        new = _outcome(parse_fiber, text)
        s = text.strip()
        prefixed = re.fullmatch(r"(\d+)((?:II|III|IV)\*?)", s)
        if not s:
            group, was = "blank", "empty fiber string"
        elif prefixed and int(prefixed[1]) != 1:
            group, was = "multiple", "fiber %r cannot carry a multiplicity" % (text,)
        elif prefixed:
            group, was = "one", FiberClass(prefixed[2])
        else:
            assert new == old, text
            continue
        groups[group] += 1
        assert old == was, text
        assert new == "cannot parse fiber string %r" % (text,), text
    assert groups == {"blank": 5, "multiple": 57, "one": 11}


def test_fiber_class_validation():
    with pytest.raises(ValueError):
        FiberClass("II", n=1)
    with pytest.raises(ValueError):
        FiberClass("I", n=-1)
    with pytest.raises(ValueError):
        FiberClass("II", multiplicity=2)
    with pytest.raises(ValueError, match="unknown fiber kind 'V'"):
        FiberClass("V")
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        parse_fiber("0I3")
    assert FiberClass("I", 3, multiplicity=2).reduced() == FiberClass("I", 3)


def test_multiplicity_is_never_classified():
    """classify sees only the monodromy, which ignores multiplicity."""
    f = parse_fiber("2I3")
    assert classify(standard_monodromy(f)) == parse_fiber("I3")


@pytest.mark.parametrize("f", all_reduced_classes(max_index=6))
def test_classify_round_trip(f):
    assert classify(standard_monodromy(f)) == f


def test_classify_conjugation_invariant():
    rng = random.Random(4242)
    classes = all_reduced_classes(max_index=5)
    for f in classes:
        m = standard_monodromy(f)
        for _ in range(50):
            g = IDENTITY
            for _ in range(rng.randrange(1, 7)):
                g = g * eval_word(word((rng.choice(["s0", "s2"]), rng.choice([-2, -1, 1, 2]))))
            assert classify(conj(m, g)) == f


def test_classify_matches_oracle_on_small_matrices():
    """Every SL(2,Z) matrix with entries in [-7, 7] gets the class the
    kind-by-kind oracle gives it."""
    grid = [Mat2(a, b, c, d) for a, b, c, d in product(range(-7, 8), repeat=4) if a * d - b * c == 1]
    assert len(grid) == 564
    for m in grid:
        assert classify(m) == oracle_classes.classify(m), m


ELLIPTIC = [parse_fiber(k) for k in ("II", "III", "IV", "II*", "III*", "IV*")]


def test_elliptic_classes_differ_in_trace_or_euler_mod_12():
    """II/II*, III/III* and IV/IV* share a trace, but their Euler numbers
    2/10, 3/9 and 4/8 differ mod 12."""
    keys = {(trace(standard_monodromy(f)), euler(f) % 12) for f in ELLIPTIC}
    assert len(keys) == 6


def _normalized_words(max_letters, max_exp):
    letters = st.tuples(st.sampled_from(["s0", "s2"]), st.integers(-max_exp, max_exp))
    return st.lists(letters, max_size=max_letters).map(lambda ls: Word(tuple(ls)))


# Every normalized word of at most three letters with exponents in -3..3
# whose matrix has |trace| <= 1; the standard elliptic words are among them.
SMALL_TRACE_WORDS = [
    w
    for n in range(4)
    for gens in product(["s0", "s2"], repeat=n)
    for exps in product([-3, -2, -1, 1, 2, 3], repeat=n)
    for w in [Word(tuple(zip(gens, exps)))]
    if len(w) == n and abs(trace(eval_word(w))) <= 1
]


def _inverse(w):
    return Word(tuple((gen, -e) for gen, e in reversed(w.letters)))


# (s0 s2)^3 = -I, of exponent sum 6: a power of it moves a class to its
# star partner (II <-> IV*, III <-> III*, IV <-> II*) or back.
HALF_TURN = Word((("s0", 1), ("s2", 1)) * 3)


@given(_normalized_words(5, 4), st.sampled_from(SMALL_TRACE_WORDS), st.integers(-3, 3))
def test_elliptic_class_is_its_trace_and_exponent_sum_mod_12(g, seed, turns):
    """A word g*seed*g^-1*(s0 s2)^(3*turns), of |trace| <= 1, is of the
    elliptic class with its trace whose Euler number is its exponent sum
    mod 12: SL(2,Z) -> Z/12 sends s0 and s2 to 1, and each class to its
    Euler number."""
    turn = HALF_TURN if turns > 0 else _inverse(HALF_TURN)
    w = g * seed * _inverse(g) * Word(turn.letters * abs(turns))
    m = eval_word(w)
    total = sum(e for _, e in w)
    [want] = [
        f for f in ELLIPTIC
        if trace(standard_monodromy(f)) == trace(m) and euler(f) % 12 == total % 12
    ]
    assert classify(m) == want


def test_classify_none_cases():
    assert classify(Mat2(2, 1, 1, 1)) is None  # hyperbolic
    assert classify(Mat2(2, 3, 1, 2)) is None
    assert classify(Mat2(-2, 1, -1, 0)) is None  # trace -2, -M not parabolic


def test_classify_identity_and_center():
    assert classify(IDENTITY) == parse_fiber("I0")
    assert classify(Mat2(-1, 0, 0, -1)) == parse_fiber("I0*")


def test_classify_type_error():
    with pytest.raises(TypeError):
        classify([[1, 0], [0, 1]])


def test_parabolic_lower_triangular():
    """Conjugates of S0^n with c != 0 still classify by the gcd index."""
    assert classify(Mat2(1, 0, -4, 1)) == parse_fiber("I4")
    assert classify(conj(Mat2(1, 3, 0, 1), S2 * S0)) == parse_fiber("I3")
    assert classify(-Mat2(1, 0, -2, 1)) == parse_fiber("I2*")


def test_sort_key_orders_plain_before_decorated():
    fibers = [parse_fiber(t) for t in ("III", "I2", "II", "I1")]
    fibers.sort(key=lambda f: f.sort_key())
    assert [str(f) for f in fibers] == ["I1", "I2", "II", "III"]
