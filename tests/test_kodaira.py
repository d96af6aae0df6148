"""Fiber catalog: parsing, Euler numbers, standard monodromies, classification."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barkfib.kodaira import (
    KINDS,
    FiberClass,
    classify,
    euler,
    parse_fiber,
    standard_monodromy,
    standard_word,
)
from barkfib.sl2z import IDENTITY, Mat2, S0, S2, conj, eval_word, format_word, trace, word


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


@given(st.sampled_from(["I", "I*"]), st.integers(0, 10**6), st.integers(1, 3))
def test_standard_monodromy_closed_form_property(kind, n, multiplicity):
    f = FiberClass(kind, n, multiplicity)
    assert standard_monodromy(f) == eval_word(standard_word(f))


def test_parse_round_trip():
    for text in ("I0", "I12", "I3*", "II", "IV*", "2I3", "3I0*"):
        assert str(parse_fiber(text)) == text


def test_parse_rejects_garbage():
    for bad in ("I", "V", "I-1", "III**", "0I2", "I2**", "xyz", ""):
        with pytest.raises(ValueError):
            parse_fiber(bad)


def test_fiber_class_validation():
    with pytest.raises(ValueError):
        FiberClass("II", n=1)
    with pytest.raises(ValueError):
        FiberClass("I", n=-1)
    with pytest.raises(ValueError):
        FiberClass("II", multiplicity=2)
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
