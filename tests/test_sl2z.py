"""Exact matrix and word arithmetic."""

import random

import pytest

from barkfib.sl2z import (
    IDENTITY,
    S0,
    S2,
    Mat2,
    Word,
    conj,
    eval_word,
    format_word,
    inverse,
    parse_word,
    trace,
    word,
)


def test_generators():
    assert S0.entries() == (1, 1, 0, 1)
    assert S2.entries() == (1, 0, -1, 1)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(3, 1, 1, 1)


def test_group_relations():
    a = S0 * S2
    b = S0 * S2 * S0
    minus = Mat2(-1, 0, 0, -1)
    assert a * a * a == minus
    assert b * b == minus
    assert (a * a * a) * (a * a * a) == IDENTITY
    assert eval_word(parse_word("s0 s2 s0 s2 s0 s2")) == minus


def test_inverse_and_conj():
    m = Mat2(1, 3, 0, 1) * S2
    assert m * inverse(m) == IDENTITY
    assert inverse(m) * m == IDENTITY
    g = S2 * Mat2(1, 2, 0, 1)
    assert conj(m, g) == g * m * inverse(g)
    assert trace(conj(m, g)) == trace(m)


def test_word_normalization():
    w = Word([("s0", 2), ("s0", 1), ("s2", 0), ("s0", -3)])
    assert w == Word()
    w = Word([("s0", 1), ("s2", 2), ("s2", -1)])
    assert w.letters == (("s0", 1), ("s2", 1))
    with pytest.raises(ValueError, match="unknown generator 's3'"):
        Word([("s3", 1)])


def test_word_inverse_and_count():
    w = parse_word("s0^3 s2^-2 s0")
    assert w.letters == (("s0", 3), ("s2", -2), ("s0", 1))
    assert w * parse_word("s0^-1 s2^2 s0^-3") == Word()
    assert sum(abs(e) for _, e in w) == 6


def test_eval_is_left_to_right():
    assert eval_word(word(("s0", 1), ("s2", 1))) == S0 * S2
    assert eval_word(word(("s0", 1), ("s2", 1))).entries() == (0, 1, -1, 1)
    assert eval_word(word(("s0", 5))) == Mat2(1, 5, 0, 1)
    assert eval_word(word(("s0", -3))) == Mat2(1, -3, 0, 1)
    assert eval_word(word(("s2", 4))) == Mat2(1, 0, -4, 1)


def test_parse_format_round_trip():
    rng = random.Random(20240817)
    for _ in range(200):
        letters = []
        gen = rng.choice(["s0", "s2"])
        for _ in range(rng.randrange(0, 6)):
            exp = rng.choice([-3, -2, -1, 1, 2, 3])
            letters.append((gen, exp))
            gen = "s2" if gen == "s0" else "s0"
        w = Word(letters)
        assert parse_word(format_word(w)) == w


def test_parse_rejects_garbage():
    for bad in ("s1", "s0^x", "t0 s2", "s0^"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_hash_eq():
    assert hash(S0 * S2) == hash(Mat2(0, 1, -1, 1))
    assert len({S0, Mat2(1, 1, 0, 1), S2}) == 2
    assert len({parse_word("s0 s2"), Word([("s0", 1), ("s2", 1)])}) == 1
    assert Mat2(2, 1, 1, 1) == Mat2(2, 1, 1, 1)
    assert hash(Mat2(2, 1, 1, 1)) == hash(Mat2(2, 1, 1, 1))
    assert Mat2(1, 0, 0, 1) != (1, 0, 0, 1)
    assert Word([("s0", 2), ("s0", -2)]) == Word()
    assert hash(Word([("s0", 2), ("s0", -2)])) == hash(Word())


def test_values_are_frozen():
    m, w = Mat2(1, 0, 0, 1), parse_word("s0 s2")
    with pytest.raises(AttributeError):
        m.a = 5
    with pytest.raises(AttributeError):
        w.letters = ()
    assert m == IDENTITY and w == word(("s0", 1), ("s2", 1))


def test_non_integer_entries_rejected():
    with pytest.raises(TypeError):
        Mat2(1.0, 0, 0, 1)
    with pytest.raises(TypeError):
        Word([("s0", 1.0)])


def test_big_entries_stay_exact():
    n = 10**9
    m = Mat2(1, n, 0, 1) * S2 * Mat2(1, n, 0, 1)
    assert m.entries() == (1 - n, 2 * n - n * n, -1, 1 - n)
    assert eval_word(word(("s0", n), ("s2", 1), ("s0", n))) == m
