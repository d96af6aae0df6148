"""Hypothesis properties of the exact layers: class invariance under
conjugation, conjugating a stored identity, the trace rules'
independence of factor order, and no rule forbidding a product that
exists."""

from math import gcd

from hypothesis import assume, given
from hypothesis import strategies as st

from barkfib.kodaira import FiberClass, KINDS, classify, standard_monodromy
from barkfib.sl2z import IDENTITY, Mat2, Word, conj, eval_word
from barkfib.splitting import (
    FORBIDDEN,
    FactorizationWitness,
    all_witnesses,
    decomposition_verdict,
)

import oracle_classes

ENTRIES = st.integers(-10**12, 10**12)


def _bezout(a, c):
    """(x, y) with a*x + c*y == 1, for coprime a and c."""
    r0, r1, x0, x1, y0, y1 = a, c, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0) if r0 == 1 else (-x0, -y0)


@st.composite
def sl2z_matrices(draw, entries=ENTRIES):
    """A determinant-1 matrix from a primitive first column (a, c): every
    matrix of SL(2,Z) arises, as the second column is a Bezout solution
    plus k times the first."""
    a, c = draw(st.tuples(entries, entries).filter(lambda p: gcd(*p) == 1))
    x, y = _bezout(a, c)
    k = draw(entries)
    return Mat2(a, k * a - y, c, x + k * c)


FIBER_CLASSES = st.sampled_from(KINDS).flatmap(
    lambda kind: st.builds(
        FiberClass, st.just(kind), st.integers(0, 10**6) if kind in ("I", "I*") else st.just(0)
    )
)

WORDS = st.lists(
    st.tuples(st.sampled_from(["s0", "s2"]), st.integers(-50, 50)), max_size=8
).map(Word)


@given(
    st.one_of(sl2z_matrices(), FIBER_CLASSES.map(standard_monodromy)),
    sl2z_matrices(st.integers(-1000, 1000)),
)
def test_classify_is_conjugation_invariant(m, g):
    assert classify(conj(m, g)) == classify(m)


@given(sl2z_matrices())
def test_classify_matches_oracle(m):
    assert classify(m) == oracle_classes.classify(m)


@given(st.sampled_from(all_witnesses()), WORDS)
def test_common_conjugator_conjugates_the_product(row, g):
    _, w = row
    shifted = FactorizationWitness(w.target, tuple((f, g * cw) for f, cw in w.factors))
    assert shifted.product() == conj(w.product(), eval_word(g))


# Small indices, so that the I_k rules' divisibility tests both pass and fail.
SMALL_CLASSES = st.sampled_from(KINDS).flatmap(
    lambda kind: st.builds(
        FiberClass,
        st.just(kind),
        st.integers(0, 12) if kind in ("I", "I*") else st.just(0),
        st.integers(1, 3) if kind in ("I", "I*") else st.just(1),
    )
)


@given(
    st.one_of(st.just(FiberClass("I*", 0)), SMALL_CLASSES),
    st.lists(SMALL_CLASSES, min_size=1, max_size=3).flatmap(
        lambda parts: st.tuples(st.just(parts), st.permutations(parts))
    ),
)
def test_verdict_ignores_factor_order(target, orders):
    parts, shuffled = orders
    verdict, reasons = decomposition_verdict(target, parts)
    assert decomposition_verdict(target, shuffled)[0] == verdict
    if verdict == FORBIDDEN:
        assert len(reasons) == 1


@given(st.lists(st.tuples(SMALL_CLASSES, WORDS), min_size=1, max_size=4))
def test_no_rule_forbids_a_product_of_conjugates(factors):
    # the product of conjugated standard matrices, when classify names it,
    # is a factorization, so every rule must pass it: the Euler number mod
    # 12 rule for any number of factors, the trace rules within their reach
    product = IDENTITY
    for f, g in factors:
        product = product * conj(standard_monodromy(f), eval_word(g))
    target = classify(product)
    assume(target is not None)
    assert decomposition_verdict(target, [f for f, _ in factors])[0] != FORBIDDEN
