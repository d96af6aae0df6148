"""Branch/subbranch combinatorics, crust validation and enumeration.

All numbers here are small by nature: branch multiplicity sequences are
strictly decreasing with integral ratio condition, and subbranches obey
the linear recurrence n_{i+1} = r_i n_i - n_{i-1}.
"""

import json
from fractions import Fraction
from importlib import resources
from itertools import combinations, combinations_with_replacement

import pytest

from barkfib.crust import (
    STELLAR_MODELS,
    Branch,
    SimpleCrust,
    StellarFiber,
    Subbranch,
    classify_subbranch,
    core_section_exists,
    crust_from_json,
    crust_to_json,
    enumerate_simple_crusts,
    is_proportional,
    stellar_from_json,
)

# The packaged catalog's stellar_models entries that carry a StellarFiber.
PACKAGED_MODELS = {
    name: raw
    for name, raw in json.loads(
        resources.files("barkfib").joinpath("fixtures/catalog.json").read_text()
    )["stellar_models"].items()
    if not raw.get("constellar")
}


def test_branch_checks_chain_condition():
    Branch(6, (5, 4, 3, 2, 1))
    Branch(6, (3,))
    with pytest.raises(ValueError, match="chain condition"):
        Branch(5, (3,))  # ratio 5/3 not integral
    with pytest.raises(ValueError, match="chain condition"):
        Branch(6, (6,))  # not strictly decreasing
    with pytest.raises(ValueError, match="chain condition"):
        Branch(4, (3, 2))  # (4+2)/3 = 2 ok, (3+0)/2 no


def test_branch_refuses_a_non_integral_multiplicity():
    with pytest.raises(TypeError):
        Branch(6, (3.7,))  # refused, not truncated to Branch(6, (3,))
    with pytest.raises(TypeError):
        Branch(6, (3.0,))
    with pytest.raises(TypeError):
        Branch(6.0, (3,))


def test_branch_mult_conventions():
    b = Branch(6, (4, 2))
    assert b.mult(0) == 6
    assert b.mult(1) == 4
    assert b.mult(2) == 2
    assert b.mult(3) == 0  # one past the tip
    with pytest.raises(IndexError):
        b.mult(4)


def test_branch_ratios():
    b = Branch(6, (5, 4, 3, 2, 1))
    assert [b.ratio(i) for i in range(1, 6)] == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        Branch(5, (3,)).ratio(1)


def test_all_model_branches_satisfy_chain_condition():
    """A model is refused where it is read when a branch breaks the chain."""
    assert sorted(PACKAGED_MODELS) == sorted(STELLAR_MODELS)
    for name, raw in PACKAGED_MODELS.items():
        fiber = stellar_from_json(raw)
        assert fiber == STELLAR_MODELS[name], name
        assert fiber.core_mult == raw["core_mult"], name
        assert [list(b.mults) for b in fiber.branches] == raw["branches"], name
    with pytest.raises(ValueError, match="chain condition"):
        stellar_from_json({"core_mult": 6, "branches": [[4], [2], [1]]})


def test_stellar_fiber_checks_branch_cores():
    with pytest.raises(ValueError):
        StellarFiber(6, (Branch(4, (2,)),))
    with pytest.raises(ValueError, match="needs at least one branch"):
        StellarFiber(6, ())


def test_subbranch_recurrence_enforced():
    long = STELLAR_MODELS["II*"].branches[0]  # (5, 4, 3, 2, 1) under core 6
    Subbranch(3, (3, 3, 3), long)  # forced: 2*3-3 = 3 at each step
    with pytest.raises(ValueError):
        Subbranch(3, (3, 2), long)  # breaks the recurrence
    with pytest.raises(ValueError):
        Subbranch(1, (6,), long)  # n_1 > m_1
    with pytest.raises(ValueError):
        Subbranch(0, (), long)


def test_subbranch_refuses_a_non_integral_value():
    with pytest.raises(TypeError):
        Subbranch(2, (1.9,), Branch(6, (3,)))  # refused, not truncated to (1,)
    with pytest.raises(TypeError):
        Subbranch(2.0, (1,), Branch(6, (3,)))


def test_subbranch_sentinel_forced_value():
    sb = Subbranch(2, (1,), Branch(6, (3,)))
    assert sb.sentinel == 0
    assert Subbranch(3, (2,), Branch(6, (4, 2))).sentinel == 1
    assert Subbranch(2, (), Branch(6, (3,))).sentinel == 0  # nu = 0


def test_classify_subbranch_each_type():
    assert classify_subbranch(Subbranch(2, (1,), STELLAR_MODELS["III"].branches[1]), 1) == {"B"}
    assert classify_subbranch(Subbranch(4, (4, 4), STELLAR_MODELS["II*"].branches[0]), 1) == {"C"}
    assert classify_subbranch(Subbranch(4, (2,), STELLAR_MODELS["II*"].branches[1]), 1) == {"A"}
    assert classify_subbranch(Subbranch(2, (), STELLAR_MODELS["III"].branches[0]), 1) == {"A"}


def test_classify_subbranch_can_be_empty_or_mixed():
    # bound violated: l*n_0 > m_0
    assert classify_subbranch(Subbranch(5, (), Branch(6, (3,))), 2) == set()
    # B and C simultaneously on the II* double-tail
    both = classify_subbranch(Subbranch(1, (1, 1), STELLAR_MODELS["IV*"].branches[0]), 1)
    assert both == {"B", "C"}
    with pytest.raises(ValueError, match="bark multiplicity must be positive"):
        classify_subbranch(Subbranch(2, (1,), STELLAR_MODELS["III"].branches[1]), 0)


def test_is_proportional():
    assert is_proportional(Subbranch(2, (1,), Branch(2, (1,))))
    assert not is_proportional(Subbranch(2, (1,), Branch(6, (4, 2))))
    assert not is_proportional(Subbranch(2, (), Branch(6, (3,))))  # nu = 0
    # truncated proportional subbranch is still recognized as proportional
    assert is_proportional(Subbranch(3, (2,), Branch(6, (4, 2))))


def _chain_branches(max_core, max_length):
    """Every branch with m0 <= max_core and lam <= max_length that passes
    the chain condition."""
    found = []
    for m0 in range(1, max_core + 1):
        for lam in range(max_length + 1):
            for mults in combinations(range(m0 - 1, 0, -1), lam):
                try:
                    found.append(Branch(m0, mults))
                except ValueError:
                    pass
    return found


def _recurrence_subbranches(b):
    """Every nonempty subbranch of b: each n0 < m0, each n1 <= m1, and
    each longer prefix the recurrence allows."""
    for n0 in range(1, b.core_mult):
        for n1 in range(1, b.mult(1) + 1):
            sb = Subbranch(n0, (n1,), b)
            yield sb
            while sb.nu < b.length:
                try:
                    sb = Subbranch(n0, sb.values + (sb.sentinel,), b)
                except ValueError:
                    break
                yield sb


def test_labelled_proportional_subbranch_is_full_length_type_a():
    """A proportional subbranch that carries any label is full-length and
    of type A, so a simple crust needs no separate check for it.

    Branch and subbranch follow the same recurrence, so a proportional
    subbranch has n_i = (n0/m0) m_i for every i <= nu + 1, sentinel
    included.

    * Truncated (nu < lam): the sentinel (n0/m0) m_{nu+1} is > 0, so not A.
    * C needs n_nu = n_{nu+1}, i.e. m_nu = m_{nu+1}; the chain strictly
      decreases down to m_{lam+1} = 0, so never.
    * B needs n_nu = 1 and m_nu = l, so n_i = m_i / l and l | m_{nu-1};
      then l | m_{nu+1} = r_nu l - m_{nu-1} < l, so m_{nu+1} = 0: the
      subbranch is full-length, and its sentinel 0 makes it A as well.

    The sweep runs every chain with m0 <= 14 and lam <= 6, every
    recurrence subbranch on it and l = 1..4.
    """
    branches = _chain_branches(14, 6)
    assert len(branches) == 98
    cases = witnessed = 0
    for b in branches:
        for sb in _recurrence_subbranches(b):
            for l in range(1, 5):
                cases += 1
                labels = classify_subbranch(sb, l)
                if labels and is_proportional(sb):
                    witnessed += 1
                    assert sb.nu == b.length and "A" in labels, (sb, l)
    assert cases == 20228
    assert witnessed > 0


def test_core_section_examples():
    assert core_section_exists(STELLAR_MODELS["II*"], 2, (2, 1, 1)) == (True, 0)
    assert core_section_exists(STELLAR_MODELS["IV"], 1, (1, 1, 0)) == (True, 1)
    assert core_section_exists(STELLAR_MODELS["IV*"], 2, (1, 0, 0)) == (False, None)


def test_core_section_validates_input():
    with pytest.raises(ValueError):
        core_section_exists(STELLAR_MODELS["IV"], 1, (1, 1))  # wrong arity
    for n0 in (0, -1):
        with pytest.raises(ValueError):
            core_section_exists(STELLAR_MODELS["IV"], n0, (1, 1, 0))


def test_core_section_matches_rational_formula():
    """The integer test agrees with the definition in rationals: with
    r0 = sum(m1)/m0 and r0' = sum(n1)/n0, the section exists iff
    r0 <= r0' and n0*(r0' - r0) is an integer, which is its degree."""
    compared = 0
    for m0 in range(1, 13):
        options = [Branch(m0, ())] + [Branch(m0, (d,)) for d in range(1, m0) if m0 % d == 0]
        for h in (1, 2):
            for branches in combinations_with_replacement(options, h):
                fiber = StellarFiber(m0, branches)
                sum_m1 = sum(b.mult(1) for b in branches)
                for n0 in range(1, 13):
                    for sum_n1 in range(30):
                        degree = n0 * (Fraction(sum_n1, n0) - Fraction(sum_m1, m0))
                        expected = (True, int(degree))
                        if degree < 0 or degree.denominator != 1:
                            expected = (False, None)
                        values = (sum_n1,) + (0,) * (h - 1)
                        assert core_section_exists(fiber, n0, values) == expected
                        compared += 1
    assert compared == 41040


def test_simple_crust_accepts_catalog_data():
    fiber = STELLAR_MODELS["II*"]
    crust = SimpleCrust(
        5,
        (
            Subbranch(5, (5,), fiber.branches[0]),
            Subbranch(5, (3, 1), fiber.branches[1]),
            Subbranch(5, (2,), fiber.branches[2]),
        ),
        1,
    )
    assert crust.first_values() == (5, 3, 2)
    assert crust.fiber == fiber and crust.core_zeros == 0
    assert crust.proportional_subbranches() == ()


def test_simple_crust_refuses_a_non_integral_n0_or_l():
    # a float n0 would reach gcd in predict_counts and "n0": 5.0 in its JSON
    fiber = STELLAR_MODELS["II*"]
    values = ((5,), (3, 1), (2,))
    subbranches = tuple(Subbranch(5, v, b) for v, b in zip(values, fiber.branches))
    with pytest.raises(TypeError):
        SimpleCrust(5.0, subbranches, 1)
    with pytest.raises(TypeError):
        SimpleCrust(5, subbranches, 1.0)


def test_simple_crust_rejects_truncated_proportional():
    """A proportional subbranch inside a crust must run the full branch."""
    fiber = StellarFiber(6, (Branch(6, (4, 2)), Branch(6, (3,)), Branch(6, (2,))))
    with pytest.raises(ValueError):
        SimpleCrust(
            3,
            (
                Subbranch(3, (2,), fiber.branches[0]),  # proportional, cut short
                Subbranch(3, (2,), fiber.branches[1]),
                Subbranch(3, (1,), fiber.branches[2]),
            ),
            1,
        )


def test_simple_crust_requires_core_section():
    fiber = STELLAR_MODELS["IV*"]
    with pytest.raises(ValueError):
        SimpleCrust(
            2,
            (
                Subbranch(2, (1,), fiber.branches[0]),
                Subbranch(2, (), fiber.branches[1]),
                Subbranch(2, (), fiber.branches[2]),
            ),
            1,
        )


def test_simple_crust_bounds_n0():
    fiber = STELLAR_MODELS["IV"]
    with pytest.raises(ValueError):
        SimpleCrust(3, tuple(Subbranch(3, (1,), b) for b in fiber.branches), 1)
    with pytest.raises(ValueError, match="one subbranch per branch"):
        SimpleCrust(1, (), 1)
    b0, b1, b2 = fiber.branches
    mixed = (Subbranch(1, (), b0), Subbranch(2, (), b1), Subbranch(1, (), b2))
    with pytest.raises(ValueError, match="subbranch n0 disagrees with crust n0"):
        SimpleCrust(1, mixed, 1)


def test_enumerate_I0_star_single_barking():
    crusts = enumerate_simple_crusts(STELLAR_MODELS["I0*"], 1)
    assert len(crusts) == 11
    assert all(c.n0 == 1 for c in crusts)
    filled = sorted(
        tuple(1 if sb.values else 0 for sb in c.subbranches) for c in crusts
    )
    # at least two unit subbranches are needed for the core section
    assert all(sum(pattern) >= 2 for pattern in filled)
    assert len(set(filled)) == 11


def test_enumerate_is_deterministic():
    a = enumerate_simple_crusts(STELLAR_MODELS["II*"], 1)
    b = enumerate_simple_crusts(STELLAR_MODELS["II*"], 1)
    assert [crust_to_json(c) for c in a] == [crust_to_json(c) for c in b]


def test_enumerate_overlarge_barking_is_empty():
    assert enumerate_simple_crusts(STELLAR_MODELS["IV"], 4) == []


def test_json_round_trips():
    fiber = stellar_from_json(PACKAGED_MODELS["III*"])
    assert fiber == STELLAR_MODELS["III*"]
    crust = SimpleCrust(
        2,
        (
            Subbranch(2, (2, 2), fiber.branches[0]),
            Subbranch(2, (2, 2), fiber.branches[1]),
            Subbranch(2, (), fiber.branches[2]),
        ),
        1,
    )
    assert crust_from_json(fiber, crust_to_json(crust)) == crust


def test_crust_from_json_checks_arity():
    with pytest.raises(ValueError):
        crust_from_json(STELLAR_MODELS["IV"], {"n0": 1, "subbranches": [[1]], "l": 1})
