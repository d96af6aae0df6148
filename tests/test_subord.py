"""Counting laws, type determination, and the report pipeline."""

import json
from importlib import resources

import pytest

from barkfib.crust import (
    STELLAR_MODELS,
    Branch,
    SimpleCrust,
    StellarFiber,
    Subbranch,
    crust_from_json,
)
from barkfib.kodaira import euler, parse_fiber
from barkfib.splitting import enumerate_multisets, multiset
from barkfib.subord import (
    NEAR_CORE,
    NEAR_PROPORTIONAL_EDGE,
    CoreInvariantInput,
    HypothesisError,
    SubordinateProfile,
    core_invariant,
    count_bounds,
    determine_types,
    full_report,
    predict_counts,
)


def F(text):
    return parse_fiber(text)


def load_catalog():
    text = resources.files("barkfib").joinpath("fixtures/catalog.json").read_text()
    return json.loads(text)


def crust_for(case):
    catalog = load_catalog()
    rec = next(c for c in catalog["cases"] if c["id"] == case)
    fiber = STELLAR_MODELS[str(F(rec["original"]).reduced())]
    return crust_from_json(fiber, rec["crust"])


# ---------------------------------------------------------- core invariant


def test_core_invariant_values():
    assert core_invariant(CoreInvariantInput(3, 0, 0, 0)) == 1
    assert core_invariant(CoreInvariantInput(3, 1, 0, 0, (0,))) == 0
    assert core_invariant(CoreInvariantInput(1, 0, 0, 1)) == 1
    assert core_invariant(CoreInvariantInput(4, 1, 2, 0, (1,))) == 2


def test_core_invariant_input_arity():
    with pytest.raises(ValueError):
        CoreInvariantInput(3, 2, 0, 0, (0,))


def test_count_bounds():
    assert count_bounds(CoreInvariantInput(3, 0, 1, 0), 3, 1) == (2, 2)
    assert count_bounds(CoreInvariantInput(3, 0, 0, 0), 6, 4) == (2, 2)


# ------------------------------------------------------------- prediction


@pytest.mark.parametrize(
    "case,fibers,sings,location",
    [
        ("2.2", 1, 1, NEAR_PROPORTIONAL_EDGE),
        ("2.3", 2, 1, NEAR_PROPORTIONAL_EDGE),
        ("2.4", 5, 1, NEAR_CORE),
        ("3.2", 1, 2, NEAR_CORE),
        ("4.2", 1, 2, NEAR_CORE),
        ("5.2", 2, 1, NEAR_CORE),
        ("6.2", 2, 1, NEAR_CORE),
        ("4.4", 3, 1, NEAR_CORE),
        ("4.5", 3, 1, NEAR_CORE),
    ],
)
def test_predicted_counts(case, fibers, sings, location):
    crust = crust_for(case)
    profile = predict_counts(crust)
    assert profile.num_fibers == fibers
    assert profile.sings_per_fiber == sings
    assert profile.location == location


def test_predict_requires_three_branches():
    crust = crust_for("7.1")
    with pytest.raises(HypothesisError) as err:
        predict_counts(crust)
    assert err.value.condition == "branch_count"


def test_predict_requires_tau_without_extra_zeros():
    crust = crust_for("5.3")
    with pytest.raises(HypothesisError) as err:
        predict_counts(crust)
    assert err.value.condition == "tau_zero_degree"


def test_predict_rejects_two_proportional_subbranches():
    fiber = StellarFiber(4, (Branch(4, (2,)),) * 3)
    crust = SimpleCrust(2, tuple(Subbranch(2, (1,), b) for b in fiber.branches), 1)
    with pytest.raises(HypothesisError) as err:
        predict_counts(crust)
    assert err.value.condition == "proportional_count"


# ------------------------------------------------------------ type pinning


def type_names(options):
    return ["+".join(str(f) for f in ms) for ms in options]


def test_determine_types_multinode_fibers():
    prof = SubordinateProfile(1, 2, NEAR_CORE, "Chi1")
    assert type_names(determine_types(prof, 2)) == ["I2"]
    prof = SubordinateProfile(2, 3, NEAR_CORE, "Chi1")
    assert type_names(determine_types(prof, 6)) == ["I3+I3"]


def test_determine_types_single_point_fibers():
    prof = SubordinateProfile(1, 1, NEAR_CORE, "Chi1")
    assert type_names(determine_types(prof, 2)) == ["II"]
    assert type_names(determine_types(prof, 3)) == ["III"]
    prof = SubordinateProfile(3, 1, NEAR_CORE, "Chi1")
    assert type_names(determine_types(prof, 3)) == ["I1+I1+I1"]
    prof = SubordinateProfile(2, 1, NEAR_CORE, "Chi1")
    assert type_names(determine_types(prof, 4)) == ["I1+III", "II+II"]


def test_determine_types_order_matches_part_keys():
    # every single-point split, ordered by the part keys: parts compared
    # from the largest down, II/III before the equal-size I2/I3
    def part_key(f):
        return (-euler(f), 0 if f.kind in ("II", "III") else 1)

    for fibers in range(1, 7):
        for deficit in range(fibers, 3 * fibers + 1):
            got = determine_types(SubordinateProfile(fibers, 1, NEAR_CORE, "Chi1"), deficit)
            expected = sorted(
                {ms for ms in enumerate_multisets(deficit) if len(ms) == fibers
                 and all(f.kind != "I" or f.n == 1 for f in ms)},
                key=lambda ms: [part_key(f) for f in sorted(ms, key=part_key)],
            )
            assert got == expected


def test_determine_types_infeasible():
    with pytest.raises(ValueError):
        determine_types(SubordinateProfile(1, 2, NEAR_CORE, "Chi1"), 3)
    with pytest.raises(ValueError):
        determine_types(SubordinateProfile(2, 1, NEAR_CORE, "Chi1"), 7)
    with pytest.raises(ValueError):
        determine_types(SubordinateProfile(2, 1, NEAR_CORE, "Chi1"), 1)


# ------------------------------------------------------------ full reports


def test_report_no_deficit():
    rep = full_report(F("I3"), F("I3"))
    assert rep.deficit == 0
    assert rep.determined == (multiset(),)
    assert not rep.ambiguous


def test_report_without_crust_uses_obstructions():
    rep = full_report(F("II*"), F("I8"))
    assert [str(f) for ms in rep.determined for f in ms] == ["I1", "I1"]
    assert not rep.ambiguous
    assert len(rep.excluded) == 2
    assert any("no crust data" in e for e in rep.evidence)


def test_report_with_crust_narrows_by_counting():
    crust = crust_for("2.2")
    rep = full_report(F("II*"), F("IV*"), crust=crust)
    assert type_names(rep.determined) == ["II"]
    assert rep.profile is not None
    assert rep.profile.num_fibers == 1


def test_report_counting_fallback_keeps_survivors():
    crust = crust_for("5.3")
    rep = full_report(F("IV"), F("I2"), crust=crust)
    assert rep.ambiguous
    assert type_names(rep.determined) == ["II", "I1+I1"]
    assert any("counting hypotheses not met (tau_zero_degree)" in e for e in rep.evidence)
    assert any("not used to prune" in e for e in rep.evidence)


def test_report_json_shape():
    rep = full_report(F("I2*"), F("I6"))
    rec = rep.to_json(case_id="8.2")
    assert rec["schema"] == "barkfib/1"
    assert rec["id"] == "8.2"
    assert rec["determined"] == [["I1", "I1"]]
    assert rec["ambiguous"] is False
    assert {e["candidate"][0] for e in rec["excluded"]} == {"II", "I2"}


def test_report_counts_on_the_crusts_own_model():
    crust = crust_for("3.2")
    assert crust.fiber() == STELLAR_MODELS["III"]
    rep = full_report(F("III"), F("I1"), crust=crust)
    assert type_names(rep.determined) == ["I2"]
