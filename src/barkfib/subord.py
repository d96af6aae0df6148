"""Subordinate-fiber counting and report assembly.

Given a simple crust of a stellar fiber, the number of subordinate
fibers and of singularities on each is governed by the core invariant

    chi = (h - v) + k + (2*g0 - 2) - sum(ord terms)

where h is the branch count, v the number of proportional subbranches,
k the zero count of the core section away from the attach points, and
g0 the core genus (0, as stellar cores are rational).  Two regimes give
exact counts: chi = 1 with no proportional subbranch (counts driven by
n0 against the core multiplicity m0), and chi = 0 with exactly one
proportional subbranch (counts driven by the subbranch's last pair
(m_lam, n_lam)).  Outside those regimes only upper bounds survive, and
reports fall back to Euler accounting plus trace obstructions.
"""

from dataclasses import dataclass
from math import gcd

from .kodaira import FiberClass
from .splitting import (
    FORBIDDEN,
    decomposition_verdict,
    enumerate_multisets,
    euler_deficit,
    multiset,
)

NEAR_CORE = "near_core"
NEAR_PROPORTIONAL_EDGE = "near_proportional_edge"


class HypothesisError(ValueError):
    """A counting criterion's hypothesis fails; carries which one."""

    def __init__(self, condition, message=None):
        super().__init__(message or "counting hypothesis failed: %s" % condition)
        self.condition = condition


@dataclass(frozen=True)
class SubordinateProfile:
    """How many subordinate fibers appear and how singular they are."""

    num_fibers: int
    sings_per_fiber: int
    location: str
    basis: str


@dataclass(frozen=True)
class CoreInvariantInput:
    """All symbols of the chi formula in one place.

    ``ord_terms`` lists the vanishing orders of the deformation form at
    the proportional attach points (one entry per proportional
    subbranch, zero inside the exact-count regimes).
    """

    h: int
    v: int
    k: int
    g0: int
    ord_terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ord_terms", tuple(self.ord_terms))
        if self.v != len(self.ord_terms):
            raise ValueError("need one vanishing order per proportional subbranch")


def core_invariant(inp):
    """chi = (h - v) + k + (2*g0 - 2) - sum(ord_terms)."""
    return (inp.h - inp.v) + inp.k + (2 * inp.g0 - 2) - sum(inp.ord_terms)


def predict_counts(crust):
    """Exact subordinate counts in the two tractable regimes, for a
    simple crust of the stellar fiber ``crust.fiber()``.

    Raises HypothesisError (with .condition set) unless the fiber has
    three branches, the core section has no extra zero, and at most one
    subbranch is proportional.
    """
    fiber = crust.fiber()
    if fiber.h != 3:
        raise HypothesisError("branch_count")
    _, k = crust.core_section()
    if k != 0:
        raise HypothesisError(
            "tau_zero_degree", "core section has %d extra zero(s)" % k
        )
    props = crust.proportional_subbranches()
    if len(props) == 0:
        g = gcd(fiber.core_mult, crust.n0)
        return SubordinateProfile(crust.n0 // g, g, NEAR_CORE, "Chi1")
    if len(props) == 1:
        sb = props[0]
        m_last = sb.parent.mult(sb.nu)
        n_last = sb.value(sb.nu)
        g = gcd(m_last, n_last)
        return SubordinateProfile(
            n_last // g, g, NEAR_PROPORTIONAL_EDGE, "ProportionalChi0"
        )
    raise HypothesisError("proportional_count")


def count_bounds(inp, m0, n0):
    """Upper bounds (max fibers, max singularities per fiber) from chi."""
    chi = core_invariant(inp)
    g = gcd(m0, n0)
    return ((n0 // g) * chi, g * chi)


def determine_types(profile, deficit):
    """Distribute the Euler deficit over the predicted singularities.

    Every subordinate fiber is reduced with A-singularities only, so a
    fiber with sigma >= 2 singular points must be I_sigma (all nodes),
    while a fiber with a single singular point of Milnor number mu is
    I_1 (mu = 1), II (mu = 2) or III (mu = 3).

    Returns the list of compatible multisets (a singleton when forced).
    Raises ValueError when no distribution fits.
    """
    fibers, sigma = profile.num_fibers, profile.sings_per_fiber
    if fibers < 1 or sigma < 1:
        raise ValueError("profile must predict at least one singular point")
    if deficit < fibers * sigma:
        raise ValueError(
            "deficit %d below the %d predicted singularities" % (deficit, fibers * sigma)
        )
    if sigma >= 2:
        if fibers * sigma != deficit:
            raise ValueError(
                "infeasible: %d fibers of type I_%d need deficit %d, not %d"
                % (fibers, sigma, fibers * sigma, deficit)
            )
        return [multiset(*[FiberClass("I", sigma)] * fibers)]
    single_point = {FiberClass("I", 1), FiberClass("II"), FiberClass("III")}
    found = [
        ms
        for ms in enumerate_multisets(deficit)
        if len(ms) == fibers and single_point.issuperset(ms)
    ]
    if not found:
        raise ValueError(
            "infeasible: cannot split deficit %d into %d Milnor numbers <= 3"
            % (deficit, fibers)
        )
    return found


@dataclass(frozen=True)
class SplittingReport:
    """Outcome of the full analysis pipeline for one deformation."""

    original: FiberClass
    main: FiberClass
    deficit: int
    candidates: tuple
    excluded: tuple  # of (multiset, reason)
    determined: tuple  # surviving multisets, len > 1 means ambiguous
    ambiguous: bool
    evidence: tuple
    profile: object = None

    def to_json(self, case_id=None):
        rec = {
            "schema": "barkfib/1",
            "original": str(self.original),
            "main": str(self.main),
            "deficit": self.deficit,
            "determined": [[str(f) for f in ms] for ms in self.determined],
            "ambiguous": self.ambiguous,
            "evidence": list(self.evidence),
            "excluded": [
                {"candidate": [str(f) for f in ms], "reason": reason}
                for ms, reason in self.excluded
            ],
        }
        if case_id is not None:
            rec["id"] = case_id
        if self.profile is not None:
            rec["counts"] = {
                "num_fibers": self.profile.num_fibers,
                "sings_per_fiber": self.profile.sings_per_fiber,
                "location": self.profile.location,
                "basis": self.profile.basis,
            }
        return rec


def full_report(original, main, crust=None):
    """Determine the subordinate fibers of a splitting, as far as the
    exact methods reach.

    Pipeline: Euler deficit -> candidate multisets -> trace obstructions
    -> (when a simple crust of the original fiber's stellar model, with
    valid counting hypotheses, is supplied) exact counts and type
    determination.  When the counting hypotheses fail, the obstruction
    survivors are reported with chi-based bounds quoted as evidence only.
    """
    deficit = euler_deficit(original, main)
    evidence = ["euler deficit %d" % deficit]
    if deficit == 0:
        return SplittingReport(
            original, main, 0, (), (), (multiset(),), False,
            tuple(evidence + ["no subordinate fibers"]), None,
        )
    candidates = enumerate_multisets(deficit)
    survivors, excluded = [], []
    for ms in candidates:
        verdict, reasons = decomposition_verdict(original, [main] + list(ms))
        if verdict == FORBIDDEN:
            excluded.append((ms, reasons[0]))
            evidence.append(
                "excluded %s: %s" % ("+".join(str(f) for f in ms), reasons[0])
            )
        else:
            survivors.append(ms)
    final = list(survivors)
    profile = None
    if crust is not None:
        try:
            profile = predict_counts(crust)
            evidence.append(
                "counting (%s): %d subordinate fiber(s), %d singularities each"
                % (profile.basis, profile.num_fibers, profile.sings_per_fiber)
            )
            typed = determine_types(profile, deficit)
            narrowed = [ms for ms in survivors if ms in typed]
            if narrowed:
                final = narrowed
            else:
                evidence.append(
                    "counting result conflicts with obstruction survivors; "
                    "keeping the survivors"
                )
        except HypothesisError as err:
            evidence.append(
                "counting hypotheses not met (%s); falling back to "
                "enumeration and obstructions" % err.condition
            )
            fiber = crust.fiber()
            _, k = crust.core_section()
            v = len(crust.proportional_subbranches())
            inp = CoreInvariantInput(fiber.h, v, k, 0, (0,) * v)
            mx_f, mx_s = count_bounds(inp, fiber.core_mult, crust.n0)
            evidence.append(
                "core invariant %d bounds the counts: <= %d fiber(s), "
                "<= %d singularities each (not used to prune)"
                % (core_invariant(inp), mx_f, mx_s)
            )
    else:
        evidence.append("no crust data; enumeration and obstructions only")
    return SplittingReport(
        original,
        main,
        deficit,
        tuple(candidates),
        tuple(excluded),
        tuple(final),
        len(final) > 1,
        tuple(evidence),
        profile,
    )
