"""Subordinate-fiber counting and report assembly.

Given a simple crust of a stellar fiber, the number of subordinate
fibers and of singularities on each is governed by the core invariant

    chi = (h - v) + k + (2*g0 - 2) - sum(ord terms)

where h is the branch count, v the number of proportional subbranches,
k the zero count of the core section away from the attach points, and
g0 the core genus (0, as stellar cores are rational), all read from the
crust.  Two regimes give exact counts, and both obey one law: n/g
subordinate fibers, each with g = gcd(m, n) singular points.  With
chi = 1 and no proportional subbranch (Chi1) the law is read at the
core pair (m0, n0); with chi = 0 and exactly one proportional subbranch
(ProportionalChi0) at the subbranch's last pair (m_lam, n_lam).
Outside those regimes only upper bounds survive, and reports fall back
to Euler accounting plus trace obstructions.
"""

from dataclasses import asdict, dataclass
from math import gcd

from .kodaira import FiberClass
from .splitting import enumerate_multisets, euler_deficit, screen_candidates

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


def core_invariant(crust):
    """chi of a simple crust: (h - v) + k - 2, with h, v and k read from
    the crust (g0 = 0, and every ord term taken as 0, which gives the
    largest chi the crust allows)."""
    return crust.fiber.h - len(crust.proportional_subbranches()) + crust.core_zeros - 2


def predict_counts(crust):
    """Exact subordinate counts in the two tractable regimes, for a
    simple crust of the stellar fiber ``crust.fiber``: the gcd law read
    at the regime's pair (m, n).

    Raises HypothesisError (with .condition set) unless the fiber has
    three branches, the core section has no extra zero, and at most one
    subbranch is proportional.
    """
    fiber, k = crust.fiber, crust.core_zeros
    if fiber.h != 3:
        raise HypothesisError("branch_count")
    if k != 0:
        raise HypothesisError("tau_zero_degree", "core section has %d extra zero(s)" % k)
    props = crust.proportional_subbranches()
    if len(props) > 1:
        raise HypothesisError("proportional_count")
    if props:
        sb = props[0]
        m, n = sb.parent.mult(sb.nu), sb.value(sb.nu)
        location, basis = NEAR_PROPORTIONAL_EDGE, "ProportionalChi0"
    else:
        m, n = fiber.core_mult, crust.n0
        location, basis = NEAR_CORE, "Chi1"
    g = gcd(m, n)
    return SubordinateProfile(n // g, g, location, basis)


def count_bounds(crust):
    """Upper bounds (max fibers, max singularities per fiber) from chi,
    with m0 the core multiplicity and n0 the crust's core value."""
    chi = core_invariant(crust)
    g = gcd(crust.fiber.core_mult, crust.n0)
    return ((crust.n0 // g) * chi, g * chi)


def determine_types(profile, deficit, candidates):
    """Distribute the Euler deficit over the predicted singularities.

    Every subordinate fiber is reduced with A-singularities only, so a
    fiber with sigma >= 2 singular points must be I_sigma (all nodes),
    while a fiber with a single singular point of Milnor number mu is
    I_1 (mu = 1), II (mu = 2) or III (mu = 3).  ``candidates`` is
    enumerate_multisets(deficit), unfiltered.

    Returns the list of compatible multisets, those of ``candidates``
    with ``fibers`` parts all of the allowed kinds (a singleton when forced).
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
        kinds = {FiberClass("I", sigma)}
        infeasible = "%d fibers of type I_%d need deficit %d, not %d" % (
            fibers, sigma, fibers * sigma, deficit
        )
    else:
        kinds = {FiberClass("I", 1), FiberClass("II"), FiberClass("III")}
        infeasible = "cannot split deficit %d into %d Milnor numbers <= 3" % (deficit, fibers)
    found = [ms for ms in candidates if len(ms) == fibers and kinds.issuperset(ms)]
    if not found:
        raise ValueError("infeasible: " + infeasible)
    return found


@dataclass(frozen=True)
class SplittingReport:
    """Outcome of the full analysis pipeline for one deformation."""

    original: FiberClass
    main: FiberClass
    deficit: int
    candidates: tuple
    excluded: tuple  # of (multiset, reason)
    determined: tuple  # surviving multisets
    evidence: tuple
    profile: object = None

    @property
    def ambiguous(self):
        return len(self.determined) > 1

    def to_json(self):
        rec = {
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
        if self.profile is not None:
            rec["counts"] = asdict(self.profile)
        return rec


def full_report(original, main, crust=None):
    """Determine the subordinate fibers of a splitting, as far as the
    exact methods reach.

    Pipeline: Euler deficit -> candidate multisets, one tuple ->
    obstructions, whose survivors come back as one tuple -> (when a simple
    crust of the original fiber's stellar model, with valid counting
    hypotheses, is supplied) exact counts and type determination.  The
    report holds the candidate and survivor tuples as they are.  When the
    counting hypotheses fail, the obstruction survivors are reported with
    chi-based bounds quoted as evidence only; when the counts fit no
    survivor, or no multiset at all, the survivors are kept and the
    evidence says why.
    """
    deficit = euler_deficit(original, main)
    evidence = ["euler deficit %d" % deficit]
    candidates = enumerate_multisets(deficit)
    survivors, excluded = screen_candidates(original, main, candidates)
    for ms, reason in excluded:
        name = "+".join(str(f) for f in ms) or "(none)"
        evidence.append("excluded %s: %s" % (name, reason))
    final = survivors
    profile = None
    if crust is not None:
        try:
            profile = predict_counts(crust)
        except HypothesisError as err:
            evidence.append(
                "counting hypotheses not met (%s); falling back to "
                "enumeration and obstructions" % err.condition
            )
            mx_f, mx_s = count_bounds(crust)
            evidence.append(
                "core invariant %d bounds the counts: <= %d fiber(s), "
                "<= %d singularities each (not used to prune)"
                % (core_invariant(crust), mx_f, mx_s)
            )
        else:
            evidence.append(
                "counting (%s): %d subordinate fiber(s), %d singularities each"
                % (profile.basis, profile.num_fibers, profile.sings_per_fiber)
            )
            try:
                typed = determine_types(profile, deficit, candidates)
            except ValueError as err:
                typed, conflict = (), "counting result infeasible (%s)" % err
            else:
                conflict = "counting result conflicts with obstruction survivors"
            narrowed = tuple(ms for ms in survivors if ms in typed)
            if narrowed:
                final = narrowed
            else:
                evidence.append(conflict + "; keeping the survivors")
    else:
        evidence.append("no crust data; enumeration and obstructions only")
    return SplittingReport(
        original,
        main,
        deficit,
        candidates,
        tuple(excluded),
        final,
        tuple(evidence),
        profile,
    )
