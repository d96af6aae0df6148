"""Reference oracle for candidate enumeration and the obstruction pass of
``full_report``.

``int_partitions`` is the recursive partition generator, and
``enumerate_multisets`` the candidate tuple built from it with one tuple
concatenation per run and one sort of (key, multiset) pairs, the key
summing ``order_weights`` over the parts.  ``full_report`` asks
``decomposition_verdict`` about every candidate, however many factors it
has.  So they check the walk that builds the candidates already in order
and ``screen_candidates``, which asks only about the candidates a rule
can read: the same candidates, reports and evidence, in the same order.

``sweep_pairs`` lists every (original, main) pair with deficit 1..20
whose original is not I_n, and ``catalog_cases`` every packaged catalog
case with its crust, if any, as the CLI `report` builds them.
"""

from operator import itemgetter

from barkfib.crust import crust_from_json, load_catalog
from barkfib.kodaira import FiberClass, euler, parse_fiber
from barkfib.splitting import FORBIDDEN, decomposition_verdict, euler_deficit
from barkfib.subord import (
    HypothesisError,
    SplittingReport,
    core_invariant,
    count_bounds,
    determine_types,
    predict_counts,
)

SWEEP_MAX_DEFICIT = 20


def int_partitions(total, cap=None):
    """Partitions of ``total`` as descending tuples of positive ints."""
    if cap is None or cap > total:
        cap = total
    if total == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in int_partitions(total - first, first):
            yield (first,) + rest


def order_weights(deficit):
    """Weights (w_I, w_II, w_III), I_n weighing w_I[n], whose sum over a
    candidate's parts is its sort key: fewer parts first, then part by part
    from the largest, larger Euler number first and II/III before I2/I3.

    A part of rank r weighs B^R - B^r, with B = deficit + 1 and R above every
    rank (I_n: 2n - 1, II: 4, III: 6); no rank's count reaches B.
    """
    base = deficit + 1
    top = base ** max(2 * deficit, 7)
    w_I = [top - base ** (2 * n - 1) for n in range(max(deficit, 3) + 1)]
    return w_I, top - base**4, top - base**6


def enumerate_multisets(deficit):
    """The candidates of ``deficit`` in the order of order_weights."""
    I_n = [FiberClass("I", n) for n in range(max(deficit, 3) + 1)]
    II, III = FiberClass("II"), FiberClass("III")
    w_I, w_II, w_III = order_weights(deficit)
    to_II, to_III = w_II - w_I[2], w_III - w_I[3]
    keyed = []
    for sizes in int_partitions(deficit):
        k2, k3 = sizes.count(2), sizes.count(3)
        ones = (I_n[1],) * sizes.count(1)
        big = tuple(I_n[n] for n in reversed(sizes) if n > 3)
        key = sum(w_I[n] for n in sizes)
        for a2 in range(k2 + 1):
            head = ones + (I_n[2],) * (k2 - a2)
            for a3 in range(k3 + 1):
                keyed.append((
                    key + a2 * to_II + a3 * to_III,
                    head + (I_n[3],) * (k3 - a3) + big + (II,) * a2 + (III,) * a3,
                ))
    keyed.sort(key=itemgetter(0))
    return tuple(ms for _, ms in keyed)


def full_report(original, main, crust=None):
    """barkfib.subord.full_report, asking about every candidate."""
    deficit = euler_deficit(original, main)
    evidence = ["euler deficit %d" % deficit]
    candidates = enumerate_multisets(deficit)
    survivors, excluded = [], []
    for ms in candidates:
        verdict, reasons = decomposition_verdict(original, [main] + list(ms))
        if verdict == FORBIDDEN:
            excluded.append((ms, reasons[0]))
            name = "+".join(str(f) for f in ms) or "(none)"
            evidence.append("excluded %s: %s" % (name, reasons[0]))
        else:
            survivors.append(ms)
    final = list(survivors)
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
            narrowed = [ms for ms in survivors if ms in typed]
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
        tuple(final),
        tuple(evidence),
        profile,
    )


def sweep_classes():
    """Every reduced Kodaira class with Euler number <= SWEEP_MAX_DEFICIT."""
    cap = SWEEP_MAX_DEFICIT
    classes = [FiberClass("I", n) for n in range(cap + 1)]
    classes += [FiberClass(kind) for kind in ("II", "III", "IV", "II*", "III*", "IV*")]
    classes += [FiberClass("I*", n) for n in range(cap - 6 + 1)]
    return classes


def sweep_pairs():
    """(original, main) with 1 <= deficit <= SWEEP_MAX_DEFICIT, the
    original of every kind except I_n."""
    classes = sweep_classes()
    return [
        (o, m)
        for o in classes
        if o.kind != "I"
        for m in classes
        if 1 <= euler(o) - euler(m) <= SWEEP_MAX_DEFICIT
    ]


def catalog_cases():
    """(id, original, main, crust or None) of every packaged catalog case."""
    models, cases = load_catalog()
    out = []
    for case in cases:
        original, main = parse_fiber(case["original"]), parse_fiber(case["main"])
        crust = case.get("crust")
        if crust is not None:
            crust = crust_from_json(models[str(original.reduced())], crust)
        out.append((case["id"], original, main, crust))
    return out
