"""Command-line entry point.  Run ``barkfib --help`` for the subcommands.

Exit codes: 0 success, 1 verification mismatch or search failure,
2 usage/parse error, 3 no classification.
"""

import argparse
import json
import sys
from dataclasses import asdict

from .crust import (
    STELLAR_MODELS,
    _decode_json,
    crust_from_json,
    crust_to_json,
    enumerate_simple_crusts,
    load_catalog,
)
from .kodaira import classify, euler, parse_fiber
from .localmodel import LocalCurveSpec, singular_points, singular_s_values
from .sl2z import Mat2, eval_word, format_word, parse_word
from .splitting import (
    FORBIDDEN,
    SearchBudgetExceeded,
    all_witnesses,
    decomposition_verdict,
    format_identity,
    multiset,
    search_factorization,
    verify_witness,
)
from .subord import HypothesisError, full_report, predict_counts

SCHEMA = "barkfib/1"  # the schema tag of every JSON record


def _emit(args, record, text_lines):
    if args.json:
        record["schema"] = SCHEMA
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_mat(text):
    try:
        a, b, c, d = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            "--mat wants four comma-separated integers, got %r" % (text,)
        ) from None
    return Mat2(a, b, c, d)


def _parse_complex(text):
    s = text.strip().replace(" ", "")
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _fail(message):
    # one line, also when the message quotes input text with line breaks
    print("error: %s" % " ".join(message.splitlines()), file=sys.stderr)


def cmd_classify(args):
    if args.mat is not None:
        m = _parse_mat(args.mat)
    else:
        m = eval_word(parse_word(args.word))
    found = classify(m)
    name = None if found is None else str(found)
    _emit(args, {"class": name}, [name if name is not None else "none"])
    return 0 if found is not None else 3


def cmd_euler(args):
    fibers = [parse_fiber(text) for text in args.fibers]
    record = {"eulers": {str(f): euler(f) for f in fibers}}
    lines = ["%s\t%d" % (f, euler(f)) for f in fibers]
    _emit(args, record, lines)
    return 0


def cmd_factorize(args):
    target = parse_fiber(args.target)
    parts = [parse_fiber(p) for p in args.parts]
    witness = search_factorization(
        target,
        parts,
        args.max_conj_len,
        exp_cap=args.exp_cap,
        node_budget=args.budget,
    )
    if witness is None:
        verdict, reasons = decomposition_verdict(target, parts)
        record = {
            "found": False,
            "target": str(target),
            "verdict": verdict,
            "reasons": list(reasons),
        }
        if verdict == FORBIDDEN:
            line = "no factorization exists: %s" % "; ".join(reasons)
        else:
            line = "no factorization found"
        _emit(args, record, [line])
        return 1
    record = {
        "found": True,
        "target": str(target),
        "factors": [
            {"class": str(base), "conjugator": format_word(w)}
            for base, w in witness.factors
        ],
    }
    _emit(args, record, [format_identity(witness)])
    return 0


def cmd_obstruct(args):
    target = parse_fiber(args.target)
    parts = [parse_fiber(p) for p in args.parts]
    verdict, reasons = decomposition_verdict(target, parts)
    record = {
        "target": str(target),
        "parts": [str(p) for p in parts],
        "verdict": verdict,
        "reasons": list(reasons),
    }
    _emit(args, record, [verdict] + ["  " + r for r in reasons])
    return 0


def _stellar_model(text):
    """The fiber named ``text`` and its stellar model."""
    fiber = parse_fiber(text)
    model = STELLAR_MODELS.get(str(fiber.reduced()))
    if model is None:
        raise ValueError("no stellar model for %s" % fiber)
    return fiber, model


def cmd_crusts(args):
    fiber, model = _stellar_model(args.fiber)
    found = [crust_to_json(c) for c in enumerate_simple_crusts(model, args.l)]
    record = {
        "fiber": str(fiber),
        "l": args.l,
        "count": len(found),
        "crusts": found,
    }
    lines = ["%d crust(s) with l=%d" % (len(found), args.l)]
    lines += [json.dumps(c, sort_keys=True) for c in found]
    _emit(args, record, lines)
    return 0


def cmd_predict(args):
    _, model = _stellar_model(args.fiber)
    crust = crust_from_json(model, _decode_json(args.crust))
    try:
        profile = predict_counts(crust)
    except HypothesisError as exc:
        _emit(
            args,
            {"predicted": False, "condition": exc.condition},
            ["no exact count: %s" % exc],
        )
        return 1
    record = {"predicted": True, **asdict(profile)}
    lines = [
        "%d subordinate fiber(s), %d singularit%s each (%s, %s)"
        % (
            profile.num_fibers,
            profile.sings_per_fiber,
            "y" if profile.sings_per_fiber == 1 else "ies",
            profile.location,
            profile.basis,
        )
    ]
    _emit(args, record, lines)
    return 0


def cmd_localcheck(args):
    spec = LocalCurveSpec(args.m, args.n, args.l, _parse_complex(args.t))
    values = singular_s_values(spec)
    _, nbar = spec.reduced_pair
    per_value = spec.n // nbar  # gcd(m, n)
    rows, lines, counts = [], [], set()
    for s in values:
        points = singular_points(spec, s)
        counts.add(len(points))
        rows.append(
            {"s": _c(s), "points": [[_c(z), _c(zeta)] for z, zeta in points]}
        )
        lines.append(
            "s = %.9g%+.9gi: %d singular point(s)" % (s.real, s.imag, len(points))
        )
    ok = len(values) == nbar and counts == {per_value}
    found = " or ".join(str(k) for k in sorted(counts))
    lines.append(
        "%s: %d singular value(s), expected %d; %s point(s) each, expected %d"
        % ("ok" if ok else "FAIL", len(values), nbar, found, per_value)
    )
    record = {
        "m": args.m,
        "n": args.n,
        "l": args.l,
        "t": _c(spec.t),
        "singular_values": rows,
        "ok": ok,
    }
    _emit(args, record, lines)
    return 0 if ok else 1


def _shown(multisets):
    """How `report` prints a list of multisets, in string order:
    "I1+I1 or II"; an empty multiset is "(none)", an empty list "(impossible)"."""
    names = sorted(sorted(str(f) for f in ms) for ms in multisets)
    return " or ".join("+".join(ms) or "(none)" for ms in names) or "(impossible)"


def cmd_report(args):
    models, cases = load_catalog(args.fixture)
    if args.case is not None:
        cases = [c for c in cases if c["id"] == args.case]
        if not cases:
            raise ValueError("no case %r in fixture" % args.case)
    out, lines = [], []
    for case in cases:
        try:
            original = parse_fiber(case["original"])
            main_fiber = parse_fiber(case["main"])
            crust = case.get("crust")
            if crust is not None:
                crust = crust_from_json(models[str(original.reduced())], crust)
            report = full_report(original, main_fiber, crust=crust)
        except KeyError:  # the models lookup is the one subscript that can miss
            raise ValueError("case %s names no stellar model" % case["id"]) from None
        except ValueError as exc:
            raise ValueError("case %s: %s" % (case["id"], exc)) from None
        got = set(report.determined)
        want = {multiset(*ms) for ms in case["expected"]}
        rec = report.to_json()
        rec["id"] = case["id"]
        rec["ok"] = got == want
        rec["expected"] = [sorted(str(f) for f in ms) for ms in case["expected"]]
        out.append(rec)
        shown = _shown(got)
        if not rec["ok"]:
            shown = "MISMATCH expected %s, got %s" % (_shown(want), shown)
        lines.append("case %s  %s -> %s: %s" % (case["id"], original, main_fiber, shown))
    all_ok = all(rec["ok"] for rec in out)
    lines.append("%d/%d case(s) match" % (sum(rec["ok"] for rec in out), len(out)))
    _emit(args, {"all_ok": all_ok, "cases": out}, lines)
    return 0 if all_ok else 1


def cmd_verify_words(args):
    rows = all_witnesses()
    results, lines, failures = [], [], 0
    for label, w in rows:
        ok = verify_witness(w)
        if not ok:
            failures += 1
        results.append({"identity": label, "ok": ok})
        lines.append("%s  %s" % ("ok  " if ok else "FAIL", label))
    lines.append("%d/%d identities verified" % (len(rows) - failures, len(rows)))
    _emit(args, {"identities": results, "all_ok": failures == 0}, lines)
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="barkfib",
        description="Exact bookkeeping of barking deformations of elliptic fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name the fiber with a given monodromy")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mat", help="matrix entries a,b,c,d; negative: --mat=-1,-1,0,-1")
    g.add_argument("--word", help="word in s0/s2, e.g. 's0^3 s2'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("euler", help="Euler numbers of fiber types")
    p.add_argument("fibers", nargs="+", metavar="FIBER")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("factorize", help="search for an exact monodromy factorization")
    p.add_argument("target", metavar="TARGET")
    p.add_argument("parts", nargs="+", metavar="PART")
    p.add_argument(
        "--max-conj-len", type=int, default=2,
        help="longest conjugator word of each part, the parts taken in canonical"
        " order: I_n ascending, II, III, IV, then the starred classes alike",
    )
    p.add_argument("--exp-cap", type=int, default=8)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("obstruct", help="obstructions for a decomposition")
    p.add_argument("target", metavar="TARGET")
    p.add_argument("parts", nargs="+", metavar="PART")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("crusts", help="enumerate simple crusts of a stellar fiber")
    p.add_argument("fiber", metavar="FIBER")
    p.add_argument("-l", type=int, default=1, help="barking multiplicity")
    p.set_defaults(func=cmd_crusts)

    p = sub.add_parser("predict", help="exact subordinate counts for a crust")
    p.add_argument("fiber", metavar="FIBER")
    p.add_argument("--crust", required=True, help='JSON, e.g. \'{"n0":1,"subbranches":[[1],[],[]],"l":1}\'')
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "localcheck",
        help="verify the singular values/points of a local model",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--t", default="1", help="t*h(0,0) as a complex, e.g. '1+0i'; negative: --t=-2+1i")
    p.set_defaults(func=cmd_localcheck)

    p = sub.add_parser(
        "report",
        help="run every cataloged splitting and diff against expectations",
    )
    p.add_argument("--fixture", help="path to a catalog JSON (default: packaged)")
    p.add_argument("--case", help="restrict to one case id, e.g. 2.3")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "verify-words", help="check every built-in factorization identity"
    )
    p.set_defaults(func=cmd_verify_words)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    # argparse reads `--opt=--` as an empty list; a '+' positional is never empty
    if [] in vars(args).values():
        _fail("an option's value cannot be '--'")
        return 2
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        _fail(str(exc))
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
