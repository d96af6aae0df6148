"""Query lists, frozen answers and independent checks for each workload.

A query is one call into barkfib: through ``barkfib.cli.main`` where a
subcommand exists, otherwise through the public library function.  Every
call looks its target up on the module at call time, so the traced run's
patched names are the ones used.

Each query returns a raw answer; ``summarize`` turns it into plain JSON
data that is compared with the answer frozen in ``expected.json``.  Where
the program's output is a witness or a numeric count, an independent
check (exact tuple arithmetic, closed-form counts) runs as well, so a
correct-looking but wrong answer still fails.
"""

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("search-exhaust", "search-witness", "catalog", "local")

# The two-factor trace-forbidden decompositions (target, parts).  With the
# three-factor I0* = I3.I2.I1 these are the 16 forbidden decompositions of
# the acceptance suite.
FORBIDDEN_PAIRS = [
    ("IV", ["I2", "I2"]),
    ("II*", ["I8", "II"]),
    ("II*", ["I8", "I2"]),
    ("III*", ["I7", "II"]),
    ("III*", ["I7", "I2"]),
    ("III*", ["I6", "III"]),
    ("III*", ["I6", "I3"]),
    ("IV*", ["I6", "II"]),
    ("IV*", ["I6", "I2"]),
    ("I0*", ["I4", "II"]),
    ("I0*", ["I4", "I2"]),
    ("I0*", ["I3", "III"]),
    ("I0*", ["I3", "I3"]),
    ("I1*", ["I5", "II"]),
    ("I1*", ["I5", "I2"]),
]

# Exhaustive searches beyond the pairs: (target, parts, conjugator length).
EXHAUST_EXTRA = [
    ("IV", ["I2", "I2"], 4),
    ("I0*", ["I3", "I2", "I1"], 2),
]

# Realizable length-3 searches (besides the two-factor witness rows, which
# include IV = I3.I1) and many-factor searches.  The many-factor ones run
# mostly at length 2.  With these shares of lengths 1, 2 and 3 the median
# latency falls inside the length-2 group and the 90th percentile inside
# the length-3 group, not on the gap between two groups.
WITNESS_EXTRA = [
    ("I6*", ["I10", "I1", "I1"], 3),
    ("II*", ["I8", "I1", "I1"], 3),
    ("III*", ["I6", "I1", "I2"], 3),
    ("IV*", ["I0*", "I1", "I1"], 3),
    ("II*", ["I1"] * 10, 1),
    ("II*", ["I1"] * 10, 2),
    ("II*", ["I1"] * 10, 3),
    ("III*", ["I1"] * 9, 2),
    ("IV*", ["I1"] * 8, 2),
    ("I0*", ["I1"] * 6, 2),
    ("I4*", ["I1"] * 10, 2),
    ("I6*", ["I1"] * 12, 2),
    ("IV", ["I1"] * 4, 2),
    ("III", ["I1"] * 3, 2),
]

STELLAR_NAMES = ("II", "III", "IV", "II*", "III*", "IV*", "I0*")
BARK_MULTIPLICITIES = (1, 2, 3)
SWEEP_MAX_DEFICIT = 20

# localcheck grid: l <= 3, n <= 8, m <= 24 with m - l*n > 0, at three t.
LOCAL_T = ("1", "0.5+0.5i", "-2+1i")
LOCAL_GRID_L = range(1, 4)
LOCAL_GRID_N = range(1, 9)
LOCAL_GRID_M = range(1, 25)
EZEROS_COUNT = 200


# ----------------------------------------------------------------- oracle
# Exact 2x2 arithmetic on tuples (a, b, c, d), independent of barkfib.

def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _power(m, k):
    out = (1, 0, 0, 1)
    for _ in range(k):
        out = _mul(out, m)
    return out


_S0 = (1, 1, 0, 1)
_S2 = (1, 0, -1, 1)
_PAIR = _mul(_S0, _S2)
_ELLIPTIC = {
    "II": _PAIR,
    "III": _mul(_PAIR, _S0),
    "IV": _power(_PAIR, 2),
    "IV*": _power(_PAIR, 4),
    "III*": _mul(_power(_PAIR, 4), _S0),
    "II*": _power(_PAIR, 5),
}
_CLASS_RE = re.compile(r"^I(\d+)(\*?)$")


def class_matrix(name):
    """Standard monodromy of a reduced fiber class name (I5, I2*, III*)."""
    if name in _ELLIPTIC:
        return _ELLIPTIC[name]
    match = _CLASS_RE.match(name)
    if match is None:
        raise ValueError("unknown fiber class %r" % (name,))
    unipotent = (1, int(match.group(1)), 0, 1)
    return _mul(_power(_PAIR, 3), unipotent) if match.group(2) else unipotent


def class_euler(name):
    if name in ("II", "III", "IV"):
        return {"II": 2, "III": 3, "IV": 4}[name]
    if name in ("II*", "III*", "IV*"):
        return {"II*": 10, "III*": 9, "IV*": 8}[name]
    match = _CLASS_RE.match(name)
    return int(match.group(1)) + (6 if match.group(2) else 0)


def word_matrix(text):
    """Left-to-right product of a word such as 's0^-1 s2^2'."""
    out = (1, 0, 0, 1)
    for token in text.split():
        gen, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        if gen == "s0":
            out = _mul(out, (1, k, 0, 1))
        elif gen == "s2":
            out = _mul(out, (1, 0, -k, 1))
        else:
            raise ValueError("bad letter %r" % (token,))
    return out


def witness_holds(target, parts, factors):
    """The witness's classes are ``parts`` and its product is the target.

    ``factors`` is the CLI's JSON list of {class, conjugator}; each factor
    is g * M * g^-1 for the conjugator g, as ``barkfib.sl2z.conj`` defines.
    """
    if sorted(f["class"] for f in factors) != sorted(parts):
        return False
    product = (1, 0, 0, 1)
    for f in factors:
        a, b, c, d = word_matrix(f["conjugator"])
        g_inv = (d, -b, -c, a)
        m = _mul(_mul((a, b, c, d), class_matrix(f["class"])), g_inv)
        product = _mul(product, m)
    return product == class_matrix(target)


# ---------------------------------------------------------------- queries

@dataclass(frozen=True)
class Query:
    """One timed call and how to judge its answer.

    ``call`` runs the query and returns the raw answer.  ``summarize`` maps
    it to JSON data that must equal the answer frozen in ``expected.json``;
    a query whose frozen answer is missing fails.  ``verify`` applies an
    independent check.  The generated ``local`` inputs have no frozen
    answer (``summarize`` is None) and rely on ``verify`` alone.
    """

    qid: str
    call: Callable[[], object]
    summarize: Optional[Callable[[object], object]]
    verify: Optional[Callable[[object], bool]]
    expected: object = None

    def judge(self, answer):
        if self.summarize is not None:
            summary = json.loads(json.dumps(self.summarize(answer)))
            if self.expected is None or summary != self.expected:
                return False
        return self.verify is None or bool(self.verify(answer))


def cli_call(argv):
    """barkfib.cli.main(argv) in-process; returns (exit code, stdout)."""
    from barkfib import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _factorize_summary(answer):
    code, out = answer
    rec = _json_or_none(out) or {}
    return {"code": code, "found": rec.get("found")}


def _factorize_query(target, parts, length):
    argv = ["factorize", target, *parts, "--max-conj-len", str(length), "--json"]
    qid = "factorize %s = %s L%d" % (target, ".".join(parts), length)

    def verify(answer):
        rec = _json_or_none(answer[1]) or {}
        if not rec.get("found"):
            return True
        return witness_holds(target, parts, rec["factors"])

    return qid, (lambda: cli_call(argv)), _factorize_summary, verify


def _search_exhaust(fixture, rng):
    # Length 1 costs little and puts the median latency inside the length-2
    # group instead of on the gap between the length-2 and length-3 groups.
    specs = [(t, p, length) for t, p in FORBIDDEN_PAIRS for length in (1, 2, 3)]
    specs += EXHAUST_EXTRA
    return [_factorize_query(*spec) for spec in specs]


def _search_witness(fixture, rng):
    rows = fixture["witness_rows"]
    specs = [(row["target"], row["parts"], length) for row in rows for length in (1, 2)]
    specs += [(row["target"], row["parts"], 3) for row in rows if len(row["parts"]) == 2]
    specs += WITNESS_EXTRA
    return [_factorize_query(*spec) for spec in specs]


def sweep_classes():
    """Every reduced Kodaira class with Euler number <= SWEEP_MAX_DEFICIT."""
    cap = SWEEP_MAX_DEFICIT
    names = ["I%d" % n for n in range(cap + 1)]
    names += ["II", "III", "IV", "II*", "III*", "IV*"]
    names += ["I%d*" % n for n in range(cap - 6 + 1)]
    return names


def sweep_pairs():
    """(original, main) with 1 <= deficit <= 20; originals are the kinds a
    barking deformation splits (every kind except I_n)."""
    names = sweep_classes()
    return [
        (o, m)
        for o in names
        if not _CLASS_RE.match(o) or o.endswith("*")
        for m in names
        if 1 <= class_euler(o) - class_euler(m) <= SWEEP_MAX_DEFICIT
    ]


def _report_summary(answer):
    code, out = answer
    rec = _json_or_none(out) or {}
    determined = {
        case["id"]: sorted(sorted(ms) for ms in case["determined"])
        for case in rec.get("cases", [])
    }
    return {"code": code, "all_ok": rec.get("all_ok"), "determined": determined}


def _verify_words_summary(answer):
    code, out = answer
    rec = _json_or_none(out) or {}
    return {
        "code": code,
        "identities": [[r["identity"], r["ok"]] for r in rec.get("identities", [])],
    }


def _crusts_summary(answer):
    code, out = answer
    rec = _json_or_none(out) or {}
    crusts = sorted(json.dumps(c, sort_keys=True) for c in rec.get("crusts", []))
    return {"code": code, "count": rec.get("count"), "crusts": crusts}


def _predict_summary(answer):
    code, out = answer
    rec = _json_or_none(out) or {}
    rec.pop("schema", None)
    return {"code": code, "record": rec}


def _catalog(fixture, rng):
    from barkfib import subord
    from barkfib.kodaira import parse_fiber

    queries = [
        ("report --json", lambda: cli_call(["report", "--json"]), _report_summary, None),
        (
            "verify-words --json",
            lambda: cli_call(["verify-words", "--json"]),
            _verify_words_summary,
            None,
        ),
    ]

    def sweep_query(o, m):
        original, main = parse_fiber(o), parse_fiber(m)

        def call():
            report = subord.full_report(original, main)
            return len(report.candidates), len(report.excluded)

        return (
            "full_report %s -> %s" % (o, m),
            call,
            lambda ans: {"candidates": ans[0], "excluded": ans[1]},
            None,
        )

    queries += [sweep_query(o, m) for o, m in sweep_pairs()]
    for name in STELLAR_NAMES:
        for l in BARK_MULTIPLICITIES:
            argv = ["crusts", name, "-l", str(l), "--json"]
            queries.append(
                ("crusts %s -l %d" % (name, l), (lambda a=argv: cli_call(a)), _crusts_summary, None)
            )
            for crust in fixture["crusts"][name][str(l)]:
                text = json.dumps(crust, sort_keys=True)
                argv_p = ["predict", name, "--crust", text, "--json"]
                queries.append(
                    ("predict %s %s" % (name, text), (lambda a=argv_p: cli_call(a)), _predict_summary, None)
                )
    return queries


def local_grid():
    return [
        (m, n, l, t)
        for l in LOCAL_GRID_L
        for n in LOCAL_GRID_N
        for m in LOCAL_GRID_M
        if m - l * n > 0
        for t in LOCAL_T
    ]


def _localcheck_verify(m, n):
    g = gcd(m, n)
    nbar = n // g

    def verify(answer):
        code, out = answer
        rec = _json_or_none(out)
        if code != 0 or rec is None or rec.get("ok") is not True:
            return False
        values = rec["singular_values"]
        return len(values) == nbar and all(len(v["points"]) == g for v in values)

    return verify


def generic_core_data(rng, h, k):
    """Seeded generic core data on a rational core (m0 = 2, n0 = 1).

    h attach points and k extra zeros at distinct Gaussian integers, with
    nonzero log-derivative weights summing to zero.  Generic means the
    numerator of n0*sigma'/sigma + m0*tau'/tau keeps its full degree
    h + k - 2 = chi, which holds exactly when sum(weight * point) != 0;
    draws that fail it are redrawn.  Returns (attach, sigma, extra).
    """
    while True:
        pts = []
        while len(pts) < h + k:
            p = complex(rng.randrange(-6, 7), rng.randrange(-6, 7))
            if p not in pts:
                pts.append(p)
        while True:
            weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(h - 1)]
            last = -(sum(weights) + 2 * k)
            if last != 0:
                weights.append(last)
                break
        weights += [2] * k
        if sum(w * p for w, p in zip(weights, pts)) == 0:
            continue
        attach, sigma = [], []
        for p, w in zip(pts[:h], weights):
            n1 = max(1, (2 - w) // 2)
            attach.append((p, n1))
            sigma.append((p, w + 2 * n1))
        extra = tuple((p, 1) for p in pts[h:])
        return tuple(attach), tuple(sigma), extra


def _local(fixture, rng):
    from barkfib import localmodel

    queries = []
    for m, n, l, t in local_grid():
        argv = ["localcheck", "--m", str(m), "--n", str(n), "--l", str(l), "--t=" + t, "--json"]
        queries.append(
            (
                "localcheck m=%d n=%d l=%d t=%s" % (m, n, l, t),
                (lambda a=argv: cli_call(a)),
                None,
                _localcheck_verify(m, n),
            )
        )
    for i in range(EZEROS_COUNT):
        h, k = rng.randint(3, 6), rng.randint(0, 4)
        data = localmodel.CoreSectionData(*generic_core_data(rng, h, k), 2, 1)
        chi = h + k - 2
        queries.append(
            (
                "essential_zeros #%d h=%d k=%d" % (i, h, k),
                (lambda d=data: len(localmodel.essential_zeros(d))),
                None,
                (lambda ans, c=chi: ans == c),
            )
        )
    return queries


_BUILDERS = {
    "search-exhaust": _search_exhaust,
    "search-witness": _search_witness,
    "catalog": _catalog,
    "local": _local,
}


def load_fixture():
    return json.loads(EXPECTED_PATH.read_text())


def build_queries(workload, seed, fixture):
    """The workload's fixed query list in the order the seed sets.

    The seed also generates the ``local`` core data.  Queries whose id has
    a frozen answer in the fixture carry it; the generated ones do not.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    answers = fixture.get("answers", {})
    queries = [
        Query(*spec, answers.get(spec[0])) for spec in _BUILDERS[workload](fixture, rng)
    ]
    rng.shuffle(queries)
    return queries
