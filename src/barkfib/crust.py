"""Stellar fibers, branches, subbranches, and simple crusts.

A stellar fiber is a core component of multiplicity m0, a projective
line, with chains of projective lines attached.
Along each chain the multiplicities m0 > m1 > ... > m_lam > 0 satisfy
the integrality condition that every

    r_i = (m_{i-1} + m_{i+1}) / m_i        (m_{lam+1} = 0)

is an integer greater than 1.  A crust is a subdivisor n0*core + partial
chains ("subbranches") compatible with the same recurrence; barking it
off with multiplicity l deforms the fiber.  Subbranches are classified
by their end behavior into types A_l, B_l, C_l, and a crust is simple
when every subbranch carries one of these labels and the core admits a
suitable meromorphic section.
"""

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import product as _cartesian
from operator import index
from pathlib import Path

from .kodaira import parse_fiber


@dataclass(frozen=True)
class Branch:
    """One chain of a stellar fiber.

    Construction checks the chain condition: every m_i > 0 and every r_i
    an integer > 1 (strict decrease follows, as r_i >= 2 and m_lam > 0).

    Parameters
    ----------
    core_mult : int
        Multiplicity m0 of the core the chain is attached to.
    mults : tuple of int
        Chain multiplicities m1, ..., m_lam.
    """

    core_mult: int
    mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "core_mult", index(self.core_mult))
        object.__setattr__(self, "mults", tuple(index(m) for m in self.mults))
        if self.core_mult < 1:
            raise ValueError("core multiplicity must be positive")
        for i in range(1, self.length + 1):
            num, den = self.mult(i - 1) + self.mult(i + 1), self.mult(i)
            if den < 1 or num % den or num < 2 * den:
                raise ValueError("%r violates the chain condition at m_%d" % (self, i))

    @property
    def length(self):
        return len(self.mults)

    def mult(self, i):
        """m_i with the conventions m_0 = core_mult and m_{lam+1} = 0."""
        if i == 0:
            return self.core_mult
        if 1 <= i <= self.length:
            return self.mults[i - 1]
        if i == self.length + 1:
            return 0
        raise IndexError("multiplicity index %d out of range" % i)

    def ratio(self, i):
        """The integer r_i = (m_{i-1} + m_{i+1}) / m_i, for 1 <= i <= lam."""
        return (self.mult(i - 1) + self.mult(i + 1)) // self.mult(i)

    def forced(self, n0, n1):
        """The values n1, n2, ..., n_{lam+1} that the recurrence
        n_{i+1} = r_i n_i - n_{i-1} forces from n0 and n1."""
        seq = [n0, n1]
        for i in range(1, self.length + 1):
            seq.append(self.ratio(i) * seq[i] - seq[i - 1])
        return tuple(seq[1:])


@dataclass(frozen=True)
class StellarFiber:
    """A rational core of multiplicity ``core_mult`` with
    ``h = len(branches)`` chains attached."""

    core_mult: int
    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("a stellar fiber needs at least one branch")
        for b in self.branches:
            if b.core_mult != self.core_mult:
                raise ValueError("branch core multiplicity mismatch")

    @property
    def h(self):
        return len(self.branches)


@dataclass(frozen=True)
class Subbranch:
    """A recurrence-compatible partial chain over a branch.

    The values n1, ..., n_nu (nu >= 0 entries) satisfy 0 < n_i <= m_i
    and are the ones `Branch.forced` gives from ``n0``, the crust's core
    multiplicity, and n1; ``sentinel`` is the next one, n_{nu+1} (0 if nu = 0).
    """

    n0: int
    values: tuple
    parent: Branch
    sentinel: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n0", index(self.n0))
        object.__setattr__(self, "values", tuple(index(v) for v in self.values))
        if self.n0 < 1:
            raise ValueError("n0 must be positive")
        if len(self.values) > self.parent.length:
            raise ValueError("subbranch longer than its branch")
        forced = self.parent.forced(self.n0, self.values[0]) if self.values else (0,)
        for i, (v, expect) in enumerate(zip(self.values, forced), start=1):
            if not 1 <= v <= self.parent.mult(i):
                raise ValueError(
                    "subbranch value n_%d = %d outside (0, m_%d = %d]"
                    % (i, v, i, self.parent.mult(i))
                )
            if v != expect:
                raise ValueError(
                    "subbranch breaks the recurrence at n_%d: %d != %d" % (i, v, expect)
                )
        object.__setattr__(self, "sentinel", forced[self.nu])

    @property
    def nu(self):
        return len(self.values)

    def value(self, i):
        """n_i for 0 <= i <= nu."""
        return self.n0 if i == 0 else self.values[i - 1]


def classify_subbranch(sb, l):
    """All end-behavior labels the subbranch carries for bark multiplicity l.

    Writing n_{nu+1} for ``sb.sentinel`` and requiring the bound
    l*n_i <= m_i for every 0 <= i <= nu:

    * ``A``  --  bound holds and n_{nu+1} <= 0;
    * ``B``  --  bound holds, n_nu = 1 and m_nu = l;
    * ``C``  --  bound holds, n_nu = n_{nu+1} and (m_nu - m_{nu+1}) | l.

    Returns
    -------
    set of str
        Subset of {"A", "B", "C"}; empty means the subbranch cannot
        belong to a simple crust with this l.
    """
    if l < 1:
        raise ValueError("bark multiplicity must be positive")
    nu = sb.nu
    for i in range(nu + 1):
        if l * sb.value(i) > sb.parent.mult(i):
            return set()
    labels = set()
    if sb.sentinel <= 0:
        labels.add("A")
    if sb.value(nu) == 1 and sb.parent.mult(nu) == l:
        labels.add("B")
    if sb.value(nu) == sb.sentinel and l % (sb.parent.mult(nu) - sb.parent.mult(nu + 1)) == 0:
        labels.add("C")
    return labels


def is_proportional(sb):
    """Whether the subbranch scales the branch: m0*n1 = n0*m1.  The shared
    recurrence then keeps every n_i/m_i at n0/m0, sentinel included, so a
    labelled proportional subbranch is full-length and of type A."""
    return sb.nu > 0 and sb.parent.core_mult * sb.value(1) == sb.n0 * sb.parent.mult(1)


def core_section_exists(fiber, n0, first_values):
    """Existence and zero count of the crust's core section.

    Parameters
    ----------
    fiber : StellarFiber
    n0 : int
        Crust core multiplicity.
    first_values : sequence of int
        The first subbranch value n1 per branch, 0 for empty subbranches.

    Returns
    -------
    (exists, zero_degree) : (bool, int or None)
        With r0 = sum(m1)/m0 and r0' = sum(n1)/n0, a section exists iff
        r0 <= r0' and the divisor degree n0*(r0' - r0) is an integer;
        that degree (the number of extra zeros, D = 0 iff r0 = r0') is
        returned when it exists.  In integers, with
        excess = n0*sum(m1): the section exists iff m0 divides excess
        and excess <= m0*sum(n1), and its degree is
        sum(n1) - excess/m0.
    """
    if len(first_values) != fiber.h:
        raise ValueError("need one leading value per branch")
    if n0 < 1:
        raise ValueError("n0 must be positive")
    m0 = fiber.core_mult
    excess = n0 * sum(b.mult(1) for b in fiber.branches)
    sum_n1 = sum(int(v) for v in first_values)
    if excess % m0 or excess > m0 * sum_n1:
        return False, None
    return True, sum_n1 - excess // m0


@dataclass(frozen=True)
class SimpleCrust:
    """A crust whose core section exists and all of whose subbranches
    classify as A_l, B_l, or C_l.  Construction is the one test of
    simplicity: it checks l, then the core section, as the cheaper test, and
    keeps what that found: ``fiber`` and ``core_zeros``, the core section's
    extra zeros."""

    n0: int
    subbranches: tuple
    l: int
    fiber: StellarFiber = field(init=False, repr=False, compare=False)
    core_zeros: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subbranches", tuple(self.subbranches))
        for name in ("n0", "l"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.l < 1:
            raise ValueError("bark multiplicity must be positive")
        if not self.subbranches:
            raise ValueError("a crust needs one subbranch per branch")
        m0 = self.subbranches[0].parent.core_mult
        if not self.n0 < m0:
            raise ValueError("crust core multiplicity must satisfy n0 < m0")
        for sb in self.subbranches:
            if sb.n0 != self.n0:
                raise ValueError("subbranch n0 disagrees with crust n0")
        fiber = StellarFiber(m0, tuple(sb.parent for sb in self.subbranches))
        exists, zeros = core_section_exists(fiber, self.n0, self.first_values())
        if not exists:
            raise ValueError("crust admits no core section (r0 > r0')")
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "core_zeros", zeros)
        for sb in self.subbranches:
            if not classify_subbranch(sb, self.l):
                raise ValueError(
                    "subbranch %s is not of type A/B/C for l = %d"
                    % (list(sb.values), self.l)
                )

    def first_values(self):
        return tuple(sb.value(1) if sb.nu >= 1 else 0 for sb in self.subbranches)

    def proportional_subbranches(self):
        return tuple(sb for sb in self.subbranches if is_proportional(sb))


def _subbranch_options(branch, n0, l):
    """Admissible subbranches of one branch, deterministically ordered:
    the empty one first, then by (n1, nu)."""
    runs = [()]
    for n1 in range(1, branch.mult(1) + 1):
        forced = branch.forced(n0, n1)
        for nu, (n, m) in enumerate(zip(forced, branch.mults), start=1):
            if not 1 <= n <= m:
                break
            runs.append(forced[:nu])
    subs = (Subbranch(n0, vals, branch) for vals in runs)
    return [sb for sb in subs if classify_subbranch(sb, l)]


def enumerate_simple_crusts(fiber, l):
    """Every simple crust of a stellar fiber for bark multiplicity l.

    The search runs n0 over 1..m0-1 and, per branch, the empty subbranch
    or a leading value n1 in 1..m1 with the rest forced by the
    recurrence; a combination is kept when it builds a `SimpleCrust`.
    Output order is deterministic.
    """
    crusts = []
    for n0 in range(1, fiber.core_mult):
        if l * n0 > fiber.core_mult:
            continue
        per_branch = [_subbranch_options(b, n0, l) for b in fiber.branches]
        for combo in _cartesian(*per_branch):
            try:
                crusts.append(SimpleCrust(n0, combo, l))
            except ValueError:
                pass
    return crusts


def _decode_json(text):
    """``json.loads``, with nesting too deep to decode a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to decode") from None


def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def stellar_from_json(data):
    """Build a stellar fiber from {"core_mult": int, "core_genus": 0
    (optional: only rational cores are supported), "branches": [[int,
    ...], ...]}; a malformed object raises ValueError."""
    branches = data.get("branches")
    if not isinstance(branches, list) or not all(isinstance(ms, list) for ms in branches):
        raise ValueError("stellar branches must be a list of lists, got %r" % (branches,))
    core = _json_int(data.get("core_mult"), "stellar core_mult")
    if _json_int(data.get("core_genus", 0), "stellar core_genus") != 0:
        raise ValueError("stellar core_genus must be 0: only rational cores are supported")
    return StellarFiber(
        core,
        tuple(
            Branch(core, tuple(_json_int(m, "stellar branch value") for m in ms))
            for ms in branches
        ),
    )


def crust_to_json(crust):
    return {
        "n0": crust.n0,
        "subbranches": [list(sb.values) for sb in crust.subbranches],
        "l": crust.l,
    }


def crust_from_json(fiber, data):
    """Build a crust from {"n0": int, "subbranches": [[int, ...], ...],
    "l": int (default 1)}; a malformed object raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("crust must be a JSON object, got %r" % (data,))
    for key in ("n0", "subbranches"):
        if key not in data:
            raise ValueError("crust lacks %r" % key)
    subs = data["subbranches"]
    if not isinstance(subs, list) or not all(isinstance(vs, list) for vs in subs):
        raise ValueError("crust subbranches must be a list of lists, got %r" % (subs,))
    if len(subs) != fiber.h:
        raise ValueError("crust lists %d subbranches for %d branches" % (len(subs), fiber.h))
    n0 = _json_int(data["n0"], "crust n0")
    return SimpleCrust(
        n0,
        tuple(
            Subbranch(n0, tuple(_json_int(v, "crust subbranch value") for v in vs), b)
            for b, vs in zip(fiber.branches, subs)
        ),
        _json_int(data.get("l", 1), "crust l"),
    )


def load_catalog(path=None):
    """Stellar models and cases of a catalog JSON file (default: the
    packaged ``fixtures/catalog.json``).

    ``stellar_models`` is optional; its ``"constellar"`` entries carry no
    StellarFiber and are skipped.  Every case needs ``id`` (a one-line
    string), ``original``, ``main`` and ``expected`` (a list of lists of
    fiber names, returned parsed: a list of tuples of FiberClass).  A
    malformed file raises ValueError naming the case and the key.

    Returns
    -------
    (models, cases) : (dict of str -> StellarFiber, list of dict)
    """
    if path is None:
        source = resources.files(__package__) / "fixtures" / "catalog.json"
    else:
        source = Path(path)
    data = _decode_json(source.read_text())
    if not isinstance(data, dict):
        raise ValueError("catalog must be a JSON object, got %r" % (data,))
    raw_models = data.get("stellar_models", {})
    if not isinstance(raw_models, dict) or not all(
        isinstance(raw, dict) for raw in raw_models.values()
    ):
        raise ValueError("catalog stellar_models must be an object of objects")
    cases = data.get("cases")
    if not isinstance(cases, list) or not all(isinstance(c, dict) for c in cases):
        raise ValueError("catalog cases must be a list of objects, got %r" % (cases,))
    for i, case in enumerate(cases):
        name = case.get("id", "#%d" % i)
        for key in ("id", "original", "main", "expected"):
            if key not in case:
                raise ValueError("case %s lacks %r" % (name, key))
        for key in ("id", "original", "main"):
            if not isinstance(case[key], str):
                raise ValueError("case %s: %r must be a string" % (name, key))
        if "".join(case["id"].splitlines()) != case["id"]:
            raise ValueError("case %s: 'id' must be one line" % (name,))
        expected = case["expected"]
        if not isinstance(expected, list) or not all(
            isinstance(ms, list) and all(isinstance(f, str) for f in ms)
            for ms in expected
        ):
            raise ValueError(
                "case %s: 'expected' must be a list of lists of strings, got %r"
                % (name, expected)
            )
        try:
            case["expected"] = [tuple(parse_fiber(f) for f in ms) for ms in expected]
        except ValueError as exc:
            raise ValueError("case %s: 'expected': %s" % (name, exc)) from None
    models = {
        name: stellar_from_json(raw)
        for name, raw in raw_models.items()
        if not raw.get("constellar")
    }
    return models, cases


# Normally minimal stellar models of the splittable fiber types, read from
# the packaged catalog.  I_n* fibers are constellar (two cores joined by a
# chain) and have no StellarFiber model; their splittings ship as catalog
# cases only.
STELLAR_MODELS, _ = load_catalog()
