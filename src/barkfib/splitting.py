"""Splitting candidates, trace obstructions, and monodromy factorizations.

When a fiber of type ``original`` deforms so that the fiber over the
origin becomes ``main``, the difference of Euler numbers must be carried
by subordinate fibers drawn from {I_n, II, III}.  This module enumerates
the possible multisets, rules candidates out by exact trace congruences
and Euler numbers, and searches for (or verifies) explicit factorizations
of the original monodromy into conjugates of the factors' standard matrices.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import isqrt

from .kodaira import FiberClass, euler, parse_fiber, standard_entries, standard_monodromy
from .sl2z import IDENTITY, Word, conj, eval_word, format_word, parse_word

FORBIDDEN = "forbidden"
UNDECIDED = "undecided"

_NO_RULE = "no trace obstruction applies to %d factors"


class SearchBudgetExceeded(RuntimeError):
    """Raised when a factorization search would exceed its node budget."""


def multiset(*fibers):
    """Canonical multiset: a tuple sorted by the fiber sort key."""
    return tuple(sorted(fibers, key=FiberClass.sort_key))


def euler_deficit(original, main):
    """Total Euler number available to subordinate fibers.

    The genus-g correction terms 2(1-g) cancel between the two fibers,
    so for every base genus the deficit is e(original) - e(main).
    A negative difference means ``main`` cannot arise from ``original``.
    """
    d = euler(original) - euler(main)
    if d < 0:
        raise ValueError(
            "invalid main fiber: euler(%s) = %d exceeds euler(%s) = %d"
            % (main, euler(main), original, euler(original))
        )
    return d


# The largest deficit enumerate_multisets takes: it has 982,004 candidates,
# and deficit 48 has 1,177,885, more than 10**6.
MAX_DEFICIT = 47

# Every class a candidate up to MAX_DEFICIT holds, and the runs of k equal
# classes a candidate is joined from: k IIs are _IIS[k], and so on.
_I = [FiberClass("I", n) for n in range(MAX_DEFICIT + 1)]
_II, _III = FiberClass("II"), FiberClass("III")
_IIS = [(_II,) * k for k in range(MAX_DEFICIT // 2 + 1)]
_THREES, _IIIS = ([(f,) * k for k in range(MAX_DEFICIT // 3 + 1)] for f in (_I[3], _III))
# _NODAL[r]: each way to make r of I1s and I2s, more I2s first, as
# (part count, I1s then I2s).
_NODAL = [
    [(r - k, (_I[1],) * (r - 2 * k) + (_I[2],) * k) for k in range(r // 2, -1, -1)]
    for r in range(MAX_DEFICIT + 1)
]


def enumerate_multisets(deficit):
    """All multisets over {I_n (n >= 1), II, III} with Euler sum ``deficit``.

    These are the only reduced fiber types whose singularities are all of
    type A: I_n carries n nodes, II one A2 point, III one A3 point.  IV is
    excluded (an ordinary triple point is not an A-singularity), as are
    all starred and multiple classes.

    Each candidate is a canonical multiset (I_n ascending, then II, then
    III).  The output order is deterministic: fewer parts first, and among
    candidates with as many parts, their part ranks (I_n: 2n - 1, II: 4,
    III: 6) listed from the largest and compared as sequences, the larger
    first.  So larger parts come first, and II/III precede the nodal class
    of their Euler number.  Deficit 0 has the one empty candidate.

    A big part (I_n, n >= 4) outranks every small one, so the candidates
    are built in that order, with no sort: one walk over the big parts,
    each sequence of them after its own extensions, gives each sequence
    its small rest with more III first, then more I3, then more II (the
    part count then fixes the I2s and I1s), and appends each candidate to
    the list of its part count.  Returns a tuple: at a deficit up to 10 it
    is the row _WHOLE[deficit] itself, which that walk built at import.

    Raises:
        ValueError: if ``deficit`` is negative, or above MAX_DEFICIT, whose
        candidates would not fit in memory; nothing is built first.
    """
    if deficit < 0:
        raise ValueError("deficit must be nonnegative")
    if deficit > MAX_DEFICIT:
        raise ValueError(
            "deficit %d has more than 10**6 candidate multisets; the largest "
            "deficit enumerated is %d" % (deficit, MAX_DEFICIT)
        )
    if deficit < len(_WHOLE):
        return _WHOLE[deficit]
    return _walk(deficit)


def _walk(deficit):
    """enumerate_multisets(deficit), built by the loops with no table."""
    by_count = [[] for _ in range(deficit + 1)]
    adds = [candidates.append for candidates in by_count]

    def walk(big, top, rest):
        # big: the big parts so far, ascending; none above top; rest to split
        for n in range(min(top, rest), 3, -1):
            walk((_I[n],) + big, n, rest - n)
        for n_III in range(rest // 3, -1, -1):
            rest_III, iiis = rest - 3 * n_III, _IIIS[n_III]
            count_III = len(big) + n_III
            for n_I3 in range(rest_III // 3, -1, -1):
                rest_I3, mid = rest_III - 3 * n_I3, _THREES[n_I3] + big
                count_I3 = count_III + n_I3
                for n_II in range(rest_I3 // 2, -1, -1):
                    tail, count = mid + _IIS[n_II] + iiis, count_I3 + n_II
                    for nodal_count, nodal in _NODAL[rest_I3 - 2 * n_II]:
                        adds[count + nodal_count](nodal + tail)

    walk((), deficit, deficit)
    return tuple(chain.from_iterable(by_count))


_WHOLE = tuple(_walk(d) for d in range(11))  # the candidates of each deficit d <= 10


def _fiber_trace(f):
    a, _, _, d = standard_entries(f)
    return a + d


def _is_square(x):
    return x >= 0 and isqrt(x) ** 2 == x


def _shift_admissible(c, m):
    """Is the integer trace shift ``c`` a lower-left entry of a conjugate
    of ``m``, the (a, b, c, d) entries of the other factor's standard
    matrix?

    Conjugating both factors so that the I_k factor is I + kN with
    N = [[0, 1], [0, 0]], the target trace equals trace(m) + k*c, where
    c = trace(N*B) is the lower-left entry of B, the conjugate of ``m``
    that the other factor becomes.  That pins c exactly for the
    (quasi-)unipotent classes, as the conjugates of e*[[1, n], [0, 1]]
    (b = e*n) have lower-left entries -e*n*r^2 for every integer r:

      I_0, I_0*    : c = 0
      I_j  (j >= 1): c = -j*r^2 for some integer r
      I_j* (j >= 1): c = +j*r^2

    and pins its sign for the elliptic ones (lower-left entry not 0),
    since the sign of that entry is constant on their conjugacy classes:
    c < 0 for II, III, IV and c > 0 for II*, III*, IV*.

    Only the necessary direction is used, so "admissible" can never
    wrongly exclude a realizable splitting.
    """
    _, b, lower, _ = m
    if lower:
        return c * lower > 0
    if not b:
        return c == 0
    return c % b == 0 and _is_square(-c // b)


def _trace_shift_rule(target, k, other):
    """Two-factor rule for a factor of class I_k (k >= 1).

    If the monodromy of ``target`` were a product of a conjugate of the
    I_k matrix and a conjugate of the matrix of ``other``, then
    trace(target) - trace(other) would equal k*c for an admissible shift
    c (see _shift_admissible).  Forbidden when no admissible c exists.
    """
    m = standard_entries(other)
    delta = _fiber_trace(target) - m[0] - m[3]
    if delta % k == 0 and _shift_admissible(delta // k, m):
        return UNDECIDED, "trace shift rule passed for I_%d factor" % k
    return FORBIDDEN, (
        "trace shift rule: trace(%s)-trace(%s) = %d admits no valid multiple of %d"
        % (target, other, delta, k)
    )


def _class_rule(target, part):
    """One-factor rule: distinct Kodaira classes have non-conjugate monodromies."""
    if part.reduced() == target.reduced():
        return UNDECIDED, "class rule passed"
    return FORBIDDEN, "class rule: %s and %s are distinct classes" % (target, part)


def _is_central(target):
    """Monodromy -I: only I_0*, as standard_entries(I_n*) = (-1, -n, 0, -1)."""
    return target.kind == "I*" and target.n == 0


def _central_pair_rule(x1, x2):
    """Two-factor rule for a target with monodromy -I.

    A1*A2 = -I forces A1 = -A2^{-1}, hence trace(x1) = -trace(x2).
    """
    t1, t2 = _fiber_trace(x1), _fiber_trace(x2)
    if t1 == -t2:
        return UNDECIDED, "central pair rule passed"
    return FORBIDDEN, (
        "central pair rule: trace(%s) = %d but -trace(%s) = %d" % (x1, t1, x2, -t2)
    )


def _central_triple_rule(k, x1, x2):
    """Three-factor rule for a central target with an I_k factor (k >= 1).

    With the I_k factor written as I + kN, centrality forces
    trace(x1) + k*c = -trace(x2), so k must divide
    trace(x1) + trace(x2).
    """
    if (_fiber_trace(x1) + _fiber_trace(x2)) % k == 0:
        return UNDECIDED, "central triple rule passed for I_%d factor" % k
    return FORBIDDEN, (
        "central triple rule: %d does not divide trace(%s)+trace(%s)" % (k, x1, x2)
    )


def _euler_rule(target, parts):
    """Rule for any number of factors: SL(2,Z) -> Z/12, its abelianization,
    sends s0 and its conjugate s2 to 1, so each class to its Euler number,
    the letter count of its standard word.  No reason when it passes."""
    total, want = sum(map(euler, parts)), euler(target)
    if (total - want) % 12:
        return FORBIDDEN, (
            "Euler number mod 12 rule: e(%s) = %d is %d mod 12, but the factors'"
            " Euler numbers sum to %d, which is %d mod 12"
            % (target, want, want % 12, total, total % 12)
        )
    return UNDECIDED, None


def rule_reach(target):
    """The most factors any trace obstruction reads for ``target``: three
    for I0*, whose central triple rule reads three, and two otherwise.  A
    longer factor list meets the Euler number mod 12 rule only, which no
    full_report candidate fails: each sums to the deficit."""
    return 3 if _is_central(target) else 2


def decomposition_verdict(target, parts):
    """Apply every applicable obstruction to a full factor list.

    ``parts`` is the complete multiset of factor classes (main fiber plus
    subordinates).  One factor takes the class rule, which decides it.  A
    central target with two factors takes the central pair rule, and with
    three factors the central triple rule for each I_k factor; a
    non-central target with two factors takes the trace shift rule for
    each I_k factor.  Factor lists longer than rule_reach(target) carry
    no trace obstruction, and no matrix is built for them.  Any number of
    factors then takes the Euler number mod 12 rule, which adds no reason
    when it passes.  Returns (verdict, reasons): the first forbidding
    rule's reason alone, or the reason of every other rule that passed.
    """
    parts = tuple(parts)
    central = _is_central(target)
    if len(parts) > rule_reach(target):
        rules = ()
    elif len(parts) == 1:
        rules = [(_class_rule, target, *parts)]
    elif central and len(parts) == 2:
        rules = [(_central_pair_rule, *parts)]
    else:
        rules = []
        for i, p in enumerate(parts):
            if p.kind == "I" and p.n:
                others = parts[:i] + parts[i + 1:]
                rules.append(
                    (_central_triple_rule, p.n, *others) if central
                    else (_trace_shift_rule, target, p.n, *others)
                )
    reasons = []
    for rule, *args in rules:
        verdict, reason = rule(*args)
        if verdict == FORBIDDEN:
            return FORBIDDEN, [reason]
        reasons.append(reason)
    verdict, reason = _euler_rule(target, parts)
    if verdict == FORBIDDEN:
        return FORBIDDEN, [reason]
    return UNDECIDED, reasons or [_NO_RULE % len(parts)]


def screen_candidates(target, main, candidates):
    """(survivors, excluded) of ``candidates``, a tuple of subordinate
    multisets in enumerate_multisets order, for the factor lists ``main``
    plus each one.

    ``survivors`` is one tuple: the candidates no rule forbids, then every
    later one as a slice of ``candidates``.  ``excluded`` is a list pairing
    each forbidden candidate with its rule's reason.  Both keep the
    candidates' order.  Candidates come fewest parts first, so
    decomposition_verdict is asked only about those within
    rule_reach(target); every later one survives without a call.
    """
    cut = bisect_right(candidates, rule_reach(target) - 1, key=len)
    kept, excluded = [], []
    for ms in candidates[:cut]:
        verdict, reasons = decomposition_verdict(target, (main, *ms))
        if verdict == FORBIDDEN:
            excluded.append((ms, reasons[0]))
        else:
            kept.append(ms)
    return (*kept, *candidates[cut:]), excluded


@dataclass(frozen=True)
class FactorizationWitness:
    """An explicit factorization: target monodromy as an ordered product
    of conjugated standard matrices."""

    target: FiberClass
    factors: tuple  # of (FiberClass, Word) pairs

    def product(self):
        m = IDENTITY
        for base, conjugator in self.factors:
            m = m * conj(standard_monodromy(base), eval_word(conjugator))
        return m


def verify_witness(w):
    """True iff the witness product equals the target monodromy exactly."""
    return w.product() == standard_monodromy(w.target)


def format_identity(w):
    """The identity text ``T = A . B^(w) ...`` of a witness: the target,
    then the factors in product order, each conjugator word w in ``^( )``
    unless it is empty."""
    return "%s = %s" % (
        w.target,
        " . ".join(
            "%s^(%s)" % (base, format_word(g)) if len(g) else str(base)
            for base, g in w.factors
        ),
    )


def parse_identity(text):
    """The FactorizationWitness that format_identity prints as ``text``.

    Raises:
        ValueError: if the text is not ``TARGET = FACTOR . FACTOR ...`` with
        each factor a fiber, optionally followed by ``^(WORD)``.
    """
    target, sep, product = text.partition(" = ")
    if not sep:
        raise ValueError("identity %r lacks ' = '" % (text,))
    factors = []
    for factor in product.split(" . "):
        base, hat, rest = factor.partition("^(")
        if hat and not rest.endswith(")"):
            raise ValueError("unclosed '^(' in factor %r" % (factor,))
        factors.append((parse_fiber(base), parse_word(rest[:-1])))
    return FactorizationWitness(parse_fiber(target), tuple(factors))


def witness_I_star_family(n):
    """The splitting I_n* -> I_{n+4} + I_1 + I_1, valid for every n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return parse_identity("I%d* = I1^(s0 s2) . I1^(s0^3 s2) . I%d" % (n, n + 4))


# Exact product identities, one per known splitting with an explicit
# word, as (text, witness) rows; the factor order is the product order.
# Each verifies by verify_witness.
WITNESS_TABLE = [
    (text, parse_identity(text))
    for text in (
        "II = I1 . I1^(s0 s2)",
        "III = II . I1",
        "III = I2 . I1^(s2)",
        "IV = II . II",
        "IV = I2 . II^(s2)",
        "IV = III . I1^(s0 s2)",
        "IV = I3 . I1^(s2)",
        "II* = IV* . II",
        "II* = I2* . I1^(s2) . I1^(s0 s2)",
        "II* = I5 . I1^(s2) . I1 . I1^(s0 s2) . I1^(s0 s2) . I1",
        "II* = I8 . I1^(s0^-1 s2) . I1^(s0^-1 s2^-2)",
        "III* = I1*^(s2^-1) . I2",
        "III* = I0* . I1 . I1^(s0 s2) . I1",
        "III* = I7 . I1^(s0^-4 s2) . I1^(s0^-1 s2)",
        "III* = I6 . II^(s0^-4 s2) . I1^(s0^-1 s2)",
        "III* = I6 . I1^(s0^-2 s2) . I2^(s2)",
        "IV* = I0* . I1 . I1^(s0 s2)",
        "IV* = I6 . I1^(s0^-3 s2) . I1^(s2)",
        "I0* = I4 . I1^(s0^-1 s2) . I1^(s0 s2)",
        "I0* = I3 . II^(s0^-2) . I1^(s0 s2)",
    )
]

# The I_n* family instantiated at small n; together with WITNESS_TABLE
# this is the full identity list checked by `barkfib verify-words`.
WITNESS_FAMILY_RANGE = range(1, 7)


def all_witnesses():
    family = [witness_I_star_family(n) for n in WITNESS_FAMILY_RANGE]
    return WITNESS_TABLE + [(format_identity(w), w) for w in family]


class _ConjugateTables:
    """The distinct conjugates g*M*g^-1 of each base M over the normalized
    conjugator words g of length <= max_len, one word length per step,
    and the node count of the search that reads them.

    Matrices are (a, b, c, d) int tuples.  The words are visited breadth
    first: the empty word; s0^e then s2^e for e = -exp_cap..exp_cap, e != 0;
    then, for each word of the previous length in order, one more letter
    of the other generator with every exponent.  A child's matrix is its
    parent's times one generator power:

        g*s0^e = (a, a*e + b, c, c*e + d)    g*s2^e = (a - e*b, b, c - e*d, d)

    Every conjugate is stored as a unit U, the conjugate being
    alpha*I + beta*U.  For I0, I0* and the elliptic bases alpha = 0,
    beta = 1 and U is the conjugate.  A base with c = 0 and b != 0 (I_n,
    I_n*) is p*I + q*N with N = (0, 1, 0, 0), so alpha = p, beta = q and
    U = g*N*g^-1 = (-a*c, a^2, -c^2, a*c), which depends only on g's
    first column up to sign.  A right factor s0^e keeps that column, so
    only the empty word and the words ending in s2 can reach a new unit.
    One dict of these units serves every I_n and I_n* base; the full
    product is computed for the other bases only, and without them the
    last length's s0-children are not built.

    ``tables`` holds four fields per base: a dict mapping each unit to the
    letters of the first word that produced it, in discovery order, the
    base's trace, which every conjugate keeps, and alpha and beta.  Each
    step extends the dicts by one word length, so a partial table is a
    prefix of the full one.

    The builder owns the search's node count ``count`` and its
    ``budget``: charge(), the only code that moves the count, adds to it
    and raises SearchBudgetExceeded once it passes the budget.  A word
    length costs its words times (1 + the number of bases): one word at
    length 0, 2n at length 1 and n children per word after that,
    n = 2*exp_cap.  Length 0 is charged when the builder is made, and each
    later length when step() builds it, before anything is built; so the
    exponent list is made only once length 1's charge has passed.  A
    frontier that the budget cannot extend is not kept, since the step
    that would extend it raises.
    """

    def __init__(self, bases, max_len, exp_cap, budget):
        self._units = {(0, 1, 0, 0): ()}
        self.tables = [
            (self._units, m[0] + m[3], m[0], m[1]) if m[1] and not m[2]
            else ({m: ()}, m[0] + m[3], 0, 1)
            for m in bases
        ]
        self._general = [(m, t[0]) for m, t in zip(bases, self.tables) if m[2]]
        self._parabolic = any(m[1] and not m[2] for m in bases)
        self._frontier = [((), (1, 0, 0, 1))]
        self.count, self.budget = 0, budget
        self._per_word = 1 + len(bases)
        self.charge(self._per_word)
        self._exp_cap, self._exps = exp_cap, None
        self._words = 4 * exp_cap  # at length 1
        self._left = max_len if exp_cap else 0

    def charge(self, nodes):
        """Add ``nodes`` to the count; raise once it passes the budget."""
        self.count += nodes
        if self.count > self.budget:
            raise SearchBudgetExceeded("search exceeded %d nodes" % self.budget)

    def step(self):
        """Extend every table by one word length; False once they are full."""
        if not self._left:
            return False
        self.charge(self._words * self._per_word)
        if self._exps is None:
            cap = self._exp_cap
            self._exps = [*range(-cap, 0), *range(1, cap + 1)]
        self._words *= 2 * self._exp_cap
        self._left -= 1
        keep = self._left and self.count + self._words * self._per_word <= self.budget
        general, parabolic, units = self._general, self._parabolic, self._units
        nxt = []
        for letters, (a, b, c, d) in self._frontier:
            last = letters[-1][0] if letters else None
            for gen in ("s0", "s2"):
                if gen == last or (gen == "s0" and not (keep or general)):
                    continue
                for e in self._exps:
                    child = letters + ((gen, e),)
                    if gen == "s0":
                        g0, g1, g2, g3 = a, a * e + b, c, c * e + d
                    else:
                        g0, g1, g2, g3 = a - e * b, b, c - e * d, d
                        if parabolic:
                            ac = g0 * g2
                            units.setdefault((-ac, g0 * g0, -g2 * g2, ac), child)
                    for (p, q, r, s), table in general:
                        # (g*M) * g^-1 with g^-1 = (g3, -g1, -g2, g0)
                        x, y = g0 * p + g1 * r, g0 * q + g1 * s
                        z, w = g2 * p + g3 * r, g2 * q + g3 * s
                        m = (x * g3 - y * g2, y * g0 - x * g1, z * g3 - w * g2, w * g0 - z * g1)
                        if m not in table:
                            table[m] = child
                    if keep:
                        nxt.append((child, (g0, g1, g2, g3)))
        self._frontier = nxt
        return True

    def find(self, entry, m):
        """The unit of ``m`` when it is in the dict of ``entry``, one of
        the tables; else None.  An m - alpha*I that beta does not divide
        is the conjugate of no unit."""
        table, _, alpha, beta = entry
        x, y, z, w = m[0] - alpha, m[1], m[2], m[3] - alpha
        if x % beta or y % beta or z % beta or w % beta:
            return None
        u = (x // beta, y // beta, z // beta, w // beta)
        return u if u in table else None


def search_factorization(
    target, parts, max_conj_len, exp_cap=8, node_budget=10**7
):
    """Exhaustive bounded search for a factorization witness.

    Each factor of class f is sought among the conjugates g*M_f*g^-1 of
    its standard matrix, g running over the normalized words in s0, s2 of
    length <= max_conj_len with exponents 1 <= |e| <= exp_cap.  Length 0
    means the empty word only, so every factor is its standard matrix.
    The words are taken breadth first (the empty word, s0^e and s2^e for
    e = -exp_cap..exp_cap, then one more alternating letter per length);
    a conjugate reached by several words keeps the first.  The factors
    are taken in the canonical order of ``parts`` (see multiset): whether
    a factorization exists does not depend on the order, as a Hurwitz move
    turns T = X*Y into T = (X*Y*X^-1)*X, but the bounds apply to the
    conjugators of that order.  The search runs one pass per conjugator
    length, shortest first, on the tables of the words up to that length.
    In a pass a depth-first search runs over the conjugates of all but the
    last factor, each class's in the order they were first reached, and
    looks the needed last factor up among its conjugates.  So the first
    witness found is deterministic, and its longest conjugator is as short
    as the bounds allow.  An I_n or I_n* conjugate p*I + q*g*N*g^-1
    depends only on g's first column; each unit g*N*g^-1 is stored once,
    in one table shared by those classes.

    Node accounting: one node per conjugator word, one per (word, distinct
    class) conjugation, whether or not that conjugation is computed, and
    one per depth-first node and per child, in every pass.  A word length
    is charged in full when its pass starts, so the lengths past the
    witness cost nothing.  The search raises SearchBudgetExceeded once the count
    would pass ``node_budget``, so a search that needs exactly
    ``node_budget`` nodes completes.  A decomposition the obstructions
    forbid costs no nodes and never raises.

    Args:
        target: the fiber class whose monodromy is to be factored.
        parts: the multiset of factor classes.
        max_conj_len: maximum normalized length of each conjugator word.
        exp_cap: maximum |exponent| per letter.
        node_budget: hard cap on explored nodes.

    Returns:
        A verified FactorizationWitness, or None.  When
        decomposition_verdict(target, parts) is ``forbidden``, None is
        returned before any conjugate is built and is a proof that no
        factorization exists at any bound; otherwise None means no witness
        exists within the bounds, which is evidence, not a proof.

    Raises:
        SearchBudgetExceeded: when the bounded space is still too large.
    """
    if min(max_conj_len, exp_cap, node_budget) < 0:
        raise ValueError("max_conj_len, exp_cap and node_budget must be nonnegative")
    parts = multiset(*parts)
    if not parts or decomposition_verdict(target, parts)[0] == FORBIDDEN:
        return None
    found = _find_conjugators(
        standard_entries(target), parts, max_conj_len, exp_cap, node_budget
    )
    if found is None:
        return None
    witness = FactorizationWitness(
        target, tuple((f, Word(letters)) for f, letters in zip(parts, found))
    )
    if not verify_witness(witness):
        raise AssertionError("search produced a non-verifying witness")
    return witness


def _find_conjugators(target_m, parts, max_conj_len, exp_cap, node_budget):
    """The search of search_factorization on (a, b, c, d) tuples.

    ``parts`` is a canonical multiset, and the factors are taken in its
    order.  Returns each factor's conjugator letters for the first product
    equal to ``target_m``; or None.  The first pass reads the tables of
    the empty word; each later one first grows them by one conjugator
    length, and none runs once they are full.  Nothing grows during a
    pass, so the witness is the first in (length, table order).
    """
    classes = list(dict.fromkeys(parts))
    bases = [standard_entries(f) for f in classes]
    builder = _ConjugateTables(bases, max_conj_len, exp_cap, node_budget)
    tables = dict(zip(classes, builder.tables))
    steps = [tables[f] for f in parts[:-1]]
    while True:
        found = _complete(steps, 0, target_m, tables[parts[-1]], builder)
        if found is not None:
            return [tables[f][0][u] for f, u in zip(parts, reversed(found))]
        if not builder.step():
            return None


def _complete(steps, idx, rest, last, builder):
    """Depth-first search for the factors idx.. of the product.

    ``steps[i]`` is factor i's entry of ``builder.tables`` and ``last``
    the last factor's; ``rest`` is what factors idx.. must multiply to.
    Choosing the conjugate alpha*I + beta*U of a unit U = (a, b, c, d)
    steps ``rest`` to its inverse times ``rest``, alpha*rest +
    beta*adj(U)*rest with adj(U) = (d, -b, -c, a).  ``builder`` keeps the
    node count: one for this node and one per child.  A child whose factor
    is the last, and its leaf, cost two nodes; its lookup in the last
    table is made here, and the loop charges the two nodes of every unit
    it has read when it finds the witness or reaches the end of its table.
    So the count is the one of one node at a time, a witness included.
    The last factor needs the last class's trace t, so a unit is tried
    only when the trace of adj(U)*rest is (t - alpha*trace(rest))/beta,
    and none is when beta does not divide that difference.  That is the
    only filter before the lookup: a needed last factor of the other
    elliptic class of its trace would miss it, and the Euler number mod 12
    rule, which every search has passed, leaves none, as the two classes
    of a trace differ mod 12.  Returns the units found, last factor first,
    or None.
    """
    builder.charge(1)
    if idx == len(steps):
        u = builder.find(last, rest)
        return None if u is None else [u]
    table, _, alpha, beta = steps[idx]
    if idx + 1 < len(steps):
        for u in table:
            builder.charge(1)
            found = _complete(steps, idx + 1, _left_divide(alpha, beta, u, rest), last, builder)
            if found is not None:
                found.append(u)
                return found
        return None
    r0, r1, r2, r3 = rest
    _, t, _, _ = last
    want, off = divmod(t - alpha * (r0 + r3), beta)
    for read, (a, b, c, d) in enumerate(() if off else table, 1):
        # the trace of the needed last factor
        if a * r3 + d * r0 - b * r2 - c * r1 != want:
            continue
        u = (a, b, c, d)
        found = builder.find(last, _left_divide(alpha, beta, u, rest))
        if found is not None:
            builder.charge(2 * read)  # the child and its leaf per unit read
            return [found, u]
    builder.charge(2 * len(table))
    return None


def _left_divide(alpha, beta, u, rest):
    """(alpha*I + beta*U)^-1 * rest for the unit U = (a, b, c, d): the
    inverse is alpha*I + beta*(d, -b, -c, a)."""
    a, b, c, d = u
    r0, r1, r2, r3 = rest
    return (
        alpha * r0 + beta * (d * r0 - b * r2),
        alpha * r1 + beta * (d * r1 - b * r3),
        alpha * r2 + beta * (a * r2 - c * r0),
        alpha * r3 + beta * (a * r3 - c * r1),
    )
