"""Catalog of elliptic singular fiber types.

Each fiber type carries an Euler number, a standard word over the
generators s0, s2, and the monodromy matrix the word evaluates to:

    I_n   : (s0)^n                  II  : s0 s2          III : s0 s2 s0
    IV    : (s0 s2)^2               I_n*: (s0 s2)^3 (s0)^n
    IV*   : (s0 s2)^4               III*: (s0 s2)^4 s0   II* : (s0 s2)^5

The letter count of each word equals the Euler number of the fiber.
In closed form I_n is [[1, n], [0, 1]] and I_n* is [[-1, -n], [0, -1]],
since (s0 s2)^3 = -I; the six elliptic matrices are evaluated once.
standard_entries gives these entries as a tuple, and standard_monodromy
the Mat2 built from them.
Classification of an arbitrary determinant-1 integer matrix onto these
conjugacy classes dispatches on the trace: a parabolic (trace 2) or
quasi-parabolic (trace -2) matrix reduces to a normal-form index, and
the six elliptic classes (trace in {-1, 0, 1}) are told apart by the
trace and the sign of the lower-left entry, which is constant on each
conjugacy class; both are read from the six standard matrices.
"""

import re
from dataclasses import dataclass
from math import gcd

from . import sl2z
from .sl2z import Mat2, Word, eval_word


_STAR_KINDS = ("I*", "II*", "III*", "IV*")
_PLAIN_KINDS = ("I", "II", "III", "IV")
KINDS = _PLAIN_KINDS + _STAR_KINDS


@dataclass(frozen=True)
class FiberClass:
    """A fiber type: kind in {I, II, III, IV, I*, II*, III*, IV*}.

    ``n`` is meaningful only for kinds I and I*.  ``multiplicity`` >= 2
    marks a multiple fiber and is permitted only on kinds I and I*
    ("2I3", "3I0*"); monodromy never sees it.
    """

    kind: str
    n: int = 0
    multiplicity: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown fiber kind %r" % (self.kind,))
        if self.kind not in ("I", "I*") and self.n != 0:
            raise ValueError("index n applies only to I and I* fibers")
        if self.n < 0:
            raise ValueError("fiber index must be nonnegative")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.multiplicity > 1 and self.kind not in ("I", "I*"):
            raise ValueError("only I_n and I_n* fibers may be multiple")

    def reduced(self):
        """The same class with multiplicity erased."""
        if self.multiplicity == 1:
            return self
        return FiberClass(self.kind, self.n)

    def __str__(self):
        prefix = str(self.multiplicity) if self.multiplicity > 1 else ""
        if self.kind == "I":
            return "%sI%d" % (prefix, self.n)
        if self.kind == "I*":
            return "%sI%d*" % (prefix, self.n)
        return prefix + self.kind

    def sort_key(self):
        """Deterministic ordering: I_n before II before III before IV,
        starred kinds after plain, then by index and multiplicity."""
        star = self.kind.endswith("*")
        base = self.kind.rstrip("*")
        return (star, _PLAIN_KINDS.index(base), self.n, self.multiplicity)


# the grammar of parse_fiber; \d and int() read any Unicode decimal digit
_FIBER_NAME = re.compile(r"(\d*)I(\d+)(\*?)|(II|III|IV)(\*?)")


def parse_fiber(text):
    """Parse compact fiber notation.

    Grammar: [m]I n ['*'] | II['*'] | III['*'] | IV['*'], after
    surrounding white space is stripped.  Examples: "I5", "I2*", "II",
    "III*", "2I3".

    Args:
        text: the compact string.

    Returns:
        FiberClass.

    Raises:
        ValueError: if the text does not match the grammar, has a number
            of more digits than int() converts, or names multiplicity 0
            ("0I3").
    """
    found = _FIBER_NAME.fullmatch(text.strip())
    if found is None:
        raise ValueError("cannot parse fiber string %r" % (text,))
    multiplicity, n, star, elliptic, elliptic_star = found.groups()
    if elliptic is not None:
        return FiberClass(elliptic + elliptic_star)
    try:
        n, multiplicity = int(n), int(multiplicity or 1)
    except ValueError:  # more digits than int() converts
        raise ValueError("cannot parse fiber string %r" % (text,)) from None
    return FiberClass("I" + star, n, multiplicity)


# kind -> (number of (s0 s2) pairs, trailing s0 exponent; None means n):
# the standard word is (s0 s2)^pairs s0^tail, and its letter count
# 2*pairs + tail is the Euler number.
_WORD_SHAPE = {
    "I": (0, None),
    "II": (1, 0),
    "III": (1, 1),
    "IV": (2, 0),
    "I*": (3, None),
    "IV*": (4, 0),
    "III*": (4, 1),
    "II*": (5, 0),
}


def _word_shape(f):
    pairs, tail = _WORD_SHAPE[f.kind]
    return pairs, f.n if tail is None else tail


def euler(f):
    """Euler characteristic of the underlying reduced fiber: the letter
    count of its standard word.

    Multiplicity is ignored (a multiple torus mI_0 has Euler number 0).
    """
    pairs, tail = _word_shape(f)
    return 2 * pairs + tail


def standard_word(f):
    """Standard word of a fiber class (empty for I_0)."""
    pairs, tail = _word_shape(f)
    return Word([("s0", 1), ("s2", 1)] * pairs + [("s0", tail)])


def standard_entries(f):
    """The (a, b, c, d) entries of the standard matrix, with no Mat2 built:
    I_n is (1, n, 0, 1), I_n* is (-1, -n, 0, -1), the rest by table."""
    if f.kind == "I":
        return (1, f.n, 0, 1)
    if f.kind == "I*":
        return (-1, -f.n, 0, -1)
    return _ELLIPTIC_ENTRIES[f.kind]


def standard_monodromy(f):
    """The monodromy matrix, equal to eval_word(standard_word(f))."""
    return Mat2(*standard_entries(f))


_ELLIPTIC_ENTRIES = {
    k: eval_word(standard_word(FiberClass(k))).entries()
    for k in _PLAIN_KINDS[1:] + _STAR_KINDS[1:]
}

# (trace, lower-left entry > 0) of each elliptic class: both are
# conjugacy invariants, and together they tell the six classes apart.
_ELLIPTIC_CLASSES = {
    (a + d, c > 0): FiberClass(k) for k, (a, b, c, d) in _ELLIPTIC_ENTRIES.items()
}


def _parabolic_index(m):
    """Index n of a trace-2 matrix: m is conjugate to [[1, n], [0, 1]].

    |n| is the gcd of the entries of m - I; the sign is minus the sign
    of the lower-left entry of m - I when that entry is nonzero, and the
    sign of the upper-right entry otherwise.
    """
    p, q, r, s = m.a - 1, m.b, m.c, m.d - 1
    g = gcd(gcd(abs(p), abs(q)), gcd(abs(r), abs(s)))
    if g == 0:
        return 0
    if r != 0:
        sign = -1 if r > 0 else 1
    else:
        sign = 1 if q > 0 else -1
    return sign * g


def classify(m):
    """Classify a determinant-1 matrix onto a fiber conjugacy class.

    Args:
        m: Mat2 (determinant 1 is enforced by the type).

    Returns:
        The unique FiberClass whose standard monodromy is conjugate to
        ``m``, or None when m lies in no such class (a hyperbolic matrix,
        or a parabolic one with negative normal-form index).

    The result never carries a multiplicity: monodromy is blind to it.
    """
    if not isinstance(m, Mat2):
        raise TypeError("classify expects a Mat2")
    t = sl2z.trace(m)
    if abs(t) == 2:
        n = _parabolic_index(m if t == 2 else -m)
        return FiberClass("I" if t == 2 else "I*", n) if n >= 0 else None
    return _ELLIPTIC_CLASSES.get((t, m.c > 0))
