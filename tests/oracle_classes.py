"""Reference oracle for the class facts that barkfib reads from the
standard matrices, and for the fiber-name parser.

``shift_admissible`` and ``classify`` state the Kodaira class invariants
kind by kind: the admissible trace shifts next to each class, and the
class of each trace and lower-left sign.  They check
``barkfib.splitting._shift_admissible``, which decides on the other
factor's standard matrix, and ``barkfib.kodaira.classify``, which looks
the elliptic classes up by the invariants of their standard matrices.
The parabolic normal form and the square test are shared with barkfib.

``rule_verdict`` derives the verdict of ``barkfib.splitting.
decomposition_verdict`` rule by rule from the kind-by-kind traces and
Euler numbers, ``shift_admissible`` and the central trace sums.

``parse_fiber`` is the character-by-character scanner that preceded the
one regular expression of ``barkfib.kodaira.parse_fiber``.  Beyond the
documented grammar it had its own messages for a blank name and for a
multiplicity before II, III or IV, and it accepted a multiplicity of 1
there ("1II").
"""

from barkfib import sl2z
from barkfib.kodaira import FiberClass, _parabolic_index
from barkfib.sl2z import Mat2
from barkfib.splitting import FORBIDDEN, UNDECIDED, _is_square

# kind -> (trace, Euler number) of the standard matrix; for I and I* the
# Euler number is n plus the value given.
_TRACE_EULER = {
    "I": (2, 0), "II": (1, 2), "III": (0, 3), "IV": (-1, 4),
    "I*": (-2, 6), "IV*": (-1, 8), "III*": (0, 9), "II*": (1, 10),
}


def _trace(f):
    return _TRACE_EULER[f.kind][0]


def _euler(f):
    return _TRACE_EULER[f.kind][1] + f.n


def rule_verdict(target, parts):
    """(verdict, starts) for the ordered factor list ``parts`` of
    ``target``: the verdict of the class, trace and Euler number mod 12
    rules, and how each of decomposition_verdict's reasons begins.  A
    forbidden list has the first forbidding rule's reason alone; an
    undecided one has one reason per rule that ran, or the no-rule text.

      one factor            : the class rule, on the reduced classes
      I0*, two factors      : the central pair rule, trace(x1) + trace(x2) = 0
      I0*, three factors    : for each I_k factor (k >= 1) in order, k divides
                              the sum of the other two traces
      other target, two     : for each I_k factor (k >= 1) in order, k divides
                              delta = trace(target) - trace(other), and
                              shift_admissible(delta // k, other)
      any number of factors : the Euler numbers agree with e(target) mod 12
    """
    central = target.kind == "I*" and target.n == 0
    passed = []
    if len(parts) == 1:
        if parts[0].reduced() != target.reduced():
            return FORBIDDEN, ["class rule: "]
        passed.append("class rule passed")
    elif central and len(parts) == 2:
        if _trace(parts[0]) + _trace(parts[1]):
            return FORBIDDEN, ["central pair rule: "]
        passed.append("central pair rule passed")
    elif len(parts) == (3 if central else 2):
        name = "central triple rule" if central else "trace shift rule"
        for i, p in enumerate(parts):
            if p.kind != "I" or p.n == 0:
                continue
            others = parts[:i] + parts[i + 1:]
            if central:
                admitted = sum(map(_trace, others)) % p.n == 0
            else:
                delta = _trace(target) - _trace(others[0])
                admitted = delta % p.n == 0 and shift_admissible(delta // p.n, others[0])
            if not admitted:
                return FORBIDDEN, [name + ": "]
            passed.append("%s passed for I_%d factor" % (name, p.n))
    if (sum(map(_euler, parts)) - _euler(target)) % 12:
        return FORBIDDEN, ["Euler number mod 12 rule: "]
    return UNDECIDED, passed or ["no trace obstruction applies to %d factors" % len(parts)]


def shift_admissible(c, other):
    """Can the integer trace shift ``c`` occur next to a factor of class
    ``other``?

      I_0, I_0*    : c = 0
      I_j  (j >= 1): c = -j*r^2 for some integer r
      I_j* (j >= 1): c = +j*r^2
      II, III, IV  : c < 0      (c is minus a positive definite form)
      II*, III*, IV*: c > 0
    """
    other = other.reduced()
    if other.kind == "I":
        if other.n == 0:
            return c == 0
        return c <= 0 and (-c) % other.n == 0 and _is_square((-c) // other.n)
    if other.kind == "I*":
        if other.n == 0:
            return c == 0
        return c >= 0 and c % other.n == 0 and _is_square(c // other.n)
    if other.kind in ("II", "III", "IV"):
        return c < 0
    return c > 0


def classify(m):
    """The FiberClass whose standard monodromy is conjugate to ``m``, or
    None for a hyperbolic matrix or a parabolic one with negative
    normal-form index."""
    if not isinstance(m, Mat2):
        raise TypeError("classify expects a Mat2")
    t = sl2z.trace(m)
    if t == 2:
        n = _parabolic_index(m)
        if n == 0:
            return FiberClass("I", 0)
        return FiberClass("I", n) if n > 0 else None
    if t == -2:
        n = _parabolic_index(-m)
        if n == 0:
            return FiberClass("I*", 0)
        return FiberClass("I*", n) if n > 0 else None
    if t in (1, 0, -1):
        starred = m.c > 0
        if t == 1:
            return FiberClass("II*" if starred else "II")
        if t == 0:
            return FiberClass("III*" if starred else "III")
        return FiberClass("IV*" if starred else "IV")
    return None


def parse_fiber(text):
    """Parse compact fiber notation.

    Grammar: [m]I n ['*'] | II['*'] | III['*'] | IV['*'].  Examples:
    "I5", "I2*", "II", "III*", "2I3".

    Args:
        text: the compact string.

    Returns:
        FiberClass.

    Raises:
        ValueError: if the text does not match the grammar.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty fiber string")
    i = 0
    while i < len(s) and s[i].isdecimal():
        i += 1
    multiplicity = int(s[:i]) if i else 1
    body = s[i:]
    star = body.endswith("*")
    if star:
        body = body[:-1]
    if body in ("II", "III", "IV"):
        if multiplicity != 1:
            raise ValueError("fiber %r cannot carry a multiplicity" % (text,))
        return FiberClass(body + ("*" if star else ""))
    if body.startswith("I") and body[1:].isdecimal():
        n = int(body[1:])
        return FiberClass("I*" if star else "I", n, multiplicity)
    raise ValueError("cannot parse fiber string %r" % (text,))
