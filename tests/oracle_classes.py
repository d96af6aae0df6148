"""Reference oracle for the class facts that barkfib reads from the
standard matrices.

``shift_admissible`` and ``classify`` state the Kodaira class invariants
kind by kind: the admissible trace shifts next to each class, and the
class of each trace and lower-left sign.  They check
``barkfib.splitting._shift_admissible``, which decides on the other
factor's standard matrix, and ``barkfib.kodaira.classify``, which looks
the elliptic classes up by the invariants of their standard matrices.
The parabolic normal form and the square test are shared with barkfib.
"""

from barkfib import sl2z
from barkfib.kodaira import FiberClass, _parabolic_index
from barkfib.sl2z import Mat2
from barkfib.splitting import _is_square


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
