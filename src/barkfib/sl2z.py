"""Exact arithmetic in SL(2,Z) over the generators s0 and s2.

The group is generated by

    s0 = [[1, 1], [0, 1]]        s2 = [[1, 0], [-1, 1]]

and words in these two letters (with signed integer exponents) evaluate
to matrices by a left-to-right product.  All arithmetic is exact; Python
integers never wrap, so overflow cannot occur silently.
"""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Mat2:
    """An integer 2x2 matrix of determinant 1.

    Immutable.  Entries are (a, b; c, d) with a*d - b*c == 1 enforced at
    construction.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.entries()
        for x in (a, b, c, d):
            if not isinstance(x, int):
                raise TypeError("Mat2 entries must be integers, got %r" % (x,))
        if a * d - b * c != 1:
            raise ValueError(
                "not unimodular: det [[%d,%d],[%d,%d]] = %d"
                % (a, b, c, d, a * d - b * c)
            )

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)
S0 = Mat2(1, 1, 0, 1)
S2 = Mat2(1, 0, -1, 1)


def inverse(m):
    """Inverse; for determinant 1 this is the adjugate."""
    return Mat2(m.d, -m.b, -m.c, m.a)


def conj(m, g):
    """The conjugate g*m*g^-1."""
    return g * m * inverse(g)


def trace(m):
    return m.a + m.d


def _gen_power(gen, k):
    if gen == "s0":
        return Mat2(1, k, 0, 1)
    if gen == "s2":
        return Mat2(1, 0, -k, 1)
    raise ValueError("unknown generator %r" % (gen,))


@dataclass(frozen=True, slots=True)
class Word:
    """A normalized word over s0, s2 with signed integer exponents.

    Normalized means adjacent letters use distinct generators and no
    exponent is zero.  The empty word is allowed (evaluates to the
    identity).
    """

    letters: tuple = ()

    def __post_init__(self):
        normalized = []
        for gen, exp in self.letters:
            if gen not in ("s0", "s2"):
                raise ValueError("unknown generator %r" % (gen,))
            if not isinstance(exp, int):
                raise TypeError("exponent must be an integer")
            if exp == 0:
                continue
            if normalized and normalized[-1][0] == gen:
                merged = normalized[-1][1] + exp
                normalized.pop()
                if merged:
                    normalized.append((gen, merged))
            else:
                normalized.append((gen, exp))
        object.__setattr__(self, "letters", tuple(normalized))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)



def word(*letters):
    """Shorthand constructor: word(("s0", 3), ("s2", -2))."""
    return Word(letters)


def eval_word(w):
    """Evaluate a word as a left-to-right product of generator powers."""
    m = IDENTITY
    for gen, exp in w:
        m = m * _gen_power(gen, exp)
    return m


def parse_word(text):
    """Parse the CLI word syntax, e.g. 's0^3 s2^-2 s0'.

    Letters are whitespace-separated; an omitted exponent means 1.
    """
    letters = []
    for token in text.split():
        if "^" in token:
            gen, _, exp_text = token.partition("^")
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError("bad exponent in token %r" % (token,)) from None
        else:
            gen, exp = token, 1
        if gen not in ("s0", "s2"):
            raise ValueError("bad generator in token %r" % (token,))
        letters.append((gen, exp))
    return Word(letters)


def format_word(w):
    if not w.letters:
        return ""
    parts = []
    for gen, exp in w:
        parts.append(gen if exp == 1 else "%s^%d" % (gen, exp))
    return " ".join(parts)

