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

    def __pow__(self, k):
        if k < 0:
            return inverse(self) ** (-k)
        result = IDENTITY
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def __str__(self):
        return format_word(self)

    def inverse(self):
        return Word([(g, -e) for g, e in reversed(self.letters)])

    def letter_count(self):
        """Total letter count with exponents counted in absolute value."""
        return sum(abs(e) for _, e in self.letters)


EMPTY_WORD = Word()


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


def word_of(m):
    """Decompose a matrix into a word in s0, s2.

    Euclidean peeling on the first column: left-multiplying by s0^k adds
    k times the second row to the first (a <- a + k*c), and by s2^k
    subtracts k times the first row from the second (c <- c - k*a).
    Once the first column is (±1, 0) the remainder is ±s0^b, and
    -I = (s0 s2)^3 handles the sign.  The spelling is valid but not
    canonical; eval_word(word_of(m)) == m always.
    """
    ops = []  # left-multipliers applied, in order
    a, b, c, d = m.entries()

    def apply_s0(k):
        nonlocal a, b
        a, b = a + k * c, b + k * d
        ops.append(("s0", k))

    def apply_s2(k):
        nonlocal c, d
        c, d = c - k * a, d - k * b
        ops.append(("s2", k))

    while c != 0:
        if a == 0:
            # first column (0, c) with -b*c = 1, so c = ±1
            apply_s0(c)  # a becomes c*c = 1
        elif abs(c) >= abs(a):
            apply_s2(c // a)
        else:
            apply_s0(-(a // c))
    # now the matrix is [[a, b], [0, a]] with a = ±1
    if a == 1:
        apply_s0(-b)
        tail = []
    else:
        apply_s0(b)  # reduces to -I
        tail = [("s0", 1), ("s2", 1)] * 3  # (s0 s2)^3 = -I
    # current = op_n ... op_1 * m, so m = op_1^-1 ... op_n^-1 * remainder
    letters = [(gen, -k) for gen, k in ops]
    letters.extend(tail)
    w = Word(letters)
    assert eval_word(w) == m
    return w
