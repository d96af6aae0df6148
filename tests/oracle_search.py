"""Reference oracle for the conjugate tables of the factorization search.

``conjugate_tables`` conjugates every base by every normalized conjugator
word with the full 2x2 product g*M*g^-1, in the search's breadth-first
word order, and keeps the first word per conjugate.  It takes no shortcut
for any class of base, so it checks the tables that
``barkfib.splitting._conjugate_tables`` builds: the same keys, the same
first words and the same dict order.
"""


def conjugate_tables(bases, max_len, exps):
    """The distinct conjugates g*M*g^-1 of each base M, in one pass over
    the normalized conjugator words g of length <= max_len.

    Matrices are (a, b, c, d) int tuples.  The words are visited breadth
    first: the empty word; s0^e then s2^e for e in ``exps``; then, for
    each word of the previous length in order, one more letter of the
    other generator with every exponent.  A child's matrix is its
    parent's times one generator power:

        g*s0^e = (a, a*e + b, c, c*e + d)    g*s2^e = (a - e*b, b, c - e*d, d)

    Returns one dict per base mapping each conjugate to the letters of the
    first word that produced it; dict order is discovery order.
    """
    tables = [{base: ()} for base in bases]
    pairs = list(zip(bases, tables))
    frontier = [((), (1, 0, 0, 1))]
    for depth in range(max_len if exps else 0):
        keep = depth + 1 < max_len
        nxt = []
        for letters, (a, b, c, d) in frontier:
            last = letters[-1][0] if letters else None
            for gen in ("s0", "s2"):
                if gen == last:
                    continue
                for e in exps:
                    if gen == "s0":
                        g0, g1, g2, g3 = a, a * e + b, c, c * e + d
                    else:
                        g0, g1, g2, g3 = a - e * b, b, c - e * d, d
                    child = letters + ((gen, e),)
                    for (p, q, r, s), table in pairs:
                        # (g*M) * g^-1 with g^-1 = (g3, -g1, -g2, g0)
                        x, y = g0 * p + g1 * r, g0 * q + g1 * s
                        z, w = g2 * p + g3 * r, g2 * q + g3 * s
                        m = (x * g3 - y * g2, y * g0 - x * g1, z * g3 - w * g2, w * g0 - z * g1)
                        if m not in table:
                            table[m] = child
                    if keep:
                        nxt.append((child, (g0, g1, g2, g3)))
        frontier = nxt
    return tables
