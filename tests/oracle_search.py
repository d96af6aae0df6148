"""Reference oracle for the conjugate tables of the factorization search.

``conjugate_tables`` conjugates every base by every normalized conjugator
word with the full 2x2 product g*M*g^-1, in the search's breadth-first
word order, and keeps the first word per conjugate.  It takes no shortcut
for any class of base, so it checks the tables that
``barkfib.splitting._ConjugateTables`` builds, read in full by
``builder_tables``: the same keys, the same first words and the same dict
order.

``find_conjugators`` searches the factors in the canonical order of
their multiset, one conjugator length at a time, shortest first, each on
tables built in full from the empty word, so it checks the search, which
grows one set of tables by a length before each pass, and finds the same
first factorization.  ``search_nodes`` also counts the nodes that search
charges, one at a time by the documented rule, with each length charged
when its pass starts, so it checks the leaf loop's charge of the two
nodes of each candidate it reads, and the charging of each pass.
``has_factorization`` searches the full tables of one length for any
factorization in a given order, which the length-by-length search must
find, in canonical order, exactly when one exists.
"""

from math import inf

from barkfib.kodaira import standard_monodromy
from barkfib.splitting import _ConjugateTables


def builder_tables(bases, max_len, exp_cap):
    """The full tables of _ConjugateTables, built with no node budget, as
    one dict per base, mapping each conjugate alpha*I + beta*U to the
    letters of its first word."""
    builder = _ConjugateTables(bases, max_len, exp_cap, inf)
    while builder.step():
        pass
    return [
        {(alpha + beta * a, beta * b, beta * c, alpha + beta * d): w
         for (a, b, c, d), w in table.items()}
        for table, _, alpha, beta in builder.tables
    ]


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


def find_conjugators(target_m, parts, max_len, exp_cap):
    """The first factorization of the eager search, length by length: for
    each conjugator length 0..max_len, build the full tables of
    ``conjugate_tables`` up to that length, then run a depth-first search
    over the conjugates of all but the last factor of the canonical
    multiset ``parts``, in its order and in table order, with the last
    factor looked up in its table.  Returns the letters of each factor's
    conjugator or None, as ``barkfib.splitting._find_conjugators`` does,
    without a node count.
    """
    return search_nodes(target_m, parts, max_len, exp_cap)[0]


def search_nodes(target_m, parts, max_len, exp_cap):
    """(find_conjugators(...), nodes): the nodes charged up to the first
    factorization, or over the whole search when there is none.

    Each length's pass is charged when it starts: one node per word of
    that length and one per (word, distinct class), with one word at
    length 0, 2n at length 1 and n children per word after that, for n
    exponents.  With no exponents only length 0 has words, so there is
    one pass.  In the depth-first search of a pass, one node per node and
    one per child, counted one at a time as the search meets them.
    """
    classes = list(dict.fromkeys(parts))
    exps = [e for e in range(-exp_cap, exp_cap + 1) if e != 0] if max_len else []
    bases = [standard_monodromy(f).entries() for f in classes]
    count = [0]
    for length in range(max_len + 1 if exps else 1):
        words = 2 * len(exps) ** length if length else 1
        count[0] += words * (1 + len(classes))
        tables = dict(zip(classes, conjugate_tables(bases, length, exps)))
        found = _first_product(parts, target_m, tables, count)
        if found is not None:
            return found, count[0]
    return None, count[0]


def has_factorization(target_m, parts, max_len, exp_cap):
    """Is ``target_m`` a product, in the order of ``parts``, of conjugates
    in the full tables of length ``max_len``?"""
    exps = [e for e in range(-exp_cap, exp_cap + 1) if e != 0]
    classes = list(dict.fromkeys(parts))
    bases = [standard_monodromy(f).entries() for f in classes]
    tables = dict(zip(classes, conjugate_tables(bases, max_len, exps)))
    return _first_product(parts, target_m, tables, [0]) is not None


def _first_product(parts, rest, tables, count):
    """Letters of the first conjugates of ``parts``, in table order, whose
    product is ``rest``; or None.  Adds this node and its children to
    ``count[0]``."""
    count[0] += 1
    table = tables[parts[0]]
    if len(parts) == 1:
        w = table.get(rest)
        return None if w is None else [w]
    r0, r1, r2, r3 = rest
    for (a, b, c, d), letters in table.items():
        count[0] += 1
        # the inverse (d, -b, -c, a) of the chosen conjugate times rest
        found = _first_product(
            parts[1:],
            (d * r0 - b * r2, d * r1 - b * r3, a * r2 - c * r0, a * r3 - c * r1),
            tables,
            count,
        )
        if found is not None:
            return [letters] + found
    return None
