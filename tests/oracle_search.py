"""Reference oracle for the conjugate tables of the factorization search.

``conjugate_tables`` conjugates every base by every normalized conjugator
word with the full 2x2 product g*M*g^-1, in the search's breadth-first
word order, and keeps the first word per conjugate.  It takes no shortcut
for any class of base, so it checks the tables that
``barkfib.splitting._conjugate_tables`` builds: the same keys, the same
first words and the same dict order.

``find_conjugators`` builds those tables in full before it searches them,
so it checks that the search, whose tables grow only as far as it reads
them, finds the same first factorization.  ``search_nodes`` also counts
the nodes that search charges, one at a time by the documented rule, so
it checks the charging in bulk.
"""

from barkfib.kodaira import standard_monodromy


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
    """The first factorization of the eager search: build the full tables
    of ``conjugate_tables``, then try the distinct orders of the canonical
    multiset ``parts`` in lexicographic order, which is the order of their
    first occurrence in permutations(parts), and for each run a depth-first
    search over the conjugates of all but the last factor, in table order,
    with the last factor looked up in its table.  Returns (order, letters)
    or None, as ``barkfib.splitting._find_conjugators`` does, without a
    node count.
    """
    return search_nodes(target_m, parts, max_len, exp_cap)[0]


def search_nodes(target_m, parts, max_len, exp_cap):
    """(find_conjugators(...), nodes): the nodes charged up to the first
    factorization, or over the whole search when there is none.

    One node per conjugator word, all max_len lengths of them; one per
    (word, distinct class); and, in the depth-first search, one per node
    and one per child, counted one at a time as the search meets them.
    """
    classes = list(dict.fromkeys(parts))
    exps = [e for e in range(-exp_cap, exp_cap + 1) if e != 0] if max_len else []
    # 2n words of length 1 with n exponents, and n children for each word
    words = 1 + sum(2 * len(exps) ** k for k in range(1, max_len + 1))
    count = [words * (1 + len(classes))]
    bases = [standard_monodromy(f).entries() for f in classes]
    tables = dict(zip(classes, conjugate_tables(bases, max_len, exps)))
    for order in _lexicographic_orders(parts):
        found = _first_product(order, target_m, tables, count)
        if found is not None:
            return (order, found), count[0]
    return None, count[0]


def _first_product(order, rest, tables, count):
    """Letters of the first conjugates of ``order``, in table order, whose
    product is ``rest``; or None.  Adds this node and its children to
    ``count``."""
    count[0] += 1
    if len(order) == 1:
        w = tables[order[0]].get(rest)
        return None if w is None else [w]
    r0, r1, r2, r3 = rest
    for (a, b, c, d), letters in tables[order[0]].items():
        count[0] += 1
        # the inverse (d, -b, -c, a) of the chosen conjugate times rest
        found = _first_product(
            order[1:],
            (d * r0 - b * r2, d * r1 - b * r3, a * r2 - c * r0, a * r3 - c * r1),
            tables,
            count,
        )
        if found is not None:
            return [letters] + found
    return None


def _lexicographic_orders(parts):
    """The distinct orderings of the sorted tuple ``parts`` in lexicographic
    order of the parts' positions in it, by the next-permutation step."""
    rank = {f: i for i, f in enumerate(dict.fromkeys(parts))}
    order = list(parts)
    while True:
        yield tuple(order)
        i = len(order) - 2
        while i >= 0 and rank[order[i]] >= rank[order[i + 1]]:
            i -= 1
        if i < 0:
            return
        j = len(order) - 1
        while rank[order[j]] <= rank[order[i]]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1:] = reversed(order[i + 1:])
