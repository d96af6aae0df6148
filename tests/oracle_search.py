"""Reference oracle for the conjugate tables of the factorization search.

``conjugate_tables`` conjugates every base by every normalized conjugator
word with the full 2x2 product g*M*g^-1, in the search's breadth-first
word order, and keeps the first word per conjugate.  It takes no shortcut
for any class of base, so it checks the tables that
``barkfib.splitting._ConjugateTables`` builds, read in full by
``builder_tables``: the same keys, the same first words and the same dict
order.

``find_conjugators`` builds those tables in full before it searches them,
so it checks that the search, whose tables grow only as far as it reads
them, finds the same first factorization.  ``search_nodes`` also counts
the nodes that search charges, one at a time by the documented rule, with
each word length charged when the search first needs it, so it checks
the leaf loop's owed charge, the two nodes of each candidate it reads
paid before each lookup and at the end of its list, and the charging of
each length as the tables grow.
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
        for table, _, _, _, alpha, beta in builder.tables
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

    In the depth-first search, one node per node and one per child,
    counted one at a time as the search meets them.  A word length costs
    one node per word and one per (word, distinct class), and is charged
    when the search first needs it: length 0 at the start; a later length
    to read an entry of that length, or to find a last factor whose first
    word has that length; and every length when the loop over the last but
    one factor reaches its end, or when a last factor that has its class's
    invariants is in no table.
    """
    classes = list(dict.fromkeys(parts))
    exps = [e for e in range(-exp_cap, exp_cap + 1) if e != 0] if max_len else []
    bases = [standard_monodromy(f).entries() for f in classes]
    tables = dict(zip(classes, conjugate_tables(bases, max_len, exps)))
    count = _Count(len(classes), max_len if exps else 0, len(exps))
    for order in _lexicographic_orders(parts):
        found = _first_product(order, target_m, tables, count)
        if found is not None:
            return (order, found), count.nodes
    return None, count.nodes


class _Count:
    """The node count, with each word length charged once."""

    def __init__(self, n_classes, max_len, n_exps):
        self.nodes, self.lengths = 0, 0
        self._per_word, self._max_len, self._n = 1 + n_classes, max_len, n_exps
        self.need(0)

    def need(self, length=None):
        """Charge every length up to ``length`` not charged yet; all of
        them when ``length`` is None."""
        top = self._max_len if length is None else length
        while self.lengths <= top:
            # the empty word, then 2n words at length 1 with n exponents,
            # and n children for each word after that
            words = 2 * self._n ** self.lengths if self.lengths else 1
            self.nodes += words * self._per_word
            self.lengths += 1


def _has_invariants(m, base):
    """Does ``m`` keep what every conjugate of ``base`` keeps: its trace,
    the sign of its lower-left entry, and, for a base p*I + q*N with
    N = [[0, 1], [0, 0]] (I_n and I_n*), the form p*I + q*U with U
    integral?"""
    p, q, r, s = base
    if m[0] + m[3] != p + s or m[2] * r < 0:
        return False
    return bool(r) or not q or all(x % q == 0 for x in (m[0] - p, m[1], m[2], m[3] - p))


def _first_product(order, rest, tables, count):
    """Letters of the first conjugates of ``order``, in table order, whose
    product is ``rest``; or None.  Adds this node, its children and the
    word lengths they need to ``count``."""
    count.nodes += 1
    table = tables[order[0]]
    if len(order) == 1:
        w = table.get(rest)
        if w is not None:
            count.need(len(w))
        elif _has_invariants(rest, standard_monodromy(order[0]).entries()):
            count.need()
        return None if w is None else [w]
    r0, r1, r2, r3 = rest
    for (a, b, c, d), letters in table.items():
        count.need(len(letters))
        count.nodes += 1
        # the inverse (d, -b, -c, a) of the chosen conjugate times rest
        found = _first_product(
            order[1:],
            (d * r0 - b * r2, d * r1 - b * r3, a * r2 - c * r0, a * r3 - c * r1),
            tables,
            count,
        )
        if found is not None:
            return [letters] + found
    if len(order) == 2:
        count.need()
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
