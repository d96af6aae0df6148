"""Independent numeric oracle for the local-model tests.

In the pure-zeta chart the fiber equation is F(zeta) = g(zeta) - s with
g(zeta) = zeta^(m - l*n) * (zeta^n + t*c)^l, so the fiber over s is
singular iff s is a critical value of g.  The oracle finds those values
from the roots of g' (companion matrix) and never touches the
closed-form product formula under test.  The Sylvester resultant of
(g - s, g') gives a second, root-free signal: it vanishes exactly at
the singular s.

For the core section, the oracle builds the numerator of
n0*sigma'/sigma + m0*tau'/tau with np.poly and finds its roots with
np.roots, without any barkfib helper.
"""

import numpy as np


def poly_g(m, n, l, tc):
    """Coefficients of g, numpy convention (highest power first)."""
    inner = np.zeros(n + 1, dtype=complex)
    inner[0] = 1.0
    inner[-1] = tc
    poly = np.array([1.0 + 0j])
    for _ in range(l):
        poly = np.polymul(poly, inner)
    return np.polymul(poly, np.concatenate(([1.0 + 0j], np.zeros(m - l * n))))


def critical_values(m, n, l, tc):
    """Nonzero critical values of g, deduplicated at 1e-9 relative."""
    g = poly_g(m, n, l, tc)
    values = []
    for z in np.roots(np.polyder(g)):
        if abs(z) < 1e-12:
            continue
        v = complex(np.polyval(g, z))
        if abs(v) < 1e-12 * (1 + abs(tc) ** l):
            continue
        if not any(abs(v - u) <= 1e-9 * (1 + abs(u)) for u in values):
            values.append(v)
    values.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return values


def sylvester_resultant(p, q):
    """det Sylvester(p, q) for coefficient arrays p, q."""
    p = np.trim_zeros(np.asarray(p, dtype=complex), "f")
    q = np.trim_zeros(np.asarray(q, dtype=complex), "f")
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    mat = np.zeros((size, size), dtype=complex)
    for i in range(dq):
        mat[i, i : i + dp + 1] = p
    for i in range(dp):
        mat[dq + i, i : i + dq + 1] = q
    return complex(np.linalg.det(mat))


def resultant_at(m, n, l, tc, s):
    """|Res_zeta(g - s, g')|, zero iff the fiber over s is singular."""
    g = poly_g(m, n, l, tc).copy()
    g[-1] -= s
    return abs(sylvester_resultant(g, np.polyder(g)))


def essential_zeros_oracle(attach, sigma, extra, m0, n0):
    """Roots of the log-derivative numerator of finite divisor data, less
    those within 1e-7 relative of a data point, sorted."""
    weights = {}
    for group, factor in ((sigma, n0), (attach, -m0), (extra, m0)):
        for p, o in group:
            weights[p] = weights.get(p, 0) + factor * o
    support = [p for p, w in weights.items() if w != 0]
    numerator = np.zeros(len(support), dtype=complex)
    for p in support:
        numerator += weights[p] * np.poly([q for q in support if q != p])
    roots = [
        complex(z)
        for z in np.roots(numerator)
        if all(abs(z - p) > 1e-7 * (1 + abs(z)) for p in weights)
    ]
    roots.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return roots
