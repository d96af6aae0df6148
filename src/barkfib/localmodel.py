"""Floating-point checks of the local singularity analysis.

Two model situations are verified numerically:

* the hypersurface chart F(z, zeta) = zeta^(m-l*n) * (zeta^n + t)^l - s,
  t standing for the product t*h(0, 0), whose singular fibers and singular
  points obey closed-form equations in (m, n, l, t);

* the core section K(z) = n0*sigma'(z)*tau(z) + m0*sigma(z)*tau'(z),
  whose "essential" zeros (those avoiding the zeros and poles of sigma
  and tau) locate the subordinate fibers and are bounded by the core
  invariant chi.

Every singular value s is read from the logarithm of s^nbar and its unit,
one route for the chart and for core data, so only an s that is itself
no normal float is out of range; no call lists more than MAX_ROOTS roots.
A divisor point at infinity, given as "inf" or a non-finite number, is
stored as "inf".  Roots are found in pure Python by Aberth-Ehrlich
iteration with one Newton polish step.  One rule, ``_groups``, decides
"the same point": within CLUSTER_TOL of a group's first member, in the
unit its caller names: the data's spread for essential zeros, which are
found in their data's own frame and so move with it under z -> a*z + b,
and their own modulus for subordinate invariants and s values.  Each
test of a singular point, and the order of each list, is relative to
the scale of what it measures.
"""

import cmath
import sys
from dataclasses import dataclass
from math import exp, gcd, inf, log, log1p
from operator import index

CLUSTER_TOL = 1e-7
RESIDUAL_TOL = 1e-9
MAX_SWEEPS = 100
# the most roots one call lists: far past the largest n any test, example or
# benchmark query asks for (22), far below the memory of 10^9 complex values
MAX_ROOTS = 10**5


def _ordered(values):
    """The values by real, then imaginary part, each rounded to 9 decimals
    of the largest modulus among them, so the order has no absolute scale."""
    unit = max(map(abs, values), default=0.0) or 1.0
    return sorted(values, key=lambda z: (round(z.real / unit, 9), round(z.imag / unit, 9)))


def _groups(values, unit):
    """The values, in order, in groups of "the same point": each joins the
    first group whose first member g lies within CLUSTER_TOL * unit(g)."""
    groups = []
    for z in values:
        for group in groups:
            if abs(z - group[0]) <= CLUSTER_TOL * unit(group[0]):
                group.append(z)
                break
        else:
            groups.append([z])
    return groups


@dataclass(frozen=True)
class LocalCurveSpec:
    """Exponent data of the local hypersurface model.

    ``m``, ``n``, ``l`` must satisfy m - l*n > 0.  ``t`` stands for the
    product t*h(0, 0), the only way t and the unit value h(0, 0) enter.
    """

    m: int
    n: int
    l: int
    t: complex

    def __post_init__(self):
        for name in ("m", "n", "l"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if min(self.m, self.n, self.l) < 1:
            raise ValueError("m, n, l must be positive")
        if self.m - self.l * self.n <= 0:
            raise ValueError("need m - l*n > 0")
        if not cmath.isfinite(self.t):
            raise ValueError("t must be finite")

    @property
    def reduced_pair(self):
        g = gcd(self.m, self.n)
        return self.m // g, self.n // g

    def curve(self, s):
        """F(z, zeta) for the fiber over s, as a callable."""

        def F(z, zeta):
            return (
                zeta ** (self.m - self.l * self.n)
                * (zeta**self.n + self.t) ** self.l
                - s
            )

        return F


def _nth_roots(w, k):
    if w == 0:
        return [0j]
    return _roots_at(abs(w) ** (1.0 / k), w, k)


def _roots_at(r, w, k):
    """The k values r*exp(i*(theta + 2*pi*j)/k), j = 0..k-1: the k-th roots of a
    number of modulus r**k and phase theta, that of the nonzero w.  When w is on an
    axis, the roots on an axis are made exact there.  ValueError past MAX_ROOTS."""
    if k > MAX_ROOTS:
        raise ValueError("%d roots: more than MAX_ROOTS = %d" % (k, MAX_ROOTS))
    theta = cmath.phase(w)
    roots = [r * cmath.exp(1j * (theta + 2 * cmath.pi * j) / k) for j in range(k)]
    if w.imag == 0 or w.real == 0:  # the rotation leaves ~1e-16 off the axis: zero it
        quarter = round(theta / (cmath.pi / 2))  # theta in quarter turns
        for j in range(k):
            turn = (quarter + 4 * j) % (2 * k)  # root j's angle in quarter turns, times k
            if turn == 0:
                roots[j] = complex(roots[j].real, 0.0)
            elif turn == k:
                roots[j] = complex(0.0, roots[j].imag)
    return roots


def _log_ratio(p, q):
    """log(p/q) of positive integers, by log1p (accurate near 1) where p/q >= 1/2,
    and as log(p) - log(q), exact for big ints, where p/q underflows to 0."""
    return log1p((p - q) / q) if 2 * p >= q else log(p / q) if p / q else log(p) - log(q)


def _log_prefactor(l, m, n, mbar, nbar):
    """(log|p|, p < 0) of p = (l*n/(l*n - m))^(l*nbar) * ((l*n - m)/m)^mbar;
    both bases are negative when l*n < m."""
    ln, d = l * n, abs(l * n - m)
    log_magnitude = l * nbar * _log_ratio(ln, d) + mbar * _log_ratio(d, m)
    return log_magnitude, ln < m and (l * nbar + mbar) % 2 == 1


def _normal(x):
    """Is x a normal float, neither 0, nor a subnormal too coarse to tell
    values apart, nor past the largest float?"""
    return sys.float_info.min <= x <= sys.float_info.max


def _unit_power(z, k):
    """(z/|z|)^k, exactly +-1 or +-i for a z on an axis however large k is."""
    if z.imag == 0:
        return -1.0 if z.real < 0 and k % 2 else 1.0
    if z.real == 0:
        return (1, 1j, -1, complex(0, -1))[k % 4 if z.imag > 0 else -k % 4]
    return (z / abs(z)) ** k


def _singular_values(l, m, n, t, scale=1):
    """The nbar roots s of s^nbar = p * t^mbar * scale, p as in ``_log_prefactor``
    and (mbar, nbar) = (m, n)/gcd(m, n), read from its logarithm and its unit,
    so the power may leave the floats: ValueError only where |s| is no normal float."""
    g = gcd(m, n)
    mbar, nbar = m // g, n // g
    try:
        log_magnitude, negative = _log_prefactor(l, m, n, mbar, nbar)
        r = exp((log_magnitude + mbar * log(abs(t)) + log(abs(scale))) / nbar)
        unit = (-1.0 if negative else 1.0) * _unit_power(t, mbar) * (scale / abs(scale))
    except OverflowError:
        r = inf
    if not _normal(r):
        raise ValueError("singular values out of floating-point range")
    return _roots_at(r, unit, nbar)


def singular_s_values(spec):
    """The nonzero values of s whose fiber is singular.

    With t != 0 the singular values are the nbar solutions of

        s^nbar = (l*n/(l*n - m))^(l*nbar) * ((l*n - m)/m)^mbar * t^mbar

    where (mbar, nbar) = (m, n)/gcd(m, n), read from its logarithm, so
    only values that are no normal float themselves raise ValueError.
    """
    if spec.t == 0:
        raise ValueError("t must be nonzero (otherwise only s = 0)")
    return _ordered(_singular_values(spec.l, spec.m, spec.n, spec.t))


def singular_points(spec, s):
    """Singular points (z, zeta) of the fiber over a singular value s.

    Each is (0, zeta) with zeta^n = ((l*n - m)/m)*t, on the fiber,
    |F| <= tol*|s|, and critical, |a + b| <= tol*(|a| + |b|) for the one
    factor a + b of dF/dzeta that can vanish, a = (m - l*n)*(zeta^n + t),
    b = l*n*zeta^n (the others are nonzero when t != 0: zeta^n + t = l*n*t/m).
    Each test is relative to what it measures, with tol = max(RESIDUAL_TOL,
    4*(m - l*n)*eps): both grow the one rounding of zeta about (m - l*n)-fold.
    Exactly gcd(m, n) of the roots pass on each singular fiber.  ValueError
    from tol = 1 on, where the critical test holds for any a and b, and
    where a factor of F overflows although s fits.
    """
    if 4 * (spec.m - spec.l * spec.n) >= 1 / sys.float_info.epsilon:
        raise ValueError("singular points out of floating-point precision")
    w = (spec.l * spec.n - spec.m) / spec.m * spec.t
    F = spec.curve(s)
    tol = max(RESIDUAL_TOL, 4 * (spec.m - spec.l * spec.n) * sys.float_info.epsilon)
    zetas = []
    for zeta in _nth_roots(w, spec.n):
        # F has no z-dependence in this chart, so dF/dz vanishes identically
        try:
            residual = abs(F(0.0, zeta))
        except OverflowError:  # a factor of F leaves the floats, though s fits
            raise ValueError("singular points out of floating-point range") from None
        if residual <= tol * abs(s):
            power = zeta**spec.n
            a = (spec.m - spec.l * spec.n) * (power + spec.t)
            b = spec.l * spec.n * power
            if abs(a + b) <= tol * (abs(a) + abs(b)):
                zetas.append(zeta)
    return [(0j, zeta) for zeta in _ordered(zetas)]


@dataclass(frozen=True)
class CoreSectionData:
    """Divisor data of the sections sigma and tau on a rational core.

    ``attach_points`` lists (point, n1) pole orders of tau, which are
    also where sigma vanishes to the orders in ``sigma_divisor``;
    ``extra_zeros`` lists the zeros (point, order) of tau away from the
    attach points.  A point is stored as a complex, or as "inf" when given
    as "inf" or a non-finite number; then it only enters the degree
    bookkeeping.  Any other string must parse as a finite complex.
    """

    attach_points: tuple
    sigma_divisor: tuple
    extra_zeros: tuple
    m0: int
    n0: int
    l: int = 1

    def __post_init__(self):
        for name in ("attach_points", "sigma_divisor", "extra_zeros"):
            cleaned = tuple((_normal_point(p), index(o)) for p, o in getattr(self, name))
            object.__setattr__(self, name, cleaned)
        for name in ("m0", "n0", "l"):
            object.__setattr__(self, name, index(getattr(self, name)))

    def degree_consistent(self):
        """deg div(tau) = -n0/m0 * deg div(sigma), the global constraint
        a meromorphic pair on the projective line must satisfy."""
        sum_n1 = sum(o for _, o in self.attach_points)
        sum_a = sum(o for _, o in self.extra_zeros)
        sum_m1 = sum(o for _, o in self.sigma_divisor)
        return self.m0 * (sum_n1 - sum_a) == self.n0 * sum_m1

    def sigma(self, z):
        out = 1.0 + 0j
        for p, o in _finite(self.sigma_divisor):
            out *= (z - p) ** o
        return out

    def tau(self, z):
        out = 1.0 + 0j
        for p, o in _finite(self.extra_zeros):
            out *= (z - p) ** o
        for p, o in _finite(self.attach_points):
            out /= (z - p) ** o
        return out


def _normal_point(p):
    """p as a complex, or "inf" for "inf" and for a non-finite number."""
    if p == "inf":
        return p
    z = complex(p)
    if cmath.isfinite(z):
        return z
    if isinstance(p, str):
        raise ValueError('point %r: write a point at infinity as "inf"' % p)
    return "inf"


def _finite(divisor):
    """The (point, order) pairs of a normalised divisor away from infinity."""
    return [(p, o) for p, o in divisor if p != "inf"]


def _logderiv_support(data):
    """Finite support of n0*sigma'/sigma + m0*tau'/tau as {point: weight}.

    Weights are exact integers; points where the sigma and tau
    contributions cancel (the proportional attach points) drop out.
    """
    support = {}
    for divisor, weight in (
        (data.sigma_divisor, data.n0),
        (data.attach_points, -data.m0),
        (data.extra_zeros, data.m0),
    ):
        for p, o in _finite(divisor):
            if weight * o:
                support[p] = support.get(p, 0) + weight * o
    return {p: w for p, w in support.items() if w != 0}


def _poly_from_roots(roots):
    """Coefficients of prod (z - r), highest power first."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return coeffs


def _horner(coeffs, z):
    """p(z) and p'(z) for coefficients listed highest power first."""
    p = dp = 0j
    for a in coeffs:
        dp = dp * z + p
        p = p * z + a
    return p, dp


def _aberth_roots(coeffs):
    """All roots of a polynomial of degree >= 1 by Aberth-Ehrlich iteration
    (Aberth, Math. Comp. 27, 1973).  The start is the ring |z| = 1 + max|a_i/a_0|,
    which encloses every root, turned off the real axis, where the iterates of
    a real polynomial would stay.  Sweeps update in place until every
    correction is below 1e-14 * (1 + |z|), or for at most MAX_SWEEPS."""
    n = len(coeffs) - 1
    radius = 1 + max(abs(a / coeffs[0]) for a in coeffs[1:])
    roots = [radius * cmath.exp(1j * (2 * cmath.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(MAX_SWEEPS):
        converged = True
        for i, z in enumerate(roots):
            p, dp = _horner(coeffs, z)
            if p == 0:
                continue
            denom = dp / p - sum(1 / (z - w) for w in roots if w != z)
            if denom == 0:
                continue
            step = 1 / denom
            roots[i] = z - step
            converged = converged and abs(step) <= 1e-14 * (1 + abs(z))
        if converged:
            break
    return roots


def essential_zeros(data):
    """Zeros of K(z) = n0*sigma'*tau + m0*sigma*tau' away from the
    divisors of sigma and tau, with multiplicity (repeated entries).

    The numerator of the logarithmic-derivative sum is built in the frame
    w = (z - c)/r, c the first finite data point and r the largest distance
    of one from c (1 if none), trimmed of leading coefficients within 1e-12
    of the largest, root-found by Aberth-Ehrlich iteration and Newton
    polished once.  A zero grouped with a data point is dropped; each other
    group gives its mean once per member, in order in the frame.  No degree
    consistency is assumed.
    """
    support = _logderiv_support(data)
    if not support:
        return []
    avoid = [p for p, _ in _finite(data.attach_points + data.sigma_divisor + data.extra_zeros)]
    c = avoid[0]
    r = max(abs(p - c) for p in avoid) or 1.0
    terms = [((p - c) / r, weight) for p, weight in support.items()]
    coeffs = [0j] * len(terms)
    for alpha, weight in terms:
        term = _poly_from_roots([p for p, _ in terms if p is not alpha])
        coeffs = [a + weight * b for a, b in zip(coeffs, term)]
    top = max(abs(a) for a in coeffs)
    while abs(coeffs[0]) <= 1e-12 * top:
        del coeffs[0]
    if len(coeffs) <= 1:
        return []
    roots = []
    for w in _aberth_roots(coeffs):
        p, dp = _horner(coeffs, w)
        roots.append(w - p / dp if dp != 0 else w)
    avoid = [(p - c) / r for p in avoid]
    groups = [g for g in _groups(avoid + roots, lambda w: 1.0) if g[0] not in avoid]
    return [c + r * w for w in _ordered([sum(g) / len(g) for g in groups for _ in g])]


def subordinate_s_from_core(data, t, zeros):
    """Deformation parameters s of the subordinate fibers.

    For each essential zero alpha, s solves

        s^nbar0 = (l*n0/(l*n0 - m0))^(l*nbar0) * sigma(alpha)^nbar0
                  * ((l*n0 - m0)/m0)^mbar0 * t^mbar0 * tau(alpha)^mbar0.

    Zeros sharing the invariant sigma^nbar0 * tau^mbar0 share their s
    batch; kappa_bar counts the distinct invariant values, so the total
    number of distinct s is nbar0 * kappa_bar.  Out of float range: ValueError.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    g = gcd(data.m0, data.n0)
    mbar0, nbar0 = data.m0 // g, data.n0 // g
    if data.l * data.n0 == data.m0:
        raise ValueError("need l*n0 != m0")
    try:
        invariants = []
        for a in zeros:
            sigma, tau = data.sigma(a), data.tau(a)
            magnitude = abs(sigma) ** nbar0 * abs(tau) ** mbar0
            invariants.append(magnitude * _unit_power(sigma, nbar0) * _unit_power(tau, mbar0))
    except OverflowError:
        invariants = [inf]
    if not all(_normal(abs(v)) for v in invariants):
        raise ValueError("singular values out of floating-point range")
    groups = _groups(invariants, abs)
    batches = [_singular_values(data.l, data.m0, data.n0, t, group[0]) for group in groups]
    s_values = [group[0] for group in _groups((s for batch in batches for s in batch), abs)]
    return _ordered(s_values), len(batches)
