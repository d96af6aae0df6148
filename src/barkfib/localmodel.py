"""Floating-point checks of the local singularity analysis.

Two model situations are verified numerically:

* the hypersurface chart F(z, zeta) = zeta^(m-l*n) * (zeta^n + t*c)^l - s,
  whose singular fibers and singular points obey closed-form equations in
  (m, n, l, t, c);

* the core section K(z) = n0*sigma'(z)*tau(z) + m0*sigma(z)*tau'(z),
  whose "essential" zeros (those avoiding the zeros and poles of sigma
  and tau) locate the subordinate fibers and are bounded by the core
  invariant chi.

Roots are found via companion-matrix eigenvalues (numpy.roots) with one
Newton polish step; duplicate roots are clustered at 1e-7 relative
tolerance.  All residual checks are relative to the coefficient scale.
"""

import cmath
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite

import numpy as np

CLUSTER_TOL = 1e-7
RESIDUAL_TOL = 1e-9


def _is_infinite_point(p):
    if isinstance(p, str):
        return p in ("inf", "oo", "infinity")
    z = complex(p)
    return not (isfinite(z.real) and isfinite(z.imag))


def _sort_key(z):
    return (round(z.real, 9), round(z.imag, 9))


@dataclass(frozen=True)
class LocalCurveSpec:
    """Exponent data of the local hypersurface model.

    ``m``, ``n``, ``l`` must satisfy m - l*n > 0.  ``c`` is the unit
    value h(0, 0).
    """

    m: int
    n: int
    l: int
    t: complex
    c: complex

    def __post_init__(self):
        if min(self.m, self.n, self.l) < 1:
            raise ValueError("m, n, l must be positive")
        if self.m - self.l * self.n <= 0:
            raise ValueError("need m - l*n > 0")
        if not (cmath.isfinite(self.t) and cmath.isfinite(self.c)):
            raise ValueError("t and c must be finite")

    @property
    def reduced_pair(self):
        g = gcd(self.m, self.n)
        return self.m // g, self.n // g

    def curve(self, s):
        """F(z, zeta) for the fiber over s, as a callable."""

        def F(z, zeta):
            return (
                zeta ** (self.m - self.l * self.n)
                * (zeta**self.n + self.t * self.c) ** self.l
                - s
            )

        return F


def _nth_roots(w, k):
    if w == 0:
        return [0j]
    r = abs(w) ** (1.0 / k)
    theta = cmath.phase(w)
    return [
        r * cmath.exp(1j * (theta + 2 * cmath.pi * j) / k) for j in range(k)
    ]


def singular_s_values(spec):
    """The nonzero values of s whose fiber is singular.

    With t*c != 0 the singular values are the nbar solutions of

        s^nbar = (l*n/(l*n - m))^(l*nbar) * ((l*n - m)/m)^mbar * (t*c)^mbar

    where (mbar, nbar) = (m, n)/gcd(m, n).  A right-hand side whose
    magnitude overflows, or underflows below the smallest normal float
    (to 0, or to a subnormal too coarse to tell the fibers apart), raises
    ValueError.
    """
    if spec.t == 0 or spec.c == 0:
        raise ValueError("t and c must be nonzero (otherwise only s = 0)")
    mbar, nbar = spec.reduced_pair
    ln = spec.l * spec.n
    rational = Fraction(ln, ln - spec.m) ** (spec.l * nbar) * Fraction(
        ln - spec.m, spec.m
    ) ** mbar
    try:
        rhs = complex(rational) * (spec.t * spec.c) ** mbar
        in_range = sys.float_info.min <= abs(rhs) <= sys.float_info.max
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError("singular values out of floating-point range")
    roots = _nth_roots(rhs, nbar)
    roots.sort(key=_sort_key)
    return roots


def singular_points(spec, s, tol=RESIDUAL_TOL):
    """Singular points (z, zeta) of the fiber over a singular value s.

    All lie on z = 0 with zeta an n-th root of ((l*n - m)/m)*t*c;
    exactly gcd(m, n) of those roots land on the fiber of the given s,
    that is, have |F| <= tol * |s|.  Every returned point is re-verified:
    both partials must stay below tol * (1 + max(|s|, |t*c|)), else a
    RuntimeError with the residuals is raised.
    """
    w = complex(Fraction(spec.l * spec.n - spec.m, spec.m)) * spec.t * spec.c
    scale = 1.0 + max(abs(s), abs(spec.t * spec.c))
    F = spec.curve(s)
    points = []
    for zeta in _nth_roots(w, spec.n):
        value = F(0.0, zeta)
        if abs(value) > tol * abs(s):
            continue
        fz = 0.0  # F has no z-dependence in this chart
        inner = zeta**spec.n + spec.t * spec.c
        fzeta = zeta ** (spec.m - spec.l * spec.n - 1) * inner ** (spec.l - 1) * (
            (spec.m - spec.l * spec.n) * inner + spec.l * spec.n * zeta**spec.n
        )
        residuals = (abs(value), abs(fz), abs(fzeta))
        if max(residuals) > tol * scale:
            raise RuntimeError(
                "point (0, %r) failed verification; residuals %r" % (zeta, residuals)
            )
        points.append((0j, zeta))
    points.sort(key=lambda p: _sort_key(p[1]))
    return points


@dataclass(frozen=True)
class CoreSectionData:
    """Divisor data of the sections sigma and tau on a rational core.

    ``attach_points`` lists (point, n1) pole orders of tau, which are
    also where sigma vanishes to the orders in ``sigma_divisor``;
    ``extra_zeros`` lists the zeros (point, order) of tau away from the
    attach points.  A point may be the string "inf" (or an infinite
    float), in which case it only enters the degree bookkeeping.
    """

    attach_points: tuple
    sigma_divisor: tuple
    extra_zeros: tuple
    m0: int
    n0: int
    l: int = 1

    def __post_init__(self):
        for name in ("attach_points", "sigma_divisor", "extra_zeros"):
            cleaned = tuple(
                (p if _is_infinite_point(p) else complex(p), int(o))
                for p, o in getattr(self, name)
            )
            object.__setattr__(self, name, cleaned)

    def degree_consistent(self):
        """deg div(tau) = -n0/m0 * deg div(sigma), the global constraint
        a meromorphic pair on the projective line must satisfy."""
        sum_n1 = sum(o for _, o in self.attach_points)
        sum_a = sum(o for _, o in self.extra_zeros)
        sum_m1 = sum(o for _, o in self.sigma_divisor)
        return self.m0 * (sum_n1 - sum_a) == self.n0 * sum_m1

    def sigma(self, z):
        out = 1.0 + 0j
        for p, o in self.sigma_divisor:
            if not _is_infinite_point(p):
                out *= (z - p) ** o
        return out

    def tau(self, z):
        out = 1.0 + 0j
        for p, o in self.extra_zeros:
            if not _is_infinite_point(p):
                out *= (z - p) ** o
        for p, o in self.attach_points:
            if not _is_infinite_point(p):
                out /= (z - p) ** o
        return out


def _logderiv_support(data):
    """Finite support of n0*sigma'/sigma + m0*tau'/tau as {point: weight}.

    Weights are exact integers; points where the sigma and tau
    contributions cancel (the proportional attach points) drop out.
    """
    support = {}

    def add(p, w):
        if _is_infinite_point(p) or w == 0:
            return
        support[p] = support.get(p, 0) + w

    for p, o in data.sigma_divisor:
        add(p, data.n0 * o)
    for p, o in data.attach_points:
        add(p, -data.m0 * o)
    for p, o in data.extra_zeros:
        add(p, data.m0 * o)
    return {p: w for p, w in support.items() if w != 0}


def essential_zeros(data, cluster_tol=CLUSTER_TOL):
    """Zeros of K(z) = n0*sigma'*tau + m0*sigma*tau' away from the
    divisors of sigma and tau, with multiplicity (repeated entries).

    The numerator of the logarithmic-derivative sum is assembled exactly
    from the divisor data, root-found via the companion matrix, Newton
    polished, clustered, and filtered against all data points.  No
    degree consistency is assumed of the input.
    """
    support = _logderiv_support(data)
    points = list(support)
    if len(points) == 0:
        return []
    coeffs = np.zeros(len(points), dtype=complex)
    for i, alpha in enumerate(points):
        others = [p for p in points if p is not alpha]
        term = np.poly(others) if others else np.array([1.0 + 0j])
        coeffs[len(coeffs) - len(term):] += support[alpha] * term
    scale = max(np.abs(coeffs).max(), 1.0)
    nz = np.nonzero(np.abs(coeffs) > 1e-12 * scale)[0]
    if len(nz) == 0:
        return []
    coeffs = coeffs[nz[0]:]
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    polished = []
    for r in roots:
        dv = np.polyval(deriv, r)
        if dv != 0:
            r = r - np.polyval(coeffs, r) / dv
        polished.append(complex(r))
    avoid = [
        complex(p)
        for group in (data.attach_points, data.sigma_divisor, data.extra_zeros)
        for p, _ in group
        if not _is_infinite_point(p)
    ]
    kept = [
        r
        for r in polished
        if all(abs(r - a) > cluster_tol * (1 + abs(r)) for a in avoid)
    ]
    kept.sort(key=_sort_key)
    clustered = []
    for r in kept:
        if clustered and abs(r - clustered[-1][0] / clustered[-1][1]) <= cluster_tol * (
            1 + abs(r)
        ):
            total, count = clustered[-1]
            clustered[-1] = (total + r, count + 1)
        else:
            clustered.append((r, 1))
    out = []
    for total, count in clustered:
        out.extend([total / count] * count)
    return out


def subordinate_s_from_core(data, t, zeros, tol=CLUSTER_TOL):
    """Deformation parameters s of the subordinate fibers.

    For each essential zero alpha, s solves

        s^nbar0 = (l*n0/(l*n0 - m0))^(l*nbar0) * sigma(alpha)^nbar0
                  * ((l*n0 - m0)/m0)^mbar0 * t^mbar0 * tau(alpha)^mbar0.

    Zeros sharing the invariant sigma^nbar0 * tau^mbar0 share their s
    batch; kappa_bar counts the distinct invariant values, so the total
    number of distinct s is nbar0 * kappa_bar.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    g = gcd(data.m0, data.n0)
    mbar0, nbar0 = data.m0 // g, data.n0 // g
    ln0 = data.l * data.n0
    if ln0 - data.m0 == 0:
        raise ValueError("need l*n0 != m0")
    invariants = []
    for alpha in zeros:
        v = data.sigma(alpha) ** nbar0 * data.tau(alpha) ** mbar0
        if not any(
            abs(v - u) <= tol * (1 + abs(u)) for u in invariants
        ):
            invariants.append(v)
    prefactor = complex(
        Fraction(ln0, ln0 - data.m0) ** (data.l * nbar0)
        * Fraction(ln0 - data.m0, data.m0) ** mbar0
    )
    s_values = []
    for v in invariants:
        rhs = prefactor * t**mbar0 * v
        for s in _nth_roots(rhs, nbar0):
            if not any(abs(s - u) <= tol * (1 + abs(u)) for u in s_values):
                s_values.append(s)
    s_values.sort(key=_sort_key)
    return s_values, len(invariants)

