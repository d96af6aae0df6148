"""Numeric verification of the local hypersurface and core-section models.

Oracle values below were computed first with tests/oracle_local.py
(critical values of g via companion-matrix roots of g') and frozen; the
closed-form implementation must land on them, not the other way round.
"""

import cmath
import random
from math import gcd

import pytest

from barkfib.localmodel import (
    CoreSectionData,
    LocalCurveSpec,
    essential_zeros,
    singular_points,
    singular_s_values,
    subordinate_s_from_core,
)

from oracle_local import critical_values, resultant_at

# (m, n, l, t, c) -> sorted singular s, frozen from the oracle run
FROZEN_SINGULAR_VALUES = {
    (3, 1, 1, 1.0, 1.0): [0.148148148148 + 0j],
    (2, 1, 1, 1.0, 1.0): [-0.25 + 0j],
    (2, 1, 1, 2.0, 0.5): [-0.25 + 0j],
    (5, 2, 1, 1.0, 1.0): [-0.185903200618j, +0.185903200618j],
    (8, 3, 1, 1.0, 1.0): [
        -0.171329164348 + 0j,
        0.085664582174 - 0.148375408735j,
        0.085664582174 + 0.148375408735j,
    ],
}


def sorted_c(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def assert_close_sets(got, want, tol=1e-9):
    got, want = sorted_c(got), sorted_c(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * (1 + abs(w))


# -------------------------------------------------------------- validation


def test_spec_validation():
    with pytest.raises(ValueError):
        LocalCurveSpec(2, 1, 2, 1.0, 1.0)  # m - l*n = 0
    with pytest.raises(ValueError):
        LocalCurveSpec(0, 1, 1, 1.0, 1.0)


def test_reduced_pair():
    assert LocalCurveSpec(6, 4, 1, 1.0, 1.0).reduced_pair == (3, 2)
    assert LocalCurveSpec(5, 2, 2, 1.0, 1.0).reduced_pair == (5, 2)


def test_singular_values_domain_errors():
    with pytest.raises(ValueError):
        singular_s_values(LocalCurveSpec(3, 1, 1, 0.0, 1.0))


# ---------------------------------------------------------- singular fibers


@pytest.mark.parametrize("key", sorted(FROZEN_SINGULAR_VALUES))
def test_singular_values_match_frozen_oracle(key):
    m, n, l, t, c = key
    got = singular_s_values(LocalCurveSpec(m, n, l, t, c))
    assert_close_sets(got, FROZEN_SINGULAR_VALUES[key])


def test_singular_value_count_is_reduced_index():
    for m, n, l in [(3, 1, 1), (5, 2, 1), (6, 4, 1), (8, 3, 2), (7, 3, 2)]:
        spec = LocalCurveSpec(m, n, l, 1.0, 1.0)
        _, nbar = spec.reduced_pair
        assert len(singular_s_values(spec)) == nbar


def test_singular_values_agree_with_live_oracle():
    rng = random.Random(3117)
    for _ in range(12):
        m = rng.randrange(2, 9)
        n = rng.randrange(1, min(m, 5))
        l = 1 if m - 2 * n <= 0 else rng.choice([1, 2])
        t = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        got = singular_s_values(LocalCurveSpec(m, n, l, t, c))
        want = critical_values(m, n, l, t * c)
        assert_close_sets(got, want, tol=1e-7)


def test_singular_points_land_on_fiber():
    spec = LocalCurveSpec(3, 1, 1, 1.0, 1.0)
    (s,) = singular_s_values(spec)
    points = singular_points(spec, s)
    assert len(points) == 1
    (z, zeta), = points
    assert z == 0
    assert abs(zeta - (-2 / 3)) < 1e-12
    assert abs(spec.curve(s)(z, zeta)) < 1e-12


@pytest.mark.parametrize("m,n,l", [(6, 4, 1), (6, 3, 1), (8, 4, 1), (4, 2, 1), (6, 2, 2)])
def test_singular_point_count_is_gcd(m, n, l):
    spec = LocalCurveSpec(m, n, l, 1.0, 1.0)
    for s in singular_s_values(spec):
        assert len(singular_points(spec, s)) == gcd(m, n)


def test_singular_points_separate_fibers_near_zero():
    # |s| = 1.48e-16: an absolute tolerance puts s, 2s and -s on one fiber
    spec = LocalCurveSpec(3, 1, 1, 1e-5, 1.0)
    (s,) = singular_s_values(spec)
    assert len(singular_points(spec, s)) == 1
    assert singular_points(spec, 2 * s) == singular_points(spec, -s) == []


@pytest.mark.parametrize(
    "m,n,l,t", [(3, 2, 1, 1e-6), (7, 2, 1, 1e-3 + 2e-3j), (13, 2, 1, -0.05 - 0.001j)]
)
def test_small_singular_values_keep_their_own_points(m, n, l, t):
    spec = LocalCurveSpec(m, n, l, t, 1.0)
    for s in singular_s_values(spec):
        assert len(singular_points(spec, s)) == gcd(m, n)


def test_resultant_vanishes_only_at_singular_values():
    m, n, l, tc = 5, 2, 1, 1.0
    spec = LocalCurveSpec(m, n, l, 1.0, 1.0)
    for s in singular_s_values(spec):
        generic = resultant_at(m, n, l, tc, s * 1.37 + 0.11)
        assert resultant_at(m, n, l, tc, s) < 1e-7 * generic


# ------------------------------------------------------------ core section


def test_essential_zero_of_inconsistent_textbook_pair():
    """sigma = z(z-1), tau = 1/(z(z-1)): one essential zero at 1/2,
    found despite the divisor data being globally inconsistent."""
    data = CoreSectionData(
        attach_points=((0, 1), (1, 1)),
        sigma_divisor=((0, 1), (1, 1)),
        extra_zeros=(),
        m0=2,
        n0=1,
    )
    assert not data.degree_consistent()
    (zero,) = essential_zeros(data)
    assert abs(zero - 0.5) <= 1e-9


def test_proportional_points_drop_from_support():
    data = CoreSectionData(
        attach_points=((0, 1), (1, 2), (2, 1)),
        sigma_divisor=((0, 2), (1, 4), (2, 2)),
        extra_zeros=(),
        m0=2,
        n0=1,
    )
    assert essential_zeros(data) == []


def test_essential_zero_count_matches_invariant_generically():
    rng = random.Random(90125)
    for _ in range(10):
        h, k = 3, rng.choice([0, 1, 2])
        pts = []
        while len(pts) < h + k:
            p = complex(rng.randrange(-6, 7), rng.randrange(-6, 7))
            if p not in pts:
                pts.append(p)
        while True:
            weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(h - 1)]
            last = -(sum(weights) + 2 * k)
            if last != 0:
                weights.append(last)
                break
        # attach orders from weights: w = n0*m1 - m0*n1 with n0 = 1, m0 = 2
        attach, sigma = [], []
        for p, w in zip(pts[:h], weights):
            n1 = max(1, (2 - w) // 2)
            m1 = w + 2 * n1
            assert m1 >= 1
            attach.append((p, n1))
            sigma.append((p, m1))
        extra = tuple((p, 1) for p in pts[h:])
        data = CoreSectionData(tuple(attach), tuple(sigma), extra, 2, 1)
        assert data.degree_consistent()
        chi = h + k - 2
        zeros = essential_zeros(data)
        assert len(zeros) == chi


def test_subordinate_values_from_core_data():
    """Three-branch core with orders (5,4,3)/(5,3,2): one essential zero
    at 5/3 and five deformation values with s^5 = -t^6/432."""
    core = CoreSectionData(
        attach_points=((0, 5), (1, 3), ("inf", 2)),
        sigma_divisor=((0, 5), (1, 4), ("inf", 3)),
        extra_zeros=(),
        m0=6,
        n0=5,
    )
    assert core.degree_consistent()
    zeros = essential_zeros(core)
    assert len(zeros) == 1
    assert abs(zeros[0] - 5 / 3) < 1e-9
    s_values, kappa = subordinate_s_from_core(core, 1.0, zeros)
    assert kappa == 1
    assert len(s_values) == 5
    for s in s_values:
        assert abs(s**5 - (-1 / 432)) < 1e-9


def test_subordinate_values_scale_with_t():
    core = CoreSectionData(
        attach_points=((0, 5), (1, 3), ("inf", 2)),
        sigma_divisor=((0, 5), (1, 4), ("inf", 3)),
        extra_zeros=(),
        m0=6,
        n0=5,
    )
    zeros = essential_zeros(core)
    small, _ = subordinate_s_from_core(core, 0.5, zeros)
    big, _ = subordinate_s_from_core(core, 1.0, zeros)
    ratio = (abs(small[0]) / abs(big[0])) ** 5
    assert abs(ratio - 0.5**6) < 1e-9
