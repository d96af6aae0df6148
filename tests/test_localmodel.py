"""Numeric verification of the local hypersurface and core-section models.

Oracle values below were computed first with tests/oracle_local.py
(critical values of g via companion-matrix roots of g') and frozen; the
closed-form implementation must land on them, not the other way round.
"""

import cmath
import decimal
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import barkfib
from barkfib.cli import main
from barkfib.localmodel import (
    CLUSTER_TOL,
    MAX_ROOTS,
    CoreSectionData,
    LocalCurveSpec,
    _log_prefactor,
    _log_ratio,
    _nth_roots,
    _ordered,
    _singular_values,
    _unit_power,
    essential_zeros,
    singular_points,
    singular_s_values,
    subordinate_s_from_core,
)

from oracle_local import critical_values, essential_zeros_oracle, resultant_at

# (m, n, l, t, c) -> sorted singular s, frozen from the oracle run with
# h(0, 0) = c; the spec takes the product t*c as its t
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
        LocalCurveSpec(2, 1, 2, 1.0)  # m - l*n = 0
    with pytest.raises(ValueError):
        LocalCurveSpec(0, 1, 1, 1.0)


def test_reduced_pair():
    assert LocalCurveSpec(6, 4, 1, 1.0).reduced_pair == (3, 2)
    assert LocalCurveSpec(5, 2, 2, 1.0).reduced_pair == (5, 2)


def test_singular_values_domain_errors():
    with pytest.raises(ValueError):
        singular_s_values(LocalCurveSpec(3, 1, 1, 0.0))


# ---------------------------------------------------------- singular fibers


@pytest.mark.parametrize("key", sorted(FROZEN_SINGULAR_VALUES))
def test_singular_values_match_frozen_oracle(key):
    m, n, l, t, c = key
    got = singular_s_values(LocalCurveSpec(m, n, l, t * c))
    assert_close_sets(got, FROZEN_SINGULAR_VALUES[key])


def test_singular_value_count_is_reduced_index():
    for m, n, l in [(3, 1, 1), (5, 2, 1), (6, 4, 1), (8, 3, 2), (7, 3, 2)]:
        spec = LocalCurveSpec(m, n, l, 1.0)
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
        got = singular_s_values(LocalCurveSpec(m, n, l, t * c))
        want = critical_values(m, n, l, t * c)
        assert_close_sets(got, want, tol=1e-7)


def test_singular_points_land_on_fiber():
    spec = LocalCurveSpec(3, 1, 1, 1.0)
    (s,) = singular_s_values(spec)
    points = singular_points(spec, s)
    assert len(points) == 1
    (z, zeta), = points
    assert z == 0
    assert abs(zeta - (-2 / 3)) < 1e-12
    assert abs(spec.curve(s)(z, zeta)) < 1e-12


@pytest.mark.parametrize("m,n,l", [(6, 4, 1), (6, 3, 1), (8, 4, 1), (4, 2, 1), (6, 2, 2)])
def test_singular_point_count_is_gcd(m, n, l):
    spec = LocalCurveSpec(m, n, l, 1.0)
    for s in singular_s_values(spec):
        assert len(singular_points(spec, s)) == gcd(m, n)


def test_no_singular_points_without_t_c():
    """With t = 0 the only candidate is zeta = 0, which lies on the fiber s = 0 only."""
    assert singular_points(LocalCurveSpec(3, 1, 1, 0.0), 0.5) == []


def test_singular_points_separate_fibers_near_zero():
    # |s| = 1.48e-16: an absolute tolerance puts s, 2s and -s on one fiber
    spec = LocalCurveSpec(3, 1, 1, 1e-5)
    (s,) = singular_s_values(spec)
    assert len(singular_points(spec, s)) == 1
    assert singular_points(spec, 2 * s) == singular_points(spec, -s) == []


@pytest.mark.parametrize(
    "m,n,l,t", [(3, 2, 1, 1e-6), (7, 2, 1, 1e-3 + 2e-3j), (13, 2, 1, -0.05 - 0.001j)]
)
def test_small_singular_values_keep_their_own_points(m, n, l, t):
    spec = LocalCurveSpec(m, n, l, t)
    for s in singular_s_values(spec):
        assert len(singular_points(spec, s)) == gcd(m, n)


def _exact_prefactor(l, m, n, mbar, nbar):
    """The prefactor's definition in exact rationals."""
    ln = l * n
    return Fraction(ln, ln - m) ** (l * nbar) * Fraction(ln - m, m) ** mbar


# (l, m, n): the localcheck grid of the local benchmark (l <= 3, n <= 8,
# m <= 24, m > l*n), the l*n > m side that core data reaches, and large m
PREFACTOR_CASES = [
    (l, m, n) for l in range(1, 5) for n in range(1, 12) for m in range(1, 25) if l * n != m
] + [(l, m, n) for l in (1, 2) for n in (1, 2, 7) for m in (999, 10007, 30030)]


def test_prefactor_agrees_with_its_exact_definition():
    assert sum(l * n < m for l, m, n in PREFACTOR_CASES) > 300
    assert sum(l * n > m for l, m, n in PREFACTOR_CASES) > 300
    for l, m, n in PREFACTOR_CASES:
        g = gcd(m, n)
        want = _exact_prefactor(l, m, n, m // g, n // g)
        log_magnitude, negative = _log_prefactor(l, m, n, m // g, n // g)
        got = -math.exp(log_magnitude) if negative else math.exp(log_magnitude)
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * abs(want), (l, m, n)


def test_localcheck_with_a_large_m_answers_at_once(capsys):
    start = time.perf_counter()
    assert main(["localcheck", "--m", "4000000", "--n", "1"]) == 0
    assert time.perf_counter() - start < 0.1
    out = capsys.readouterr().out
    assert out.endswith("ok: 1 singular value(s), expected 1; 1 point(s) each, expected 1\n")
    # s = -(1/(m-1)) * ((m-1)/m)^m, about -1/(e*m)
    assert out.startswith("s = -9.19698718e-08")


def test_localcheck_summary_gives_the_counts_found(capsys, monkeypatch):
    monkeypatch.setattr("barkfib.cli.singular_points", lambda spec, s: [])
    assert main(["localcheck", "--m", "3", "--n", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s = 0.148148148+0i: 0 singular point(s)",
        "FAIL: 1 singular value(s), expected 1; 0 point(s) each, expected 1",
    ]
    # unequal counts are listed in order
    calls = []
    monkeypatch.setattr(
        "barkfib.cli.singular_points", lambda spec, s: calls.append(s) or [(0j, s)] * len(calls)
    )
    assert main(["localcheck", "--m", "8", "--n", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL: 3 singular value(s), expected 3; 1 or 2 or 3 point(s) each, expected 1"
    )


def test_localcheck_at_m_ten_million_finds_its_point(capsys):
    # zeta^(m - l*n) carries about (m - l*n)*eps of rounding, past RESIDUAL_TOL
    assert main(["localcheck", "--m", "10000000", "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "s = -3.6787946e-08+0i: 1 singular point(s)",
        "ok: 1 singular value(s), expected 1; 1 point(s) each, expected 1",
    ]


@pytest.mark.parametrize("m", [10**7, 10**8])
def test_singular_points_at_large_m_still_separate_fibers(m):
    spec = LocalCurveSpec(m, 1, 1, 1.0)
    (s,) = singular_s_values(spec)
    assert len(singular_points(spec, s)) == 1
    assert singular_points(spec, s * (1 + 1e-6)) == singular_points(spec, s * (1 - 1e-6)) == []


def _phases(values):
    return [round(cmath.phase(z), 9) for z in values]


def test_order_has_no_absolute_scale():
    want = _phases(singular_s_values(LocalCurveSpec(7, 5, 1, 1.0)))
    assert want == sorted(want, key=lambda p: (round(math.cos(p), 9), round(math.sin(p), 9)))
    for t in (1e-12, 1e12):
        assert _phases(singular_s_values(LocalCurveSpec(7, 5, 1, t))) == want
    core = CoreSectionData(((0, 5), (1, 3), ("inf", 2)), ((0, 5), (1, 4), ("inf", 3)), (), 6, 5)
    zeros = essential_zeros(core)
    orders = [_phases(subordinate_s_from_core(core, t, zeros)[0]) for t in (1.0, 1e-8)]
    assert len(orders[0]) == 5 and orders[0] == orders[1]


def test_real_singular_value_has_no_imaginary_part(capsys):
    assert main(["localcheck", "--m", "100000", "--n", "1"]) == 0
    assert capsys.readouterr().out.startswith("s = -3.67881281e-06+0i: 1 singular point(s)\n")
    assert main(["localcheck", "--m", "100000", "--n", "1", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["singular_values"]
    assert row["s"][1] == 0.0


def test_imaginary_singular_values_have_no_real_part(capsys):
    # s^2 = -4/27 and s = t^1001 * 1001^-1001 * 1000^1000 at t = i: both on the imaginary axis
    assert main(["localcheck", "--m", "3", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith(
        "s = 0-0.384900179i: 1 singular point(s)\ns = 0+0.384900179i: 1 singular point(s)\n"
    )
    assert main(["localcheck", "--m", "1001", "--n", "1", "--t=1i", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["singular_values"]
    assert row["s"][0] == 0.0 and row["s"][1] > 0


@given(
    st.floats(1e-300, 1e300),
    st.booleans(),
    # a real w as a float, a complex, or a complex with imaginary part -0.0
    st.sampled_from([float, complex, lambda x: complex(x, -0.0)]),
    st.integers(1, 64),
)
def test_nth_roots_of_a_real_number_are_real_on_the_real_axis(magnitude, negative, kind, k):
    w = kind(-magnitude if negative else magnitude)
    on_real, on_imaginary = _assert_exact_on_the_axes(w, k)
    assert on_real == (1 if k % 2 else 0 if negative else 2)
    assert on_imaginary == (2 if k % 4 == (2 if negative else 0) else 0)


@given(
    st.floats(1e-300, 1e300),
    st.booleans(),
    # an imaginary w, with real part 0.0 or -0.0
    st.sampled_from([0.0, -0.0]),
    st.integers(1, 64),
)
def test_nth_roots_of_an_imaginary_number_are_exact_on_the_axes(magnitude, negative, real, k):
    w = complex(real, -magnitude if negative else magnitude)
    assert _assert_exact_on_the_axes(w, k) == (0, k % 2)


def _assert_exact_on_the_axes(w, k):
    """Each k-th root of w on an axis is exactly there, with the other part
    of the rotated value; every other root is the rotated value.  Returns
    the number of roots on the real and on the imaginary axis."""
    r = abs(w) ** (1.0 / k)
    rotated = [r * cmath.exp(1j * (cmath.phase(w) + 2 * cmath.pi * j) / k) for j in range(k)]
    on_real = [j for j, z in enumerate(rotated) if abs(z.imag) <= 1e-12 * r]
    on_imaginary = [j for j, z in enumerate(rotated) if abs(z.real) <= 1e-12 * r]
    for j, (got, want) in enumerate(zip(_nth_roots(w, k), rotated)):
        if j in on_real:
            assert got.real == want.real and got.imag == 0.0
            assert math.copysign(1, got.imag) == 1
        elif j in on_imaginary:
            assert got.imag == want.imag and got.real == 0.0
            assert math.copysign(1, got.real) == 1
        else:
            assert got == want
    return len(on_real), len(on_imaginary)


# (m, n, l, t) -> (singular values, points each): the gcd law at m where
# the factors of dF/dzeta grow like |zeta|^m, beyond any absolute scale
LARGE_M_CASES = {
    ("1400", "8", "1", "-2+1i"): (1, 8),
    ("3177", "11", "2", "1.16289+0i"): (11, 1),
    ("4664", "3", "3", "-1.05579-0.0520531i"): (3, 1),
    ("2244", "17", "3", "3.38924+0i"): (1, 17),
}


@pytest.mark.parametrize("case", sorted(LARGE_M_CASES), ids="-".join)
def test_localcheck_at_large_m_finds_every_singular_point(capsys, case):
    m, n, l, t = case
    values, points = LARGE_M_CASES[case]
    assert main(["localcheck", "--m", m, "--n", n, "--l", l, "--t=" + t]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ok: %d singular value(s), expected %d; %d point(s) each, expected %d"
        % (values, values, points, points)
    )


def test_localcheck_at_large_m_never_raises(capsys):
    """Every call prints ok, or exits 2 with one error line."""
    ts = ["1", "-2+1i", "1.16289", "-1.10577", "-1.05579-0.0520531i", "3.38924", "-7.49402e-07-2.38283i"]
    codes = Counter()
    for m, n, l, t in product(
        [1000, 2244, 3177, 3400, 4096, 4643, 4664], [1, 3, 8, 11, 17], range(1, 5), ts
    ):
        code = main(["localcheck", "--m", str(m), "--n", str(n), "--l", str(l), "--t=" + t])
        out, err = capsys.readouterr()
        if code == 0:
            assert out.splitlines()[-1].startswith("ok: ")
        else:
            assert (code, err) == (2, "error: singular values out of floating-point range\n")
        codes[code] += 1
    # 160 of the calls that print ok have an s^nbar past the floats but an s within them
    assert codes == {0: 832, 2: 148}


def test_log_ratio_reads_a_quotient_below_the_floats():
    # 1/10**400 underflows to 0.0; the logarithm of each big int does not
    assert 1 / 10**400 == 0.0
    assert _log_ratio(1, 10**400) == pytest.approx(-400 * math.log(10), rel=1e-15)


def test_localcheck_past_the_float_quotient_exits_2(capsys):
    assert main(["localcheck", "--m", str(10**400), "--n", "1"]) == 2
    assert capsys.readouterr() == ("", "error: singular values out of floating-point range\n")


@pytest.mark.parametrize("t", ["3", "0.3", "-3+1i"])
def test_localcheck_reads_values_whose_power_leaves_the_floats(capsys, t):
    # s^7 = prefactor*t^1000 overflows at |t| = 3 and underflows at 0.3, though s fits
    assert main(["localcheck", "--m", "1000", "--n", "7", "--t=" + t]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ok: 7 singular value(s), expected 7; 1 point(s) each, expected 1"
    )


def test_singular_values_past_their_power_solve_it():
    # s^7 = (7/-993)^7 * (-993/1000)^1000 * 3^1000, negative as 7 + 1000 is odd
    values = singular_s_values(LocalCurveSpec(1000, 7, 1, 3.0))
    log_power = 7 * math.log(7 / 993) + 1000 * math.log(993 / 1000) + 1000 * math.log(3)
    assert len(values) == 7 and abs(values[0]) > 1e65
    for s in values:
        assert 7 * math.log(abs(s)) == pytest.approx(log_power, rel=1e-14)
        assert cmath.exp(7j * cmath.phase(s)) == pytest.approx(-1, abs=1e-12)
    assert [s for s in values if s.imag == 0] == [values[0]] and values[0].real < 0


@pytest.mark.parametrize("m,n,t", [(1000, 7, -3 + 0j), (1000, 1, -1.10577 + 0j)])
def test_real_negative_t_keeps_its_real_singular_value_at_large_m(m, n, t):
    # s^nbar = prefactor*t^1000 is real and negative: its real root stays real,
    # whether the power leaves the floats (-3) or not (-1.10577)
    values = singular_s_values(LocalCurveSpec(m, n, 1, t))
    assert [s for s in values if s.imag == 0] == [values[0]] and values[0].real < 0


def test_local_curve_spec_refuses_non_integral_exponents():
    for args in [(3.5, 1, 1), (3, 1.0, 1), (3, 1, "1")]:
        with pytest.raises(TypeError):  # refused here, not later in gcd
            LocalCurveSpec(*args, 1.0)


def test_singular_values_past_max_roots_raise_before_building_them(capsys, monkeypatch):
    # m = n + 1 = MAX_ROOTS + 2: nbar = MAX_ROOTS + 1, |s| near 1
    spec = LocalCurveSpec(MAX_ROOTS + 2, MAX_ROOTS + 1, 1, 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(cmath, "exp", None)  # building a root would call it
        message = "^%d roots: more than MAX_ROOTS = %d$" % (MAX_ROOTS + 1, MAX_ROOTS)
        with pytest.raises(ValueError, match=message):
            singular_s_values(spec)
    assert main(["localcheck", "--m", str(MAX_ROOTS + 2), "--n", str(MAX_ROOTS + 1)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: %d roots: more than MAX_ROOTS = %d\n" % (MAX_ROOTS + 1, MAX_ROOTS),
    )


def test_localcheck_refuses_points_whose_factor_overflows(capsys):
    # |s| ~ e^700 fits, but the factor zeta^(m - l*n) ~ e^719 of F does not
    argv = ["localcheck", "--m", "19851", "--n", "22", "--l", "4", "--t=2+1i"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: singular points out of floating-point range\n")


@pytest.mark.parametrize("m,n", [(10**18 + 1, 2), (12 * 10**14 + 1, 2)])
def test_localcheck_past_float_precision_exits_2(capsys, m, n):
    # m - l*n >= 2**50: tol = 4*(m - l*n)*eps reaches 1, and every critical test holds
    assert main(["localcheck", "--m", str(m), "--n", str(n)]) == 2
    assert capsys.readouterr() == ("", "error: singular points out of floating-point precision\n")


@pytest.mark.parametrize("m,n", [(10**15 + 1, 2), (10**8, 1)])
def test_localcheck_within_float_precision_is_ok(capsys, m, n):
    assert main(["localcheck", "--m", str(m), "--n", str(n)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok: ")


def test_singular_points_refuse_tol_one():
    # tol = 4*(m - l*n)*eps reaches 1 at m - l*n = 2**50
    below, at = LocalCurveSpec(2**50 + 1, 2, 1, 1.0), LocalCurveSpec(2**50 + 2, 2, 1, 1.0)
    assert len(singular_points(below, singular_s_values(below)[0])) == 1
    with pytest.raises(ValueError, match="out of floating-point precision"):
        singular_points(at, singular_s_values(at)[0])


def test_resultant_vanishes_only_at_singular_values():
    m, n, l, tc = 5, 2, 1, 1.0
    spec = LocalCurveSpec(m, n, l, 1.0)
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


def _generic_divisors(rng, h, k):
    """Divisor data (attach, sigma, extra) with m0 = 2, n0 = 1 whose
    numerator keeps its full degree h + k - 2 (sum of weight * point != 0)."""
    while True:
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
        if sum(w * p for w, p in zip(weights + [2] * k, pts)) == 0:
            continue
        attach = tuple((p, max(1, (2 - w) // 2)) for p, w in zip(pts, weights))
        sigma = tuple((p, w + 2 * n1) for (p, n1), w in zip(attach, weights))
        return attach, sigma, tuple((p, 1) for p in pts[h:])


def test_essential_zeros_agree_with_numpy_oracle():
    rng = random.Random(61973)
    for _ in range(200):
        h, k = rng.randint(3, 6), rng.randint(0, 4)
        attach, sigma, extra = _generic_divisors(rng, h, k)
        got = essential_zeros(CoreSectionData(attach, sigma, extra, 2, 1))
        want = essential_zeros_oracle(attach, sigma, extra, 2, 1)
        assert len(got) == len(want) == h + k - 2
        assert_close_sets(got, want)


def _preimage(z, a, b):
    """The point p whose image a*p + b is z, exact up to the rounding of p."""
    real = (Fraction(z.real) - Fraction(b)) / Fraction(a)
    return complex(float(real), float(Fraction(z.imag) / Fraction(a)))


@pytest.mark.parametrize("a,b", list(product((1e-8, 1e-3, 1e3, 1e6), (0, 1e3, 1e6))))
def test_essential_zeros_move_with_their_data(a, b):
    """Mapping the data by z -> a*z + b maps the zeros with it: as many, each
    within 1e-9 of the data's spread of the image of a zero of the unmapped
    data (the preimage of what the mapped data hold), or within the one ulp
    that a float of its size can be off by."""
    rng = random.Random(61973)
    for _ in range(50):
        h, k = rng.randint(3, 6), rng.randint(0, 4)
        image = [tuple((a * p + b, o) for p, o in d) for d in _generic_divisors(rng, h, k)]
        got = essential_zeros(CoreSectionData(*image, 2, 1))
        unmapped = [tuple((_preimage(z, a, b), o) for z, o in d) for d in image]
        want = [a * w + b for w in essential_zeros(CoreSectionData(*unmapped, 2, 1))]
        assert len(got) == len(want) == h + k - 2
        points = [p for d in image for p, _ in d]
        spread = max(abs(p - points[0]) for p in points)
        for z in got:
            assert min(abs(z - w) for w in want) <= 1e-9 * spread + math.ulp(abs(z))


@pytest.mark.parametrize(
    "sigma,attach,want",
    [
        # 1/z + 1/(z - 2): degree-1 numerator 2z - 2
        (((0, 1), (2, 1)), (), [1]),
        # unit weights at +-1, +-2: numerator 2z(2z^2 - 5), a root at 0
        (((1, 1), (-1, 1), (2, 1), (-2, 1)), (), [0, 2.5**0.5, -(2.5**0.5)]),
        # unit weights at +-1 and -1 at 0: numerator z^2 + 1, a real
        # polynomial whose roots a start on the real axis never reaches
        (((1, 1), (-1, 1), (0, 1)), ((0, 1),), [1j, -1j]),
        # unit weights at +-1, +-i and -2 at 0: numerator 2(z^4 + 1), whose
        # roots share the four-fold symmetry of a starting ring
        (
            ((1, 1), (-1, 1), (1j, 1), (-1j, 1)),
            ((0, 1),),
            [cmath.exp(1j * cmath.pi * (2 * j + 1) / 4) for j in range(4)],
        ),
        # one attach point alone: the numerator is the nonzero constant -m0
        ((), ((0, 1),), []),
    ],
)
def test_essential_zeros_of_special_numerators(sigma, attach, want):
    assert_close_sets(essential_zeros(CoreSectionData(attach, sigma, (), 2, 1)), want)


def test_double_essential_zero_clusters_to_equal_entries():
    """5/(z - 5) + 5/(z + 5) - 9/(z - 3) has numerator (z - 15)^2."""
    data = CoreSectionData(((3, 5),), ((5, 5), (-5, 5), (3, 1)), (), 2, 1)
    first, second = essential_zeros(data)
    assert first == second
    assert abs(first - 15) <= CLUSTER_TOL * 16


def test_barkfib_does_not_load_numpy():
    code = (
        "import sys\n"
        "import barkfib.cli\n"
        "from barkfib.localmodel import CoreSectionData, essential_zeros\n"
        "essential_zeros(CoreSectionData(((0, 1),), ((0, 1), (1, 1)), (), 2, 1))\n"
        "assert 'numpy' not in sys.modules, 'barkfib loaded numpy'\n"
    )
    src = str(Path(barkfib.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


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
    with pytest.raises(ValueError, match="t must be nonzero"):
        subordinate_s_from_core(core, 0, zeros)
    with pytest.raises(ValueError, match=r"need l\*n0 != m0"):
        subordinate_s_from_core(replace(core, n0=3, l=2), 1.0, zeros)
    # tau(1) = (1 - 2) / (1 - 0): a finite extra zero is a factor, one at infinity is not
    assert replace(core, attach_points=((0, 1),), extra_zeros=((2, 1), ("inf", 1))).tau(1) == -1
    # a non-finite number is the point at infinity too, stored as "inf"
    for inf in (float("inf"), complex("inf"), float("nan")):
        same = replace(
            core,
            attach_points=((0, 5), (1, 3), (inf, 2)),
            sigma_divisor=((0, 5), (1, 4), (inf, 3)),
        )
        assert same == core
        assert same.degree_consistent() and essential_zeros(same) == zeros
        for z in (0.5, 2 + 1j, zeros[0]):
            assert (same.sigma(z), same.tau(z)) == (core.sigma(z), core.tau(z))
    # "inf" is the one string for it: "oo" does not parse, "infinity" is not finite
    for bad in ("oo", "infinity"):
        with pytest.raises(ValueError):
            replace(core, attach_points=((0, 5), (1, 3), (bad, 2)))


@pytest.mark.parametrize(
    "m0,n0,zero",
    [
        # |tau(zero)|^mbar0 = sqrt(2)^1000001 overflows a float
        (1000001, 500, 0.5 + 0.5j),
    ],
)
def test_subordinate_values_out_of_range_raise(m0, n0, zero):
    core = CoreSectionData(((0, 1),), ((0, 1),), (), m0, n0, 1)
    with pytest.raises(ValueError, match="singular values out of floating-point range"):
        subordinate_s_from_core(core, 1.0, [zero])


def test_subordinate_values_below_their_power_solve_it():
    # s^200 = (200/-199801)^200 * (-199801/200001)^200001 * 1j^200 * (1/1j)^200001:
    # the prefactor underflows to 0, but each s has modulus near e^-7.9
    core = CoreSectionData(((0, 1),), ((0, 1),), (), 200001, 200, 1)
    values, kappa = subordinate_s_from_core(core, 1.0, [1j])
    assert (len(values), kappa) == (200, 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        log_power = float(200 * (D(200) / D(199801)).ln() + 200001 * (D(199801) / D(200001)).ln())
    for s in values:
        assert 200 * math.log(abs(s)) == pytest.approx(log_power, rel=1.4e-15)
        # the invariant is exactly -1j, so s^200 lies on the phase of i to rounding
        assert cmath.exp(200j * cmath.phase(s)) == pytest.approx(1j, abs=1e-12)
    assert len({(round(s.real, 12), round(s.imag, 12)) for s in values}) == 200


@pytest.mark.parametrize("alpha,invariant", [(1j, -1j), (-1j, 1j), (-1, -1)], ids=["i", "-i", "-1"])
def test_subordinate_invariant_on_an_axis_is_exact(alpha, invariant):
    # sigma = z, tau = 1/z: the invariant alpha^200 * alpha^-200001, a direct
    # complex power about 4e-11 off the axis at alpha = 1j, is exactly on it
    core = CoreSectionData(((0, 1),), ((0, 1),), (), 200001, 200, 1)
    assert subordinate_s_from_core(core, 1.0, [alpha]) == (
        _ordered(_singular_values(1, 200001, 200, 1.0, invariant)),
        1,
    )


def test_unit_power_on_an_axis_is_exact():
    for z in (2.5j, -0.5j, complex(-0.0, 3.0), -7.0, 1e300):
        unit, want = z / abs(z), 1
        for k in range(13):
            assert _unit_power(z, k) == want
            assert _unit_power(z, 4 * 10**6 + k) == want
            want *= unit  # a product by +-1 or +-1j is exact


@pytest.mark.parametrize(
    "m0,n0,t",
    [(1000, 7, 3.0), (3, 1, 1.0), (8, 3, 1 + 0j), (5, 2, -2 + 1j), (7, 4, 0.5 + 0.5j), (24, 8, -3.0)],
)
def test_subordinate_values_at_invariant_one_are_the_chart_values(m0, n0, t):
    # sigma(1) = tau(1) = 1: the invariant is exactly 1, and both take one route
    core = CoreSectionData(((0, 1),), ((0, 1),), (), m0, n0, 1)
    assert subordinate_s_from_core(core, t, [1]) == (
        singular_s_values(LocalCurveSpec(m0, n0, 1, t)),
        1,
    )


@pytest.mark.parametrize("t", [1, 1e-3, 1e-5, 1e-6, 1e-8])
def test_small_subordinate_values_stay_apart(t):
    """The five-value core at small t: nbar0 * kappa_bar = 5 values with
    s^5 = -t^6/432, however small they are."""
    core = CoreSectionData(((0, 5), (1, 3), ("inf", 2)), ((0, 5), (1, 4), ("inf", 3)), (), 6, 5)
    s_values, kappa = subordinate_s_from_core(core, t, essential_zeros(core))
    assert (len(s_values), kappa) == (5, 1)
    for s in s_values:
        assert abs(s**5 / (-(t**6) / 432) - 1) < 1e-9


def test_core_section_data_refuses_non_integral_orders():
    with pytest.raises(TypeError):  # refused, not truncated to the orders 2 and 1
        CoreSectionData(((0, 2.5),), ((0, 1), (1, 1.9)), (), 2, 1)
    with pytest.raises(TypeError):
        CoreSectionData(((0, 1),), ((0, 1),), ((2, 1.0),), 2, 1)
    for m0, n0, l in ((2.0, 1, 1), (2, 1.0, 1), (2, 1, 1.0)):
        with pytest.raises(TypeError):
            CoreSectionData(((0, 1),), ((0, 1),), (), m0, n0, l)


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
