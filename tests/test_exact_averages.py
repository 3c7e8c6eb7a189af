"""The exact region averages against 50-digit ``mpmath`` integrals.

``avg_f_opt0_closed_form`` and ``avg_success_opt0`` depend on ``(p, s)``
only through ``P = p(1-s)``, the success average up to the prefactor
``((1-p)(1-s))^2``. The fidelity reference integrates ``f0_ww`` at
``r_opt`` over the optimality region in ``k``; the success reference
integrates the success integrand in ``v = sqrt(1 - P^2 + P^2/k)`` over
``[1, 1+P]``. Both are ``mp.quad`` at 50 digits on the exact values of
the float inputs, so a form's error includes that of forming ``P``.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt

from qss_sim.analysis import avg_f_opt0, avg_f_opt0_closed_form, avg_success_opt0

DIGITS = 50
REL_TOL = 2e-15

# The fig3 and fig4 sweep grid, and points at the ends of the form's range,
# on both sides of its switch at P = 1/2 and just below P = 1.
FIGURE_GRID = [
    (p, s) for p in np.linspace(0.02, 0.98, 25).tolist() for s in np.linspace(0.0, 0.9, 19).tolist()
]
EDGE_P = [1e-8, 1e-4, 0.002, 0.499, 0.5, 0.9, 0.999, 1.0 - 2.0**-40]


def region_integral(p: mpf, s: mpf, form) -> mpf:
    """``form(k, r)`` at ``r = r_opt(k, s, p)``, integrated over the
    optimality region ``(lower, split) U (split, 1)`` in ``k``."""
    P = p * (1 - s)
    a, b = ((1 - p) * (1 - s)) ** 2, P * P

    def integrand(k):
        r = (1 + (2 * k - 1) * s - sqrt(k * a / (b + k * (1 - b)))) / (P + 2 * k * (1 - P))
        return form(k, r)

    return mp.quad(integrand, [P / (2 + 2 * P), (1 - s) / (4 - 2 * s), 1])


@lru_cache(maxsize=None)
def fidelity_reference(p: float, s: float) -> mpf:
    """``f0_ww`` at ``r_opt`` integrated in ``k``."""
    with mp.workdps(DIGITS):
        p, s = mpf(p), mpf(s)
        sb, pb = 1 - s, 1 - p

        def f0_ww(k, r):
            kb, rb, d = 1 - k, 1 - r, p * r - 1
            num = k * k * rb * rb - kb * kb * sb * sb * pb * d
            num += k * kb * sb * rb * (2 - (1 + s) * p - sb * p * p * r)
            return num / (k * rb * rb + kb * sb * sb * d * d)

        return region_integral(p, s, f0_ww)


@lru_cache(maxsize=None)
def success_reference(p: float, s: float) -> mpf:
    """The prefactor times ``P`` times the success integrand integrated in ``v``."""
    with mp.workdps(DIGITS):
        p, s = mpf(p), mpf(s)
        P = p * (1 - s)

        def g(v):
            return (v + 1) * (1 + 2 * P + P * P + 2 * P * v - v * v) / (
                v * (v + 1 - P) ** 2 * (v * v - 1 + P * P) ** 2
            )

        return ((1 - p) * (1 - s)) ** 2 * P * mp.quad(g, [1, 1 + P])


def relative_error(value: float, reference: mpf) -> float:
    with mp.workdps(DIGITS):
        return float(abs(mpf(value) - reference) / reference)


def worst(form, reference, points):
    return max((relative_error(form(p, s), reference(p, s)), (p, s)) for p, s in points)


class TestAgainstTheReference:
    def test_fidelity_form_over_the_figure_grid(self):
        error, at = worst(avg_f_opt0_closed_form, fidelity_reference, FIGURE_GRID)
        assert error <= REL_TOL, at

    def test_success_form_over_the_figure_grid(self):
        error, at = worst(avg_success_opt0, success_reference, FIGURE_GRID)
        assert error <= REL_TOL, at

    @pytest.mark.parametrize("P", EDGE_P)
    def test_fidelity_form_at_the_edges(self, P):
        assert relative_error(avg_f_opt0_closed_form(P, 0.0), fidelity_reference(P, 0.0)) <= REL_TOL

    @pytest.mark.parametrize("P", EDGE_P)
    def test_success_form_at_the_edges(self, P):
        assert relative_error(avg_success_opt0(P, 0.0), success_reference(P, 0.0)) <= REL_TOL

    @pytest.mark.parametrize("p, s", [(0.14, 0.85), (0.6, 0.2), (0.9, 0.0)])
    def test_success_integrand_is_sp2_at_r_opt_in_v(self, p, s):
        # The substitution in v against the integral in k that defines the average.
        with mp.workdps(DIGITS):
            p_, s_ = mpf(p), mpf(s)

            def sp2(k, r):
                d = p_ * r - 1
                return (k * (1 - r) - (1 - k) * d * (1 - s_)) * (2 - (1 + p_) * r + d * s_) / 2

            direct = region_integral(p_, s_, sp2)
            assert abs(direct - success_reference(p, s)) < mpf(10) ** -40 * direct


class TestUnderflow:
    @pytest.mark.parametrize("p, s", [(1e-308, 0.0), (5e-324, 0.0), (5e-324, 0.5)])
    def test_fidelity_form_is_one_where_P_squared_underflows(self, p, s):
        # log1p's argument, about 2/P, overflows from P ~ 1e-308 (and P rounds
        # to 0 at the last point), while the log term is far below an ulp of 1.
        assert avg_f_opt0_closed_form(p, s) == 1.0


class TestDependenceOnP:
    # The second point of each pair has s = 0 and p = P of the first.
    PAIRS = [(0.6, 0.5), (0.8, 0.75), (0.9, 0.3), (0.95, 0.1)]

    @pytest.mark.parametrize("p, s", PAIRS)
    def test_success_ratio_is_the_prefactor_ratio(self, p, s):
        P = p * (1.0 - s)
        ratio = avg_success_opt0(p, s) / avg_success_opt0(P, 0.0)
        assert ratio == pytest.approx(((1.0 - p) * (1.0 - s)) ** 2 / (1.0 - P) ** 2, rel=1e-15)

    @pytest.mark.parametrize("p, s", PAIRS)
    def test_fidelity_depends_on_P_alone(self, p, s):
        P = p * (1.0 - s)
        assert avg_f_opt0_closed_form(p, s) == avg_f_opt0_closed_form(P, 0.0)
        assert avg_f_opt0(p, s) == pytest.approx(avg_f_opt0(P, 0.0), rel=1e-13)


@pytest.mark.parametrize("p, s", [(1e-17, 0.0), (1e-100, 0.0), (1e-300, 0.0), (2e-17, 0.5), (1e-16, 0.0)])
def test_quadrature_at_tiny_P_stays_in_the_domain(p, s):
    # r_opt rounds a few ulps below 0 at some nodes here; the node's r is
    # clipped into [0, 1] rather than refused
    assert abs(avg_f_opt0(p, s) - avg_f_opt0_closed_form(p, s)) <= 1e-15


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(p=st.floats(0.001, 0.999), s=st.floats(0.0, 0.999))
def test_quadrature_equals_the_closed_form(p, s):
    assert avg_f_opt0(p, s) == pytest.approx(avg_f_opt0_closed_form(p, s), rel=1e-12)


def test_the_printed_form_differs_in_a_sign_and_the_log_bracket():
    # The paper's expression as it was transcribed before the correction.
    P = 0.9
    u, v = math.sqrt(1.0 - P * P), 1.0 + P
    w = math.sqrt(2.0 / v - 1.0)
    printed_bracket = math.log(P * (1.0 - u + P * (1.0 + u - 2.0 * w) + 2.0 * P * P * w)) - math.log(
        (2.0 - P * P - 2.0 * u) * v
    )
    bracket = 2.0 * math.log((1.0 + u) / (1.0 + P + u)) + math.log(2.0 * (1.0 + P) / P)
    assert printed_bracket == pytest.approx(0.994, abs=1e-3)
    assert bracket == pytest.approx(0.467, abs=1e-3)
    printed = (8.0 - P * (P + 2.0) * (4.0 - 3.0 * P)) / (8.0 * v * v) + P * P / (4.0 * u) * printed_bracket
    corrected = (8.0 + P * (P + 2.0) * (4.0 - 3.0 * P)) / (8.0 * v * v) + P * P / (4.0 * u) * bracket
    assert abs(printed - avg_f_opt0(P, 0.0)) > 5e-3
    assert corrected == pytest.approx(avg_f_opt0(P, 0.0), rel=1e-14)
