"""Batched quadrature and array closed forms against their per-node oracles.

``oracle_gauss_legendre`` and ``oracle_adaptive`` are the scalar quadrature
the package used before integrands took arrays: one call of ``f`` per node,
summed in node order, and three separate panels per bisection step. The
batched path must equal them bit for bit, and every array call of the
closed forms behind the optimal-reversal integrand must equal the scalar
calls element by element.
"""

import math
import operator
import sys
import warnings
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim import analysis, protocol, validate
from qss_sim.analysis import (
    DomainError,
    avg_f1,
    avg_f_ad,
    avg_f_opt0,
    avg_f_pd,
    avg_success_opt0,
    f0_ww,
    f1_ww,
    f_ad,
    f_ad_outcome1,
    f_pd,
    in_validity_region,
    r_opt,
    region_bounds,
    sp2,
)
from qss_sim.protocol import left_sum, success_probability
from qss_sim.quadrature import _nodes, adaptive_gauss_legendre, gauss_legendre
from qss_sim.tolerances import POLE_ATOL

examples = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def oracle_gauss_legendre(f, a, b, n=64):
    if b <= a:
        return 0.0
    x, w = _nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = 0.0
    for xi, wi in zip(x, w):
        total += wi * f(mid + half * xi)
    return half * total


def oracle_adaptive(f, a, b, tol=1e-10, n=64, max_depth=12):
    def recurse(lo, hi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        left = oracle_gauss_legendre(f, lo, mid, n)
        right = oracle_gauss_legendre(f, mid, hi, n)
        if depth >= max_depth or abs(left + right - whole) <= budget:
            return left + right
        return recurse(lo, mid, left, budget / 2, depth + 1) + recurse(
            mid, hi, right, budget / 2, depth + 1
        )

    if b <= a:
        return 0.0
    return recurse(a, b, oracle_gauss_legendre(f, a, b, n), tol, 0)


def oracle_region_average(p, s, form):
    lower, split = region_bounds(p, s)

    def integrand(k):
        return form(k, s, r_opt(k, s, p), p)

    return oracle_adaptive(integrand, lower, split, tol=1e-11) + oracle_adaptive(
        integrand, split, 1.0, tol=1e-11
    )


def rational(x):
    """Elementwise on floats and arrays alike: only + - * /, each rounded once."""
    return (1.0 + 2.0 * x) / (3.0 + x * x) - 0.5 * x


def negative_subnormal(x):
    """-5e-324 everywhere. With n = 5 only the middle weight, 0.569, keeps
    its term from rounding to -0.0, so each panel's sum is -5e-324, and on
    a panel narrower than 1 the half-width below 0.5 rounds it to -0.0."""
    return np.full_like(x, -5e-324)


orders = st.sampled_from([5, 21, 33, 64])
ends = st.floats(-2.0, 2.0)
widths = st.floats(1e-3, 3.0)


class TestBatchedGaussLegendre:
    @examples
    @given(a=ends, width=widths, n=orders)
    def test_one_panel_equals_the_per_node_oracle(self, a, width, n):
        assert gauss_legendre(rational, a, a + width, n) == oracle_gauss_legendre(
            rational, a, a + width, n
        )

    @examples
    @given(panels=st.lists(st.tuples(ends, widths), min_size=1, max_size=5), n=orders)
    def test_each_batched_panel_equals_the_per_node_oracle(self, panels, n):
        lo = [a for a, _ in panels] + [0.5]
        hi = [a + width for a, width in panels] + [0.5]  # an empty panel last
        calls = []

        def f(x):
            calls.append(x.shape)
            return rational(x)

        got = gauss_legendre(f, lo, hi, n)
        assert got == [oracle_gauss_legendre(rational, a, b, n) for a, b in zip(lo, hi)]
        assert got[-1] == 0.0
        assert calls == [(len(panels), n)]

    def test_reversed_interval_is_zero_without_a_call(self):
        def f(x):
            raise AssertionError("integrand called")

        assert gauss_legendre(f, 1.0, 0.5) == 0.0
        assert gauss_legendre(f, [1.0, 0.2], [0.5, 0.2]) == [0.0, 0.0]

    def test_panel_ends_must_pair_up(self):
        with pytest.raises(ValueError):
            gauss_legendre(rational, [0.0, 0.5], [1.0])

    def test_one_panel_returns_a_python_float(self):
        assert type(gauss_legendre(rational, 0.0, 1.0)) is float


class TestBatchedAdaptive:
    @examples
    @given(
        kink=st.floats(0.05, 0.95),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
        n=orders,
    )
    def test_refined_integral_equals_the_oracle(self, kink, tol, n):
        # |x - kink| is only piecewise smooth, so bisection goes deep near it.
        def f(x):
            return abs(x - kink) * rational(x)

        got = adaptive_gauss_legendre(f, 0.0, 1.0, tol=tol, n=n, max_depth=8)
        assert got == oracle_adaptive(f, 0.0, 1.0, tol=tol, n=n, max_depth=8)

    def test_smooth_integrand_costs_one_three_panel_call(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return rational(x)

        adaptive_gauss_legendre(f, 0.0, 1.0)
        assert shapes == [(3, 64)]

    def test_each_deeper_level_is_one_call(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return abs(x - 0.3)

        # Only the panel holding the kink refines: each level halves it into
        # two children, of two panels each, down to max_depth.
        adaptive_gauss_legendre(f, 0.0, 1.0, tol=1e-12, max_depth=4)
        assert shapes == [(3, 64)] + [(4, 64)] * 4


def _never(x):
    raise AssertionError("integrand called")


# A piece is empty (0.0), reversed (negative) or forward; forward pieces stay
# narrower than 1 so that ``negative_subnormal`` integrates to -0.0 on them.
piece_widths = st.one_of(st.just(0.0), st.floats(-0.5, -1e-3), st.floats(1e-3, 0.9))


class TestBreakpoints:
    @examples
    @given(
        start=ends,
        widths=st.lists(piece_widths, min_size=2, max_size=4),
        kink=st.floats(-2.0, 4.0),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
        n=st.sampled_from([5, 21, 64]),
        signed_zero=st.booleans(),
    )
    def test_equals_the_left_to_right_sum_of_the_pieces(
        self, start, widths, kink, tol, n, signed_zero
    ):
        points = [start]
        for width in widths:
            points.append(points[-1] + width)
        if signed_zero:
            f, n = negative_subnormal, 5
        else:
            # Only the pieces around the kink refine.
            def f(x):
                return abs(x - kink) * rational(x)

        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return f(x)

        options = dict(tol=tol, n=n, max_depth=8)
        got = adaptive_gauss_legendre(counted, *points, **options)
        pieces = [adaptive_gauss_legendre(f, a, b, **options) for a, b in zip(points, points[1:])]
        assert got.hex() == reduce(operator.add, pieces).hex()
        live = sum(b > a for a, b in zip(points, points[1:]))
        assert shapes[:1] == ([(3 * live, n)] if live else [])

    def test_negative_zero_pieces_add_up_left_to_right(self):
        assert adaptive_gauss_legendre(negative_subnormal, 0.0, 0.5, 0.9, n=5).hex() == "-0x0.0p+0"
        # An empty piece adds 0.0 in its place, and -0.0 + 0.0 is 0.0.
        assert adaptive_gauss_legendre(negative_subnormal, 0.0, 0.5, 0.5, 0.9, n=5).hex() == "0x0.0p+0"
        # Builtin sum starts from int 0, which would lose the sign.
        assert sum([-0.0, -0.0]).hex() == "0x0.0p+0"

    def test_smooth_two_piece_integrand_costs_one_six_panel_call(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return rational(x)

        adaptive_gauss_legendre(f, 0.0, 0.4, 1.0)
        assert shapes == [(6, 64)]

    def test_all_pieces_empty_is_zero_without_a_call(self):
        assert adaptive_gauss_legendre(_never, 1.0, 0.5) == 0.0
        assert adaptive_gauss_legendre(_never, 0.5, 0.5, 0.2) == 0.0


class TestInvalidInputFailsEarly:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            adaptive_gauss_legendre(_never, 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("n", [0, -1])
    def test_at_least_one_node(self, n):
        with pytest.raises(ValueError):
            gauss_legendre(_never, 0.0, 1.0, n=n)
        with pytest.raises(ValueError, match="n >= 1"):
            adaptive_gauss_legendre(_never, 0.0, 1.0, n=n)
        with pytest.raises(ValueError, match="n >= 1"):
            adaptive_gauss_legendre(_never, 1.0, 0.5, n=n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bounds_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gauss_legendre(_never, 0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            gauss_legendre(_never, [0.0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            adaptive_gauss_legendre(_never, 0.0, bad)
        # A breakpoint is checked as well as the ends.
        with pytest.raises(ValueError, match="finite"):
            adaptive_gauss_legendre(_never, 0.0, bad, 1.0)

    def test_two_points_at_least(self):
        with pytest.raises(ValueError, match="two or more"):
            adaptive_gauss_legendre(_never, 0.0)


# Interior points plus the corners of the fig3/fig4 axes.
GRID = list(product((0.02, 0.1, 0.5, 0.9, 0.98), (0.0, 0.3, 0.8, 0.9)))


class TestOptimalReversalAverages:
    @pytest.mark.parametrize("p, s", GRID)
    def test_avg_f_opt0_equals_the_per_node_path(self, p, s):
        assert avg_f_opt0(p, s) == oracle_region_average(p, s, f0_ww)

    @pytest.mark.parametrize("p, s", GRID)
    def test_avg_success_opt0_equals_the_per_node_path(self, p, s):
        # The success average is an exact form in P = p(1 - s), not this
        # quadrature, so the two agree to the oracle's roundoff: 1.1e-14
        # relative at p = 0.98, s = 0.9, where P is nearest 1.
        assert avg_success_opt0(p, s) == pytest.approx(
            oracle_region_average(p, s, sp2), rel=5e-14, abs=0.0
        )

    def test_one_integrand_call_per_average(self, monkeypatch):
        shapes = []

        def counted(k, s, p):
            shapes.append(np.shape(k))
            return r_opt(k, s, p)

        monkeypatch.setattr(analysis, "r_opt", counted)
        avg_f_opt0(0.5, 0.3)
        assert shapes == [(6, 64)]


def _region_points(count, seed):
    """``count`` random ``(k, s, p)`` inside the optimality region, ``s = 0`` included."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p, s = rng.uniform(0.01, 0.99), (0.0 if len(points) % 5 == 0 else rng.uniform(0.0, 0.95))
        k = rng.uniform(region_bounds(p, s)[0], 1.0)
        if in_validity_region(k, s, p):
            points.append((k, s, p))
    return [np.array(column) for column in zip(*points)]


class TestArrayClosedForms:
    def test_r_opt_f0_ww_sp2_equal_the_scalar_calls(self):
        for k, s, p in (_region_points(200, 1), _region_points(200, 2)):
            r = r_opt(k, s, p)
            assert r.tolist() == [r_opt(*args) for args in zip(k.tolist(), s.tolist(), p.tolist())]
            rows = list(zip(k.tolist(), s.tolist(), r.tolist(), p.tolist()))
            assert f0_ww(k, s, r, p).tolist() == [f0_ww(*args) for args in rows]
            assert sp2(k, s, r, p).tolist() == [sp2(*args) for args in rows]

    def test_array_k_broadcasts_against_float_s_and_p(self):
        p, s = 0.6, 0.0
        lower, split = region_bounds(p, s)
        k = np.linspace(lower, 1.0, 203)[1:-1]
        k = k[k != split]
        r = r_opt(k, s, p)
        assert r.tolist() == [r_opt(x, s, p) for x in k.tolist()]
        assert f0_ww(k, s, r, p).tolist() == [
            f0_ww(x, s, y, p) for x, y in zip(k.tolist(), r.tolist())
        ]

    def test_in_validity_region_per_element(self):
        axis = np.linspace(0.0, 1.0, 11)
        k, s, p = (a.ravel() for a in np.meshgrid(axis, axis, axis))
        got = in_validity_region(k, s, p)
        assert got.dtype == bool
        assert got.tolist() == [
            in_validity_region(*args) for args in zip(k.tolist(), s.tolist(), p.tolist())
        ]

    def test_out_of_range_arrays_answer_false_without_warnings(self):
        # p = -1, s = 0 zeroes region_bounds' denominator; the scalar path
        # answers False before it divides, and so must the array path.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = in_validity_region(np.array([0.5, 0.5]), 0.0, np.array([-1.0, 2.0]))
        assert got.tolist() == [False, False] == [
            in_validity_region(0.5, 0.0, -1.0), in_validity_region(0.5, 0.0, 2.0)
        ]

    def test_floats_give_python_floats(self):
        r = r_opt(0.5, 0.3, 0.5)
        assert type(r) is float
        assert type(f0_ww(0.5, 0.3, r, 0.5)) is float
        assert type(sp2(0.5, 0.3, r, 0.5)) is float

    def test_node_outside_the_unit_interval_raises(self):
        with pytest.raises(DomainError, match="k must lie in \\[0, 1\\], got 1.5"):
            r_opt(np.array([0.5, 1.5, 0.7]), 0.3, 0.5)
        with pytest.raises(DomainError, match="r must lie"):
            sp2(0.5, 0.3, np.array([0.2, -0.1]), 0.5)

    def test_nan_node_raises(self):
        with pytest.raises(DomainError, match="got nan"):
            r_opt(np.array([0.5, math.nan]), 0.3, 0.5)
        with pytest.raises(DomainError):
            f0_ww(np.array([0.5, math.nan]), 0.3, 0.2, 0.5)

    def test_node_outside_the_region_raises(self):
        p, s = 0.5, 0.3
        lower, _ = region_bounds(p, s)
        with pytest.raises(DomainError, match=f"k={lower / 2}, s=0.3, p=0.5"):
            r_opt(np.array([0.6, lower / 2, 0.7]), s, p)

    def test_vanishing_branch_raises_at_that_element(self):
        with pytest.raises(DomainError, match="vanishes at k=1.0, s=0.3, r=1.0, p=0.5"):
            f0_ww(np.array([0.5, 1.0]), 0.3, np.array([0.2, 1.0]), 0.5)


# Inputs of the pointwise forms: the ends of [0, 1] and the values next to
# them, and the 64 Gauss-Legendre nodes the suites integrate on.
UNIT_VALUES = np.concatenate([[0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0], 0.5 * (_nodes(64)[0] + 1.0)])


def _unit_pairs():
    """Every pair of ``UNIT_VALUES``, then 20,000 random pairs: a float's
    ``** 2`` rounds differently from ``x * x`` at about one in 2,000."""
    grid = [a.ravel() for a in np.meshgrid(UNIT_VALUES, UNIT_VALUES)]
    return np.concatenate([grid, np.random.default_rng(7).uniform(0.0, 1.0, (2, 20_000))], axis=1)


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestPointwiseArrayForms:
    """``f_pd``, ``f_ad``, ``f_ad_outcome1`` and ``f1_ww`` on arrays, as the
    validation quadratures and the batched argmax call them."""

    @pytest.mark.parametrize("form", [f_pd, f_ad, f_ad_outcome1])
    def test_two_argument_forms_equal_the_scalar_calls_bit_for_bit(self, form):
        k, q = _unit_pairs()
        assert _hexes(form(k, q)) == _hexes([form(*args) for args in zip(k.tolist(), q.tolist())])

    def test_f1_ww_equals_the_scalar_calls_bit_for_bit(self):
        k, r = _unit_pairs()
        p = np.resize([0.0, 0.3, 0.9, 1.0, 0.61], k.size)
        keep = np.abs(1.0 - p * r) >= POLE_ATOL
        k, r, p = k[keep], r[keep], p[keep]
        expected = [f1_ww(*args) for args in zip(k.tolist(), r.tolist(), p.tolist())]
        assert _hexes(f1_ww(k, r, p)) == _hexes(expected)

    def test_columns_broadcast_against_a_row_of_nodes(self):
        nodes = UNIT_VALUES[-64:]
        qs = np.array([0.0, 0.37, 1.0])[:, np.newaxis]
        got = f_pd(nodes, qs)
        assert got.shape == (3, 64)
        assert _hexes(got) == _hexes([f_pd(k, q) for q in (0.0, 0.37, 1.0) for k in nodes.tolist()])

    def test_floats_give_python_floats(self):
        for value in (f_pd(0.3, 0.2), f_ad(0.3, 0.2), f_ad_outcome1(0.3, 0.2), f1_ww(0.3, 0.2, 0.5)):
            assert type(value) is float

    def test_first_out_of_range_element_is_named(self):
        with pytest.raises(DomainError, match="k must lie in \\[0, 1\\], got 1.5"):
            f_pd(np.array([0.2, 1.5, -1.0]), 0.3)
        with pytest.raises(DomainError, match="p must lie in \\[0, 1\\], got -0.25"):
            f_ad_outcome1(0.4, np.array([0.1, -0.25, 2.0]))

    def test_first_nan_element_is_named(self):
        with pytest.raises(DomainError, match="p must lie in \\[0, 1\\], got nan"):
            f_ad(0.2, np.array([0.1, math.nan, 2.0]))
        with pytest.raises(DomainError, match="r must lie in \\[0, 1\\], got nan"):
            f1_ww(0.3, np.array([0.5, math.nan]), 0.5)

    def test_first_element_near_the_pole_is_named(self):
        near, nearer = 1.0 - 0.5 * POLE_ATOL, 1.0 - 0.25 * POLE_ATOL
        with pytest.raises(DomainError, match=f"p={near}, r=1.0 is within 1e-05 of the singular point"):
            f1_ww(0.3, np.array([0.5, 1.0, 1.0]), np.array([0.2, near, nearer]))

    def test_scalar_pole_message_is_unchanged(self):
        with pytest.raises(DomainError, match="^p=1.0, r=0.9999999999999999 is within 1e-05 of the singular point pr = 1$"):
            f1_ww(0.3, 1 - 1e-16, 1.0)


class TestValidationQuadratures:
    """The suites' averages, every strength a panel of one call, against the
    per-node oracle called once per strength, as the suites used to."""

    @pytest.mark.parametrize("form", [f_pd, f_ad])
    def test_strength_panels_equal_one_scalar_integral_each(self, form):
        qs = np.linspace(0.0, 1.0, 21).tolist()
        expected = [oracle_gauss_legendre(lambda k: form(k, q), 0.0, 1.0) for q in qs]
        assert _hexes(validate._integrals(form, [(q,) for q in qs])) == _hexes(expected)

    def test_f1_panels_equal_one_scalar_integral_each(self):
        points = list(product(np.linspace(0.0, 1.0, 6).tolist(), np.linspace(0.0, 0.95, 6).tolist()))
        expected = [oracle_gauss_legendre(lambda k: f1_ww(k, r, p), 0.0, 1.0) for p, r in points]
        got = validate._integrals(lambda k, p, r: f1_ww(k, r, p), points)
        assert _hexes(got) == _hexes(expected)

    def test_average_suites_pass_with_one_integrand_call(self, monkeypatch):
        calls = []

        def counting(f, *args, **kwargs):
            calls.append(f)
            return gauss_legendre(f, *args, **kwargs)

        monkeypatch.setattr(validate, "gauss_legendre", counting)
        assert validate._suite_average("pd", avg_f_pd, f_pd, 101, 1e-9).passed
        assert validate._suite_average("ad", avg_f_ad, f_ad, 101, 1e-9).passed
        assert validate._suite_avg_f1(f1_ww, avg_f1, 11, 1e-9).passed
        assert len(calls) == 3


class TestLeftToRightSums:
    VALUES = [0.5] + [1e-17] * 8

    def test_tiny_terms_vanish_in_order(self):
        assert left_sum(self.VALUES) == 0.5
        reports = [SimpleNamespace(branch_probability=v) for v in self.VALUES]
        assert success_probability(reports) == 0.5

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum compensates from 3.12")
    def test_builtin_sum_would_differ(self):
        assert sum(self.VALUES) == 0.5000000000000001

    def test_no_probability_sum_goes_through_builtin_sum(self, monkeypatch):
        # A compensated stand-in for 3.12's builtin sum, on every version.
        def compensated(values, start=0):
            return math.fsum(values) + start

        assert compensated(self.VALUES) == 0.5000000000000001
        for module in (protocol, validate):
            monkeypatch.setattr(module, "sum", compensated, raising=False)
        reports = [SimpleNamespace(branch_probability=v, fidelity=1.0) for v in self.VALUES]
        assert success_probability(reports) == 0.5
        branches = {index: (1.0, v) for index, v in enumerate(self.VALUES)}
        assert validate._survival(branches) == 0.5
