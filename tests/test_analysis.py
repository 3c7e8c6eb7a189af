import numpy as np
import pytest
from scipy.integrate import quad

from qss_sim.analysis import (
    DomainError,
    avg_f1,
    avg_f_ad,
    avg_f_opt0,
    avg_f_opt0_closed_form,
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
    sp1,
    sp2,
)
from qss_sim.tolerances import POLE_ATOL


class TestPhaseDampingFidelity:
    def test_no_noise_is_perfect(self):
        for k in np.linspace(0, 1, 11):
            assert f_pd(k, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_full_dephasing_balanced_secret(self):
        assert f_pd(0.5, 1.0) == pytest.approx(0.5)

    def test_average_endpoints_exact(self):
        assert avg_f_pd(0.0) == 1.0
        assert avg_f_pd(1.0) == 2.0 / 3.0

    def test_average_matches_quadrature(self):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            integral, err = quad(lambda k: f_pd(k, q), 0.0, 1.0, epsabs=1e-13)
            assert avg_f_pd(q) == pytest.approx(integral, abs=1e-9)

    def test_strictly_decreasing(self):
        values = [avg_f_pd(q) for q in np.linspace(0, 1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            f_pd(0.5, 1.1)
        with pytest.raises(DomainError):
            avg_f_pd(-0.2)


class TestAmplitudeDampingFidelity:
    def test_no_noise_is_perfect(self):
        for k in np.linspace(0, 1, 11):
            assert f_ad(k, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_ground_secret_immune(self):
        for p in np.linspace(0, 1, 11):
            assert f_ad(1.0, p) == pytest.approx(1.0, abs=1e-15)

    def test_average_endpoints(self):
        assert avg_f_ad(0.0) == 1.0
        assert avg_f_ad(1.0) == 0.5

    def test_both_outcome_expressions_share_the_average(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            i0, _ = quad(lambda k: f_ad(k, p), 0.0, 1.0, epsabs=1e-13)
            i1, _ = quad(lambda k: f_ad_outcome1(k, p), 0.0, 1.0, epsabs=1e-13)
            assert i0 == pytest.approx(avg_f_ad(p), abs=1e-9)
            assert i1 == pytest.approx(avg_f_ad(p), abs=1e-9)

    def test_strictly_decreasing(self):
        values = [avg_f_ad(p) for p in np.linspace(0, 1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSurvivalProbabilities:
    def test_sp1_zero_strength(self):
        for k in np.linspace(0, 1, 11):
            assert sp1(k, 0.0) == pytest.approx(1.0)

    def test_sp1_ground_secret_full_strength(self):
        assert sp1(1.0, 1.0) == pytest.approx(0.5)

    def test_sp2_reduces_to_one_without_measurements(self):
        for k in (0.0, 0.4, 1.0):
            for p in (0.0, 0.5, 1.0):
                assert sp2(k, 0.0, 0.0, p) == pytest.approx(1.0)

    def test_sp2_vanishes_as_forward_strength_saturates(self):
        # at optimal reversal the survival probability dies off with s
        values = [sp2(0.5, s, r_opt(0.5, s, 0.5), 0.5) for s in (0.9, 0.99, 0.999)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_sp2_small_at_full_reversal(self):
        # at r = 1 only (1-k)(1-p)^2(1-s)^2/2 survives, dying off with s
        for p in (0.3, 0.8):
            values = [sp2(0.4, s, 1.0, p) for s in (0.0, 0.5, 0.9, 0.999)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[0] == pytest.approx(0.3 * (1 - p) ** 2, abs=1e-12)
            assert values[-1] < 1e-6


class TestProtectedFidelityOutcome0:
    def test_noiseless_unprotected(self):
        for k in np.linspace(0, 1, 11):
            assert f0_ww(k, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_reduces_to_unprotected_branch_value(self):
        for k in np.linspace(0.05, 0.95, 10):
            for p in (0.2, 0.6, 1.0):
                assert f0_ww(k, 0.0, 0.0, p) == pytest.approx(f_ad(k, p), abs=1e-14)

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            f0_ww(1.0, 0.3, 1.0, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "k",
        [np.array([0.5 + 0.3j]), np.array([0.5 + 0j]), np.array([0.5], dtype=object), np.complex128(0.5 + 0.3j)],
        ids=["complex-array", "real-valued-complex-array", "object-array", "complex-scalar"],
    )
    def test_non_real_input_is_refused(self, k):
        # a cast to float would drop the imaginary part, with only a ComplexWarning
        with pytest.raises(DomainError, match="k must be real"):
            f0_ww(k, 0.2, 0.3, 0.4)


class TestOptimalReversal:
    def test_region_bounds_shape(self):
        lower, split = region_bounds(0.9, 0.0)
        assert lower == pytest.approx(0.9 / (2 * 1.9))
        assert split == pytest.approx(0.25)
        assert 0 < lower < split < 1

    def test_region_membership(self):
        assert in_validity_region(0.5, 0.0, 0.9)
        assert not in_validity_region(0.25, 0.0, 0.9)  # the split point is excluded
        assert not in_validity_region(0.1, 0.0, 0.9)  # below the lower bound
        assert not in_validity_region(0.5, 0.0, 0.0)  # p on the boundary
        assert not in_validity_region(0.5, 1.0, 0.5)  # s = 1 excluded

    def test_out_of_region_is_loud(self):
        with pytest.raises(DomainError):
            r_opt(0.05, 0.0, 0.9)

    def test_matches_numeric_argmax_at_reference_point(self):
        from qss_sim.optimize import ScalarObjective, maximize_scalar

        k = s = p = 0.5
        closed = r_opt(k, s, p)
        numeric, _ = maximize_scalar(
            ScalarObjective(lambda r: f0_ww(k, s, r, p), 0.0, 1.0, tolerance=1e-12)
        )
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_optimality_against_random_competitors(self, rng):
        for _ in range(20):
            p = rng.uniform(0.1, 0.9)
            s = rng.uniform(0.0, 0.9)
            lower, split = region_bounds(p, s)
            k = rng.uniform(lower + 1e-6, 1 - 1e-6)
            if abs(k - split) < 1e-9:
                continue
            best = f0_ww(k, s, r_opt(k, s, p), p)
            for r in rng.uniform(0, 1, size=100):
                assert f0_ww(k, s, float(r), p) <= best + 1e-12

    def test_in_range_inside_region(self, rng):
        for _ in range(200):
            p = rng.uniform(0.01, 0.99)
            s = rng.uniform(0.0, 0.99)
            lower, _ = region_bounds(p, s)
            k = rng.uniform(lower + 1e-9, 1 - 1e-9)
            if not in_validity_region(k, s, p):
                continue
            assert 0.0 <= r_opt(k, s, p) <= 1.0

    def test_weak_noise_limit_needs_no_reversal(self):
        r = r_opt(0.5, 0.001, 0.001)
        assert r == pytest.approx(0.0, abs=5e-3)
        assert f0_ww(0.5, 0.001, r, 0.001) == pytest.approx(1.0, abs=1e-3)


class TestAveragedProtectedFidelity:
    def test_reference_value_high_noise(self):
        # at very strong damping the protected average sits near 3/5 even
        # with the forward measurement switched off
        value = avg_f_opt0(0.99, 0.0)
        assert 0.55 <= value <= 0.65

    def test_matches_direct_quadrature_oracle(self):
        for (p, s) in [(0.9, 0.0), (0.5, 0.3), (0.3, 0.2)]:
            lower, split = region_bounds(p, s)
            integral, err = quad(
                lambda k: f0_ww(k, s, r_opt(k, s, p), p),
                lower,
                1.0,
                points=[split],
                epsabs=1e-12,
                limit=200,
            )
            assert avg_f_opt0(p, s) == pytest.approx(integral, abs=1e-9)

    def test_closed_form_transcription_is_finite_and_reported(self):
        # the transcribed log form does not equal the integral; the gap is
        # part of the validation report rather than an assertion
        quad_value = avg_f_opt0(0.99, 0.0)
        closed_value = avg_f_opt0_closed_form(0.99, 0.0)
        assert np.isfinite(closed_value)
        gap = abs(quad_value - closed_value)
        assert gap == pytest.approx(0.0692, abs=0.001)

    def test_slightly_below_unprotected_at_weak_noise(self):
        # at low damping and weak forward measurement the protected average
        # sits a little under the unprotected one (post-selection overhead)
        for (p, s) in [(0.1, 0.0), (0.1, 0.1), (0.2, 0.05)]:
            protected = avg_f_opt0(p, s)
            unprotected = avg_f_ad(p)
            assert protected < unprotected
            assert unprotected - protected < 0.06

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            avg_f_opt0(0.0, 0.5)
        with pytest.raises(DomainError):
            avg_f_opt0(1.0, 0.5)
        with pytest.raises(DomainError):
            avg_f_opt0_closed_form(0.5, 1.0)


class TestAveragedSuccess:
    def test_decays_with_forward_strength(self):
        values = [avg_success_opt0(0.7, s) for s in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_direct_quadrature_oracle(self):
        p, s = 0.6, 0.2
        lower, split = region_bounds(p, s)
        integral, _ = quad(
            lambda k: sp2(k, s, r_opt(k, s, p), p),
            lower,
            1.0,
            points=[split],
            epsabs=1e-12,
            limit=200,
        )
        assert avg_success_opt0(p, s) == pytest.approx(integral, abs=1e-9)


class TestProtectedFidelityOutcome1:
    def test_full_reversal_restores_everything(self):
        for k in np.linspace(0, 1, 11):
            for p in (0.0, 0.5, 0.99):
                assert f1_ww(k, 1.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_unprotected(self):
        for k in np.linspace(0, 1, 11):
            assert f1_ww(k, 0.0, 0.0) == pytest.approx(1.0)

    def test_singular_point(self):
        with pytest.raises(DomainError):
            f1_ww(0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            avg_f1(1.0, 1.0)

    def test_near_singular_point_is_refused(self):
        # cancellation returned 1.0 and -0.0 here; the limits are 0.7 and 0.5
        with pytest.raises(DomainError, match="singular point"):
            f1_ww(0.3, 1 - 1e-16, 1.0)
        with pytest.raises(DomainError, match="singular point"):
            avg_f1(1.0, 1 - 1e-16)
        with pytest.raises(DomainError):
            f1_ww(0.3, 1.0, 1 - 0.5 * POLE_ATOL)

    def test_accurate_just_outside_the_pole_tolerance(self):
        # at p = 1 the forms reduce exactly to 1 - k and 1/2
        r = 1.0 - 2.0 * POLE_ATOL
        for k in (0.0, 0.3, 0.9):
            assert f1_ww(k, r, 1.0) == pytest.approx(1.0 - k, abs=1e-10)
        assert avg_f1(1.0, r) == pytest.approx(0.5, abs=1e-10)

    def test_monotone_in_reversal_strength(self):
        for k in (0.0, 0.4, 0.9):
            for p in (0.3, 0.8):
                values = [f1_ww(k, r, p) for r in np.linspace(0, 1, 21)]
                assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_average_trivials(self):
        for r in np.linspace(0, 1, 5):
            assert avg_f1(0.0, r) == pytest.approx(1.0)
        for p in (0.0, 0.5, 0.99):
            assert avg_f1(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_average_matches_quadrature(self):
        for p in (0.1, 0.6, 0.95):
            for r in (0.0, 0.5, 0.9):
                integral, _ = quad(lambda k: f1_ww(k, r, p), 0.0, 1.0, epsabs=1e-13)
                assert avg_f1(p, r) == pytest.approx(integral, abs=1e-9)


class TestFormulaRegistry:
    def test_outputs_stay_in_unit_interval(self):
        grid = np.linspace(0.05, 0.95, 7)
        for k in grid:
            for q in grid:
                assert 0.0 <= f_pd(k, q) <= 1.0
                assert 0.0 <= f_ad(k, q) <= 1.0
                assert 0.0 <= sp1(k, q) <= 1.0
        for k in grid:
            for s in grid:
                for r in grid:
                    for p in grid:
                        assert 0.0 <= sp2(k, s, r, p) <= 1.0 + 1e-12
                        assert 0.0 <= f0_ww(k, s, r, p) <= 1.0 + 1e-12
                        assert 0.0 <= f1_ww(k, r, p) <= 1.0 + 1e-12

    def test_registry_covers_sweepable_quantities(self):
        from qss_sim.sweeps import QUANTITIES

        for name in ("avg_f_pd", "avg_f_ad", "avg_f_opt0", "avg_f1", "sp2", "f0_ww", "f1_ww"):
            assert name in QUANTITIES
