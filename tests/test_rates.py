"""Rate engine: Q function, estimator vs quadrature oracle, combiners, benchmarks."""
import math

import numpy as np
import pytest

from tinlink.constellations import build_gray_qam, normalization_factor, scale
from tinlink.rates import (
    LOG2E,
    RateEngineError,
    SubBlockRateStats,
    berry_esseen_diagnostic,
    combine_second_order,
    estimate_mi_dispersion,
    gaussian_benchmark,
    gaussian_stats,
    qfunc,
    qfunc_inv,
    quadrature_mi,
    rate_single_block,
    rate_two_segment,
    second_order_rate,
    shell_benchmark,
    shell_stats,
)


def bisect_qinv(p: float, iters: int = 200) -> float:
    """Independent oracle: plain bisection on the erfc-based tail probability."""
    lo, hi = 0.0, 45.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unit_qam(m: int):
    return scale(build_gray_qam(m), normalization_factor(m)).points


class TestQFunction:
    def test_qfunc_zero(self):
        assert qfunc(0.0) == 0.5

    def test_inverse_at_half(self):
        assert qfunc_inv(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6,
                                   1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12,
                                   1e-13, 1e-14, 1e-15])
    def test_roundtrip(self, p):
        x = qfunc_inv(p)
        assert abs(qfunc(x) - p) <= 1e-12 * p
        assert x == pytest.approx(bisect_qinv(p), rel=1e-14, abs=1e-14)

    def test_against_bisection_oracle(self):
        x = qfunc_inv(1e-6)
        assert abs(x - bisect_qinv(1e-6)) <= 1e-9
        assert x == pytest.approx(4.7534, abs=5e-5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.6, 1.0])
    def test_domain(self, p):
        with pytest.raises(RateEngineError):
            qfunc_inv(p)


class TestQuadratureOracle:
    def test_zero_channel(self):
        assert quadrature_mi(unit_qam(2), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_bpsk_high_snr(self):
        pts = unit_qam(1)
        assert quadrature_mi(pts, 40.0) == pytest.approx(1.0, abs=1e-6)

    def test_16qam_10db_regression_anchor(self):
        # frozen from a node-count convergence study (64 vs 128 nodes agree
        # to ~1e-8 bits)
        pts = unit_qam(4)
        assert quadrature_mi(pts, math.sqrt(10.0)) == pytest.approx(
            3.1639432, abs=1e-6)

    def test_point_cap(self):
        with pytest.raises(RateEngineError):
            quadrature_mi(np.zeros(300, dtype=complex), 1.0)


class TestEstimator:
    def test_zero_channel_exact(self):
        st = estimate_mi_dispersion(unit_qam(2), [unit_qam(2)], 0.0, 2000, 1)
        assert abs(st.mi) <= 1e-12
        assert st.dispersion <= 1e-12

    def test_high_snr_approaches_order(self):
        st = estimate_mi_dispersion(unit_qam(2), [], math.sqrt(1000.0), 2000, 2)
        assert st.mi >= 1.999

    @pytest.mark.parametrize("snr_db", [0.0, 6.0])
    def test_matches_quadrature(self, snr_db):
        pts = unit_qam(2)
        h = math.sqrt(10 ** (snr_db / 10.0))
        st = estimate_mi_dispersion(pts, [], h, 100_000, 3)
        oracle = quadrature_mi(pts, h)
        assert abs(st.mi - oracle) <= 3.0 * st.std_err_mi

    def test_zero_interferer_equals_no_interferer(self):
        pts = unit_qam(2)
        a = estimate_mi_dispersion(pts, [], 2.0, 4000, 4)
        b = estimate_mi_dispersion(pts, [np.zeros(1, dtype=complex)], 2.0, 4000, 4)
        assert a.mi == pytest.approx(b.mi, abs=1e-12)
        assert a.dispersion == pytest.approx(b.dispersion, abs=1e-12)

    def test_interference_reduces_mi(self):
        pts = unit_qam(2)
        clean = estimate_mi_dispersion(pts, [], 1.5, 20_000, 5)
        jammed = estimate_mi_dispersion(pts, [2.0 * unit_qam(2)], 1.5, 20_000, 5)
        assert jammed.mi < clean.mi
        assert 0.0 <= jammed.mi <= 2.0 + 1e-9

    def test_dispersion_nonnegative_and_small_h(self):
        st = estimate_mi_dispersion(unit_qam(4), [], 1e-4, 5000, 6)
        assert st.dispersion >= 0.0
        assert st.dispersion <= 1e-4

    def test_extreme_amplitudes_stay_finite(self):
        st = estimate_mi_dispersion(1e3 * unit_qam(2), [1e3 * unit_qam(2)],
                                    1.0, 2000, 7)
        assert math.isfinite(st.mi) and math.isfinite(st.dispersion)

    def test_seed_determinism(self):
        a = estimate_mi_dispersion(unit_qam(2), [], 1.0, 3000, 11)
        b = estimate_mi_dispersion(unit_qam(2), [], 1.0, 3000, 11)
        assert a == b

    def test_result_independent_of_worker_count(self):
        # several batches (> _BATCH samples) so threading actually splits work
        serial = estimate_mi_dispersion(unit_qam(2), [], 1.0, 12_000, 13)
        pooled = estimate_mi_dispersion(unit_qam(2), [], 1.0, 12_000, 13,
                                        workers=4)
        assert serial == pooled

    def test_sample_floor(self):
        with pytest.raises(RateEngineError):
            estimate_mi_dispersion(unit_qam(2), [], 1.0, 100, 0)

    def test_tuple_cap(self):
        with pytest.raises(RateEngineError):
            estimate_mi_dispersion(unit_qam(8), [unit_qam(8)], 1.0, 2000, 0)

    def test_third_moment_diagnostic(self):
        st = estimate_mi_dispersion(unit_qam(2), [], 1.0, 3000, 8,
                                    third_moment=True)
        assert st.third_abs_moment is not None and st.third_abs_moment > 0
        diag = berry_esseen_diagnostic([100], [st], 100)
        assert math.isfinite(diag) and diag > 0


class TestSecondOrderCombiners:
    def stats(self, mi, v):
        return SubBlockRateStats(mi, v, 1000, 0.0, 0.0)

    def test_zero_dispersion(self):
        r = second_order_rate([50, 50], [self.stats(2.0, 0.0),
                                         self.stats(1.0, 0.0)], 1e-6, 100)
        assert r.rate == pytest.approx(1.5, abs=1e-12)

    def test_eps_half_gives_first_order(self):
        r = second_order_rate([100], [self.stats(2.0, 3.0)], 0.5, 100)
        assert r.rate == pytest.approx(2.0, abs=1e-12)

    def test_reduction_to_single_block(self):
        st = estimate_mi_dispersion(unit_qam(2), [unit_qam(2)], 1.7, 5000, 9)
        general = second_order_rate([128], [st], 1e-5, 128).rate
        closed = rate_single_block(st.mi, st.dispersion, 128, 1e-5)
        assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_reduction_two_segments(self):
        s1 = estimate_mi_dispersion(unit_qam(2), [unit_qam(2)], 1.7, 5000, 9)
        s2 = estimate_mi_dispersion(unit_qam(4), [], 1.2, 5000, 9)
        general = second_order_rate([128, 128], [s1, s2], 1e-4, 256).rate
        closed = rate_two_segment(128, s1, 128, s2, 1e-4, 256)
        assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))
        # equal-length degenerate case: second segment empty
        degenerate = rate_two_segment(128, s1, 0, s2, 1e-4, 128)
        single = rate_single_block(s1.mi, s1.dispersion, 128, 1e-4)
        assert abs(degenerate - single) <= 1e-9 * max(1.0, abs(single))

    def test_monotone_in_eps_and_blocklength(self):
        st = [self.stats(2.0, 1.5)]
        r1 = second_order_rate([100], st, 1e-6, 100).rate
        r2 = second_order_rate([100], st, 1e-3, 100).rate
        r3 = second_order_rate([400], st, 1e-6, 400).rate
        assert r1 < r2
        assert r1 < r3

    def test_negative_rate_flagged(self):
        r = second_order_rate([16], [self.stats(0.05, 4.0)], 1e-9, 16)
        assert r.rate < 0.0 and r.nonpositive

    def test_negative_dispersion_rejected(self):
        with pytest.raises(RateEngineError):
            combine_second_order([10], [1.0], [-0.1], 1e-3, 10)


class TestBenchmarks:
    def test_gaussian_zero_sinr(self):
        r = gaussian_benchmark([0.0], [128], 1e-6, 128)
        assert r.rate == 0.0

    def test_gaussian_closed_form_example(self):
        # independent oracle: closed form with the bisection-based inverse
        got = gaussian_benchmark([10.0], [128], 1e-6, 128).rate
        want = math.log2(11.0) - math.sqrt(
            2.0 * LOG2E ** 2 * (10.0 / 11.0) / 128.0) * bisect_qinv(1e-6)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(2.642, abs=5e-4)

    def test_gaussian_eps_half_is_capacity(self):
        r = gaussian_benchmark([10.0], [128], 0.5, 128)
        assert r.rate == pytest.approx(math.log2(11.0), abs=1e-12)

    def test_shell_vanishing_power(self):
        r = shell_benchmark(1e-9, 128, 1e-6)
        assert abs(r.rate) < 1e-4

    @pytest.mark.parametrize("p", [0.5, 2.0, 10.0, 100.0])
    def test_shell_beats_gaussian(self, p):
        rs = shell_benchmark(p, 128, 1e-6).rate
        rg = gaussian_benchmark([p], [128], 1e-6, 128).rate
        assert shell_stats(p)[1] <= gaussian_stats(p)[1]
        assert rs >= rg

    def test_shell_eps_half_is_capacity(self):
        r = shell_benchmark(10.0, 128, 0.5)
        assert r.rate == pytest.approx(math.log2(11.0), abs=1e-12)


class TestBroadcastBenchmarks:
    def spec_and_layout(self):
        from tinlink.scheme import SystemSpec, UserSpec, build_layout
        spec = SystemSpec.create(1.0, [UserSpec(64, 1e-6, 4.0),
                                       UserSpec(96, 1e-4, 1.5)])
        return spec, build_layout(spec)

    def test_sic_beats_tin_for_strong_user(self):
        from tinlink.rates import bc_gaussian_rates
        spec, layout = self.spec_and_layout()
        powers = {(0, 0): 0.4, (1, 0): 0.6, (1, 1): 1.0}
        sic = bc_gaussian_rates(spec, layout, powers, mode="sic")
        tin = bc_gaussian_rates(spec, layout, powers, mode="tin")
        assert sic[0].rate > tin[0].rate
        # the weak user cancels nobody in either mode
        assert sic[1].rate == pytest.approx(tin[1].rate, rel=1e-12)

    def test_shell_none_under_interference(self):
        from tinlink.rates import bc_shell_rates
        spec, layout = self.spec_and_layout()
        interfered = {(0, 0): 0.4, (1, 0): 0.6, (1, 1): 1.0}
        out = bc_shell_rates(spec, layout, interfered, mode="sic")
        assert out[0] is not None          # strong user is clean after SIC
        assert out[1] is None              # weak user sees interference
        clean = {(0, 0): 1.0, (1, 0): 0.0, (1, 1): 1.0}
        out2 = bc_shell_rates(spec, layout, clean, mode="sic")
        assert all(r is not None for r in out2)


class TestShortBlocklengthGap:
    def test_qam_tin_close_to_gaussian_sic_at_short_blocklength(self):
        # homogeneous 200-symbol frames: the discrete TIN design's sum rate
        # lands within 10% of the Gaussian perfect-SIC benchmark at the same
        # power split (the small-dispersion effect that makes TIN competitive)
        from tinlink.scheme import SystemSpec, UserSpec, assign_power
        from tinlink.rates import compute_plan_rates, gaussian_benchmark
        spec = SystemSpec.create(1.0, [
            UserSpec(200, 1e-6, math.sqrt(10 ** 2.4)),
            UserSpec(200, 1e-6, math.sqrt(10 ** 1.2))])
        plan = assign_power([[4], [4, 0]], spec)
        qam = compute_plan_rates(plan, n_noise_samples=5000, seed=606)
        p1 = plan.entries[(0, 0)].power
        p2 = plan.entries[(1, 0)].power
        g1 = p1 * abs(spec.users[0].h) ** 2
        g2 = p2 * abs(spec.users[1].h) ** 2 / (
            1.0 + p1 * abs(spec.users[1].h) ** 2)
        bench = (gaussian_benchmark([g1], [200], 1e-6, 200).rate
                 + gaussian_benchmark([g2], [200], 1e-6, 200).rate)
        assert sum(qam.rates) >= 0.9 * bench


class TestPlanRates:
    def test_three_user_plan_rates(self):
        from tinlink.scheme import SystemSpec, UserSpec, assign_power
        spec = SystemSpec.create(1.0, [UserSpec(24, 1e-6, 30.0),
                                       UserSpec(32, 1e-5, 20.0),
                                       UserSpec(48, 1e-4, 10.0)])
        plan = assign_power([[2], [2, 2], [2, 2, 2]], spec)
        from tinlink.rates import compute_plan_rates
        res = compute_plan_rates(plan, n_noise_samples=2000, seed=17)
        assert len(res.users) == 3
        for k, u in enumerate(res.users):
            assert len(u.stats) == k + 1
            assert math.isfinite(u.rate)
            for sb_idx, st in enumerate(u.stats):
                order = plan.orders[k][sb_idx]
                assert -1e-9 <= st.mi <= order + 1e-9
                assert st.dispersion >= 0.0

    def test_cache_shared_across_plans(self):
        from tinlink.scheme import SystemSpec, UserSpec, assign_power
        from tinlink.rates import compute_plan_rates
        spec = SystemSpec.create(1.0, [UserSpec(24, 1e-6, 9.0),
                                       UserSpec(32, 1e-4, 4.0)])
        cache = {}
        plan_a = assign_power([[2], [2, 2]], spec)
        plan_b = assign_power([[2], [2, 4]], spec)  # same first sub-block
        compute_plan_rates(plan_a, n_noise_samples=2000, seed=3,
                           stats_cache=cache)
        size_after_a = len(cache)
        compute_plan_rates(plan_b, n_noise_samples=2000, seed=3,
                           stats_cache=cache)
        # sub-block 0 stats are reused; only user 1's new tail is added
        assert len(cache) == size_after_a + 1
