"""Rate engine: Q function, estimator vs quadrature oracle, combiners, benchmarks."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc, ndtri

from tinlink import rates
from tinlink.constellations import (
    build_gray_qam,
    grid_energy,
    normalization_factor,
    scale,
)
from tinlink.rates import (
    LOG2E,
    RateEngineError,
    bc_gaussian_rates,
    bc_shell_rates,
    berry_esseen_diagnostic,
    combine_second_order,
    compute_plan_rates,
    estimate_mi_dispersion,
    gaussian_stats,
    qfunc,
    qfunc_inv,
    quadrature_mi_dispersion,
    shell_stats,
)
from tinlink.scheme import (
    SystemSpec,
    UserSpec,
    assign_power,
    build_layout,
    check_modulation_constraints,
)

from oracles import (
    bc_rates_reference,
    bits,
    gaussian_stats_reference,
    log2_reference,
    quadrature_mi,
    rate_single_block,
    rate_two_segment,
    scalar_second_order,
    shell_stats_reference,
    tin_loglik_general_reference,
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

    def test_inverse_matches_ndtri(self):
        # SciPy is a test-side oracle only; Q^{-1} comes from the standard
        # library's NormalDist (AS241)
        for p in np.geomspace(1e-15, 0.5, 400):
            ref = -float(ndtri(p))
            assert abs(qfunc_inv(float(p)) - ref) <= 8 * math.ulp(ref)

    def test_matches_scipy_erfc(self):
        # SciPy's erfc drifts from the correctly rounded value in the tail
        # (5.7e-14 relative at x = 37 against a 40-digit mpmath erfc, where
        # math.erfc stays within 3e-16), so compare on the body only
        for x in np.linspace(-10.0, 37.0, 941).tolist():
            if x <= 2.5:
                ref = 0.5 * float(erfc(x / math.sqrt(2.0)))
                assert abs(qfunc(x) - ref) <= 1e-15 * ref

    def test_against_bisection_oracle(self):
        x = qfunc_inv(1e-6)
        assert abs(x - bisect_qinv(1e-6)) <= 1e-9
        assert x == pytest.approx(4.7534, abs=5e-5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.6, 1.0])
    def test_domain(self, p):
        with pytest.raises(RateEngineError):
            qfunc_inv(p)


def oracle_mi(points, h):
    """Interference-free mutual information from the 2-D oracle."""
    return quadrature_mi_dispersion(points, [], h).mi


class TestQuadratureOracle:
    def test_zero_channel(self):
        st = quadrature_mi_dispersion(unit_qam(2), [unit_qam(2)], 0.0)
        assert st.mi == pytest.approx(0.0, abs=1e-12)
        assert st.dispersion <= 1e-12 and st.third_abs_moment <= 1e-12
        assert (st.sample_count, st.std_err_mi, st.std_err_dispersion) == (
            0, 0.0, 0.0)

    def test_bpsk_high_snr(self):
        pts = unit_qam(1)
        assert oracle_mi(pts, 40.0) == pytest.approx(1.0, abs=1e-6)

    def test_16qam_10db_regression_anchor(self):
        # frozen from a node-count convergence study (64 vs 128 nodes agree
        # to ~1e-8 bits)
        pts = unit_qam(4)
        assert oracle_mi(pts, math.sqrt(10.0)) == pytest.approx(
            3.1639432, abs=1e-6)

    def test_point_cap(self):
        with pytest.raises(RateEngineError):
            quadrature_mi_dispersion(np.zeros(300, dtype=complex), [], 1.0)

    def test_tuple_cap(self):
        # the cap is on desired x interferer tuples: 256 pass, 1024 do not
        for interferers in ([unit_qam(6)], [unit_qam(4), unit_qam(2)]):
            with pytest.raises(RateEngineError, match="256"):
                quadrature_mi_dispersion(unit_qam(4), interferers, 1.0)
        rates._DensityContext(unit_qam(4), [unit_qam(4)], 1.0,
                              rates.QUADRATURE_TUPLES)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_interference_free_loop(self, m):
        # the two sum the same terms in another order; 32 nodes keep the
        # 64-QAM case cheap (at the default 64 the gap is also <= 1e-15)
        pts = unit_qam(m)
        for snr_db in (0.0, 6.0, 12.0):
            h = math.sqrt(10 ** (snr_db / 10.0))
            got = quadrature_mi_dispersion(pts, [], h, 32).mi
            assert abs(got - quadrature_mi(pts, h, 32)) <= 1e-14

    def test_zero_interferer_equals_no_interferer(self):
        a = quadrature_mi_dispersion(unit_qam(2), [], 2.0)
        b = quadrature_mi_dispersion(unit_qam(2), [np.zeros(1)], 2.0)
        assert np.allclose([a.mi, a.dispersion, a.third_abs_moment],
                           [b.mi, b.dispersion, b.third_abs_moment],
                           rtol=0.0, atol=1e-14)

    def test_third_moment_feeds_berry_esseen(self):
        st = quadrature_mi_dispersion(unit_qam(2), [unit_qam(2)], 1.7)
        assert st.third_abs_moment > 0
        # Lyapunov: E|X|^3 >= (E X^2)^(3/2)
        assert st.third_abs_moment >= st.dispersion ** 1.5
        diag = berry_esseen_diagnostic([100], [st], 100)
        assert math.isfinite(diag) and diag > 0


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
        oracle = oracle_mi(pts, h)
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

    def test_sample_floor(self):
        with pytest.raises(RateEngineError):
            estimate_mi_dispersion(unit_qam(2), [], 1.0, 100, 0)

    def test_tuple_cap(self):
        with pytest.raises(RateEngineError):
            estimate_mi_dispersion(unit_qam(8), [unit_qam(8)], 1.0, 2000, 0)

    def test_third_moment_diagnostic(self):
        # the estimator carries no third moment, so the diagnostic refuses
        # its stats and takes the quadrature oracle's third moment instead
        st = estimate_mi_dispersion(unit_qam(2), [], 1.0, 3000, 8)
        assert st.third_abs_moment is None
        with pytest.raises(RateEngineError):
            berry_esseen_diagnostic([100], [st], 100)
        quad = quadrature_mi_dispersion(unit_qam(2), [], 1.0)
        assert quad.third_abs_moment > 0
        diag = berry_esseen_diagnostic([100], [quad], 100)
        assert math.isfinite(diag) and diag > 0


class TestSecondOrderCombiners:
    def test_zero_dispersion(self):
        r = combine_second_order([50, 50], [2.0, 1.0], [0.0, 0.0], 1e-6, 100)
        assert r == pytest.approx(1.5, abs=1e-12)

    def test_eps_half_gives_first_order(self):
        r = combine_second_order([100], [2.0], [3.0], 0.5, 100)
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_reduction_to_single_block(self):
        st = estimate_mi_dispersion(unit_qam(2), [unit_qam(2)], 1.7, 5000, 9)
        general = combine_second_order([128], [st.mi], [st.dispersion], 1e-5,
                                       128)
        closed = rate_single_block(st.mi, st.dispersion, 128, 1e-5)
        assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_reduction_two_segments(self):
        s1 = estimate_mi_dispersion(unit_qam(2), [unit_qam(2)], 1.7, 5000, 9)
        s2 = estimate_mi_dispersion(unit_qam(4), [], 1.2, 5000, 9)
        general = combine_second_order(
            [128, 128], [s1.mi, s2.mi], [s1.dispersion, s2.dispersion], 1e-4,
            256)
        closed = rate_two_segment(128, s1, 128, s2, 1e-4, 256)
        assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))
        # equal-length degenerate case: second segment empty
        degenerate = rate_two_segment(128, s1, 0, s2, 1e-4, 128)
        single = rate_single_block(s1.mi, s1.dispersion, 128, 1e-4)
        assert abs(degenerate - single) <= 1e-9 * max(1.0, abs(single))

    def test_monotone_in_eps_and_blocklength(self):
        r1 = combine_second_order([100], [2.0], [1.5], 1e-6, 100)
        r2 = combine_second_order([100], [2.0], [1.5], 1e-3, 100)
        r3 = combine_second_order([400], [2.0], [1.5], 1e-6, 400)
        assert r1 < r2
        assert r1 < r3

    def test_negative_rate_flagged(self):
        assert combine_second_order([16], [0.05], [4.0], 1e-9, 16) < 0.0

    def test_negative_dispersion_rejected(self):
        with pytest.raises(RateEngineError):
            combine_second_order([10], [1.0], [-0.1], 1e-3, 10)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_rows_match_scalar_combiner(self, data):
        """Each row of a batch equals the one-user `@` combiner at 0 ulp,
        zero-length sub-blocks included."""
        j = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 30))
        lengths = data.draw(st.lists(st.integers(0, 3000), min_size=j,
                                     max_size=j))
        row = st.lists(st.floats(0.0, 16.0), min_size=j, max_size=j)
        mis = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        vs = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        eps = data.draw(st.floats(1e-9, 0.5))
        n_total = max(1, sum(lengths))
        batch = combine_second_order(lengths, mis, vs, eps, n_total)
        assert batch.shape == (n,)
        for i in range(n):
            ref = scalar_second_order(lengths, mis[i], vs[i], eps, n_total)
            assert bits(batch[i]) == bits(ref)


class TestBenchmarks:
    def test_gaussian_zero_sinr(self):
        mi, v = gaussian_stats(0.0)
        r = combine_second_order([128], [mi], [v], 1e-6, 128)
        assert r == 0.0

    def test_gaussian_closed_form_example(self):
        # independent oracle: closed form with the bisection-based inverse
        mi, v = gaussian_stats(10.0)
        got = combine_second_order([128], [mi], [v], 1e-6, 128)
        want = math.log2(11.0) - math.sqrt(
            2.0 * LOG2E ** 2 * (10.0 / 11.0) / 128.0) * bisect_qinv(1e-6)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(2.642, abs=5e-4)

    def test_gaussian_eps_half_is_capacity(self):
        mi, v = gaussian_stats(10.0)
        r = combine_second_order([128], [mi], [v], 0.5, 128)
        assert r == pytest.approx(math.log2(11.0), abs=1e-12)

    def test_shell_vanishing_power(self):
        mi, v = shell_stats(1e-9)
        r = combine_second_order([128], [mi], [v], 1e-6, 128)
        assert abs(r) < 1e-4

    @pytest.mark.parametrize("p", [0.5, 2.0, 10.0, 100.0])
    def test_shell_beats_gaussian(self, p):
        (mi_s, v_s), (mi_g, v_g) = shell_stats(p), gaussian_stats(p)
        rs = combine_second_order([128], [mi_s], [v_s], 1e-6, 128)
        rg = combine_second_order([128], [mi_g], [v_g], 1e-6, 128)
        assert v_s <= v_g
        assert rs >= rg

    def test_shell_eps_half_is_capacity(self):
        mi, v = shell_stats(10.0)
        r = combine_second_order([128], [mi], [v], 0.5, 128)
        assert r == pytest.approx(math.log2(11.0), abs=1e-12)

    @pytest.mark.parametrize("stats, reference", [
        (gaussian_stats, gaussian_stats_reference),
        (shell_stats, shell_stats_reference)])
    def test_array_stats_match_scalar_formulas(self, stats, reference):
        """Element for element at 0 ulp: np.log2 and numpy's ** 2 differ
        from the scalar math.log2 and float ** in the last bit on 4 and 11
        of these 10,002 inputs."""
        x = np.concatenate([[0.0], np.logspace(-6, 6, 5001),
                            np.random.default_rng(5).uniform(0, 100, 5000)])
        mi, v = stats(x)
        ref = [reference(float(t)) for t in x]
        assert bits(mi) == bits([r[0] for r in ref])
        assert bits(v) == bits([r[1] for r in ref])
        assert bits(stats(x[7])) == bits(reference(float(x[7])))


    # positive floats with subnormals, infinities and NaN, repeated so that
    # arrays run large with few distinct values; a zero makes math.log2 raise
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(
               st.floats(min_value=5e-324), st.floats(1.0, 1e3),
               st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308,
                                1.0, math.inf, math.nan])),
               min_size=1, max_size=40),
           zero=st.sampled_from([None, 0.0, -0.0]),
           repeats=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_log2_matches_per_element_math_log2(self, values, zero, repeats,
                                                seed):
        rng = np.random.default_rng(seed)
        # typical rates inputs, where np.log2 is off in the last bit on
        # about 0.3% of values in [1, 2)
        values += rng.uniform(1.0, 2.0, 200).tolist()
        if zero is not None:
            values.append(zero)
        x = rng.permutation(np.repeat(values, repeats))
        if zero is not None:
            with pytest.raises(ValueError):
                log2_reference(x)
            with pytest.raises(ValueError):
                rates._log2(x)
            return
        assert bits(rates._log2(x)) == bits(log2_reference(x))
        grid = x[:len(x) - len(x) % 2].reshape(2, -1)
        assert rates._log2(grid).shape == grid.shape
        assert bits(rates._log2(grid)) == bits(log2_reference(grid))
        assert rates._log2(x[0]).shape == ()
        assert bits(rates._log2(x[0])) == bits(log2_reference(x[0]))


class TestBroadcastBenchmarks:
    def spec_and_layout(self):
        from tinlink.scheme import SystemSpec, UserSpec, build_layout
        spec = SystemSpec.create(1.0, [UserSpec(64, 1e-6, 4.0),
                                       UserSpec(96, 1e-4, 1.5)])
        return spec, build_layout(spec)

    def test_sic_beats_tin_for_strong_user(self):
        spec, layout = self.spec_and_layout()
        powers = {(0, 0): 0.4, (1, 0): 0.6, (1, 1): 1.0}
        sic = bc_gaussian_rates(spec, layout, powers, mode="sic")
        tin = bc_gaussian_rates(spec, layout, powers, mode="tin")
        assert sic[0] > tin[0]
        # the weak user cancels nobody in either mode
        assert sic[1] == pytest.approx(tin[1], rel=1e-12)

    def test_shell_none_under_interference(self):
        spec, layout = self.spec_and_layout()
        interfered = {(0, 0): 0.4, (1, 0): 0.6, (1, 1): 1.0}
        out = bc_shell_rates(spec, layout, interfered, mode="sic")
        assert not np.isnan(out[0])        # strong user is clean after SIC
        assert np.isnan(out[1])            # weak user sees interference
        clean = {(0, 0): 1.0, (1, 0): 0.0, (1, 1): 1.0}
        out2 = bc_shell_rates(spec, layout, clean, mode="sic")
        assert not np.isnan(out2).any()

    def test_both_modes_share_links_interfered_alike(self, monkeypatch):
        # the weak user's two links see the strong user under either mode,
        # so only the strong user's sub-block-1 link is taken twice
        spec, layout = self.spec_and_layout()
        powers = {(0, 0): np.array([0.4, 0.1]), (1, 0): np.array([0.6, 0.9]),
                  (1, 1): 1.0}
        calls = []
        stats = rates.gaussian_stats
        monkeypatch.setattr(rates, "gaussian_stats",
                            lambda s: calls.append(s) or stats(s))
        bc_gaussian_rates(spec, layout, powers, ("sic", "tin"))
        assert len(calls) == 4
        assert bc_gaussian_rates(spec, layout, powers, "sic").shape == (2, 2)
        assert len(calls) == 7
        with pytest.raises(RateEngineError, match="unknown benchmark mode"):
            bc_gaussian_rates(spec, layout, powers, ("sic", "joint"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_array_matches_per_split_loop(self, data):
        """Every split of one array call equals the per-split loop at 0 ulp
        in both modes, and the shell NaNs fall where the loop gave None."""
        k = data.draw(st.integers(1, 3))
        # equal blocklengths leave empty sub-blocks; few magnitudes make
        # |h| ties (the SIC rule cancels only strictly weaker users)
        lengths = sorted(data.draw(st.lists(st.sampled_from([8, 16, 24]),
                                            min_size=k, max_size=k)))
        mag = st.one_of(st.sampled_from([0.5, 2.0, 7.5]), st.floats(0.1, 20.0))
        users = tuple(
            UserSpec(n, data.draw(st.floats(1e-8, 0.4)),
                     data.draw(mag) * cmath.exp(1j * data.draw(
                         st.floats(0.0, 6.0))))
            for n in lengths)
        # built directly: SystemSpec.create rejects tied magnitudes
        spec = SystemSpec(P=1.0, users=users, order_map=tuple(range(k)))
        layout = build_layout(spec)
        n_splits = data.draw(st.integers(1, 12))
        power = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
        powers = {
            (u, sb.index): np.array(data.draw(st.lists(
                power, min_size=n_splits, max_size=n_splits)))
            for sb in layout.sub_blocks for u in sb.participants
            if data.draw(st.booleans())}
        for mode in ("sic", "tin"):
            gauss = np.broadcast_to(
                bc_gaussian_rates(spec, layout, powers, mode), (n_splits, k))
            shell = np.broadcast_to(
                bc_shell_rates(spec, layout, powers, mode), (n_splits, k))
            for s in range(n_splits):
                split = {key: float(col[s]) for key, col in powers.items()}
                ref = bc_rates_reference(spec, layout, split, mode)
                assert bits(gauss[s]) == bits(ref)
                ref = bc_rates_reference(spec, layout, split, mode, shell=True)
                assert np.isnan(shell[s]).tolist() == [r is None for r in ref]
                assert bits(shell[s][~np.isnan(shell[s])]) == bits(
                    [r for r in ref if r is not None])
        # both modes in one call give each mode's own call bit for bit
        for rates_of in (bc_gaussian_rates, bc_shell_rates):
            both = rates_of(spec, layout, powers, ("sic", "tin"))
            assert [bits(r) for r in both] == [
                bits(rates_of(spec, layout, powers, mode))
                for mode in ("sic", "tin")]


class TestShortBlocklengthGap:
    def test_qam_tin_close_to_gaussian_sic_at_short_blocklength(self):
        # homogeneous 200-symbol frames: the discrete TIN design's sum rate
        # lands within 10% of the Gaussian perfect-SIC benchmark at the same
        # power split (the small-dispersion effect that makes TIN competitive)
        from tinlink.scheme import SystemSpec, UserSpec, assign_power
        from tinlink.rates import compute_plan_rates
        spec = SystemSpec.create(1.0, [
            UserSpec(200, 1e-6, math.sqrt(10 ** 2.4)),
            UserSpec(200, 1e-6, math.sqrt(10 ** 1.2))])
        plan = assign_power([[4], [4, 0]], spec)
        qam = compute_plan_rates(plan)
        p1 = plan.entries[(0, 0)].power
        p2 = plan.entries[(1, 0)].power
        g1 = p1 * abs(spec.users[0].h) ** 2
        g2 = p2 * abs(spec.users[1].h) ** 2 / (
            1.0 + p1 * abs(spec.users[1].h) ** 2)
        (mi1, v1), (mi2, v2) = gaussian_stats(g1), gaussian_stats(g2)
        bench = (combine_second_order([200], [mi1], [v1], 1e-6, 200)
                 + combine_second_order([200], [mi2], [v2], 1e-6, 200))
        assert sum(qam.rates) >= 0.9 * bench


class TestPlanRates:
    def test_three_user_plan_rates(self):
        from tinlink.scheme import SystemSpec, UserSpec, assign_power
        spec = SystemSpec.create(1.0, [UserSpec(24, 1e-6, 30.0),
                                       UserSpec(32, 1e-5, 20.0),
                                       UserSpec(48, 1e-4, 10.0)])
        plan = assign_power([[2], [2, 2], [2, 2, 2]], spec)
        from tinlink.rates import compute_plan_rates
        res = compute_plan_rates(plan)
        assert len(res.rates) == 3
        assert res.mi.shape == res.dispersion.shape == (3, 3)
        for k, rate in enumerate(res.rates):
            assert math.isfinite(rate)
            # sub-blocks after the user's own hold none of its symbols
            assert not res.mi[k, k + 1:].any()
            assert not res.dispersion[k, k + 1:].any()
            for sb_idx in range(k + 1):
                order = plan.orders[k][sb_idx]
                assert -1e-9 <= res.mi[k, sb_idx] <= order + 1e-9
                assert res.dispersion[k, sb_idx] >= 0.0


def random_plan(rng, k):
    """Random feasible k-user plan with orders 0..3, every sub-block active
    and at most 6 bits per sub-block (64 tuples keep the oracle quick).

    The power is the lowest on a 0.5 dB grid at which the orders fit, and
    every bit budget in use has at most one bit of slack, as at the orders a
    design search picks.  Far above its budget a density has rare-event
    tails that a few thousand noise samples miss, so the Monte Carlo oracle
    and its standard error both read low there: 8-QAM with five bits of
    slack gives V = 8e-6 +- 8e-6 from 4000 samples against 9.6e-4 from the
    kernel and from a 400k-point trapezoid rule.
    """
    while True:
        lengths = np.sort(rng.choice(np.arange(8, 64), size=k, replace=False))
        mags = 10 ** rng.uniform(0.1, 1.3, size=k)
        if np.unique(np.round(mags, 9)).size < k:
            continue
        users = [UserSpec(int(n), float(rng.uniform(1e-7, 0.49)),
                          float(g) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                 for n, g in zip(lengths, mags)]
        orders = [[int(rng.integers(0, 4)) for _ in range(i + 1)]
                  for i in range(k)]
        loads = [sum(orders[u][j] for u in range(j, k)) for j in range(k)]
        if min(loads) == 0 or max(loads) > 6:
            continue
        for p_db in np.arange(-40.0, 40.0, 0.5) + rng.uniform(0, 0.5):
            spec = SystemSpec.create(10 ** (p_db / 10), users)
            report = check_modulation_constraints(orders, spec)
            if report.feasible:
                break
        if report.feasible and all(r.slack <= 1 for r in report.rows
                                   if r.kind == "order_sum" and r.lhs > 0):
            return assign_power(orders, spec)


def boundary_plan(margin):
    """Three 16-QAM users in one sub-block; the strongest sees the unit grid
    spacing times `margin` (margin 1 is the edge of feasibility)."""
    h0 = margin * math.sqrt(grid_energy(6, 6))
    spec = SystemSpec.create(1.0, [UserSpec(16, 1e-5, h0),
                                   UserSpec(24, 1e-5, h0 / 2),
                                   UserSpec(32, 1e-5, h0 / 4)])
    return assign_power([[4], [4, 4], [4, 4, 4]], spec)


def urllc_design_point():
    spec = SystemSpec.create(1.0, [UserSpec(128, 1e-6, math.sqrt(10 ** 1.8)),
                                   UserSpec(256, 1e-4, math.sqrt(10 ** 0.5))])
    return assign_power([[2], [4, 4]], spec)


def plan_stats(plan):
    """(I, V) of every (user, sub-block), user-major."""
    res = compute_plan_rates(plan)
    return np.array([[res.mi[k, j], res.dispersion[k, j]]
                     for k in range(plan.spec.K) for j in range(k + 1)])


class TestQuadratureKernel:
    def test_matches_estimator_on_random_plans(self):
        rng = np.random.default_rng(2024)
        plans = [random_plan(rng, 1 + i % 3) for i in range(21)]
        assert any(m % 2 for p in plans for row in p.orders for m in row)
        worst = 0.0
        for seed, plan in enumerate(plans):
            exact = compute_plan_rates(plan)
            for k, user in enumerate(plan.spec.users):
                for j in range(k + 1):
                    if plan.orders[k][j] == 0:
                        continue
                    got_mi, got_v = exact.mi[k, j], exact.dispersion[k, j]
                    desired, interferers = plan.sub_block_signals(k, j)
                    mc = estimate_mi_dispersion(desired, interferers, user.h,
                                                4000, seed)
                    # sigma: the sampled standard error, floored at the
                    # quadrature residual
                    worst = max(
                        worst,
                        abs(got_mi - mc.mi) / math.hypot(mc.std_err_mi, 1e-6),
                        abs(got_v - mc.dispersion)
                        / math.hypot(mc.std_err_dispersion, 1e-6))
        assert worst <= 4.0

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_interference_free_matches_quadrature_oracle(self, m):
        for snr_db in (0.0, 6.0, 12.0):
            h = math.sqrt(10 ** (snr_db / 10.0))
            plan = assign_power([[m]], SystemSpec.create(
                1.0, [UserSpec(64, 1e-5, h)]), check=False)
            got = compute_plan_rates(plan).mi[0, 0]
            oracle = oracle_mi(plan.entries[(0, 0)].tx_points, h)
            assert got == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("orders, gains", [
        ([[4]], (3.0,)),
        ([[2], [2, 2]], (10.0, 2.5)),
        ([[2], [1, 2], [1, 1, 2]], (12.0, 6.0, 3.0)),
    ], ids=["K1", "K2", "K3"])
    def test_equals_2d_oracle_at_gh_nodes(self, orders, gains):
        # on a real channel the 2-D product rule integrates the density's I
        # and Q parts exactly as the per-dimension rules do, so at the same
        # node count only rounding separates the I/Q factorisation from the
        # enumerated 2-D tuples
        spec = SystemSpec.create(1.0, [UserSpec(16 * (i + 1), 1e-5, g)
                                       for i, g in enumerate(gains)])
        plan = assign_power(orders, spec)
        got = compute_plan_rates(plan)
        for k in range(plan.spec.K):
            for j in range(k + 1):
                want = quadrature_mi_dispersion(
                    *plan.sub_block_signals(k, j), plan.spec.users[k].h,
                    rates.GH_NODES)
                assert abs(got.mi[k, j] - want.mi) <= 1e-12
                assert abs(got.dispersion[k, j] - want.dispersion) <= 1e-12

    # at 1.1x the feasibility edge, 64 nodes were 6e-5 off in V
    @pytest.mark.parametrize("plan", [urllc_design_point,
                                      lambda: boundary_plan(1.1),
                                      lambda: boundary_plan(3.0)],
                             ids=["design_point", "margin_1.1", "margin_3"])
    def test_node_count_converged(self, monkeypatch, plan):
        plan = plan()
        base = plan_stats(plan)
        monkeypatch.setattr(rates, "GH_NODES", 2 * rates.GH_NODES)
        assert np.max(np.abs(plan_stats(plan) - base)) <= 1e-5


# grids with one interferer sum: no co-scheduled user, a silent one, and
# one with no bits in the dimension
ONE_SUM_GRIDS = [
    rates.receive_grid(2.5, (1, 1.0), []),
    rates.receive_grid(4.0, (3, 0.8), [(0, 1.3)]),
    rates.receive_grid(12.6, (5, 0.2), [(0, 0.4), (0, 0.1)]),
]


def one_sum_coords(grid, rng):
    """Noisy coordinates around a grid, then every grid point exactly, so
    that some squared distances are exactly 0."""
    noisy = grid[rng.integers(0, grid.shape[0], 300), 0] + rng.normal(
        0.0, 2.0, 300)
    return np.concatenate([noisy, grid[:, 0]])


class TestOneSumKernel:
    # the ids name the exact likelihood, the kernel's one path
    @pytest.mark.parametrize("budget", [None, 5],
                             ids=["exact-whole", "exact-chunked"])
    def test_matches_general_body(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(rates, "_ELEM_BUDGET", budget)
        rng = np.random.default_rng(22)
        for grid in ONE_SUM_GRIDS:
            assert grid.shape[1] == 1
            y = one_sum_coords(grid, rng)
            got = rates.tin_loglik(y, grid)
            want = tin_loglik_general_reference(y, grid)
            assert got.shape == want.shape == (y.size, grid.shape[0])
            assert bits(got) == bits(want)

    def test_zero_distance_keeps_the_sign_of_zero(self):
        grid = ONE_SUM_GRIDS[1]
        y = grid[:, 0]
        exact = np.diagonal(rates.tin_loglik(y, grid))
        assert bits(exact) == bits(np.zeros(y.size))
        assert bits(np.diagonal(tin_loglik_general_reference(
            y, grid))) == bits(exact)

    def test_dimension_stats_match_general_body(self, monkeypatch):
        got = [rates.dimension_stats(grid) for grid in ONE_SUM_GRIDS]
        monkeypatch.setattr(rates, "tin_loglik", tin_loglik_general_reference)
        want = [rates.dimension_stats(grid) for grid in ONE_SUM_GRIDS]
        assert bits(got) == bits(want)


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 3),
           phases=st.lists(st.floats(-math.pi, math.pi), min_size=3,
                           max_size=3))
    def test_rates_invariant_to_channel_phase(self, k, phases):
        gains = (12.0, 6.0, 3.0)[:k]
        orders = [[2], [2, 2], [2, 2, 2]][:k]
        base = compute_plan_rates(assign_power(orders, SystemSpec.create(
            1.0, [UserSpec(16 * (i + 1), 1e-5, g)
                  for i, g in enumerate(gains)]))).rates
        spun = compute_plan_rates(assign_power(orders, SystemSpec.create(
            1.0, [UserSpec(16 * (i + 1), 1e-5, g * cmath.exp(1j * phi))
                  for i, (g, phi) in enumerate(zip(gains, phases))]))).rates
        assert spun == pytest.approx(base, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(perm=st.permutations(range(3)))
    def test_rates_invariant_to_user_order(self, perm):
        users = [UserSpec(16, 1e-6, 12.0 * cmath.exp(0.3j)),
                 UserSpec(24, 1e-5, 6.0 * cmath.exp(-1.1j)),
                 UserSpec(40, 1e-4, 3.0 * cmath.exp(2.6j))]
        orders = [[2], [1, 3], [2, 2, 1]]
        base = compute_plan_rates(assign_power(
            orders, SystemSpec.create(1.0, users))).rates
        spec = SystemSpec.create(1.0, [users[i] for i in perm])
        got = compute_plan_rates(assign_power(orders, spec)).rates
        for position, original in enumerate(perm):
            assert got[spec.order_map[position]] == pytest.approx(
                base[original], rel=1e-12)
