"""Channel simulation, exact TIN LLRs, density checks, interleaver, dumps."""
import cmath
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from tinlink.linksim import (
    deinterleave,
    demap_frame,
    dump_frames,
    empirical_id_check,
    hard_bits,
    information_densities,
    interleave,
    load_frame_dump,
    random_interleaver,
    random_payloads,
    simulate_frame,
    tin_llr,
)
from tinlink.scheme import SystemSpec, UserSpec, assign_power, map_bits


def urllc_plan(n1=64, n2=96):
    spec = SystemSpec.create(1.0, [UserSpec(n1, 1e-6, math.sqrt(10 ** 1.8)),
                                   UserSpec(n2, 1e-4, math.sqrt(10 ** 0.5))])
    return assign_power([[2], [4, 4]], spec)


def active_payload_bits(payload, user, plan):
    keep = []
    pos = 0
    for sb in plan.layout.sub_blocks[:user + 1]:
        m = plan.entries[(user, sb.index)].order
        take = sb.length * m
        if sb.length > 0 and m > 0:
            keep.append(payload[pos:pos + take])
        pos += take
    return np.concatenate(keep)


class TestSimulateFrame:
    def test_zero_noise_hook(self):
        plan = urllc_plan()
        payloads = random_payloads(plan, 0)
        frame = simulate_frame(plan, payloads, 1, noise_scale=0.0)
        for k, user in enumerate(plan.spec.users):
            assert np.allclose(frame.y[k], user.h * frame.x[:user.N])

    def test_deterministic_given_seed(self):
        plan = urllc_plan()
        payloads = random_payloads(plan, 0)
        a = simulate_frame(plan, payloads, 7)
        b = simulate_frame(plan, payloads, 7)
        for k in a.y:
            assert np.array_equal(a.y[k], b.y[k])

    def test_high_snr_hard_detection_error_free(self):
        # single user, 4-QAM, 40 dB: minimum distance dwarfs the noise
        spec = SystemSpec.create(1.0, [UserSpec(10_000, 1e-6, 100.0)])
        plan = assign_power([[2]], spec)
        payloads = random_payloads(plan, 11)
        frame = simulate_frame(plan, payloads, 12)
        llr = demap_frame(frame, 0, plan)
        assert np.array_equal(hard_bits(llr), payloads[0])

    def test_empirical_frame_power(self):
        plan = urllc_plan(n1=32, n2=48)
        rng_seed = 100
        acc = 0.0
        count = 0
        for f in range(300):
            payloads = random_payloads(plan, rng_seed + f)
            frame = simulate_frame(plan, payloads, rng_seed + 1000 + f,
                                   noise_scale=0.0)
            acc += float(np.sum(np.abs(frame.x) ** 2))
            count += frame.x.size
        assert acc / count == pytest.approx(
            plan.spec.P, abs=3.0 / math.sqrt(count))


class TestTinLlr:
    def test_zero_noise_sign_recovers_bits_all_users(self):
        plan = urllc_plan()
        payloads = random_payloads(plan, 21)
        frame = simulate_frame(plan, payloads, 22, noise_scale=0.0)
        for k in range(plan.spec.K):
            llr = demap_frame(frame, k, plan)
            assert np.array_equal(hard_bits(llr),
                                  active_payload_bits(payloads[k], k, plan))

    def test_binary_closed_form_without_interference(self):
        spec = SystemSpec.create(1.0, [UserSpec(50, 1e-6, 1.3)])
        plan = assign_power([[1]], spec)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        llr = tin_llr(y, 0, 0, plan)
        pts = plan.spec.users[0].h * plan.entries[(0, 0)].tx_points
        direct = (np.abs(y - pts[1]) ** 2 - np.abs(y - pts[0]) ** 2)
        assert np.allclose(llr[:, 0], direct, atol=1e-9)

    def test_bit_marginals_consistent_with_symbol_posteriors(self):
        # brute-force 2-D reference: the complex channel applied to every
        # (desired point, interferer combination) tuple, marginalized per bit
        odd = SystemSpec.create(1.0, [
            UserSpec(40, 1e-6, 9.0 * cmath.exp(0.7j)),
            UserSpec(56, 1e-4, 4.0 * cmath.exp(-2.3j))])
        three = SystemSpec.create(1.0, [
            UserSpec(24, 1e-6, 30.0 * cmath.exp(1.9j)),
            UserSpec(32, 1e-5, 12.0 * cmath.exp(-0.4j)),
            UserSpec(48, 1e-4, 5.0 * cmath.exp(2.8j))])
        plans = [urllc_plan(), assign_power([[3], [2, 5]], odd),
                 assign_power([[2], [1, 3], [2, 3, 1]], three)]
        for n, plan in enumerate(plans):
            frame = simulate_frame(plan, random_payloads(plan, 4 + n), 40 + n)
            for user in range(plan.spec.K):
                h = plan.spec.users[user].h
                for sb in plan.layout.sub_blocks[:user + 1]:
                    desired, interferers = plan.sub_block_signals(user, sb.index)
                    combos = np.array([sum(c) for c in
                                       itertools.product(*interferers)] or [0j])
                    y = frame.y[user][sb.start:sb.stop]
                    metric = -np.abs(y[:, None, None] - h * (
                        desired[None, :, None] + combos[None, None, :])) ** 2
                    per_point = logsumexp(metric, axis=2)
                    m = plan.orders[user][sb.index]
                    for max_log in (False, True):
                        llr = tin_llr(y, user, sb.index, plan, max_log=max_log)
                        assert llr.shape == (y.size, m)
                        for b in range(m):
                            one = ((np.arange(desired.size) >> (m - 1 - b))
                                   & 1).astype(bool)
                            if max_log:
                                ref = (metric[:, ~one].max(axis=(1, 2))
                                       - metric[:, one].max(axis=(1, 2)))
                            else:
                                ref = (logsumexp(per_point[:, ~one], axis=1)
                                       - logsumexp(per_point[:, one], axis=1))
                            np.testing.assert_allclose(llr[:, b], ref,
                                                       rtol=0, atol=1e-9)
                    sent = np.argmin(np.abs(
                        frame.packets[user][sb.start:sb.stop, None]
                        - desired[None, :]), axis=1)
                    ref = m + (per_point[np.arange(y.size), sent]
                               - logsumexp(per_point, axis=1)) / math.log(2)
                    np.testing.assert_allclose(
                        information_densities(frame, user, sb.index, plan),
                        ref, rtol=0, atol=1e-9)

    def test_max_log_matches_exact_decisions_at_zero_noise(self):
        plan = urllc_plan()
        payloads = random_payloads(plan, 31)
        frame = simulate_frame(plan, payloads, 32, noise_scale=0.0)
        sb = plan.layout.sub_blocks[0]
        seg = frame.y[1][sb.start:sb.stop]
        exact = tin_llr(seg, 1, 0, plan)
        approx = tin_llr(seg, 1, 0, plan, max_log=True)
        assert np.array_equal(hard_bits(exact), hard_bits(approx))
        assert np.all(np.isfinite(approx))

    def test_detection_invariant_to_common_phase_rotation(self):
        # rotating the channel and the received samples together leaves the
        # likelihood metric unchanged
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 61)
        frame = simulate_frame(plan, payloads, 62)
        sb = plan.layout.sub_blocks[0]
        seg = frame.y[1][sb.start:sb.stop]
        h = plan.spec.users[1].h
        rot = complex(math.cos(0.9), math.sin(0.9))
        base = tin_llr(seg, 1, 0, plan, h=h)
        spun = tin_llr(seg * rot, 1, 0, plan, h=h * rot)
        assert np.allclose(base, spun, atol=1e-9)

    def test_uncoded_ber_decreases_with_snr(self):
        plan = urllc_plan(n1=64, n2=96)
        bers = []
        for offset_db in (0.0, 4.0):
            gain = 10 ** (offset_db / 20.0)
            spec2 = SystemSpec.create(1.0, [
                UserSpec(u.N, u.eps, u.h * gain) for u in plan.spec.users])
            plan2 = assign_power(plan.orders, spec2, check=False)
            errs = 0
            bits = 0
            for f in range(40):
                payloads = random_payloads(plan2, 500 + f)
                frame = simulate_frame(plan2, payloads, 900 + f)
                llr = demap_frame(frame, 1, plan2)
                sent = active_payload_bits(payloads[1], 1, plan2)
                errs += int(np.count_nonzero(hard_bits(llr) != sent))
                bits += sent.size
            bers.append(errs / bits)
        assert bers[1] < bers[0]


class TestInformationDensities:
    def test_matches_rate_engine_within_4_sigma(self):
        # full design-point blocklengths; ~1e5 sampled symbols for user 2
        plan = urllc_plan(n1=128, n2=256)
        rows = empirical_id_check(plan, 1, n_frames=391, seed=77)
        assert len(rows) == 2
        assert sum(r.n_samples for r in rows) >= 100_000
        for row in rows:
            assert row.ok, (row.mi_sigma, row.dispersion_sigma)

    def test_strong_user_also_consistent(self):
        plan = urllc_plan(n1=64, n2=96)
        rows = empirical_id_check(plan, 0, n_frames=120, seed=78)
        assert len(rows) == 1 and rows[0].ok

    def test_zero_channel_densities_vanish(self):
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 5)
        frame = simulate_frame(plan, payloads, 6)
        dens = information_densities(frame, 1, 0, plan, h=0.0)
        assert np.allclose(dens, 0.0, atol=1e-9)

    def test_sample_mean_unbiased_against_paired_seed(self):
        # same noise seed twice: density sampling is reproducible
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 8)
        f1 = simulate_frame(plan, payloads, 9)
        f2 = simulate_frame(plan, payloads, 9)
        d1 = information_densities(f1, 0, 0, plan)
        d2 = information_densities(f2, 0, 0, plan)
        assert np.array_equal(d1, d2)


class TestInterleaverAndDump:
    def test_interleaver_roundtrip(self):
        bits = np.random.default_rng(0).integers(0, 2, size=257)
        perm = random_interleaver(bits.size, seed=13)
        assert np.array_equal(deinterleave(interleave(bits, perm), perm), bits)
        assert sorted(perm.tolist()) == list(range(bits.size))

    def test_frame_dump_roundtrip(self, tmp_path):
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 41)
        frame = simulate_frame(plan, payloads, 42)
        llr = demap_frame(frame, 1, plan)
        records = [(payloads[1], frame.symbols[1], frame.y[1], llr)]
        path = tmp_path / "frames.bin"
        dump_frames(path, records)
        back = load_frame_dump(path)
        assert len(back) == 1
        bits, sym, y, ll = back[0]
        assert np.array_equal(bits, payloads[1])
        assert np.allclose(sym, frame.symbols[1])
        assert np.allclose(y, frame.y[1])
        assert np.allclose(ll, llr)
