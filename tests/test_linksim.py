"""Channel simulation, exact TIN LLRs and density checks."""
import cmath
import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp

from tinlink import cli, linksim, rates
from tinlink.linksim import (
    SimulationError,
    demap_frame,
    empirical_id_check,
    hard_bits,
    information_densities,
    random_payloads,
    simulate_frame,
    tin_llr,
)
from tinlink.rates import receive_grids, sub_block_stats_table
from tinlink.scheme import (
    SystemSpec,
    UserSpec,
    assign_power,
    build_frame,
    build_layout,
    check_modulation_constraints,
    map_bits,
)

from oracles import (
    active_bits_reference as active_payload_bits,
    bit_halves_reference,
    bits,
    frame_seeds_reference,
    information_densities_reference,
    plan_parts,
    simulate_rows_reference,
    sub_block_stats_per_key,
    sub_block_stats_reference,
    tin_llr_reduced_reference,
    tin_llr_reference,
    tin_loglik_general_reference,
    write_csv_reference,
)


def urllc_plan(n1=64, n2=96):
    spec = SystemSpec.create(1.0, [UserSpec(n1, 1e-6, math.sqrt(10 ** 1.8)),
                                   UserSpec(n2, 1e-4, math.sqrt(10 ** 0.5))])
    return assign_power([[2], [4, 4]], spec)


@st.composite
def feasible_plans(draw):
    """Feasible K = 1-3 plans with complex channels and orders 0-3."""
    k = draw(st.integers(1, 3))
    lengths = sorted(draw(st.lists(st.integers(1, 24), min_size=k,
                                   max_size=k)))
    gains = draw(st.lists(st.integers(3, 40), min_size=k, max_size=k,
                          unique=True))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=k,
                           max_size=k))
    spec = SystemSpec.create(
        draw(st.floats(1.0, 10.0)),
        [UserSpec(n, draw(st.floats(1e-7, 0.4)), g * cmath.exp(1j * a))
         for n, g, a in zip(lengths, gains, phases)])
    # an empty sub-block takes order 0 after its draw
    orders = [[m * (sb.length > 0) for m, sb in zip(
        draw(st.lists(st.integers(0, 3), min_size=i + 1, max_size=i + 1)),
        build_layout(spec).sub_blocks)] for i in range(k)]
    assume(any(m for row in orders for m in row))
    assume(check_modulation_constraints(orders, spec).feasible)
    return assign_power(orders, spec)


def thirteen_bit_plan(phase):
    """One user with the 2^13-point order: 128 I levels by 64 Q levels."""
    spec = SystemSpec.create(1e9, [UserSpec(16, 1e-5, cmath.exp(1j * phase))])
    return assign_power([[13]], spec)


TIN_PLANS = st.one_of(feasible_plans(),
                      st.floats(-math.pi, math.pi).map(thirteen_bit_plan))


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
            _, packets = build_frame({k: map_bits(frame.payloads[k], k, plan)
                                      for k in range(plan.spec.K)}, plan)
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
                    llr = tin_llr(y, user, sb.index, plan)
                    assert llr.shape == (y.size, m)
                    for b in range(m):
                        one = ((np.arange(desired.size) >> (m - 1 - b))
                               & 1).astype(bool)
                        ref = (logsumexp(per_point[:, ~one], axis=1)
                               - logsumexp(per_point[:, one], axis=1))
                        np.testing.assert_allclose(llr[:, b], ref,
                                                   rtol=0, atol=1e-9)
                    sent = np.argmin(np.abs(
                        packets[user][sb.start:sb.stop, None]
                        - desired[None, :]), axis=1)
                    ref = m + (per_point[np.arange(y.size), sent]
                               - logsumexp(per_point, axis=1)) / math.log(2)
                    np.testing.assert_allclose(
                        information_densities(frame, user, sb.index, plan),
                        ref, rtol=0, atol=1e-9)

    def test_detection_invariant_to_common_phase_rotation(self):
        # rotating every channel and the received samples together leaves
        # the likelihood metric unchanged: the plan rebuilt on the rotated
        # spec demaps the rotated samples as the original demaps the
        # original ones
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 61)
        frame = simulate_frame(plan, payloads, 62)
        sb = plan.layout.sub_blocks[0]
        seg = frame.y[1][sb.start:sb.stop]
        rot = complex(math.cos(0.9), math.sin(0.9))
        spun_plan = assign_power(plan.orders, SystemSpec.create(
            plan.spec.P, [UserSpec(u.N, u.eps, u.h * rot)
                          for u in plan.spec.users]))
        base = tin_llr(seg, 1, 0, plan)
        spun = tin_llr(seg * rot, 1, 0, spun_plan)
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


class TestPlanSegments:
    @settings(max_examples=30, deadline=None)
    @given(plan=TIN_PLANS)
    def test_segments_are_the_active_pairs_set_up(self, plan):
        # exactly the pairs that carry bits have dims, and each user's
        # entries come in sub-block (frame) order; each grid is the one
        # `receive_grids` builds, each dimension's bit halves the Gray-label
        # oracle's
        assert sorted(key for key, e in plan.entries.items() if e.dims) == [
            (k, sb.index) for k in range(plan.spec.K)
            for sb in plan.layout.sub_blocks[:k + 1]
            if sb.length > 0 and plan.orders[k][sb.index] > 0]
        for k, user in enumerate(plan.spec.users):
            assert [e.sub_block for e in plan.entries.values()
                    if e.user == k] == list(range(k + 1))
            assert user.rotation == np.conj(user.h) / abs(user.h)
        for (k, j), entry in plan.entries.items():
            if not entry.order:
                continue
            grids = receive_grids(abs(plan.spec.users[k].h),
                                  plan_parts(plan, j), k)
            assert [d for d, _, _ in entry.dims] == [
                d for d in (0, 1) if entry.shape[d]]
            for d, grid, halves in entry.dims:
                assert grid.shape == grids[d].shape
                assert grid.tobytes() == grids[d].tobytes()
                assert np.array_equal(halves,
                                      bit_halves_reference(entry.shape[d]))
        # the rates read the entries' grids and build none
        with mock.patch.object(rates, "receive_grids",
                               side_effect=AssertionError("grids rebuilt")):
            rates.compute_plan_rates(plan)

    def test_silent_pairs_demap_to_nothing(self):
        # user 1 is silent in sub-block 0 of the first plan and everywhere
        # in the second: no segment, no LLR columns, no frame LLRs
        spec = urllc_plan(n1=16, n2=24).spec
        for orders in ([[2], [0, 4]], [[2], [0, 0]]):
            plan = assign_power(orders, spec)
            frame = simulate_frame(plan, random_payloads(plan, 5), 6)
            assert tin_llr(frame.y[1][:16], 1, 0, plan).shape == (16, 0)
            tail = ([tin_llr(frame.y[1][16:], 1, 1, plan).ravel()]
                    if orders[1][1] else [])
            assert np.array_equal(demap_frame(frame, 1, plan),
                                  np.concatenate([np.zeros(0), *tail]))


class TestAgainstSymbolsFirstOracles:
    """The symbols-last kernel, the hoisted demapper set-up and the single
    frame loop against the forms they replaced (tests/oracles.py)."""

    @settings(max_examples=40, deadline=None)
    @given(plan=TIN_PLANS, seed=st.integers(0, 2 ** 32 - 1))
    def test_llrs_match_oracle(self, plan, seed):
        frame = simulate_frame(plan, random_payloads(plan, seed), seed + 1)
        for user in range(plan.spec.K):
            got = []
            for sb in plan.layout.sub_blocks[:user + 1]:
                y = frame.y[user][sb.start:sb.stop]
                llr = tin_llr(y, user, sb.index, plan)
                if not (sb.length and plan.orders[user][sb.index]):
                    assert llr.shape == (sb.length, 0)  # a silent pair
                    continue
                ref = tin_llr_reference(y, user, sb.index, plan)
                np.testing.assert_allclose(llr, ref, rtol=1e-12, atol=0)
                assert np.array_equal(np.sign(llr), np.sign(ref))
                got.append(llr.ravel())
            framed = demap_frame(frame, user, plan)
            assert np.array_equal(framed, np.concatenate(got) if got
                                  else np.zeros(0))

    @settings(max_examples=30, deadline=None)
    @given(plan=TIN_PLANS, seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 1.0, 3.5]))
    def test_one_level_halves_match_reduction(self, plan, seed, scale):
        # a 1-bit dimension's halves hold one level each; taking its
        # log-likelihood as it is must equal the one-element reduction bit
        # for bit, at zero, unit and 3.5 times the unit noise
        frame = simulate_frame(plan, random_payloads(plan, seed), seed + 1)
        for (user, j), entry in plan.entries.items():
            if not entry.order:
                continue
            sb, h = plan.layout.sub_blocks[j], plan.spec.users[user].h
            clean = h * frame.x[sb.start:sb.stop]
            y = clean + scale * (frame.y[user][sb.start:sb.stop] - clean)
            assert bits(tin_llr(y, user, j, plan)) == bits(
                tin_llr_reduced_reference(y, user, j, plan))

    @pytest.mark.parametrize("noise_scale", [0.0, 1.0], ids=["clean", "noisy"])
    def test_one_sum_link_matches_general_kernel(self, monkeypatch,
                                                 noise_scale):
        # on three_user.json's 2|2,4|2,4,2 plan, user 3 is alone in
        # sub-block 3, so both its grids there have one interferer sum;
        # every LLR must equal the general kernel's bit for bit
        spec = SystemSpec.create(1.0, [
            UserSpec(200, 1e-6, 12.589254117941675j),
            UserSpec(1000, 1e-5, 17.78279410038923),
            UserSpec(2000, 1e-4, 3.1622776601683795)])
        plan = assign_power([[2], [2, 4], [2, 4, 2]], spec)
        assert [grid.shape[1] for _, grid, _ in plan.entries[2, 2].dims] == [
            1, 1]
        frame = simulate_frame(plan, random_payloads(plan, 5), 6,
                               noise_scale=noise_scale)

        def llrs():
            return [demap_frame(frame, k, plan) for k in range(spec.K)]

        got = llrs()
        monkeypatch.setattr(linksim, "tin_loglik",
                            tin_loglik_general_reference)
        assert [bits(a) for a in got] == [bits(b) for b in llrs()]

    @settings(max_examples=25, deadline=None)
    @given(plan=TIN_PLANS)
    def test_sub_block_stats_match_oracle(self, plan):
        for (user, j), entry in plan.entries.items():
            if not entry.order:
                continue
            g, parts = abs(plan.spec.users[user].h), plan_parts(plan, j)
            (mi, dispersion), = sub_block_stats_table(
                [receive_grids(g, parts, user)])
            ref = sub_block_stats_reference(g, parts, user)
            assert abs(mi - ref.mi) <= 1e-14
            assert abs(dispersion - ref.dispersion) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(plan=TIN_PLANS)
    def test_plan_table_matches_per_key_integration(self, plan):
        # the plan's one table call against each active pair integrated on
        # its own, bit for bit; silent and unscheduled pairs read exactly 0
        result = rates.compute_plan_rates(plan)
        K = plan.spec.K
        assert result.mi.shape == result.dispersion.shape == (K, K)
        for user in range(K):
            for j in range(K):
                active = (j <= user and plan.layout.sub_blocks[j].length
                          and plan.orders[user][j])
                want = (0.0, 0.0)
                if active:
                    ref = sub_block_stats_per_key(
                        abs(plan.spec.users[user].h), plan_parts(plan, j),
                        user)
                    want = (ref.mi, ref.dispersion)
                assert bits([result.mi[user, j],
                             result.dispersion[user, j]]) == bits(want)

    def test_symbol_chunks_match_one_pass(self, monkeypatch):
        # a 48-element budget takes 6 or 12 symbols per kernel pass on
        # this plan's 8- and 4-point grids; chunking must not change a bit
        plan = urllc_plan(n1=16, n2=40)
        frame = simulate_frame(plan, random_payloads(plan, 71), 72)
        g = abs(plan.spec.users[1].h)

        def results():
            return ([demap_frame(frame, k, plan)
                     for k in range(plan.spec.K)],
                    sub_block_stats_table(
                        [receive_grids(g, plan_parts(plan, j), 1)
                         for j in (0, 1)]))

        whole = results()
        monkeypatch.setattr(rates, "_ELEM_BUDGET", 48)
        chunked = results()
        for a, b in zip(whole[0], chunked[0]):
            assert np.array_equal(a, b)
        assert np.array_equal(whole[1], chunked[1])

    @settings(max_examples=20, deadline=None)
    @given(plan=TIN_PLANS, n_frames=st.integers(1, 3),
           seed=st.integers(0, 10 ** 6))
    def test_simulate_csv_matches_user_loop_oracle(self, plan, n_frames,
                                                   seed):
        cfg = {"schema_version": 1, "system": plan.spec.to_dict(),
               "sampling": {"n_noise_samples": 1000},
               "simulate": {"orders": [list(r) for r in plan.orders],
                            "n_frames": n_frames}}
        with tempfile.TemporaryDirectory() as tmp:
            config, out, ref = (Path(tmp) / name for name in
                                ("sim.json", "sim.csv", "ref.csv"))
            config.write_text(json.dumps(cfg))
            assert cli.main(["simulate", "--config", str(config),
                             "--out", str(out), "--seed", str(seed)]) == 0
            got = out.read_text().splitlines()
            write_csv_reference(ref, got[0].split(","),
                                simulate_rows_reference(plan, n_frames, seed,
                                                        1000, "-"))
            want = ref.read_text().splitlines()
        assert len(got) == plan.spec.K + 1
        assert [line.split(",", 1)[1] for line in got] == [
            line.split(",", 1)[1] for line in want]


class TestFrameBlocks:
    """Blocks of 1 and 3 frames against the default block (all 7 frames of
    these runs in one) and the per-frame user-loop oracle: the last block
    of a 7-frame run is partial, and no output may move."""

    @staticmethod
    def plan():
        spec = SystemSpec.create(1.0, [
            UserSpec(24, 1e-6, 30.0 * cmath.exp(1.9j)),
            UserSpec(32, 1e-5, 12.0 * cmath.exp(-0.4j)),
            UserSpec(48, 1e-4, 5.0 * cmath.exp(2.8j))])
        return assign_power([[2], [1, 3], [2, 3, 1]], spec)

    @pytest.mark.parametrize("frames_per_block", [1, 3])
    def test_simulate_csv_across_block_boundaries(self, tmp_path, monkeypatch,
                                                  frames_per_block):
        plan = self.plan()
        n_total = plan.layout.boundaries[-1]
        assert linksim._BLOCK_SYMBOLS // n_total >= 7
        cfg = {"schema_version": 1, "system": plan.spec.to_dict(),
               "sampling": {"n_noise_samples": 1000},
               "simulate": {"orders": [list(r) for r in plan.orders],
                            "n_frames": 7}}
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))

        def run(name):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(config),
                             "--out", str(out), "--seed", "17"]) == 0
            return out.read_bytes()

        whole = run("whole.csv")
        monkeypatch.setattr(linksim, "_BLOCK_SYMBOLS",
                            frames_per_block * n_total)
        blocked = run("blocked.csv")
        assert blocked == whole
        ref = tmp_path / "ref.csv"
        got = blocked.decode().splitlines()
        write_csv_reference(ref, got[0].split(","),
                            simulate_rows_reference(plan, 7, 17, 1000, "-"))
        assert [line.split(",", 1)[1] for line in got] == [
            line.split(",", 1)[1] for line in ref.read_text().splitlines()]

    @pytest.mark.parametrize("frames_per_block", [1, 3])
    def test_id_check_across_block_boundaries(self, monkeypatch,
                                              frames_per_block):
        plan = self.plan()
        whole = empirical_id_check(plan, 1, n_frames=7, seed=5)
        monkeypatch.setattr(linksim, "_BLOCK_SYMBOLS",
                            frames_per_block * plan.layout.boundaries[-1])
        assert empirical_id_check(plan, 1, n_frames=7, seed=5) == whole

    def test_one_frame_is_the_one_frame_block(self):
        # simulate_frame(seed) is frame 0 of a run whose noise seed is seed
        plan = self.plan()
        block = next(linksim.frame_blocks(plan, 30, 7))
        payloads = random_payloads(plan, 30)
        frame = simulate_frame(plan, payloads, 31)
        first = block.row(0)
        for k in range(plan.spec.K):
            assert np.array_equal(first.payloads[k], payloads[k])
            assert first.y[k].tobytes() == frame.y[k].tobytes()
        assert first.x.tobytes() == frame.x.tobytes()


class TestInformationDensities:
    @settings(max_examples=30, deadline=None)
    @given(plan=TIN_PLANS, seed=st.integers(0, 10 ** 6))
    def test_matches_per_call_grid_oracle(self, plan, seed):
        # densities from the plan's entries and from both dimensions' grids
        # built per call are bit-identical; a silent pair reads zeros
        frame = simulate_frame(plan, random_payloads(plan, seed), seed + 1)
        for user in range(plan.spec.K):
            for sb in plan.layout.sub_blocks[:user + 1]:
                want = information_densities_reference(frame, user, sb.index,
                                                       plan)
                got = information_densities(frame, user, sb.index, plan)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("orders, user, n_frames, message", [
        ([[2], [4, 4]], 1, 0, "n_frames must be positive, got 0"),
        ([[2], [4, 4]], 1, -3, "n_frames must be positive, got -3"),
        ([[2], [0, 0]], 1, 5, "user 1 sends no bits"),
    ], ids=["zero_frames", "negative_frames", "silent_user"])
    def test_id_check_rejects_empty_sample(self, orders, user, n_frames,
                                           message):
        # a check over zero samples would pass vacuously
        plan = assign_power(orders, urllc_plan(n1=16, n2=24).spec)
        with pytest.raises(SimulationError, match=message):
            empirical_id_check(plan, user, n_frames=n_frames, seed=1)

    def test_id_check_frames_follow_seed_policy(self, monkeypatch):
        # the frames are those `simulate` draws for the same seed: each
        # frame's payload and noise generators are seeded once, by policy
        seeds = []
        default_rng = np.random.default_rng

        def record_rng(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", record_rng)
        empirical_id_check(urllc_plan(n1=16, n2=24), 1, n_frames=3, seed=40)
        assert sorted(seeds) == sorted(
            s for f in range(3) for s in frame_seeds_reference(40, f))

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

    def test_sample_mean_unbiased_against_paired_seed(self):
        # same noise seed twice: density sampling is reproducible
        plan = urllc_plan(n1=16, n2=24)
        payloads = random_payloads(plan, 8)
        f1 = simulate_frame(plan, payloads, 9)
        f2 = simulate_frame(plan, payloads, 9)
        d1 = information_densities(f1, 0, 0, plan)
        d2 = information_densities(f2, 0, 0, plan)
        assert np.array_equal(d1, d2)
