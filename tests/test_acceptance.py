"""Acceptance gate: end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); run the
module alone via ``pytest tests/test_acceptance.py -v``.
"""
import math
import time

import numpy as np
import pytest

from tinlink.constellations import build_gray_qam, normalization_factor, scale
from tinlink.linksim import (
    demap_frame,
    hard_bits,
    random_payloads,
    simulate_frame,
)
from tinlink.rates import (
    combine_second_order,
    estimate_mi_dispersion,
    gaussian_stats,
    quadrature_mi_dispersion,
    shell_stats,
    compute_plan_rates,
)
from tinlink.scheme import (
    SystemSpec,
    UserSpec,
    assign_power,
    check_modulation_constraints,
    verify_min_distances,
)

from oracles import rate_single_block, rate_two_segment

H1 = math.sqrt(10 ** 1.8)  # 18 dB receive SNR at unit power
H2 = math.sqrt(10 ** 0.5)  # 5 dB


def urllc_spec():
    return SystemSpec.create(1.0, [UserSpec(128, 1e-6, H1),
                                   UserSpec(256, 1e-4, H2)])


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_design_point_rate_pair():
    """(2,4,4) at SNR (18,5) dB reproduces the rate pair (1.0174, 1.5644)."""
    target = (1.0174, 1.5644)
    start = time.perf_counter()
    plan = assign_power([[2], [4, 4]], urllc_spec())
    result = compute_plan_rates(plan)
    elapsed = time.perf_counter() - start
    r1, r2 = result.rates
    ok = (abs(r1 - target[0]) <= 0.02 and abs(r2 - target[1]) <= 0.02
          and elapsed <= 300.0)
    report(1, "design point rate pair", ok,
           f"R=({r1:.4f},{r2:.4f}) target={target} elapsed={elapsed:.0f}s")


def test_criterion_2_mapping_exactness():
    """Three-user mixed-order mapping: n_3 = 5600 with a 400/3200/2000 split."""
    spec = SystemSpec.create(1.0, [UserSpec(200, 1e-6, 30.0),
                                   UserSpec(1000, 1e-5, 20.0),
                                   UserSpec(2000, 1e-4, 10.0)])
    plan = assign_power([[2], [2, 4], [2, 4, 2]], spec)
    n3 = plan.codeword_lengths[2]
    lengths = [sb.length for sb in plan.layout.sub_blocks]
    splits = [lengths[j] * plan.orders[2][j] for j in range(3)]
    ok = n3 == 5600 and splits == [400, 3200, 2000]
    report(2, "mapping exactness", ok, f"n3={n3} splits={splits}")


def test_criterion_3_constraint_rhs_values():
    """Order budgets evaluate to (8,4,4); (2,4,4) feasible, (2,5,4) not."""
    spec = urllc_spec()
    rep = check_modulation_constraints([[2], [4, 4]], spec)
    rhs = {(r.sub_block, r.rank): int(r.rhs) for r in rep.rows
           if r.kind == "order_sum"}
    values = (rhs[(0, 0)], rhs[(0, 1)], rhs[(1, 0)])
    feasible_good = rep.feasible
    rep_bad = check_modulation_constraints([[2], [5, 4]], spec)
    ok = values == (8, 4, 4) and feasible_good and not rep_bad.feasible
    report(3, "constraint budgets", ok,
           f"rhs={values} good={feasible_good} bad={rep_bad.feasible}")


def test_criterion_4_reduction_identities():
    """General combiner reduces to the two-user and single-block forms."""
    pts_strong = scale(build_gray_qam(2), normalization_factor(2)).points
    pts_weak = scale(build_gray_qam(4), normalization_factor(4)).points
    s1 = estimate_mi_dispersion(pts_strong, [pts_weak], H1, 20_000, 99)
    s2 = estimate_mi_dispersion(pts_weak, [], H2, 20_000, 99)
    general_two = combine_second_order(
        [128, 128], [s1.mi, s2.mi], [s1.dispersion, s2.dispersion], 1e-4,
        256).rate
    closed_two = rate_two_segment(128, s1, 128, s2, 1e-4, 256)
    rel_a = abs(general_two - closed_two) / abs(closed_two)
    general_one = combine_second_order([128], [s1.mi], [s1.dispersion], 1e-6,
                                       128).rate
    closed_one = rate_single_block(s1.mi, s1.dispersion, 128, 1e-6)
    rel_b = abs(general_one - closed_one) / abs(closed_one)
    # equal blocklengths collapse the two-segment form to the single block
    degenerate = rate_two_segment(128, s1, 0, s2, 1e-6, 128)
    rel_c = abs(degenerate - closed_one) / abs(closed_one)
    ok = max(rel_a, rel_b, rel_c) < 1e-9
    report(4, "reduction identities", ok,
           f"rel_diffs=({rel_a:.2e},{rel_b:.2e},{rel_c:.2e})")


def test_criterion_5_estimator_vs_oracle():
    """Interference-free MI matches Gauss-Hermite for 4/16/64-QAM."""
    worst = 0.0
    all_ok = True
    v_floor_ok = True
    for m in (2, 4, 6):
        pts = scale(build_gray_qam(m), normalization_factor(m)).points
        for snr_db in (0.0, 6.0, 12.0):
            h = math.sqrt(10 ** (snr_db / 10.0))
            st = estimate_mi_dispersion(pts, [], h, 50_000, 1234 + m)
            oracle = quadrature_mi_dispersion(pts, [], h).mi
            sigma = abs(st.mi - oracle) / math.hypot(st.std_err_mi, 1e-6)
            worst = max(worst, sigma)
            all_ok = all_ok and sigma <= 3.0 and st.dispersion >= 0.0
        tiny = estimate_mi_dispersion(pts, [], 1e-3, 5000, 5678 + m)
        v_floor_ok = v_floor_ok and tiny.dispersion <= 1e-4
    ok = all_ok and v_floor_ok
    report(5, "estimator vs quadrature", ok,
           f"worst_sigma={worst:.2f} small_h_dispersion_ok={v_floor_ok}")


def test_criterion_6_dispersion_ordering():
    """Designed QAM/TIN dispersion vs shell and Gaussian at matched splits.

    Homogeneous setup (SNR 24/12 dB, N=200, eps=1e-6), three sampled order
    pairs; benchmarks use the same power split with perfect SIC for the
    strong user, the shell comparison on its interference-free branch.
    """
    spec = SystemSpec.create(1.0, [UserSpec(200, 1e-6, math.sqrt(10 ** 2.4)),
                                   UserSpec(200, 1e-6, math.sqrt(10 ** 1.2))])
    g1 = abs(spec.users[0].h) ** 2
    g2 = abs(spec.users[1].h) ** 2
    details = []
    ok = True
    for m1, m2 in [(2, 2), (2, 4), (4, 4)]:
        plan = assign_power([[m1], [m2, 0]], spec)
        result = compute_plan_rates(plan)
        v_qam = [result.users[0].stats[0].dispersion,
                 result.users[1].stats[0].dispersion]
        p1 = plan.entries[(0, 0)].power
        p2 = plan.entries[(1, 0)].power
        sinr1 = p1 * g1                          # perfect SIC, clean
        sinr2 = p2 * g2 / (1.0 + p1 * g2)        # weak user under TIN
        v_gauss = [gaussian_stats(sinr1)[1], gaussian_stats(sinr2)[1]]
        v_shell1 = shell_stats(sinr1)[1]
        point_ok = (v_qam[0] < v_gauss[0] and v_qam[1] < v_gauss[1]
                    and v_qam[0] <= v_shell1)
        ok = ok and point_ok
        details.append(f"({m1},{m2}):Vqam=({v_qam[0]:.2f},{v_qam[1]:.2f})"
                       f" Vg=({v_gauss[0]:.2f},{v_gauss[1]:.2f})"
                       f" Vs1={v_shell1:.2f}")
    report(6, "dispersion ordering", ok, " ".join(details))


def _random_feasible_case(rng):
    """Random spec plus feasible orders with every sub-block active."""
    while True:
        k = int(rng.integers(1, 4))
        lengths = np.sort(rng.integers(8, 64, size=k))
        mags = 10 ** rng.uniform(0.1, 1.3, size=k)
        if np.unique(np.round(mags, 9)).size < k:
            continue
        phases = rng.uniform(0, 2 * math.pi, size=k)
        users = [UserSpec(int(lengths[i]), float(rng.uniform(1e-7, 0.49)),
                          mags[i] * complex(math.cos(phases[i]),
                                            math.sin(phases[i])))
                 for i in range(k)]
        try:
            spec = SystemSpec.create(float(10 ** rng.uniform(-0.2, 1.0)), users)
        except Exception:
            continue
        layout_lengths = np.diff(np.r_[0, lengths])
        for _ in range(60):
            # an empty sub-block takes order 0 after its draw
            orders = [[int(rng.integers(0, 5)) * int(layout_lengths[j] > 0)
                       for j in range(i + 1)] for i in range(k)]
            active = all(
                any(orders[u][j] > 0 for u in range(j, k))
                for j in range(k) if layout_lengths[j] > 0)
            if not active:
                continue
            if check_modulation_constraints(orders, spec).feasible:
                return spec, orders
        # no feasible active orders at this power; draw a new spec


def test_criterion_7_power_accounting_and_distances():
    """10^3 randomized feasible plans keep exact power accounting and d_min."""
    rng = np.random.default_rng(777)
    worst_power = 0.0
    worst_dmin = math.inf
    for _ in range(1000):
        spec, orders = _random_feasible_case(rng)
        plan = assign_power(orders, spec, check=False)
        n_total = plan.layout.boundaries[-1]
        # frame-average total power identity
        avg = sum(sb.length * sum(plan.entries[(u, sb.index)].power
                                  for u in sb.participants)
                  for sb in plan.layout.sub_blocks) / n_total
        worst_power = max(worst_power, abs(avg - spec.P) / spec.P)
        # per-sub-block balanced power
        for sb in plan.layout.sub_blocks:
            if sb.length == 0:
                continue
            tot = sum(plan.entries[(u, sb.index)].power
                      for u in sb.participants)
            worst_power = max(worst_power, abs(tot - spec.P) / spec.P)
        for row in verify_min_distances(plan):
            worst_dmin = min(worst_dmin, row.d_min)
    ok = worst_power <= 1e-9 and worst_dmin >= 1.0 - 1e-9
    report(7, "power accounting and distances", ok,
           f"worst_power_rel_err={worst_power:.2e} worst_dmin={worst_dmin:.9f}")


def test_criterion_8_bernstein_concentration():
    """Empirical codeword-power violations stay under the Bernstein bound."""
    c = scale(build_gray_qam(4), normalization_factor(4))
    energies = np.abs(c.points) ** 2
    sigma_sq = float(np.mean((energies - 1.0) ** 2))
    m_max = float(energies.max())
    n, eps = 64, 0.5
    bound = math.exp(-n * eps ** 2 / (2.0 * (sigma_sq + m_max * eps / 3.0)))
    rng = np.random.default_rng(31337)
    trials = 1_000_000
    exceed = 0
    for lo in range(0, trials, 50_000):
        take = min(50_000, trials - lo)
        draws = rng.choice(energies, size=(take, n))
        exceed += int(np.count_nonzero(draws.mean(axis=1) >= 1.0 + eps))
    freq = exceed / trials
    ok = freq <= bound
    report(8, "power concentration", ok, f"freq={freq:.2e} bound={bound:.2e}")


def test_criterion_9_coded_ber_substitute_suite():
    """Full coded BER curves are out of scope; the substitute checks are the
    zero-noise LLR round trip and a monotone uncoded-BER sweep."""
    spec = urllc_spec()
    plan = assign_power([[2], [4, 4]], spec)

    payloads = random_payloads(plan, 51)
    quiet = simulate_frame(plan, payloads, 52, noise_scale=0.0)
    roundtrip = all(
        np.array_equal(hard_bits(demap_frame(quiet, k, plan)), payloads[k])
        for k in range(spec.K))

    bers = []
    for offset_db in (0.0, 2.0, 4.0):
        gain = 10 ** (offset_db / 20.0)
        spec_o = SystemSpec.create(1.0, [
            UserSpec(u.N, u.eps, u.h * gain) for u in spec.users])
        plan_o = assign_power(plan.orders, spec_o, check=False)
        errs = 0
        bits = 0
        f = 0
        while bits < 1_000_000:
            payload = random_payloads(plan_o, 6000 + f)
            frame = simulate_frame(plan_o, payload, 9000 + f)
            llr = demap_frame(frame, 1, plan_o)
            errs += int(np.count_nonzero(hard_bits(llr) != payload[1]))
            bits += payload[1].size
            f += 1
        bers.append(errs / bits)
    monotone = bers[0] > bers[1] > bers[2]
    ok = roundtrip and monotone
    report(9, "coded-BER substitute suite", ok,
           f"roundtrip={roundtrip} ber_sweep={[f'{b:.4f}' for b in bers]}")
