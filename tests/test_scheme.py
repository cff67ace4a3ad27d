"""Layout, feasibility, power assignment, mapping, frames, and design search."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tinlink import rates, scheme
from tinlink.constellations import (
    ConstellationError,
    build_rect_qam,
    silent,
    superimpose,
)
from tinlink.scheme import (
    InfeasiblePlanError,
    SpecError,
    SystemSpec,
    UserSpec,
    assign_power,
    build_frame,
    build_layout,
    check_modulation_constraints,
    codeword_lengths,
    design_search,
    map_bits,
    _pareto_flags,
    part_shapes,
    plan_from_dict,
    sub_block_geometry,
    verify_min_distances,
)

from oracles import bits, scalar_second_order

SNR18 = math.sqrt(10 ** 1.8)
SNR5 = math.sqrt(10 ** 0.5)


def two_user_spec(n1=128, n2=256, eps1=1e-6, eps2=1e-4, h1=SNR18, h2=SNR5, P=1.0):
    return SystemSpec.create(P, [UserSpec(n1, eps1, h1), UserSpec(n2, eps2, h2)])


class TestSystemSpec:
    def test_sorts_by_blocklength(self):
        spec = SystemSpec.create(1.0, [UserSpec(300, 1e-4, 1.0),
                                       UserSpec(100, 1e-6, 2.0)])
        assert [u.N for u in spec.users] == [100, 300]
        # order_map sends constructor positions to sorted positions
        assert spec.order_map == (1, 0)

    def test_eps_bounds(self):
        for eps in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(SpecError):
                SystemSpec.create(1.0, [UserSpec(100, eps, 1.0)])

    def test_duplicate_channel_magnitudes(self):
        with pytest.raises(SpecError):
            SystemSpec.create(1.0, [UserSpec(100, 1e-6, 2.0),
                                    UserSpec(200, 1e-4, 2j)])

    def test_positive_power(self):
        with pytest.raises(SpecError):
            SystemSpec.create(0.0, [UserSpec(100, 1e-6, 1.0)])

    def test_json_roundtrip(self):
        spec = two_user_spec()
        again = SystemSpec.from_dict(spec.to_dict())
        assert again == spec


class TestLayout:
    def test_three_user_example(self):
        spec = SystemSpec.create(1.0, [UserSpec(200, 1e-6, 2.0),
                                       UserSpec(1000, 1e-5, 3.0),
                                       UserSpec(2000, 1e-4, 1.0)])
        layout = build_layout(spec)
        assert layout.boundaries == (0, 200, 1000, 2000)
        assert layout.sub_blocks[0].participants == (0, 1, 2)
        assert layout.sub_blocks[0].ranks == (1, 0, 2)
        assert layout.sub_blocks[1].participants == (1, 2)
        assert layout.sub_blocks[1].ranks == (1, 2)
        assert layout.sub_blocks[2].participants == (2,)

    def test_single_user(self):
        layout = build_layout(SystemSpec.create(1.0, [UserSpec(64, 1e-6, 1.0)]))
        assert len(layout.sub_blocks) == 1
        assert layout.sub_blocks[0].length == 64

    def test_equal_blocklengths_give_empty_tail(self):
        layout = build_layout(two_user_spec(n1=128, n2=128))
        assert layout.sub_blocks[1].length == 0


class TestConstraints:
    def test_rhs_values_at_urllc_setup(self):
        spec = two_user_spec()
        report = check_modulation_constraints([[2], [4, 4]], spec)
        sums = {(r.sub_block, r.rank): r.rhs for r in report.rows
                if r.kind == "order_sum"}
        assert sums[(0, 0)] == 8.0
        assert sums[(0, 1)] == 4.0
        assert sums[(1, 0)] == 4.0
        assert report.feasible

    def test_boundary_violation_flagged_on_weak_user(self):
        spec = two_user_spec()
        report = check_modulation_constraints([[2], [5, 4]], spec)
        assert not report.feasible
        bad = report.violations()
        assert any(r.kind == "order_sum" and r.sub_block == 0 and r.rank == 1
                   for r in bad)

    def test_all_zero_orders_feasible(self):
        spec = two_user_spec()
        report = check_modulation_constraints([[0], [0, 0]], spec)
        assert report.feasible

    def test_sum_boundary_plus_one_infeasible(self):
        spec = two_user_spec()
        assert check_modulation_constraints([[4], [4, 4]], spec).feasible
        assert not check_modulation_constraints([[5], [4, 4]], spec).feasible

    def test_orders_shape_validation(self):
        spec = two_user_spec()
        with pytest.raises(SpecError):
            check_modulation_constraints([[2, 2], [4, 4]], spec)
        with pytest.raises(SpecError):
            check_modulation_constraints([[2], [-1, 4]], spec)


class TestPartShapes:
    def test_even_orders_square(self):
        assert part_shapes([2, 4]) == [(1, 1), (2, 2)]

    def test_odd_orders_alternate(self):
        assert part_shapes([1, 1]) == [(1, 0), (0, 1)]
        assert part_shapes([3, 3]) == [(2, 1), (1, 2)]

    def test_imbalance_never_exceeds_one_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mv = rng.integers(0, 5, size=rng.integers(1, 5)).tolist()
            shapes = part_shapes(mv)
            ti = tq = 0
            for a, b in shapes:
                ti += a
                tq += b
                assert abs(ti - tq) <= 1


class TestSubBlockGeometry:
    def test_normaliser_matches_superimposed_energy(self):
        # every rank vector of 1-3 ranks with total order 1-12; the composite's
        # sampled energy may be an ulp high, the closed form is exact
        for n_ranks in range(1, 4):
            for mv in itertools.product(range(13), repeat=n_ranks):
                if not 1 <= sum(mv) <= 12:
                    continue
                shapes, _, eta = sub_block_geometry(mv)
                parts = [silent() if m == 0 else build_rect_qam(a, b)
                         for m, (a, b) in zip(mv, shapes)]
                composite = superimpose(parts)
                assert eta == pytest.approx(
                    1.0 / math.sqrt(composite.energy), rel=1e-14, abs=0.0)


class TestPowerAssignment:
    def test_two_user_shares(self):
        spec = two_user_spec()
        plan = assign_power([[2], [4, 4]], spec)
        assert plan.entries[(0, 0)].power == pytest.approx(3 / 63, abs=1e-12)
        assert plan.entries[(1, 0)].power == pytest.approx(60 / 63, abs=1e-12)
        assert plan.entries[(1, 1)].power == pytest.approx(1.0, abs=1e-12)

    def test_single_user_full_power(self):
        spec = SystemSpec.create(2.5, [UserSpec(64, 1e-6, 2.0)])
        plan = assign_power([[2]], spec)
        assert plan.entries[(0, 0)].power == pytest.approx(2.5, abs=1e-12)

    def test_rank_power_formula_when_balanced(self):
        # even orders: power of rank i is 2^{s_i} (2^{m_i}-1) / (2^t - 1) * P
        spec = SystemSpec.create(3.0, [UserSpec(50, 1e-6, 9.0),
                                       UserSpec(60, 1e-5, 5.0),
                                       UserSpec(70, 1e-4, 2.0)])
        plan = assign_power([[2], [2, 2], [4, 2, 2]], spec)
        sb0 = plan.layout.sub_blocks[0]
        mv = [plan.orders[u][0] for u in sb0.ranks]
        total = sum(mv)
        s = 0
        for rank, user in enumerate(sb0.ranks):
            expect = 2 ** s * (2 ** mv[rank] - 1) / (2 ** total - 1) * spec.P
            assert plan.entries[(user, 0)].power == pytest.approx(expect, rel=1e-12)
            s += mv[rank]

    def test_sub_block_powers_sum_to_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            lengths = np.sort(rng.integers(10, 50, size=k))
            mags = 10 ** rng.uniform(0, 1.2, size=k)
            if np.unique(np.round(mags, 9)).size < k:
                continue
            users = [UserSpec(int(lengths[i]), 1e-5, float(mags[i]))
                     for i in range(k)]
            spec = SystemSpec.create(float(10 ** rng.uniform(-0.2, 0.8)), users)
            orders = [[int(rng.integers(0, 4)) for _ in range(i + 1)]
                      for i in range(k)]
            if not check_modulation_constraints(orders, spec).feasible:
                continue
            plan = assign_power(orders, spec)
            for sb in plan.layout.sub_blocks:
                if sb.length == 0:
                    continue
                total = sum(plan.entries[(u, sb.index)].power
                            for u in sb.participants)
                active = any(plan.orders[u][sb.index] > 0
                             for u in sb.participants)
                assert total == pytest.approx(
                    spec.P if active else 0.0, abs=1e-9 * max(1.0, spec.P))

    def test_frame_average_power_identity(self):
        spec = SystemSpec.create(1.7, [UserSpec(100, 1e-6, 9.0),
                                       UserSpec(300, 1e-4, 2.0)])
        plan = assign_power([[2], [2, 4]], spec)
        n_total = plan.layout.boundaries[-1]
        avg = sum(sb.length * sum(plan.entries[(u, sb.index)].power
                                  for u in sb.participants)
                  for sb in plan.layout.sub_blocks) / n_total
        assert avg == pytest.approx(spec.P, abs=1e-9)

    def test_infeasible_orders_raise(self):
        with pytest.raises(InfeasiblePlanError):
            assign_power([[2], [5, 4]], two_user_spec())

    @pytest.mark.parametrize("check", [True, False])
    def test_total_order_above_cap_rejected(self, check):
        # each part fits in 16 bits, their 17-bit superposition does not
        spec = SystemSpec.create(1e9, [UserSpec(64, 1e-6, 1.0),
                                       UserSpec(96, 1e-4, 0.5)])
        with pytest.raises(ConstellationError):
            assign_power([[9], [8, 4]], spec, check=check)

    def test_swapped_channels_swap_roles(self):
        strong, weak = 9.0, 4.0
        a = SystemSpec.create(1.0, [UserSpec(64, 1e-6, strong),
                                    UserSpec(64, 1e-4, weak)])
        b = SystemSpec.create(1.0, [UserSpec(64, 1e-6, weak),
                                    UserSpec(64, 1e-4, strong)])
        plan_a = assign_power([[2], [4, 0]], a)
        plan_b = assign_power([[4], [2, 0]], b)
        ea, eb = plan_a.entries, plan_b.entries
        assert np.allclose(ea[(0, 0)].tx_points, eb[(1, 0)].tx_points)
        assert np.allclose(ea[(1, 0)].tx_points, eb[(0, 0)].tx_points)

    def test_phase_rotation_invariance(self):
        base = two_user_spec()
        rot = complex(math.cos(1.1), math.sin(1.1))
        spun = SystemSpec.create(1.0, [
            UserSpec(u.N, u.eps, u.h * rot) for u in base.users])
        pa = assign_power([[2], [4, 4]], base)
        pb = assign_power([[2], [4, 4]], spun)
        for key in pa.entries:
            assert np.array_equal(pa.entries[key].tx_points,
                                  pb.entries[key].tx_points)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_plan_json_roundtrip(self, data):
        k = data.draw(st.integers(1, 3))
        lengths = sorted(data.draw(st.lists(st.integers(1, 64),
                                            min_size=k, max_size=k)))
        gains = data.draw(st.lists(st.integers(3, 40), min_size=k,
                                   max_size=k, unique=True))
        phases = data.draw(st.lists(st.floats(-math.pi, math.pi),
                                    min_size=k, max_size=k))
        spec = SystemSpec.create(
            data.draw(st.floats(1.0, 10.0)),
            [UserSpec(n, data.draw(st.floats(1e-7, 0.4)),
                      g * complex(math.cos(a), math.sin(a)))
             for n, g, a in zip(lengths, gains, phases)])
        orders = [data.draw(st.lists(st.integers(0, 3), min_size=i + 1,
                                     max_size=i + 1)) for i in range(k)]
        assume(check_modulation_constraints(orders, spec).feasible)
        plan = assign_power(orders, spec)
        again = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again.to_dict() == plan.to_dict()
        assert again.orders == plan.orders
        for key, entry in plan.entries.items():
            assert np.array_equal(again.entries[key].tx_points,
                                  entry.tx_points)

    def test_corrupt_plan_dict_rejected(self):
        from tinlink.scheme import plan_from_dict
        data = assign_power([[2], [4, 4]], two_user_spec()).to_dict()
        data["codeword_lengths"][0] += 1
        with pytest.raises(SpecError):
            plan_from_dict(data)


class TestMinDistances:
    def test_urllc_design_all_above_one(self):
        plan = assign_power([[2], [4, 4]], two_user_spec())
        rows = verify_min_distances(plan)
        assert rows and all(r.ok for r in rows)

    def test_single_user_at_boundary(self):
        # 6 P |h|^2 = 15 makes m = floor(log2(16)) = 4 exactly tight
        h = math.sqrt(15.0 / 6.0)
        spec = SystemSpec.create(1.0, [UserSpec(64, 1e-6, h)])
        m = math.floor(math.log2(1 + 6 * spec.P * abs(h) ** 2))
        assert m == 4
        plan = assign_power([[m]], spec)
        rows = verify_min_distances(plan)
        assert all(r.ok for r in rows)
        assert min(r.d_min for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_channel_doubling_doubles_distances(self):
        spec = two_user_spec()
        plan = assign_power([[2], [4, 4]], spec)
        doubled = SystemSpec.create(1.0, [
            UserSpec(u.N, u.eps, 2.0 * u.h) for u in spec.users])
        base_rows = verify_min_distances(plan)
        new_rows = verify_min_distances(plan, doubled)
        for a, b in zip(base_rows, new_rows):
            assert b.d_min == pytest.approx(2.0 * a.d_min, rel=1e-12)


class TestMappingAndFrames:
    def three_user_plan(self):
        spec = SystemSpec.create(1.0, [UserSpec(200, 1e-6, 30.0),
                                       UserSpec(1000, 1e-5, 20.0),
                                       UserSpec(2000, 1e-4, 10.0)])
        return assign_power([[2], [2, 4], [2, 4, 2]], spec)

    def test_example_codeword_lengths(self):
        plan = self.three_user_plan()
        assert plan.codeword_lengths[2] == 5600
        layout = plan.layout
        assert codeword_lengths(plan.orders, layout)[0] == 400

    def test_zero_length_sub_block_contributes_nothing(self):
        spec = two_user_spec(n1=128, n2=128)
        layout = build_layout(spec)
        n = codeword_lengths([[2], [4, 4]], layout)
        assert n == (256, 512)  # tail sub-block has zero symbols

    def test_example_bit_split(self):
        plan = self.three_user_plan()
        bits = np.zeros(5600, dtype=np.int64)
        symbols = map_bits(bits, 2, plan)
        assert symbols.size == 2000
        # 400 bits -> 200 4-QAM symbols, 3200 -> 800 16-QAM, 2000 -> 1000 4-QAM
        for seg, entry_key, count in [
                (symbols[:200], (2, 0), 200),
                (symbols[200:1000], (2, 1), 800),
                (symbols[1000:], (2, 2), 1000)]:
            part = plan.entries[entry_key].part
            assert seg.size == count
            assert np.all(np.isin(np.round(seg, 9),
                                  np.round(part.points, 9)))

    def test_all_zero_bits_map_to_zero_label(self):
        plan = self.three_user_plan()
        symbols = map_bits(np.zeros(400, dtype=np.int64), 0, plan)
        assert np.all(symbols == plan.entries[(0, 0)].part.points[0])

    def test_roundtrip_hard_demap(self):
        plan = self.three_user_plan()
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=plan.codeword_lengths[2])
        symbols = map_bits(bits, 2, plan)
        recovered = []
        for sb in plan.layout.sub_blocks[:3]:
            entry = plan.entries[(2, sb.index)]
            seg = symbols[sb.start:sb.stop]
            idx = np.argmin(np.abs(seg[:, None] - entry.part.points[None, :]),
                            axis=1)
            m = entry.order
            recovered.append(
                ((idx[:, None] >> np.arange(m - 1, -1, -1)) & 1).ravel())
        assert np.array_equal(np.concatenate(recovered), bits)

    def test_length_mismatch(self):
        plan = self.three_user_plan()
        with pytest.raises(SpecError):
            map_bits(np.zeros(5601, dtype=np.int64), 2, plan)

    def test_single_user_frame_is_own_packet(self):
        spec = SystemSpec.create(1.0, [UserSpec(32, 1e-6, 3.0)])
        plan = assign_power([[2]], spec)
        bits = np.random.default_rng(0).integers(0, 2, size=64)
        symbols = {0: map_bits(bits, 0, plan)}
        x, packets = build_frame(symbols, plan)
        assert np.array_equal(x, packets[0])

    def test_silent_first_sub_block(self):
        spec = two_user_spec(n1=16, n2=32)
        plan = assign_power([[2], [0, 2]], spec)
        rng = np.random.default_rng(1)
        symbols = {0: map_bits(rng.integers(0, 2, 32), 0, plan),
                   1: map_bits(rng.integers(0, 2, 32), 1, plan)}
        x, packets = build_frame(symbols, plan)
        assert np.array_equal(x[:16], packets[0])

    def test_expected_symbol_power(self):
        spec = two_user_spec(n1=32, n2=64)
        plan = assign_power([[2], [4, 4]], spec)
        rng = np.random.default_rng(9)
        acc = 0.0
        count = 0
        for _ in range(400):
            symbols = {k: map_bits(rng.integers(0, 2, n), k, plan)
                       for k, n in enumerate(plan.codeword_lengths)}
            x, _ = build_frame(symbols, plan)
            acc += float(np.sum(np.abs(x) ** 2))
            count += x.size
        mean = acc / count
        # loose 3-sigma band: per-symbol power variance is O(1)
        assert mean == pytest.approx(spec.P, abs=3.0 * 1.0 / math.sqrt(count))


class TestDesignSearch:
    def test_single_user_picks_capacity_order(self):
        spec = SystemSpec.create(1.0, [UserSpec(128, 1e-6, math.sqrt(10 ** 1.8))])
        result = design_search(spec, max_sub_block_order=10)
        best = result.candidates[0]
        expected = math.floor(math.log2(1 + 6 * 10 ** 1.8))
        assert best.orders[0][0] == expected

    def test_weighting_prefers_first_user(self):
        spec = two_user_spec(n1=32, n2=64)
        res = design_search(spec, [1.0, 0.0], max_sub_block_order=6)
        best_r1 = max(c.rate_result.rates[0] for c in res.candidates)
        assert res.candidates[0].rate_result.rates[0] == pytest.approx(best_r1)
        # zero-weight user takes no part in the Pareto filter
        for cand in res.candidates:
            assert cand.rate_result.rates[0] == pytest.approx(best_r1, rel=1e-12)

    def test_tiny_power_has_no_design(self):
        spec = SystemSpec.create(1e-9, [UserSpec(64, 1e-6, 1.0)])
        res = design_search(spec)
        assert not res.candidates
        assert res.explanation

    def test_deterministic_given_seed(self):
        spec = two_user_spec(n1=32, n2=64)
        a = design_search(spec, max_sub_block_order=4)
        b = design_search(spec, max_sub_block_order=4)
        assert [c.orders for c in a.candidates] == [c.orders for c in b.candidates]
        assert a.candidates[0].rate_result.rates == b.candidates[0].rate_result.rates

    def test_candidates_sorted_and_tagged(self):
        spec = two_user_spec(n1=32, n2=64)
        res = design_search(spec, max_sub_block_order=4, pareto_only=False)
        sums = [c.weighted_sum for c in res.candidates]
        assert sums == sorted(sums, reverse=True)
        assert any(c.pareto for c in res.candidates)
        # info bits follow the floored rate
        for c in res.candidates[:5]:
            for u, k_bits in zip(c.rate_result.users, c.info_bits):
                assert k_bits == max(0, math.floor(u.rate * u.n_symbols))

    # [32, 32] leaves sub-block 1 empty; the last case lists orders
    @pytest.mark.parametrize("lengths, orders", [
        ([32, 64], None), ([32, 32], None), ([24, 32, 48], None),
        ([32, 64], [[[2], [2, 2]], [[0], [0, 2]], [[3], [1, 0]]])])
    def test_min_order_slack_matches_constraint_report(self, lengths,
                                                       orders):
        spec = SystemSpec.create(1.0, [UserSpec(n, 1e-5, 9.0 / (k + 1))
                                       for k, n in enumerate(lengths)])
        res = design_search(spec, orders=orders, max_sub_block_order=4,
                            pareto_only=False)
        assert res.candidates
        for cand in res.candidates:
            report = check_modulation_constraints(cand.orders, spec)
            want = min((r.slack for r in report.rows
                        if r.kind == "order_sum"), default=math.inf)
            assert bits(cand.min_order_slack) == bits(want)

    def test_explicit_orders_scored_without_filter(self):
        spec = two_user_spec(n1=32, n2=64)
        listed = [[[2], [2, 2]], [[2], [5, 4]], [[0], [0, 2]], [[2], [2, 2]]]
        res = design_search(spec, orders=listed, max_sub_block_order=1)
        # the infeasible matrix is skipped; duplicates stay and nothing is
        # Pareto-filtered or capped
        assert sorted(c.orders for c in res.candidates) == [
            ((0,), (0, 2)), ((2,), (2, 2)), ((2,), (2, 2))]
        assert all(c.pareto for c in res.candidates)
        sums = [c.weighted_sum for c in res.candidates]
        assert sums == sorted(sums, reverse=True)

    @staticmethod
    def three_user_spec():
        # users 1 and 2 share a blocklength, so sub-block 2 is empty
        return SystemSpec.create(1.0, [UserSpec(24, 1e-6, 9.0),
                                       UserSpec(32, 1e-5, 6.0 + 1j),
                                       UserSpec(32, 1e-4, 3.0)])

    def test_rates_match_plan_rates_bit_for_bit(self):
        spec = self.three_user_spec()
        res = design_search(spec, max_sub_block_order=3, pareto_only=False)
        assert len(res.candidates) > 50
        for cand in res.candidates:
            plan = assign_power(cand.orders, spec)
            assert cand.rate_result == rates.compute_plan_rates(plan)
            assert cand.codeword_bits == plan.codeword_lengths == (
                codeword_lengths(cand.orders, plan.layout))

    def test_kernel_once_per_table_key(self, monkeypatch):
        spec = self.three_user_spec()
        layout = build_layout(spec)
        calls = []
        kernel = rates.sub_block_stats

        def counting(g, parts, user):
            calls.append(user)
            return kernel(g, parts, user)

        def forbidden(*args, **kwargs):
            raise AssertionError("design_search must not build or rate plans")

        monkeypatch.setattr(rates, "sub_block_stats", counting)
        monkeypatch.setattr(rates, "compute_plan_rates", forbidden)
        monkeypatch.setattr(scheme, "assign_power", forbidden)
        res = design_search(spec, max_sub_block_order=3, pareto_only=False)
        keys = {(sb.index, tuple(c.orders[u][sb.index] for u in sb.ranks), k)
                for c in res.candidates for k in range(spec.K)
                for sb in layout.sub_blocks[:k + 1]
                if sb.length and c.orders[k][sb.index]}
        assert len(calls) == len(keys) < len(res.candidates)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_array_rates_match_scalar_combiner(self, data):
        """Every returned candidate's rates equal the one-user `@` combiner
        on its own table statistics at 0 ulp, and pareto_only returns
        exactly the front of all candidates."""
        k = data.draw(st.integers(1, 3))
        lengths = sorted(data.draw(st.lists(st.sampled_from([16, 24, 32]),
                                            min_size=k, max_size=k)))
        mags = data.draw(st.lists(st.floats(1.5, 12.0), min_size=k,
                                  max_size=k, unique=True))
        users = [UserSpec(n, data.draw(st.floats(1e-7, 0.4)), m)
                 for n, m in zip(lengths, mags)]
        try:
            spec = SystemSpec.create(
                data.draw(st.sampled_from([0.5, 1.0, 4.0])), users)
        except SpecError:  # magnitudes too close
            assume(False)
        full = design_search(spec, max_sub_block_order=3, pareto_only=False)
        front = design_search(spec, max_sub_block_order=3)
        for cand in full.candidates + front.candidates:
            for u in cand.rate_result.users:
                ref = scalar_second_order(
                    u.lengths, [s.mi for s in u.stats],
                    [s.dispersion for s in u.stats], u.eps, u.n_symbols)
                assert bits(u.rate) == bits(ref.rate)
                assert u.nonpositive == ref.nonpositive
        flags = pareto_reference([c.rate_result.rates for c in full.candidates],
                                 range(spec.K))
        assert front.candidates == tuple(
            c for c, on_front in zip(full.candidates, flags) if on_front)


def pareto_reference(rate_tuples, dims):
    """The quadratic double loop that the sort-based filter replaced."""
    flags = []
    for i, ri in enumerate(rate_tuples):
        dominated = False
        for j, rj in enumerate(rate_tuples):
            if i == j:
                continue
            if all(rj[d] >= ri[d] for d in dims) and any(
                    rj[d] > ri[d] for d in dims):
                dominated = True
                break
        flags.append(not dominated)
    return flags


class TestParetoFilter:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_double_loop(self, data):
        k = data.draw(st.integers(1, 4))
        # a few shared values make ties in single dimensions common
        value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(-2.0, 2.0, allow_nan=False))
        rows = data.draw(st.lists(st.tuples(*[value] * k), min_size=1,
                                  max_size=40))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=6))
        rows = data.draw(st.permutations(rows))
        dims = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
        assert _pareto_flags(rows, dims) == pareto_reference(rows, dims)
