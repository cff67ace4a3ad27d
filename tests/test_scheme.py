"""Layout, feasibility, power assignment, mapping, frames, and design search."""
import itertools
import json
import math
from pathlib import Path

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
    _PARETO_BLOCK,
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
    _chain_front,
    _pair_fronts,
    _pareto_flags,
    part_shapes,
    plan_from_dict,
    sub_block_geometry,
    verify_min_distances,
)

from oracles import (
    bits,
    block_parts,
    design_search_reference,
    feasible_rank_vectors,
    pareto_all_pairs,
    pareto_front_loop_reference,
    pareto_reference,
    scalar_second_order,
    sub_block_stats_per_key,
)

ROOT = Path(__file__).resolve().parent.parent
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
            # an empty sub-block takes order 0 after its draw
            orders = [[int(rng.integers(0, 4)) * (sb.length > 0)
                       for sb in build_layout(spec).sub_blocks[:i + 1]]
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
        # an empty sub-block takes order 0 after its draw
        orders = [[m * (sb.length > 0) for m, sb in zip(
            data.draw(st.lists(st.integers(0, 3), min_size=i + 1,
                               max_size=i + 1)),
            build_layout(spec).sub_blocks)] for i in range(k)]
        # an all-silent plan file is rejected (test_corrupt_plan_dict_rejected)
        assume(any(m for row in orders for m in row))
        assume(check_modulation_constraints(orders, spec).feasible)
        plan = assign_power(orders, spec)
        again = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again.to_dict() == plan.to_dict()
        assert again.orders == plan.orders
        for key, entry in plan.entries.items():
            assert np.array_equal(again.entries[key].tx_points,
                                  entry.tx_points)

    # eta "abc" raised an uncaught ValueError, codeword lengths 128.5 were
    # truncated to 128, and schema_version true or 1.0 read as 1
    @pytest.mark.parametrize("key, value, message", [
        ("codeword_lengths", lambda n: [n[0] + 1, n[1]], "inconsistent"),
        ("eta", lambda eta: ["abc", *eta[1:]], "eta"),
        ("codeword_lengths", lambda n: [n[0] + 0.5, n[1] + 0.5],
         "codeword_lengths"),
        ("schema_version", lambda v: True, "schema_version"),
        ("schema_version", lambda v: 1.0, "schema_version"),
        ("orders", lambda o: [[0], [0, 0]], "sends no bits")],
        ids=["inconsistent", "eta-string", "fractional-codeword-lengths",
             "schema_version-true", "schema_version-float", "all-silent"])
    def test_corrupt_plan_dict_rejected(self, key, value, message):
        data = assign_power([[2], [4, 4]], two_user_spec()).to_dict()
        data[key] = value(data[key])
        with pytest.raises(SpecError, match=message):
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
        new_rows = verify_min_distances(
            assign_power(plan.orders, doubled, check=False))
        assert len(new_rows) == len(base_rows)
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
        n = codeword_lengths([[2], [4, 0]], layout)
        assert n == (256, 512)  # tail sub-block has zero symbols
        with pytest.raises(SpecError, match="sub-block 2"):
            codeword_lengths([[2], [4, 4]], layout)

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

    def test_frame_axis_is_row_by_row(self):
        # a block of frames maps and superimposes each row as one frame
        plan = self.three_user_plan()
        rng = np.random.default_rng(8)
        bits = {k: rng.integers(0, 2, (3, n), dtype=np.uint8)
                for k, n in enumerate(plan.codeword_lengths)}
        symbols = {k: map_bits(b, k, plan) for k, b in bits.items()}
        x, packets = build_frame(symbols, plan)
        assert x.shape == (3, 2000)
        for f in range(3):
            row = {k: map_bits(b[f], k, plan) for k, b in bits.items()}
            x_f, packets_f = build_frame(row, plan)
            assert x[f].tobytes() == x_f.tobytes()
            for k in row:
                assert symbols[k][f].tobytes() == row[k].tobytes()
                assert packets[k][f].tobytes() == packets_f[k].tobytes()
        with pytest.raises(SpecError):
            map_bits(bits[2][:, :-1], 2, plan)
        with pytest.raises(SpecError):
            build_frame({**symbols, 1: symbols[1][:2]}, plan)

    def test_integer_bits_of_any_width_map_alike(self):
        # uint8 payloads are read as they are, without an int64 copy
        plan = self.three_user_plan()
        bits = np.random.default_rng(9).integers(0, 2, (2, 5600))
        want = map_bits(bits, 2, plan).tobytes()
        for dtype in (np.uint8, np.int32, bool, float):
            assert map_bits(bits.astype(dtype), 2, plan).tobytes() == want

    def test_frame_written_into_a_given_buffer(self):
        plan = self.three_user_plan()
        rng = np.random.default_rng(10)
        symbols = {k: map_bits(rng.integers(0, 2, (2, n)), k, plan)
                   for k, n in enumerate(plan.codeword_lengths)}
        x, packets = build_frame(symbols, plan)
        out = np.full((2, 2000), np.nan + 1j, dtype=complex)
        got, got_packets = build_frame(symbols, plan, out=out)
        assert got is out and out.tobytes() == x.tobytes()
        for k in packets:
            assert got_packets[k].tobytes() == packets[k].tobytes()
        with pytest.raises(SpecError):
            build_frame(symbols, plan, out=np.empty((2, 1999), dtype=complex))

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
        expected = math.floor(math.log2(1 + 6 * 10 ** 1.8))
        assert result.order_matrix(0)[0][0] == expected

    def test_weighting_prefers_first_user(self):
        spec = two_user_spec(n1=32, n2=64)
        res = design_search(spec, [1.0, 0.0], max_sub_block_order=6)
        best_r1 = max(r[0] for r in res.rates)
        assert res.rates[0][0] == pytest.approx(best_r1)
        # zero-weight user takes no part in the Pareto filter
        for r in res.rates:
            assert r[0] == pytest.approx(best_r1, rel=1e-12)

    def test_tiny_power_has_no_design(self):
        spec = SystemSpec.create(1e-9, [UserSpec(64, 1e-6, 1.0)])
        res = design_search(spec)
        assert not len(res.weighted_sum)
        assert res.explanation

    def test_replace_round_trips(self):
        """`_replace` copies a result with only the named field changed, and
        replacing it back gives the original fields."""
        cfg = json.loads((ROOT / "configs" / "two_user_urllc.json").read_text())
        res = design_search(SystemSpec.from_dict(cfg["system"]))
        assert len(res.weighted_sum) > 0
        copy = res._replace(explanation="x")
        assert copy.explanation == "x" and res.explanation is None
        back = copy._replace(explanation=res.explanation)
        assert len(back) == len(res._fields)
        assert all(a is b for a, b in zip(back, res))

    def test_deterministic_given_seed(self):
        spec = two_user_spec(n1=32, n2=64)
        a = design_search(spec, max_sub_block_order=4)
        b = design_search(spec, max_sub_block_order=4)
        assert a.orders.tolist() == b.orders.tolist()
        assert a.rates[0].tolist() == b.rates[0].tolist()

    def test_candidates_sorted_and_tagged(self):
        spec = two_user_spec(n1=32, n2=64)
        res = design_search(spec, max_sub_block_order=4, pareto_only=False)
        sums = res.weighted_sum.tolist()
        assert sums == sorted(sums, reverse=True)
        # info bits follow the floored rate
        for row, info in zip(res.rates[:5].tolist(),
                             res.info_bits[:5].tolist()):
            for rate, u, k_bits in zip(row, spec.users, info):
                assert k_bits == max(0, math.floor(rate * u.N))

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
        assert len(res.weighted_sum)
        for i, slack in enumerate(res.min_order_slack):
            report = check_modulation_constraints(res.order_matrix(i), spec)
            want = min((r.slack for r in report.rows
                        if r.kind == "order_sum"), default=math.inf)
            assert bits(slack) == bits(want)

    def test_explicit_orders_scored_without_filter(self):
        spec = two_user_spec(n1=32, n2=64)
        listed = [[[2], [2, 2]], [[2], [5, 4]], [[0], [0, 2]], [[2], [2, 2]]]
        res = design_search(spec, orders=listed, max_sub_block_order=1)
        # the infeasible matrix is skipped; duplicates stay and nothing is
        # Pareto-filtered or capped
        assert sorted(res.order_matrix(i)
                      for i in range(len(res.weighted_sum))) == [
            ((0,), (0, 2)), ((2,), (2, 2)), ((2,), (2, 2))]
        sums = res.weighted_sum.tolist()
        assert sums == sorted(sums, reverse=True)

    def test_empty_sub_block_orders_rejected(self):
        """An empty sub-block sends no symbols: a search puts only zeros
        there, and a non-zero order there is a SpecError naming the user
        and the sub-block (numbered from 1), wherever a matrix comes in."""
        spec = two_user_spec(n1=32, n2=32)
        res = design_search(spec, max_sub_block_order=4, pareto_only=False)
        assert len(res.weighted_sum) and all(
            res.order_matrix(i)[1][1] == 0
            for i in range(len(res.weighted_sum)))
        message = "user 2 has order 9 in sub-block 2, which holds no symbols"
        for call in (
                lambda o: design_search(spec, orders=[[[2], [2, 0]], o]),
                lambda o: check_modulation_constraints(o, spec),
                lambda o: assign_power(o, spec, check=False),
                lambda o: codeword_lengths(o, build_layout(spec))):
            with pytest.raises(SpecError, match=message):
                call([[2], [2, 9]])

    @staticmethod
    def three_user_spec():
        # users 1 and 2 share a blocklength, so sub-block 2 is empty
        return SystemSpec.create(1.0, [UserSpec(24, 1e-6, 9.0),
                                       UserSpec(32, 1e-5, 6.0 + 1j),
                                       UserSpec(32, 1e-4, 3.0)])

    def test_rates_match_plan_rates_bit_for_bit(self):
        spec = self.three_user_spec()
        res = design_search(spec, max_sub_block_order=3, pareto_only=False)
        assert len(res.weighted_sum) > 50
        for i in range(len(res.weighted_sum)):
            plan = assign_power(res.order_matrix(i), spec)
            assert bits(res.rates[i]) == bits(
                rates.compute_plan_rates(plan).rates)
            assert tuple(res.codeword_bits[i].tolist()) == (
                plan.codeword_lengths) == codeword_lengths(
                    res.order_matrix(i), plan.layout)

    def test_kernel_once_per_distinct_grid(self, monkeypatch):
        spec = self.three_user_spec()
        layout = build_layout(spec)
        calls = []
        kernel = rates.dimension_stats

        def counting(grid):
            calls.append(grid.shape)
            return kernel(grid)

        def forbidden(*args, **kwargs):
            raise AssertionError("design_search must not build or rate plans")

        monkeypatch.setattr(rates, "dimension_stats", counting)
        monkeypatch.setattr(rates, "compute_plan_rates", forbidden)
        monkeypatch.setattr(scheme, "assign_power", forbidden)
        res = design_search(spec, max_sub_block_order=3, pareto_only=False)
        matrices = [res.order_matrix(i) for i in range(len(res.weighted_sum))]
        keys = {(sb.index, tuple(o[u][sb.index] for u in sb.ranks), k)
                for o in matrices for k in range(spec.K)
                for sb in layout.sub_blocks[:k + 1]
                if sb.length and o[k][sb.index]}
        grids = {(grid.shape, grid.tobytes())
                 for j, mv, k in keys
                 for grid in rates.receive_grids(
                     abs(spec.users[k].h), block_parts(spec, j, mv), k)
                 if grid.shape[0] > 1}
        assert len(calls) == len(grids) < 2 * len(keys)
        # the reuse lives for one call: a second search integrates again
        calls.clear()
        design_search(spec, max_sub_block_order=3, pareto_only=False)
        assert len(calls) == len(grids)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_array_rates_match_scalar_combiner(self, data):
        """Every candidate's rates equal the one-user `@` combiner on its
        own plan's statistics at 0 ulp, and pareto_only returns exactly the
        front of all candidates."""
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
        for i, row in enumerate(full.rates.tolist()):
            plan = assign_power(full.order_matrix(i), spec)
            stats = rates.compute_plan_rates(plan)
            for k, rate in enumerate(row):
                ref = scalar_second_order(
                    [sb.length for sb in plan.layout.sub_blocks[:k + 1]],
                    stats.mi[k, :k + 1].tolist(),
                    stats.dispersion[k, :k + 1].tolist(),
                    spec.users[k].eps, spec.users[k].N)
                assert bits(rate) == bits(ref)
        flags = np.array(pareto_reference(full.rates, range(spec.K)),
                         dtype=bool)
        assert columns(front) == columns(full, flags)


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
        picked = np.array(rows, dtype=float)[:, dims]
        assert _pareto_flags(picked).tolist() == pareto_reference(rows, dims)

    # lengths on, just off and well past block boundaries; values from a
    # small pool, so ties, duplicates, infinities and signed zeros are common
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([_PARETO_BLOCK - 1, _PARETO_BLOCK,
                              _PARETO_BLOCK + 1, 2 * _PARETO_BLOCK - 1,
                              2 * _PARETO_BLOCK, 3 * _PARETO_BLOCK + 1,
                              300, 450]),
           k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           n_free=st.integers(0, 8), dup_share=st.floats(0.0, 0.5))
    def test_blocked_filter_matches_all_pairs(self, n, k, seed, n_free,
                                              dup_share):
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[-np.inf, np.inf, -0.0, 0.0, 0.5, 1.0],
                               rng.uniform(-2.0, 2.0, n_free)])
        rows = rng.choice(pool, size=(n, k))
        dups = rng.random(n) < dup_share
        rows[dups] = rows[rng.integers(0, n, dups.sum())]
        dims = sorted(rng.choice(k, rng.integers(1, k + 1), replace=False))
        flags = _pareto_flags(rows[:, dims]).tolist()
        assert flags == pareto_all_pairs(rows, dims)
        assert flags == pareto_front_loop_reference(rows, dims)

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1), n_free=st.integers(0, 6),
           data=st.data())
    def test_chain_front_matches_all_pairs(self, counts, seed, n_free, data):
        """Candidates in product order of counts[j] vectors per sub-block,
        user k's rate a function of the vectors of sub-blocks 0..k only:
        the nested filter returns exactly the positions of the all-pairs
        front of the candidates it does not drop, for any positive-weight
        users (the last one's weight 0 too) and with or without a dropped
        row, whatever that row's rates."""
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[-np.inf, np.inf, -0.0, 0.0, 0.5, 1.0],
                               rng.uniform(-2.0, 2.0, n_free)])
        K, n = len(counts), math.prod(counts)
        rate_rows = np.stack([
            np.broadcast_to(rng.choice(pool, counts[:k + 1]).reshape(
                counts[:k + 1] + [1] * (K - k - 1)), counts).ravel()
            for k in range(K)], axis=-1)
        dims = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1)))
        dropped = np.zeros(n, dtype=bool)
        drop = data.draw(st.one_of(st.none(), st.just(0),
                                   st.integers(0, n - 1)))
        if drop is not None:
            dropped[drop] = True
        got = _chain_front(lambda k, at: rate_rows[at, k], counts, dropped,
                           dims)
        kept = np.flatnonzero(~dropped)
        for oracle in (pareto_all_pairs, pareto_front_loop_reference):
            flags = np.array(oracle(rate_rows[kept], dims), dtype=bool)
            assert got.tolist() == kept[flags].tolist()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 150), n_groups=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), n_free=st.integers(0, 8))
    def test_pair_fronts_match_all_pairs(self, n, n_groups, seed, n_free):
        """Each point is flagged exactly when it is on the all-pairs front
        of its own group, with groups in any order, ties, infinities and
        signed zeros."""
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[-np.inf, np.inf, -0.0, 0.0, 0.5, 1.0],
                               rng.uniform(-2.0, 2.0, n_free)])
        group = rng.integers(0, n_groups, n)
        points = rng.choice(pool, size=(n, 2))
        flags = _pair_fronts(group, points[:, 0], points[:, 1])
        for g in range(n_groups):
            mine = group == g
            assert flags[mine].tolist() == pareto_all_pairs(points[mine],
                                                            [0, 1])

    def test_three_user_flags_match_all_pairs(self):
        """The bundled three_user.json design keeps exactly the all-pairs
        front of all 12,635 candidates' rates, every column bit for bit."""
        spec = SystemSpec.from_dict(json.loads(
            (ROOT / "configs" / "three_user.json").read_text())["system"])
        full = design_search(spec, max_sub_block_order=6, pareto_only=False)
        assert len(full.weighted_sum) == 12_635
        flags = np.array(pareto_all_pairs(full.rates, [0, 1, 2]), dtype=bool)
        front = design_search(spec, max_sub_block_order=6)
        assert len(front.weighted_sum) == flags.sum() > 0
        assert columns(front) == columns(full, flags)


def columns(result, rows=slice(None)):
    """Every column of a search result (the given rows), as dtype, shape
    and bytes, for bitwise comparison."""
    picked = {name: getattr(result, name)[rows]
              for name in ("orders", "rates", "weighted_sum", "info_bits",
                           "codeword_bits", "min_order_slack")}
    return {name: (c.dtype.str, c.shape, c.tobytes())
            for name, c in picked.items()}


# N 100/300/1000/2000 and |h|^2 of 22/25/15/10 dB: the strongest user is
# second, so sub-block 0 ranks its users out of index order
FOUR_USER = {"P": 1.0, "users": [
    {"N": n, "eps": eps, "h_re": math.sqrt(10 ** (db / 10)), "h_im": 0.0}
    for n, eps, db in ((100, 1e-6, 22), (300, 1e-5, 25), (1000, 1e-4, 15),
                       (2000, 1e-5, 10))]}


@pytest.mark.parametrize("system, cap, pareto_only", [
    pytest.param("three_user", 4, True, id="4-True"),
    pytest.param("three_user", 6, True, id="6-True"),
    pytest.param("three_user", 4, False, id="4-False"),
    pytest.param(FOUR_USER, 3, True, id="four_user-3-True"),
    pytest.param(FOUR_USER, 3, False, id="four_user-3-False")])
def test_three_user_search_matches_list_built_search(system, cap,
                                                     pareto_only):
    """Same rows, columns and order as the search that built its candidates
    as a list of tuples, filtered them one at a time and packaged each
    returned one in Python."""
    if system == "three_user":
        system = json.loads(
            (ROOT / "configs" / "three_user.json").read_text())["system"]
    spec = SystemSpec.from_dict(system)
    got = design_search(spec, max_sub_block_order=cap,
                        pareto_only=pareto_only)
    want = design_search_reference(spec, max_sub_block_order=cap,
                                   pareto_only=pareto_only)
    assert len(got.weighted_sum) == len(want.weighted_sum) > 0
    assert columns(got) == columns(want)


@pytest.mark.parametrize("system, cap", [
    pytest.param("three_user", 6, id="three_user-6"),
    pytest.param(FOUR_USER, 3, id="four_user-3")])
def test_kernel_table_matches_per_key_integration(system, cap):
    """One table over every key of a search equals each key with both of
    its dimensions integrated on its own, bit for bit, and a one-level
    dimension (the user puts no bits there) adds exactly 0.0."""
    if system == "three_user":
        system = json.loads(
            (ROOT / "configs" / "three_user.json").read_text())["system"]
    spec = SystemSpec.from_dict(system)
    links = [(abs(spec.users[k].h), block_parts(spec, sb.index, mv), k)
             for sb in build_layout(spec).sub_blocks if sb.length
             for mv in feasible_rank_vectors(spec, sb, cap)
             for m, k in zip(mv, sb.ranks) if m]
    table = rates.sub_block_stats_table(
        [rates.receive_grids(*link) for link in links])
    assert table.shape == (len(links), 2)
    for got, link in zip(table, links):
        want = sub_block_stats_per_key(*link)
        assert bits(got) == bits([want.mi, want.dispersion])
    one_level = {grid.tobytes(): grid for link in links
                 for grid in rates.receive_grids(*link) if grid.shape[0] == 1}
    assert one_level
    for grid in one_level.values():
        assert bits(rates.dimension_stats(grid)) == bits([0.0, 0.0])


def test_search_builds_each_grid_once(monkeypatch):
    """The three_user.json search at cap 4 builds each distinct receive grid
    once and never a one-level one: 46 grids for its 84 links, whose 129
    multi-level grids all reach the kernel table."""
    built, tables = [], []
    build, table = rates.receive_grid, rates.sub_block_stats_table

    def counting_build(*key):
        grid = build(*key)
        built.append((key, grid.shape[0]))
        return grid

    def recording_table(links):
        links = list(links)
        tables.append(links)
        return table(links)

    monkeypatch.setattr(rates, "receive_grid", counting_build)
    monkeypatch.setattr(rates, "sub_block_stats_table", recording_table)
    spec = SystemSpec.from_dict(json.loads(
        (ROOT / "configs" / "three_user.json").read_text())["system"])
    design_search(spec, max_sub_block_order=4)
    keys = [key for key, _ in built]
    assert len(keys) == len(set(keys)) == 46
    assert min(levels for _, levels in built) > 1
    [links] = tables
    assert len(links) == 84 and sum(map(len, links)) == 129


@pytest.mark.parametrize("system", [
    pytest.param("three_user", id="three_user"),
    pytest.param(FOUR_USER, id="four_user")])
def test_listed_orders_match_search(system):
    """Listing every candidate of a search, plus an infeasible and the
    all-silent matrix, scores exactly the search's rows: both paths share
    one feasibility pass and one row table."""
    if system == "three_user":
        system = json.loads(
            (ROOT / "configs" / "three_user.json").read_text())["system"]
    spec = SystemSpec.from_dict(system)
    search = design_search(spec, max_sub_block_order=3, pareto_only=False)
    all_silent = [[0] * (k + 1) for k in range(spec.K)]
    infeasible = [[13]] + all_silent[1:]
    assert not check_modulation_constraints(infeasible, spec).feasible
    listed = [search.order_matrix(i) for i in range(len(search.weighted_sum))]
    got = design_search(spec, orders=listed + [infeasible, all_silent])
    assert len(got.weighted_sum) == len(search.weighted_sum) > 100
    assert columns(got) == columns(search)


def test_listed_orders_build_rows_once_per_vector(monkeypatch):
    """The listed `two_user_urllc.json` design builds feasibility rows once
    per distinct (sub-block, vector) and never checks a whole matrix."""
    calls = {"rows": 0, "check": 0}
    rows, check = scheme._sub_block_rows, scheme.check_modulation_constraints

    def counting_rows(*args):
        calls["rows"] += 1
        return rows(*args)

    def counting_check(*args, **kwargs):
        calls["check"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(scheme, "_sub_block_rows", counting_rows)
    monkeypatch.setattr(scheme, "check_modulation_constraints",
                        counting_check)
    cfg = json.loads((ROOT / "configs" / "two_user_urllc.json").read_text())
    spec = SystemSpec.from_dict(cfg["system"])
    listed = cfg["design"]["orders"]
    res = design_search(spec, cfg["design"]["weights"], orders=listed)
    layout = build_layout(spec)
    distinct = {(sb.index, tuple(o[u][sb.index] for u in sb.ranks))
                for o in listed for sb in layout.sub_blocks}
    assert len(res.weighted_sum) == len(listed) and len(distinct) == 5
    assert calls == {"rows": 5, "check": 0}
