"""CLI commands: configs, CSV outputs, exit codes, determinism."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tinlink
from tinlink import cli, linksim, rates, scheme
from tinlink.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_NO_DESIGN,
    EXIT_OK,
    main,
)
from tinlink.scheme import SystemSpec, UserSpec, build_layout

from oracles import (
    frame_seeds_reference,
    param_str_reference,
    power_splits_reference,
    write_csv_reference,
)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "system": {
            "P": 1.0,
            "users": [
                {"N": 128, "eps": 1e-6, "h_re": math.sqrt(10 ** 1.8), "h_im": 0.0},
                {"N": 256, "eps": 1e-4, "h_re": math.sqrt(10 ** 0.5), "h_im": 0.0},
            ],
        },
        "sampling": {"n_noise_samples": 2000, "seed": 11},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


class TestDesign:
    def test_explicit_urllc_orders(self, tmp_path):
        cfg = write_config(tmp_path, design={"orders": [[[2], [4, 4]]]})
        out = tmp_path / "design.csv"
        plan_out = tmp_path / "plan.json"
        code = main(["design", "--config", str(cfg), "--out", str(out),
                     "--plan-out", str(plan_out)])
        assert code == EXIT_OK
        header, rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["orders"] == "2|4,4"
        assert row["n_1"] == "256" and row["n_2"] == "1024"
        r1, r2 = float(row["R_1"]), float(row["R_2"])
        assert int(row["k_1"]) == math.floor(r1 * 128)
        assert int(row["k_2"]) == math.floor(r2 * 256)
        assert row["seed"] == "11"
        plan = json.loads(plan_out.read_text())
        assert plan["orders"] == [[2], [4, 4]]

    def test_rows_independent_of_seed(self, tmp_path):
        cfg = write_config(tmp_path, design={"max_sub_block_order": 6})
        tables = []
        for seed in ("1", "2"):
            out = tmp_path / f"design{seed}.csv"
            assert main(["design", "--config", str(cfg), "--out", str(out),
                         "--seed", seed]) == EXIT_OK
            _, rows = read_rows(out)
            assert rows and all(r.pop("seed") == seed for r in rows)
            tables.append(rows)
        assert tables[0] == tables[1]

    def test_explicit_weights_must_match_users(self, tmp_path):
        cfg = write_config(tmp_path, design={"orders": [[[2], [4, 4]]],
                                             "weights": [1.0]})
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("bad", [[[2], [4]], [[2], [4, -1]],
                                     [[2.5], [4, 4]], [[True], [4, 4]]])
    def test_explicit_malformed_orders_exit_2(self, tmp_path, bad):
        cfg = write_config(tmp_path, design={"orders": [[[2], [4, 4]], bad]})
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_BAD_CONFIG

    def test_explicit_all_infeasible_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, design={
            "orders": [[[2], [5, 4]], [[8], [4, 4]]]})
        out = tmp_path / "d.csv"
        assert main(["design", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_NO_DESIGN
        assert read_rows(out)[1] == []

    def test_listed_all_silent_matrix_skipped(self, tmp_path):
        # it was scored as rank 0 with zero rates and exited 0
        out = tmp_path / "d.csv"
        plan_out = tmp_path / "plan.json"
        silent = write_config(tmp_path, design={"orders": [[[0], [0, 0]]]})
        assert main(["design", "--config", str(silent), "--out", str(out),
                     "--plan-out", str(plan_out)]) == EXIT_NO_DESIGN
        assert read_rows(out)[1] == [] and not plan_out.exists()
        mixed = write_config(tmp_path, name="mixed.json", design={
            "orders": [[[0], [0, 0]], [[2], [4, 4]]]})
        assert main(["design", "--config", str(mixed),
                     "--out", str(out)]) == EXIT_OK
        assert [r["orders"] for r in read_rows(out)[1]] == ["2|4,4"]

    def test_search_infeasible_power_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, system={
            "P": 1e-9,
            "users": [{"N": 64, "eps": 1e-6, "h_re": 1.0, "h_im": 0.0}],
        })
        out = tmp_path / "design.csv"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NO_DESIGN
        header, rows = read_rows(out)
        assert rows == []
        assert header[0] == "build_id"

    def test_small_search_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system={"P": 1.0, "users": [
                {"N": 24, "eps": 1e-5, "h_re": 4.0, "h_im": 0.0},
                {"N": 32, "eps": 1e-4, "h_re": 1.5, "h_im": 0.0}]},
            design={"max_sub_block_order": 4})
        out = tmp_path / "design.csv"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert rows
        ranks = [int(r["rank"]) for r in rows]
        assert ranks == sorted(ranks)


class TestRateRegion:
    def region_config(self, tmp_path):
        return write_config(
            tmp_path,
            system={"P": 1.0, "users": [
                {"N": 24, "eps": 1e-5, "h_re": 4.0, "h_im": 0.0},
                {"N": 32, "eps": 1e-4, "h_re": 1.5, "h_im": 0.0}]},
            rate_region={"power_steps": 5, "max_sub_block_order": 4})

    def test_outputs_all_point_types(self, tmp_path):
        cfg = self.region_config(tmp_path)
        out = tmp_path / "region.csv"
        assert main(["rate-region", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        kinds = {r["point_type"] for r in rows}
        assert {"qam_tin", "gauss_sic", "gauss_tin"} <= kinds
        assert "shell_sic" in kinds  # splits with a silent strong user
        for r in rows:
            if r["point_type"] == "qam_tin":
                assert r["orders"]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = self.region_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["rate-region", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["rate-region", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = self.region_config(tmp_path)
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert main(["rate-region", "--config", str(cfg), "--out", str(serial),
                     "--workers", "1"]) == EXIT_OK
        assert main(["rate-region", "--config", str(cfg), "--out", str(pooled),
                     "--workers", "4"]) == EXIT_OK
        assert serial.read_bytes() == pooled.read_bytes()

    def test_region_skips_pareto_filter(self, tmp_path, monkeypatch):
        """rate-region writes every candidate, so it never runs the Pareto
        filter, and its rows are those of an unpatched run."""
        cfg = json.loads((ROOT / "configs" / "three_user.json").read_text())
        cfg["rate_region"]["power_steps"] = 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert main(["rate-region", "--config", str(path),
                     "--out", str(want)]) == EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("rate-region ran the Pareto filter")

        monkeypatch.setattr(scheme, "_pareto_flags", refuse)
        assert main(["rate-region", "--config", str(path),
                     "--out", str(got)]) == EXIT_OK
        assert got.read_bytes() == want.read_bytes()
        _, rows = read_rows(got)
        assert sum(r["point_type"] == "qam_tin" for r in rows) == 12_635

    @pytest.mark.parametrize("command", ["rate-region", "benchmark"])
    def test_single_power_step_exits_2(self, tmp_path, command):
        cfg = write_config(tmp_path, rate_region={"power_steps": 1})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG

    # benchmark reads the cap without using it and used to exit 0
    @pytest.mark.parametrize("command", ["rate-region", "benchmark"])
    def test_negative_order_cap_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, rate_region={
            "power_steps": 2, "max_sub_block_order": -1})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
        assert "max_sub_block_order" in capsys.readouterr().err

    # [32, 32] and [24, 24, 48] leave a sub-block empty
    @pytest.mark.parametrize("lengths", [[40], [24, 32], [32, 32],
                                         [24, 32, 48], [24, 24, 48],
                                         [24, 32, 32]])
    def test_split_grid_matches_recursion(self, lengths):
        """Same splits, in the same order, with bit-equal powers and the
        same param strings as the recursive generators."""
        spec = SystemSpec.create(1.5, [UserSpec(n, 1e-5, 2.0 + 1.5 * k)
                                       for k, n in enumerate(lengths)])
        layout = build_layout(spec)
        for steps in range(2, 8):
            shape, tables = cli._split_tables(spec, layout, steps)
            reference = list(power_splits_reference(spec, layout, steps))
            assert math.prod(shape) == len(reference)
            # in two chunks, so the second starts inside the index
            half = len(reference) // 2
            chunks = [cli._power_splits(shape, tables, start, stop)
                      for start, stop in ((0, half), (half, len(reference)))]
            powers = {key: np.concatenate([c[0][key] for c in chunks])
                      for key in chunks[0][0]}
            assert all(split.keys() == powers.keys() for split in reference)
            for key, column in powers.items():
                assert column.tobytes() == np.array(
                    [split[key] for split in reference]).tobytes()
            params = ["".join(row) for items in (c[1] for c in chunks)
                      for row in zip(*items)]
            assert params == [param_str_reference(split) + ",,"
                              for split in reference]

    # three_user.json at 3 steps (243 splits, some with a shell row and some
    # without) and two_user_equal_blocklength.json (41 splits on one
    # sub-block); 16 divides neither count
    @pytest.mark.parametrize("config, steps", [
        ("three_user", 3), ("two_user_equal_blocklength", None)])
    @pytest.mark.parametrize("command", ["rate-region", "benchmark"])
    def test_chunk_boundaries_leave_bytes(self, tmp_path, monkeypatch,
                                          config, steps, command):
        cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        if steps is not None:
            cfg["rate_region"]["power_steps"] = steps
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))

        def run(chunk):
            monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
            out = tmp_path / f"{chunk}.csv"
            assert main([command, "--config", str(path),
                         "--out", str(out)]) == EXIT_OK
            return out.read_bytes()

        whole = run(10 ** 6)
        _, rows = read_rows(tmp_path / f"{10 ** 6}.csv")
        sic = sum(r["point_type"] == "gauss_sic" for r in rows)
        shell = sum(r["point_type"] == "shell_sic" for r in rows)
        assert 0 < shell < sic
        for chunk in (1, 7, 16):
            assert run(chunk) == whole

    def test_sweep_memory_follows_the_chunk(self, tmp_path):
        """The traced peak of `benchmark` on three_user.json at 9 steps
        (59,049 splits) stays within twice the peak at 5 steps (3,125).
        tracemalloc sees numpy's buffers as well as Python objects."""
        cfg = json.loads((ROOT / "configs" / "three_user.json").read_text())

        def peak(steps):
            cfg["rate_region"]["power_steps"] = steps
            path = tmp_path / f"{steps}.json"
            path.write_text(json.dumps(cfg))
            tracemalloc.start()
            try:
                assert main(["benchmark", "--config", str(path), "--out",
                             str(tmp_path / f"{steps}.csv")]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call set-up is not part of either sweep
        assert peak(9) <= 2 * peak(5)

    def test_benchmark_only_command(self, tmp_path):
        cfg = self.region_config(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert rows and all(r["point_type"] != "qam_tin" for r in rows)

    @pytest.mark.parametrize("config", ["two_user_urllc", "three_user"])
    def test_region_without_qam_writes_benchmark_bytes(self, tmp_path,
                                                       config):
        """rate_region.include_qam false leaves the benchmark sweep alone:
        rate-region then writes exactly what benchmark writes on the
        bundled config, build_id masked."""
        bundled = ROOT / "configs" / f"{config}.json"
        cfg = json.loads(bundled.read_text())
        cfg.setdefault("rate_region", {})["include_qam"] = False
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        region, bench = tmp_path / "region.csv", tmp_path / "bench.csv"
        assert main(["rate-region", "--config", str(path),
                     "--out", str(region)]) == EXIT_OK
        assert main(["benchmark", "--config", str(bundled),
                     "--out", str(bench)]) == EXIT_OK
        build = f"\r\n{cli.build_id()},".encode()

        def masked(out):
            rows = out.read_bytes()
            assert rows.count(build) == rows.count(b"\r\n") - 1
            return rows.replace(build, b"\r\n-,")

        assert masked(region) == masked(bench)
        assert b"qam_tin" not in masked(region)


class TestSimulate:
    def single_user_config(self, tmp_path, **simulate):
        return write_config(
            tmp_path,
            system={"P": 1e9, "users": [
                {"N": 16, "eps": 1e-5, "h_re": 1.0, "h_im": 0.0}]},
            simulate={"n_frames": 1, **simulate})

    # [[17]] exceeds the 16-bit order cap
    @pytest.mark.parametrize("orders", [[[17]]])
    def test_oversized_orders_exit_2(self, tmp_path, orders):
        cfg = self.single_user_config(tmp_path, orders=orders)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim.csv")]) == EXIT_BAD_CONFIG

    def test_thirteen_bit_order_round_trips(self, tmp_path):
        # 2^13 points: the demapper works per dimension (128 x 64 levels)
        cfg = self.single_user_config(tmp_path, orders=[[13]])
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert [r["zero_noise_roundtrip"] for r in rows] == ["yes"]

    def test_all_silent_orders_exit_3(self, tmp_path, capsys):
        # they exited 0 with zero_noise_roundtrip "yes" over 0 bits
        cfg = write_config(tmp_path, simulate={"orders": [[0], [0, 0]],
                                               "n_frames": 1})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_NO_DESIGN
        assert "no bits to send" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_frames", [0, -3])
    def test_nonpositive_frames_exit_2(self, tmp_path, n_frames):
        cfg = self.single_user_config(tmp_path, orders=[[2]],
                                      n_frames=n_frames)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim.csv")]) == EXIT_BAD_CONFIG

    def test_simulate_reports_roundtrip_and_power(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system={"P": 1.0, "users": [
                {"N": 24, "eps": 1e-5, "h_re": 9.0, "h_im": 0.0},
                {"N": 32, "eps": 1e-4, "h_re": 4.0, "h_im": 0.0}]},
            simulate={"orders": [[2], [2, 2]], "n_frames": 20})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert len(rows) == 2
        for r in rows:
            assert r["zero_noise_roundtrip"] == "yes"
            assert float(r["mean_symbol_power"]) == pytest.approx(1.0, abs=0.1)
            assert 0.0 <= float(r["uncoded_ber"]) < 0.5

    # every cell but build_id of `simulate` before frames were synthesized
    # and demapped in blocks: the link-3u benchmark plan at 60 frames and
    # the bundled two-user URLLC config
    @pytest.mark.parametrize("config, orders, n_frames, seed, lines", [
        ("three_user.json", [[2], [2, 4], [2, 4, 2]], 60, 1, [
            "1,10000,1,60,24000,63,0.002625,1.00031708683,yes",
            "1,10000,2,60,216000,4881,0.0225972222222,1.00031708683,yes",
            "1,10000,3,60,336000,22289,0.0663363095238,1.00031708683,yes"]),
        ("two_user_urllc.json", None, None, None, [
            "20240803,200000,1,200,51200,3771,0.07365234375,0.998175595238,yes",
            "20240803,200000,2,200,204800,35714,0.174384765625,"
            "0.998175595238,yes"]),
    ], ids=["link-3u", "two_user_urllc"])
    def test_simulate_cells_pinned(self, tmp_path, config, orders, n_frames,
                                   seed, lines):
        cfg = json.loads((ROOT / "configs" / config).read_text())
        if orders is not None:
            cfg["simulate"] = {"orders": orders, "n_frames": n_frames}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        assert main(argv + (["--seed", str(seed)] if seed else [])) == EXIT_OK
        got = out.read_text().splitlines()
        assert got[0].startswith("build_id,")
        assert [line.split(",", 1)[1] for line in got[1:]] == lines

    def test_each_frame_simulated_once(self, tmp_path, monkeypatch):
        # frames are synthesized in blocks: every frame's payload and noise
        # seeds are drawn once, the zero-noise frame is the first frame
        # without noise rather than a second synthesis, each active
        # segment's receive grids are built once, by the run's one plan, and
        # each segment is demapped once per block (on 1-D samples) plus once
        # for the zero-noise frame
        per_block = max(1, linksim._BLOCK_SYMBOLS // 2000)
        n_frames = per_block + 2  # a full block and a partial one
        cfg = json.loads((ROOT / "configs" / "three_user.json").read_text())
        cfg["simulate"] = {"orders": [[2], [2, 4], [2, 4, 2]],
                           "n_frames": n_frames}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        calls = {"seeds": [], "frames": 0, "setups": [], "llrs": [],
                 "synth": 0}
        default_rng = np.random.default_rng
        build_frame = scheme.build_frame
        receive_grids = rates.receive_grids
        tin_llr = linksim.tin_llr

        def record_rng(seed):
            calls["seeds"].append(seed)
            return default_rng(seed)

        def count_frame(*args, **kwargs):
            calls["frames"] += 1
            raise AssertionError("simulate_frame is the one-frame API")

        def count_synth(symbols, plan):
            calls["synth"] += 1
            return build_frame(symbols, plan)

        def count_setup(g, parts, user):
            # parts holds sub-block j's participants, users j..K-1
            calls["setups"].append((user, min(parts)))
            return receive_grids(g, parts, user)

        def count_llr(y, user, sub_block, plan, **kwargs):
            calls["llrs"].append((np.ndim(y), len(y), user, sub_block))
            return tin_llr(y, user, sub_block, plan, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", record_rng)
        monkeypatch.setattr(linksim, "simulate_frame", count_frame)
        monkeypatch.setattr(linksim, "build_frame", count_synth)
        monkeypatch.setattr(rates, "receive_grids", count_setup)
        monkeypatch.setattr(linksim, "tin_llr", count_llr)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
        segments = [(k, j) for k, row in enumerate(cfg["simulate"]["orders"])
                    for j, m in enumerate(row) if m]
        seed = cfg["sampling"]["seed"]
        assert sorted(calls["seeds"]) == sorted(
            s for f in range(n_frames) for s in frame_seeds_reference(seed, f))
        assert calls["frames"] == 0
        assert calls["synth"] == 2
        assert sorted(calls["setups"]) == segments
        assert len(calls["llrs"]) == (2 + 1) * len(segments)
        assert {ndim for ndim, *_ in calls["llrs"]} == {1}
        bounds = [0] + [u["N"] for u in cfg["system"]["users"]]
        for k, j in segments:
            lengths = sorted(n for _, n, user, sb in calls["llrs"]
                             if (user, sb) == (k, j))
            width = bounds[j + 1] - bounds[j]
            assert lengths == sorted([width, width * per_block,
                                      width * (n_frames - per_block)])


class TestValidate:
    def test_clean_build_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "validate.csv"
        code = main(["validate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        assert rows and all(r["passed"] == "yes" for r in rows)
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed

    # every edit but the codeword lengths used to PASS: only `eta` and
    # `codeword_lengths` were compared with the rebuilt plan
    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["codeword_lengths"].__setitem__(
            0, d["codeword_lengths"][0] + 8), "codeword_lengths[0]"),
        (lambda d: d["entries"][0].__setitem__(
            "amp_i", 3 * d["entries"][0]["amp_i"]), "entries[0].amp_i"),
        (lambda d: d.__setitem__("sub_block_power", [9, 9]),
         "sub_block_power[0]"),
        (lambda d: d.pop("entries"), "entries"),
        (lambda d: d["entries"][0].__setitem__(
            "i_bits", d["entries"][0]["i_bits"] + 1), "entries[0].i_bits"),
        (lambda d: d.__setitem__("note", "hand-edited"), "note")],
        ids=["codeword_lengths", "amp_i-tripled", "sub_block_power",
             "no-entries", "i_bits", "extra-key"])
    def test_corrupted_plan_schema_error(self, tmp_path, capsys, edit, field):
        cfg = write_config(tmp_path, design={"orders": [[[2], [4, 4]]]})
        plan_out = tmp_path / "plan.json"
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv"),
                     "--plan-out", str(plan_out)]) == EXIT_OK
        data = json.loads(plan_out.read_text())
        edit(data)
        plan_out.write_text(json.dumps(data))
        vcfg = write_config(tmp_path, name="validate.json",
                            validate={"plan": str(plan_out)})
        code = main(["validate", "--config", str(vcfg)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("plan schema error:")
        assert f"plan file field {field} " in err

    def test_all_silent_plan_file_exit_2(self, tmp_path, capsys):
        # a plan file that matches its rebuilt plan but sends no bits used
        # to PASS, although design and simulate refuse that order matrix
        system = json.loads(
            (ROOT / "configs" / "two_user_urllc.json").read_text())["system"]
        plan_out = tmp_path / "plan.json"
        plan_out.write_text(json.dumps(scheme.assign_power(
            [[0], [0, 0]], SystemSpec.from_dict(system)).to_dict()))
        vcfg = write_config(tmp_path, name="validate.json", system=system,
                            validate={"plan": str(plan_out)})
        assert main(["validate", "--config", str(vcfg)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("plan schema error:") and "sends no bits" in err

    @pytest.mark.parametrize("name", [
        "three_user.json", "two_user_equal_blocklength.json",
        "two_user_search.json", "two_user_urllc.json"])
    def test_fresh_plan_file_passes(self, tmp_path, capsys, name):
        # the stricter plan check accepts every plan `design` writes
        cfg = json.loads((ROOT / "configs" / name).read_text())
        plan_out = tmp_path / "plan.json"
        design = write_config(tmp_path, name="design.json",
                              **{**cfg, "command": "design"})
        assert main(["design", "--config", str(design),
                     "--out", str(tmp_path / "d.csv"),
                     "--plan-out", str(plan_out)]) == EXIT_OK
        validate = write_config(tmp_path, name="validate.json",
                                **{**cfg, "command": "validate",
                                   "validate": {"plan": str(plan_out)}})
        assert main(["validate", "--config", str(validate)]) == EXIT_OK
        assert (f"plan_schema: PASS {plan_out}"
                in capsys.readouterr().out.splitlines())

    def test_rows_independent_of_samples(self, tmp_path):
        # no check samples noise, so --samples is only echoed
        cfg = ROOT / "configs" / "two_user_urllc.json"
        cells = {}
        for samples in (None, "1000"):
            out = tmp_path / f"validate_{samples}.csv"
            extra = ["--samples", samples] if samples else []
            assert main(["validate", "--config", str(cfg), "--out", str(out),
                         *extra]) == EXIT_OK
            _, rows = read_rows(out)
            assert {r["n_noise_samples"] for r in rows} == {samples or "200000"}
            cells[samples] = [(r["check"], r["passed"], r["detail"])
                              for r in rows]
        assert cells[None] == cells["1000"]
        assert [c for c, _, _ in cells[None]][-1] == "kernel_vs_quadrature"

    def test_kernel_without_interference_fails(self, tmp_path, monkeypatch,
                                               capsys):
        # one interferer-sum column per grid: the interference-free kernel
        table = rates.sub_block_stats_table
        monkeypatch.setattr(rates, "sub_block_stats_table", lambda links: table(
            [[grid[:, :1] for grid in grids] for grids in links]))
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == EXIT_CHECK_FAILED
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert len(failed) == 1
        assert failed[0].startswith("kernel_vs_quadrature: FAIL")


class TestConfigHandling:
    def test_missing_system_section(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG

    def test_declared_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, command="rate-region")
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG

    def test_bad_eps_rejected(self, tmp_path):
        cfg = write_config(tmp_path, system={
            "P": 1.0, "users": [{"N": 64, "eps": 0.9, "h_re": 1.0, "h_im": 0.0}]})
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG

    SYSTEM = {"P": 1.0, "users": [
        {"N": 24, "eps": 1e-5, "h_re": 9.0, "h_im": 0.0},
        {"N": 32, "eps": 1e-4, "h_re": 4.0, "h_im": 0.0}]}
    OVERFLOW = {"P": 1e300, "users": [
        {"N": 16, "eps": 1e-3, "h_re": 1e10, "h_im": 0.0},
        {"N": 32, "eps": 1e-3, "h_re": 2.0, "h_im": 0.0}]}

    # each value used to raise out of main (exit 1, which also means a failed
    # check) or to be read as something else (2.7 -> 2 frames, true -> 1
    # frame, N 128.9 -> 128, "false" -> filter anyway)
    @pytest.mark.parametrize("command, overrides, key", [
        ("design", {"design": {"max_sub_block_order": "abc"}},
         "max_sub_block_order"),
        ("design", {"design": {"max_sub_block_order": None}},
         "max_sub_block_order"),
        ("design", {"sampling": {"n_noise_samples": "many"}},
         "n_noise_samples"),
        ("design", {"sampling": {"seed": "x"}}, "seed"),
        ("simulate", {"simulate": {"orders": [[2], [2, 2]],
                                   "n_frames": "ten"}}, "n_frames"),
        ("rate-region", {"rate_region": {"power_steps": None}},
         "power_steps"),
        ("design", {"design": [2, 4]}, "design"),
        ("design", {"sampling": [2000, 1]}, "sampling"),
        ("design", {"system": {**SYSTEM, "P": "x"}}, "x"),
        ("simulate", {"simulate": {"orders": [[2], [2, 2]],
                                   "n_frames": 2.7}}, "n_frames"),
        ("simulate", {"simulate": {"orders": [[2], [2, 2]],
                                   "n_frames": True}}, "n_frames"),
        ("design", {"system": {**SYSTEM, "users": [
            {**SYSTEM["users"][0], "N": 128.9}, SYSTEM["users"][1]]}},
         "malformed system spec"),
        ("design", {"design": {"pareto_only": "false"}}, "pareto_only"),
        # wrong JSON types used to be read as values: true -> N = 1, strings
        # parsed as numbers, weights [true, 1] -> [1.0, 1.0]
        ("design", {"system": {**SYSTEM, "users": [
            {**SYSTEM["users"][0], "N": True}, SYSTEM["users"][1]]}}, "N"),
        ("design", {"system": {**SYSTEM, "users": [
            {**SYSTEM["users"][0], "eps": "1e-06"}, SYSTEM["users"][1]]}},
         "eps"),
        ("design", {"system": {**SYSTEM, "P": "1.0"}}, "P"),
        ("design", {"system": {**SYSTEM, "users": [
            {**SYSTEM["users"][0], "h_im": True}, SYSTEM["users"][1]]}},
         "h_im"),
        ("design", {"design": {"max_sub_block_order": 4,
                               "weights": [True, 1]}}, "weight"),
        # NaN and Infinity, which Python's json reads: P = Infinity or an
        # integer beyond the float range raised OverflowError, h_re = NaN
        # and a NaN weight gave rows
        ("design", {"system": {**SYSTEM, "P": math.inf}}, "P"),
        ("design", {"system": {**SYSTEM, "P": 10 ** 400}}, "P"),
        ("design", {"system": {**SYSTEM, "users": [
            {**SYSTEM["users"][0], "h_re": math.nan}, SYSTEM["users"][1]]}},
         "h_re"),
        ("design", {"design": {"max_sub_block_order": 4,
                               "weights": [math.nan, 1]}}, "weight"),
        # an order cap below 1 used to exit 3, as if the system were
        # infeasible
        ("design", {"design": {"max_sub_block_order": -1}},
         "max_sub_block_order"),
        ("rate-region", {"rate_region": {"power_steps": 2,
                                         "max_sub_block_order": 0}},
         "max_sub_block_order"),
        # orders 5 raised TypeError out of design_search; [] and {} exited 3
        # as if no listed matrix were feasible
        ("design", {"design": {"orders": 5}}, "orders"),
        ("design", {"design": {"orders": []}}, "orders"),
        ("design", {"design": {"orders": {}}}, "orders"),
        # plan 5 was opened as file descriptor 5, ["x"] raised TypeError, and
        # 0 and false were skipped
        ("validate", {"validate": {"plan": 5}}, "plan"),
        ("validate", {"validate": {"plan": ["x"]}}, "plan"),
        ("validate", {"validate": {"plan": 0}}, "plan"),
        ("validate", {"validate": {"plan": False}}, "plan"),
        # a negative seed raised ValueError in np.random.default_rng
        ("validate", {"sampling": {"seed": -2}}, "seed"),
        ("simulate", {"simulate": {"orders": [[2], [2, 2]]},
                      "sampling": {"seed": -5}}, "seed"),
        # "" skipped the plan check and exited 0 with no plan_schema row
        ("validate", {"validate": {"plan": ""}}, "plan"),
        # true and 1.0 compared equal to 1 and were accepted
        ("design", {"schema_version": True}, "schema_version"),
        ("design", {"schema_version": 1.0}, "schema_version"),
        # an SNR beyond the float range: design raised OverflowError in its
        # bit budgets, benchmark wrote NaN cells (P = 1e300) or dropped its
        # shell rows (P = 1e200), and |h|^2 beyond the range raised too
        ("design", {"system": OVERFLOW}, "user 1 (N = 16"),
        ("rate-region", {"system": OVERFLOW}, "user 1 (N = 16"),
        ("benchmark", {"system": OVERFLOW}, "user 1 (N = 16"),
        ("benchmark", {"system": {**OVERFLOW, "P": 1e200}}, "user 1"),
        ("design", {"system": {**OVERFLOW, "P": 1e-300, "users": [
            {**OVERFLOW["users"][0], "h_re": 1e200},
            OVERFLOW["users"][1]]}}, "user 1"),
        # a sweep beyond numpy's index range raised ValueError in np.linspace
        *(pytest.param(command, {"rate_region": {"power_steps": 10 ** 30}},
                       f"{10 ** 60} power splits (power_steps {10 ** 30})",
                       id=f"{command}-power_steps-1e30")
          for command in ("rate-region", "benchmark")),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, command,
                                     overrides, key):
        cfg = write_config(tmp_path, **{"system": self.SYSTEM,
                                        "design": {"max_sub_block_order": 4},
                                        **overrides})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        # every config check runs before the output is opened
        assert not (tmp_path / "o.csv").exists()

    # an allocation that fails raised MemoryError out of main; the sweep
    # names its split count (3 steps on two 2-user axes: 9).  The sweep's
    # grid is built chunk by chunk in `_power_splits`, after the output is
    # opened
    @pytest.mark.parametrize("command, target, key", [
        ("rate-region", (cli, "_power_splits"), "9 power splits"),
        ("benchmark", (rates, "bc_shell_rates"), "9 power splits"),
        ("design", (scheme, "design_search"), "error: out of memory"),
    ])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch,
                                   command, target, key):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(*target, exhausted)
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           rate_region={"power_steps": 3,
                                        "max_sub_block_order": 2})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["rate-region", "benchmark"])
    def test_failed_sweep_keeps_written_chunks(self, tmp_path, capsys,
                                               monkeypatch, command):
        """A sweep that fails in its second chunk exits 2 and leaves the
        header, any QAM rows and the lines of the first chunk's splits."""
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           rate_region={"power_steps": 3,
                                        "max_sub_block_order": 2})
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        assert main([command, "--config", str(cfg),
                     "--out", str(full)]) == EXIT_OK
        build, calls = cli._power_splits, []

        def first_chunk_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise MemoryError
            return build(*args)

        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 4)
        monkeypatch.setattr(cli, "_power_splits", first_chunk_only)
        assert main([command, "--config", str(cfg),
                     "--out", str(part)]) == EXIT_BAD_CONFIG
        assert "9 power splits" in capsys.readouterr().err
        written = part.read_bytes()
        assert full.read_bytes().startswith(written)
        _, rows = read_rows(part)
        assert sum(r["point_type"] == "gauss_sic" for r in rows) == 4
        assert len(read_rows(full)[1]) > len(rows)

    # an unwritable path raised OSError out of main: a traceback and exit 1,
    # which means a failed check
    @pytest.mark.parametrize("command, option", [
        ("design", "--out"), ("design", "--plan-out"),
        ("rate-region", "--out"), ("benchmark", "--out"),
        ("simulate", "--out"), ("validate", "--out")])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command,
                                       option):
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           design={"max_sub_block_order": 4},
                           rate_region={"power_steps": 2,
                                        "max_sub_block_order": 2},
                           simulate={"orders": [[2], [2, 2]], "n_frames": 1})
        missing = str(tmp_path / "missing" / "x")
        paths = {"--out": str(tmp_path / "o.csv"), option: missing}
        argv = [command, "--config", str(cfg)]
        for flag, path in paths.items():
            argv += [flag, path]
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_option_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           simulate={"orders": [[2], [2, 2]]})
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv"), "--seed", "-5"]) == (
            EXIT_BAD_CONFIG)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err


ROOT = Path(__file__).resolve().parent.parent


class TestEmptySubBlockOrders:
    """An order in the empty sub-block 2 of two_user_equal_blocklength.json
    exits 2 with a message naming the user and the sub-block.  Design kept
    [[2], [2, 9]] as a 9-bit design, stopped [[2], [2, 17]] on its
    cumulative order and exited 3 on [[8], [8, 17]] without a reason;
    simulate and a validate plan file took such orders as they were."""

    SYSTEM = json.loads((ROOT / "configs" / "two_user_equal_blocklength.json"
                         ).read_text())["system"]

    def assert_rejected(self, capsys, order):
        err = capsys.readouterr().err
        assert f"user 2 has order {order} in sub-block 2, " in err

    @pytest.mark.parametrize("orders", [
        [[2], [2, 9]], [[2], [2, 17]], [[8], [8, 17]]],
        ids=["2|2,9", "2|2,17", "8|8,17"])
    def test_design_orders_exit_2(self, tmp_path, capsys, orders):
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           design={"orders": [orders]})
        assert main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_BAD_CONFIG
        self.assert_rejected(capsys, orders[1][1])

    def test_simulate_orders_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, system=self.SYSTEM, simulate={
            "orders": [[2], [2, 9]], "n_frames": 1})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_BAD_CONFIG
        self.assert_rejected(capsys, 9)
        assert not out.exists()

    def test_validate_plan_exit_2(self, tmp_path, capsys):
        data = scheme.assign_power([[2], [2, 0]],
                                   SystemSpec.from_dict(self.SYSTEM)).to_dict()
        data["orders"] = [[2], [2, 9]]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(data))
        cfg = write_config(tmp_path, system=self.SYSTEM,
                           validate={"plan": str(plan)})
        assert main(["validate", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        self.assert_rejected(capsys, 9)


# ---------------------------------------------------------------------------
# CSV line path against the per-cell csv.writer oracle
# ---------------------------------------------------------------------------

FLOATS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1e16, sys.float_info.max, np.float64(-0.0)]))
INTS = st.one_of(st.integers(), st.booleans())
TEXTS = st.text(st.sampled_from('ab1.|;% ,"\r\n'))
CELLS = st.one_of(FLOATS, INTS, TEXTS)


def line_path(path, header, lead, rows):
    """Write rows through `_line_template`/`_write_lines`: constant `lead`
    cells, then each cell converted by its type."""
    def lines():
        for row in rows:
            tail = ",".join("%.12g" if isinstance(v, float) else "%s"
                            for v in row)
            yield cli._line_template(lead, tail) % tuple(
                cli._csv_cell(v) if isinstance(v, str) else v for v in row)
    cli._write_lines(path, header, lines())


# every line has at least two cells, as every tinlink row does: csv writes a
# line holding one empty cell as `""`
@settings(max_examples=200, deadline=None)
@given(header=st.lists(TEXTS, min_size=2, max_size=5),
       lead=st.lists(TEXTS, min_size=1, max_size=3),
       rows=st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=5))
def test_line_path_matches_csv_writer_oracle(tmp_path_factory, header, lead,
                                             rows):
    tmp = tmp_path_factory.mktemp("csv")
    line_path(tmp / "got.csv", header, lead, rows)
    write_csv_reference(tmp / "want.csv", header,
                        [lead + row for row in rows])
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def orders_text(orders):
    return "|".join(",".join(str(m) for m in row) for row in orders)


def region_rows_reference(cfg, seed, samples, benchmarks_only):
    """`rate-region`/`benchmark` rows as per-cell lists: the search's
    candidates, then each split's Gaussian and shell rows from the
    recursive splits and the array rates."""
    spec = cli.spec_from_config(cfg)
    layout = build_layout(spec)
    section = cfg["rate_region"]
    bid = cli.build_id()
    rows = []
    if not benchmarks_only:
        result = scheme.design_search(
            spec, [1.0] * spec.K,
            max_sub_block_order=section["max_sub_block_order"],
            pareto_only=False)
        rows += [[bid, seed, samples, "qam_tin", "",
                  orders_text(result.order_matrix(i))]
                 + result.rates[i].tolist() for i in range(len(result))]
    splits = list(power_splits_reference(spec, layout,
                                         section["power_steps"]))
    powers = {key: np.array([split[key] for split in splits])
              for key in splits[0]}
    table = [rates.bc_gaussian_rates(spec, layout, powers, mode="sic"),
             rates.bc_gaussian_rates(spec, layout, powers, mode="tin"),
             rates.bc_shell_rates(spec, layout, powers, mode="sic")]
    for i, split in enumerate(splits):
        for kind, values in zip(("gauss_sic", "gauss_tin", "shell_sic"),
                                table):
            if not np.isnan(values[i]).any():
                rows.append([bid, seed, samples, kind,
                             param_str_reference(split), ""]
                            + values[i].tolist())
    return rows


def design_rows_reference(cfg, seed, samples):
    """`design` rows as per-cell lists, the slack from the constraint
    report of each candidate."""
    spec = cli.spec_from_config(cfg)
    result = scheme.design_search(spec, cfg["design"].get("weights"),
                                  orders=cfg["design"].get("orders"))
    rows = []
    for rank in range(len(result)):
        orders = result.order_matrix(rank)
        report = scheme.check_modulation_constraints(orders, spec)
        slack = min((r.slack for r in report.rows if r.kind == "order_sum"),
                    default=math.inf)
        rows.append([cli.build_id(), seed, samples, rank,
                     orders_text(orders), result.weighted_sum[rank].item(),
                     "yes", slack] + result.rates[rank].tolist()
                    + result.info_bits[rank].tolist()
                    + result.codeword_bits[rank].tolist())
    return rows


@pytest.mark.parametrize("command, name, steps", [
    ("benchmark", "two_user_equal_blocklength.json", None),
    ("rate-region", "two_user_equal_blocklength.json", None),
    ("benchmark", "three_user.json", 3),
    ("rate-region", "three_user.json", 3),
    ("design", "two_user_urllc.json", None),
])
def test_bundled_outputs_match_csv_writer_oracle(tmp_path, command, name,
                                                 steps):
    cfg = json.loads((ROOT / "configs" / name).read_text())
    if steps is not None:
        cfg["rate_region"]["power_steps"] = steps
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out, want = tmp_path / "out.csv", tmp_path / "want.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
    sampling = cfg["sampling"]
    seed, samples = sampling["seed"], sampling["n_noise_samples"]
    if command == "design":
        header = (["build_id", "seed", "n_noise_samples", "rank", "orders",
                   "weighted_sum", "feasible", "min_order_slack"]
                  + [f"{c}_{k}" for c in "Rkn" for k in (1, 2)])
        rows = design_rows_reference(cfg, seed, samples)
    else:
        K = len(cfg["system"]["users"])
        header = (["build_id", "seed", "n_noise_samples", "point_type",
                   "param", "orders"] + [f"R_{k + 1}" for k in range(K)])
        rows = region_rows_reference(cfg, seed, samples,
                                     command == "benchmark")
    write_csv_reference(want, header, rows)
    assert out.read_bytes() == want.read_bytes()


def small_runs(tmp_path):
    """Command lines that run every command on small inputs from the
    bundled configs, by command."""
    def config(command, name, **sections):
        cfg = json.loads((ROOT / "configs" / name).read_text())
        cfg.update(sections)
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        return [command, "--config", str(path),
                "--out", str(tmp_path / f"{command}.csv")]

    return {
        "design": config("design", "two_user_search.json", design={
            "max_sub_block_order": 4}) + [
                "--samples", "1000", "--plan-out", str(tmp_path / "plan.json")],
        "rate-region": config(
            "rate-region", "two_user_equal_blocklength.json", rate_region={
                "power_steps": 3, "max_sub_block_order": 4}),
        "benchmark": config("benchmark", "three_user.json", rate_region={
            "power_steps": 2}),
        "simulate": config("simulate", "three_user.json", simulate={
            "orders": [[2], [2, 4], [2, 4, 2]], "n_frames": 2}),
        "validate": config("validate", "two_user_urllc.json") + [
            "--samples", "1000"],
    }


# Runs the given command lines in one fresh interpreter, with the Monte Carlo
# estimator and its noise source made to raise, then lists the SciPy modules
# loaded after each command.
_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import json, sys
    from tinlink import rates
    from tinlink.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a command sampled Monte Carlo noise")

    rates.estimate_mi_dispersion = rates._noise_batch = refuse
    loaded = {}
    for command, argv in json.loads(sys.argv[1]).items():
        code = main(argv)
        loaded[command] = [code, sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]
    print(json.dumps(loaded))
""")


def test_commands_load_no_scipy(tmp_path):
    """numpy is tinlink's only third-party runtime dependency, and no
    command calls the Monte Carlo estimator."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT,
         json.dumps(small_runs(tmp_path))],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {command: [EXIT_OK, []] for command in
                      ("design", "rate-region", "benchmark", "simulate",
                       "validate")}


_IMPORT_SCRIPT = textwrap.dedent("""
    import argparse, hashlib, json, sys
    import numpy
    calls = {"parsers": 0, "hashes": 0}
    parser_init, sha1 = argparse.ArgumentParser.__init__, hashlib.sha1

    def counted_init(self, *args, **kwargs):
        calls["parsers"] += 1
        parser_init(self, *args, **kwargs)

    def counted_sha1(*args, **kwargs):
        calls["hashes"] += 1
        return sha1(*args, **kwargs)

    argparse.ArgumentParser.__init__ = counted_init
    hashlib.sha1 = counted_sha1
    from tinlink import cli
    calls["cached"] = [cli._parser.cache_info().currsize,
                       cli.build_id.cache_info().currsize]
    print(json.dumps(calls))
""")


def test_import_builds_no_parser_and_hashes_no_file():
    """The parser and the build id are built on first use, so importing
    the CLI pays for neither."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"parsers": 0, "hashes": 0,
                                       "cached": [0, 0]}


def test_cached_parser_leaks_no_argument(tmp_path, monkeypatch):
    seen = []

    def record(cfg, args):
        seen.append(vars(args))
        return EXIT_OK

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, record))
    config = str(write_config(tmp_path))
    for argv in (["design", "--out", "a.csv", "--plan-out", "p.json",
                  "--seed", "3", "--samples", "5000", "--workers", "2"],
                 ["simulate", "--out", "b.csv"],
                 ["design", "--out", "c.csv"],
                 ["validate"]):
        assert main(argv + ["--config", config]) == EXIT_OK
    unset = {"config": config, "seed": None, "samples": None,
             "workers": None}
    assert seen == [
        {**unset, "command": "design", "out": "a.csv", "plan_out": "p.json",
         "seed": 3, "samples": 5000, "workers": 2},
        {**unset, "command": "simulate", "out": "b.csv"},
        {**unset, "command": "design", "out": "c.csv", "plan_out": None},
        {**unset, "command": "validate", "out": None}]
    assert cli._parser() is cli._parser()


def test_build_id_is_a_fresh_source_hash():
    digest = hashlib.sha1(tinlink.__version__.encode())
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    assert cli.build_id() == digest.hexdigest()[:12]
    assert cli.build_id() is cli.build_id()
