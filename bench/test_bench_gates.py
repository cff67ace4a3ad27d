"""Each output gate passes a real output and rejects a corrupted one."""
import csv
import json
from pathlib import Path

import pytest

from tinlink import cli, scheme

import gates
from workloads import LINK_ORDERS, WORKLOADS

BENCH = Path(gates.__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def load(name):
    return cli.load_config(ROOT / "configs" / name)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    """A small two-user design output (order cap 4)."""
    tmp = tmp_path_factory.mktemp("design")
    cfg = load("two_user_search.json")
    cfg["design"]["max_sub_block_order"] = 4
    config = tmp / "design.json"
    config.write_text(json.dumps(cfg))
    out = tmp / "design.csv"
    assert cli.main(["design", "--config", str(config), "--out", str(out),
                     "--samples", "1000", "--seed", "3"]) == 0
    return cli.spec_from_config(cfg), out


@pytest.fixture(scope="module")
def link(tmp_path_factory):
    """The link-3u simulate plan over two frames."""
    tmp = tmp_path_factory.mktemp("link")
    cfg = load("three_user.json")
    cfg["simulate"] = {"orders": LINK_ORDERS, "n_frames": 2}
    config = tmp / "link.json"
    config.write_text(json.dumps(cfg))
    out = tmp / "link.csv"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", "5"]) == 0
    spec = cli.spec_from_config(cfg)
    lengths = scheme.codeword_lengths(LINK_ORDERS, scheme.build_layout(spec))
    return spec, lengths, config, out


def corrupt(src, dst, edit):
    header, rows = gates.read_csv(src)
    header, rows = edit(header, [list(r) for r in rows])
    write_csv(dst, header, rows)
    return dst


class TestDesignGate:
    def test_real_output_passes(self, design):
        spec, out = design
        assert gates.check_design(out, spec, [1.0, 1.0]) == []

    def test_dominated_row_rejected(self, design, tmp_path):
        spec, out = design

        def add_dominated(header, rows):
            worse = list(rows[0])
            for k in (1, 2):
                i = header.index(f"R_{k}")
                worse[i] = repr(float(worse[i]) - 0.1)
            return header, rows + [worse]
        bad = corrupt(out, tmp_path / "bad.csv", add_dominated)
        fails = gates.check_design(bad, spec, [1.0, 1.0])
        assert any(f.endswith("is dominated") for f in fails)

    def test_changed_header_rejected(self, design, tmp_path):
        spec, out = design
        bad = corrupt(out, tmp_path / "bad.csv",
                      lambda h, r: (h[:-1] + ["N_2"], r))
        assert gates.check_design(bad, spec, [1.0, 1.0])[0].startswith(
            "design header changed")

    def test_missing_design_point_rejected(self, design):
        # 2|4,4 needs 6 bits in sub-block 0, above this output's cap of 4
        spec, out = design
        assert gates.check_design(out, spec, [1.0, 1.0],
                                  required_orders="2|4,4") == [
            "design row 2|4,4 missing"]

    def test_empty_output_rejected(self, design, tmp_path):
        spec, out = design
        bad = corrupt(out, tmp_path / "bad.csv", lambda h, r: (h, []))
        assert gates.check_design(bad, spec, [1.0, 1.0]) == [
            "design wrote no rows"]

    def test_wrong_codeword_length_rejected(self, design, tmp_path):
        spec, out = design

        def edit(header, rows):
            rows[0][header.index("n_2")] = "1"
            return header, rows
        bad = corrupt(out, tmp_path / "bad.csv", edit)
        fails = gates.check_design(bad, spec, [1.0, 1.0])
        assert any("codeword lengths" in f for f in fails)


class TestSimulateGate:
    def check(self, link, path):
        spec, lengths, _, _ = link
        return gates.check_simulate(path, spec, 2, lengths,
                                    REFERENCE["link-3u"])

    def test_real_output_passes(self, link):
        assert self.check(link, link[3]) == []

    @pytest.mark.parametrize("column, value, message", [
        ("zero_noise_roundtrip", "no", "zero_noise_roundtrip=no"),
        ("n_bits", "0", "n_bits=0"),
    ])
    def test_corrupted_column_rejected(self, link, tmp_path, column, value,
                                       message):
        def edit(header, rows):
            rows[1][header.index(column)] = value
            return header, rows
        bad = corrupt(link[3], tmp_path / "bad.csv", edit)
        assert any(message in f for f in self.check(link, bad))

    def test_changed_header_rejected(self, link, tmp_path):
        bad = corrupt(link[3], tmp_path / "bad.csv",
                      lambda h, r: (h[:3] + ["user_id"] + h[4:], r))
        assert self.check(link, bad)[0].startswith("simulate header changed")

    def test_zero_frames_not_passed(self, link, tmp_path):
        # simulate with n_frames <= 0 exits 0 and reports a round trip over
        # no bits; the gate must reject that output, not pass it
        spec, lengths, config, _ = link
        cfg = json.loads(config.read_text())
        cfg["simulate"]["n_frames"] = -3
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "zero.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        if rc == 0:
            fails = gates.check_simulate(out, spec, -3, lengths,
                                         REFERENCE["link-3u"])
            assert any("is not > 0" in f for f in fails)
        else:
            assert rc == cli.EXIT_BAD_CONFIG


class TestBenchmarkGate:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweep")
        wl = WORKLOADS["bench-3u"]
        config = wl.config_path(ROOT, tmp)
        out = tmp / "bench.csv"
        assert cli.main(wl.argv(config, out, 7)) == 0
        return out

    def check(self, path):
        return gates.check_benchmark(path, 3, 5 ** 5, REFERENCE["bench-3u"])

    def test_real_output_passes(self, sweep):
        assert self.check(sweep) == []

    def test_changed_reference_row_rejected(self, sweep, tmp_path):
        index = REFERENCE["bench-3u"]["rows"][3][0]

        def edit(header, rows):
            rows[index][-1] = repr(float(rows[index][-1]) + 1e-6)
            return header, rows
        bad = corrupt(sweep, tmp_path / "bad.csv", edit)
        assert self.check(bad) == [f"row {index} differs from the reference"]

    def test_missing_split_rejected(self, sweep, tmp_path):
        bad = corrupt(sweep, tmp_path / "bad.csv", lambda h, r: (h, r[1:]))
        assert any("gauss_sic rows" in f for f in self.check(bad))

    def test_changed_header_rejected(self, sweep, tmp_path):
        bad = corrupt(sweep, tmp_path / "bad.csv",
                      lambda h, r: (h[:3] + ["kind"] + h[4:], r))
        assert self.check(bad)[0].startswith("benchmark header changed")
