"""The paper-facing outputs, pinned byte for byte.

`design --plan-out` (the CSV and the plan file), `rate-region` and
`benchmark` on every bundled config, `simulate` on two_user_urllc.json and
on three_user.json with the orders of `DERIVED`, and `validate --seed 5` on
two_user_urllc.json must keep these SHA-256 digests, with every row's
build_id cell masked.  A refactor leaves them as they are; a change that
means to move an output updates its digest and says why.  The digests were
taken with numpy 2.4 on x86-64 Linux.
"""
import hashlib
import json
from pathlib import Path

import pytest

from tinlink import cli

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    ("design", "two_user_urllc"): (
        "f65c1e8936666a100e8cea1d1d95ea43e604da5581989b5068701a562c5a2501",
        "f4676a0216c60b854bd44c538a034989f73e770e6bc5aaf4eebe6c534fbab8f2"),
    ("design", "two_user_search"): (
        "d4af9406e6598be8db8e11d15adfa5724490c9e7aec340a271c345495885a740",
        "c6cde00b7c1d17c6bfa5e2533d150ef294cf94b1cf3eae78d011eaea2cf2d833"),
    ("design", "three_user"): (
        "f379c75b2582fb480513a3bc964329f69a5d1912a9fec166f5d22b19dafae50e",
        "37f8c6734cb8c222034e944fd74d568832fbeb1590507ad65a5d0ff290f1022a"),
    # (32, 1) and (16, 1) receive grids: one interferer sum in a dimension
    ("design", "two_user_equal_blocklength"): (
        "b16a459712c4444fe35b77cb0143a75f7ca1f1a3bd302c9215144b55da7ab4e3",
        "01d9d561bf92a8bfef6960ac1db1f8bd3d0c143863d907ccfe1aa6815d656890"),
    ("design", "four_user"): (
        "7bcbf4b8f128cac61a986d6d991112fea19f6b92b84c92f3d7430b0355ebba25",
        "e2ebafe295cad356456c756585e7f77432a22f453f7bea73d7d10fb2c765a5f7"),
    ("simulate", "two_user_urllc"): (
        "004440173adc320a9852de772dcf8b35353619616f4d5d1634023514c557745e",
        None),
    ("rate-region", "two_user_urllc"): (
        "ca883ebbd8b468dd876752f1e334585a145ece2904c49cd13ee07474eb048654",
        None),
    ("rate-region", "two_user_search"): (
        "c297cc51e3a9e13bfaa2163d4b38701883cdf8fc22aeffcbf4f75ffdb6fa499a",
        None),
    ("rate-region", "two_user_equal_blocklength"): (
        "1846596dc00b551bcbdc031bd522b8d019420ada06f79261b90304d27f33f425",
        None),
    ("rate-region", "three_user"): (
        "74e3bbbf2720586191d8919cf98f5987209ca75eba0b8afbedc546c82a944d9a",
        None),
    ("rate-region", "four_user"): (
        "9a4d968d569b0f21c0c5490800116bb3452f95cf36588a58e7bbd9eda8cec1ec",
        None),
    ("benchmark", "two_user_urllc"): (
        "d853d409a346879a63c3b1a04729be576621bc65f5a8d83d804c118bca984f5a",
        None),
    ("benchmark", "two_user_search"): (
        "fec60829bdb86e31b36395112273c3661357cd2134c7221119783204024b4f62",
        None),
    ("benchmark", "two_user_equal_blocklength"): (
        "937f0919bd34ceb867a583ca3125365a0cbd0c0aa04e07818081b75653587e5e",
        None),
    ("benchmark", "three_user"): (
        "2d5f56b5f62992a7219dbc270bac6050c60843ae8c6cf1a4dce623552059ec0d",
        None),
    ("benchmark", "four_user"): (
        "a60555c61870cb9475fa0924d5b597609cf3474269d5447284dbe40fdeaba0a3",
        None),
    # sub-block 3 of user 3 has one interferer sum in each dimension
    ("simulate", "three_user"): (
        "324af23063dc414eaf8fbdbdcea541dade0bf1b581a7291377687f65e925e9cd",
        None),
    # validate's checks do not read the config's system; the seed is fixed
    # so that the random-plan check is
    ("validate", "two_user_urllc"): (
        "a566aa46c7c8c826f389f7626d57a13f0ffbf5ca67de3deda7074d559867516e",
        None),
}

# config sections that replace the bundled ones, for outputs the bundled
# config does not define
DERIVED = {
    ("simulate", "three_user"): {
        "simulate": {"orders": [[2], [2, 4], [2, 4, 2]], "n_frames": 60}},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, config", list(PINNED))
def test_output_digests(tmp_path, command, config):
    csv_digest, plan_digest = PINNED[command, config]
    out, plan = tmp_path / "out.csv", tmp_path / "plan.json"
    path = ROOT / "configs" / f"{config}.json"
    if (command, config) in DERIVED:
        cfg = {**json.loads(path.read_text()), **DERIVED[command, config]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(out)]
    if plan_digest:
        argv += ["--plan-out", str(plan)]
    if command == "validate":
        argv += ["--seed", "5"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = out.read_bytes()
    build = f"\r\n{cli.build_id()},".encode()
    assert rows.count(build) == rows.count(b"\r\n") - 1  # every data row
    assert sha256(rows.replace(build, b"\r\n-,")) == csv_digest
    if plan_digest:
        assert sha256(plan.read_bytes()) == plan_digest
