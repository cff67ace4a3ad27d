"""The paper-facing outputs, pinned byte for byte.

`design --plan-out` on two_user_urllc.json, two_user_search.json and
three_user.json (the CSV and the plan file) and `simulate` on
two_user_urllc.json must keep these SHA-256 digests, with every row's
build_id cell masked.  A refactor leaves them as they are; a change that
means to move an output updates its digest and says why.  The digests were
taken with numpy 2.4 on x86-64 Linux.
"""
import hashlib
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
    ("simulate", "two_user_urllc"): (
        "004440173adc320a9852de772dcf8b35353619616f4d5d1634023514c557745e",
        None),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, config", list(PINNED))
def test_output_digests(tmp_path, command, config):
    csv_digest, plan_digest = PINNED[command, config]
    out, plan = tmp_path / "out.csv", tmp_path / "plan.json"
    argv = [command, "--config", str(ROOT / "configs" / f"{config}.json"),
            "--out", str(out)]
    if plan_digest:
        argv += ["--plan-out", str(plan)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = out.read_bytes()
    build = f"\r\n{cli.build_id()},".encode()
    assert rows.count(build) == rows.count(b"\r\n") - 1  # every data row
    assert sha256(rows.replace(build, b"\r\n-,")) == csv_digest
    if plan_digest:
        assert sha256(plan.read_bytes()) == plan_digest
