"""Regenerate bench/reference.json, the stored values the output gates use.

    PYTHONPATH=src python3 bench/make_reference.py

- bench-3u: a fixed subset of the benchmark sweep's rows (the sweep does not
  depend on the seed), matched by the gate to 1e-9.
- link-3u: per-user uncoded bit error rates of the simulate plan from one
  long run at a seed outside the benchmark's usual range, with the bit
  counts the gate needs for the reference's own binomial spread.

Run it only when a workload's input changes; a program change must be
checked against the stored values, not regenerate them.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from tinlink import cli

import gates
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_ROWS = 40
LINK_FRAMES = 2000
LINK_SEED = 987_654_321


def main() -> None:
    ref = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        wl = WORKLOADS["bench-3u"]
        config = wl.config_path(ROOT, tmp)
        out = tmp / "bench.csv"
        assert cli.main(wl.argv(config, out, 0)) == 0
        _, rows = gates.read_csv(out)
        step = max(1, len(rows) // REFERENCE_ROWS)
        picked = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
        ref[wl.name] = {
            "power_steps": wl.overrides["rate_region"]["power_steps"],
            "n_rows": len(rows),
            "rows": [[i, rows[i][3], rows[i][4], [float(x) for x in rows[i][6:]]]
                     for i in picked],
        }

        wl = WORKLOADS["link-3u"]
        cfg = json.loads(wl.config_path(ROOT, tmp).read_text())
        cfg["simulate"]["n_frames"] = LINK_FRAMES
        config = tmp / "link.json"
        config.write_text(json.dumps(cfg))
        out = tmp / "link.csv"
        assert cli.main(wl.argv(config, out, LINK_SEED)) == 0
        header, rows = gates.read_csv(out)
        recs = [dict(zip(header, row)) for row in rows]
        ref[wl.name] = {
            "seed": LINK_SEED,
            "n_frames": LINK_FRAMES,
            "n_bits": [int(r["n_bits"]) for r in recs],
            "ber": [int(r["bit_errors"]) / int(r["n_bits"]) for r in recs],
        }
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
