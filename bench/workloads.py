"""The benchmark's workloads: one tinlink CLI command on one config each.

A workload names a bundled config and, where its input must be smaller to fit
a run, the config keys to override.  The benchmark writes the derived config
into its work directory, so the program only ever sees generated inputs.
This module uses the standard library only, because the parent process
imports it without loading numpy.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

# The paper's design point: rates of the 2|4,4 plan on the two-user URLLC
# system, in bits per complex symbol.
DESIGN_POINT_ORDERS = "2|4,4"
DESIGN_POINT_RATES = (1.0174, 1.5644)

LINK_ORDERS = [[2], [2, 4], [2, 4, 2]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_config: str
    overrides: dict = field(default_factory=dict)
    samples: int | None = None
    # design row the output must contain; its rates give rate_err
    required_orders: str | None = None

    def config_path(self, root: Path, workdir: Path) -> Path:
        """Path of the config this workload runs, written if it is derived."""
        base = root / self.base_config
        if not self.overrides:
            return base
        cfg = json.loads(base.read_text())
        for section, values in self.overrides.items():
            cfg[section] = {**cfg.get(section, {}), **copy.deepcopy(values)}
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        return path

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        """Arguments of one `tinlink.cli.main` invocation."""
        args = [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--workers", "1"]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        return args


WORKLOADS = {w.name: w for w in (
    # Monte Carlo (I, V) estimator on 256-tuple sub-blocks; --samples is the
    # CLI minimum (2000 samples take 28 s per invocation).
    Workload("design-2u", "design", "configs/two_user_search.json",
             samples=1000, required_orders=DESIGN_POINT_ORDERS),
    # Search, power assignment and the O(n^2) Pareto filter; the order cap
    # is lowered from 6 to 4 (12,635 -> 2,624 candidates) to fit a run.
    Workload("design-3u", "design", "configs/three_user.json",
             overrides={"design": {"max_sub_block_order": 4}},
             samples=1000),
    # Closed-form Gaussian/shell benchmark sweep; 5 power steps per axis
    # (3,125 splits) instead of 9 (59,049).
    Workload("bench-3u", "benchmark", "configs/three_user.json",
             overrides={"rate_region": {"power_steps": 5}}),
    # TIN LLR demapping of the acceptance-criterion-2 plan.
    Workload("link-3u", "simulate", "configs/three_user.json",
             overrides={"simulate": {"orders": LINK_ORDERS, "n_frames": 60}}),
)}
