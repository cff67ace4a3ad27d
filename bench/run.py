"""tinlink benchmark: time the CLI end to end, per workload, and gate outputs.

    python3 bench/run.py --workload design-2u --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  Each workload runs in a fresh single worker
process (`bench/worker.py`) with `--workers 1` and BLAS/OpenMP threads pinned
to one.  With --trace 0 the benchmark times set-up in fresh interpreters
before and after the workload loop, and reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced invocations and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the metrics and their units
are those of BENCHMARK.json.  Lines before it list every metric with its
unit and sample count, and the run's provenance.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
THREADS = "1"


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an output failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env.pop("TINLINK_WORKERS", None)
    return env


def run_child(args: list[str], timeout: float) -> str:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median_or_none(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return metrics, sample counts and provenance."""
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[name]
    workdir = WORKDIR / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = wl.config_path(ROOT, workdir)

    setup = []

    def probe_setup(n: int) -> None:
        for _ in range(0 if trace else n):
            out = run_child(["setup", "--config", str(config)],
                            timeout=max(1.0, deadline - time.monotonic()))
            setup.append(json.loads(out.splitlines()[-1])["setup_s"])

    # half the set-up probes before the workload and half after, so that a
    # burst of load on the host does not hit all of them
    probe_setup(SETUP_PROBES // 2)
    run_child(["run", "--workload", name,
               "--config", str(config), "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--workdir", str(workdir)],
              timeout=max(10.0, deadline - 30 - time.monotonic()))
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    res = json.loads((workdir / "result.json").read_text())

    walls = res["walls"]
    wall = median_or_none(walls)
    attempted = len(res["failures"])
    failed = sum(1 for f in res["failures"] if f)
    (unit, count), = res["work"].items()
    # name -> (value, unit, samples); value None where the quantity is not
    # measured in this mode or does not exist on this workload
    m = {
        "setup_s": (median_or_none(setup), "s", len(setup)),
        "wall_s": (wall, "s", len(walls)),
        "candidates_per_s": (None, "1/s", len(walls)),
        "splits_per_s": (None, "1/s", len(walls)),
        "bits_per_s": (None, "bit/s", len(walls)),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", 1),
        "failed_frac": (failed / attempted, "fraction", attempted),
        "rate_err": (None, "bit/symbol", len(res["rate_err"])),
    }
    if wall:
        m[f"{unit}_per_s"] = (count / wall, m[f"{unit}_per_s"][1], len(walls))
    errs = [e for e in res["rate_err"] if e is not None]
    if errs:
        m["rate_err"] = (statistics.median(errs), "bit/symbol", len(errs))
    if trace:
        traced = median_or_none(res["traced_walls"])
        for key, value in res["layers"].items():
            m[key] = (value, None, len(res["traced_walls"]))
        m["cli.csv_bytes"] = (res["csv_bytes"], "byte", 1)
        m["trace.overhead_frac"] = ((traced - wall) / wall if wall else None,
                                    "fraction", len(walls))
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": nproc(), "threads": int(THREADS),
        "python": res["python"], "numpy": res["numpy"], "scipy": res["scipy"],
        "platform": platform.platform(), "git_sha": git_sha(),
        "build_id": res["build_id"], "config": str(config.relative_to(ROOT)),
        "work": res["work"],
    }
    failures = sorted({msg for f in res["failures"] for msg in f})
    return {"metrics": m, "attempted": attempted, "failed": failed,
            "failures": failures, "provenance": provenance}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict, declared: list[dict], prefix: str = "") -> dict:
    """Print every metric with unit and sample count; return the JSON form."""
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"trace {prov['trace']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}")
    units = {d["name"]: d["unit"] for d in declared}
    for name, (value, unit, n) in result["metrics"].items():
        unit = unit or units.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:34s} {shown:28s} n={n}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    out = {}
    for d in declared:
        value = result["metrics"].get(d["name"], (None,))[0]
        if value is None:
            raise BenchError(f"metric {d['name']} was not measured")
        out[prefix + d["name"]] = {"value": value, "unit": d["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description="tinlink benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/tinlink/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a tinlink checkout; missing {missing}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_metrics(bool(args.trace))
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update(report(result, declared, prefix))
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
