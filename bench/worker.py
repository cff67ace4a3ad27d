"""Child process of the benchmark: set-up probe and timed workload loop.

    python3 bench/worker.py setup --config C
        Times, in this fresh interpreter, importing tinlink.cli, build_id(),
        loading the config and building the spec and layout; prints JSON.
    python3 bench/worker.py run --workload W --config C --seed S
                               --seconds T --trace 0|1 --workdir D
        Calls tinlink.cli.main repeatedly for T seconds, gates every output,
        and writes D/result.json.  With --trace 1 it alternates untraced and
        traced invocations and also writes the spans to D.

Only the standard library is imported before the set-up clock starts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def cmd_setup(args) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from tinlink import cli, scheme
    bid = cli.build_id()
    spec = cli.spec_from_config(cli.load_config(args.config))
    scheme.build_layout(spec)
    seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds, "build_id": bid}))


def search_space_size(spec, cap: int) -> int:
    """Feasible order matrices with per-sub-block budget `cap`, all-silent
    excluded, counted sub-block by sub-block through the public API."""
    from tinlink import scheme
    layout = scheme.build_layout(spec)
    size = 1
    for sb in layout.sub_blocks:
        if sb.length == 0:
            continue
        feasible = 0
        for mv in itertools.product(range(cap + 1), repeat=len(sb.ranks)):
            if sum(mv) > cap:
                continue
            orders = [[0] * (k + 1) for k in range(spec.K)]
            for user, m in zip(sb.ranks, mv):
                orders[user][sb.index] = m
            feasible += scheme.check_modulation_constraints(
                orders, spec, layout).feasible
        size *= feasible
    return size - 1


def power_split_count(layout, steps: int) -> int:
    """Grid points of the benchmark sweep: sub-block totals times shares."""
    active = [sb for sb in layout.sub_blocks if sb.length > 0]
    count = steps ** (len(active) - 1)
    for sb in active:
        count *= steps ** (len(sb.participants) - 1)
    return count


def cmd_run(args) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import tinlink
    from tinlink import cli, constellations, linksim, rates, scheme

    import gates
    import layers
    from workloads import DESIGN_POINT_RATES, WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    out = workdir / f"{wl.name}.csv"
    argv = wl.argv(Path(args.config), out, args.seed)
    cfg = cli.load_config(args.config)
    spec = cli.spec_from_config(cfg)
    layout = scheme.build_layout(spec)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    if wl.command == "design":
        section = cfg.get("design", {})
        weights = section.get("weights", [1.0] * spec.K)
        cap = int(section.get("max_sub_block_order", scheme.DEFAULT_ORDER_CAP))
        work = {"candidates": search_space_size(spec, cap)}

        def gate():
            return gates.check_design(out, spec, weights,
                                      required_orders=wl.required_orders)
    elif wl.command == "benchmark":
        steps = int(cfg["rate_region"]["power_steps"])
        splits = power_split_count(layout, steps)
        work = {"splits": splits}
        ref = reference[wl.name]

        def gate():
            if ref["power_steps"] != steps:
                return [f"reference is for {ref['power_steps']} power steps"]
            return gates.check_benchmark(out, spec.K, splits, ref)
    else:
        n_frames = int(cfg["simulate"]["n_frames"])
        lengths = scheme.codeword_lengths(cfg["simulate"]["orders"], layout)
        work = {"bits": n_frames * sum(lengths)}

        def gate():
            return gates.check_simulate(out, spec, n_frames, lengths,
                                        reference[wl.name])

    def rate_err():
        _, rows = gates.read_csv(out)
        for row in rows:
            if row[4] == wl.required_orders:
                got = [float(x) for x in row[8:8 + spec.K]]
                return max(abs(a - b) for a, b in zip(got, DESIGN_POINT_RATES))
        return None

    modules = {"tinlink": tinlink, "cli": cli, "scheme": scheme,
               "rates": rates, "linksim": linksim,
               "constellations": constellations}
    tracer = layers.Tracer()
    walls = {False: [], True: []}
    failures = []
    errors = []

    def invoke(traced: bool) -> None:
        out.unlink(missing_ok=True)
        if traced:
            tracer.run_id = len(walls[True])
            tracer.install(modules)
        try:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            walls[traced].append(time.perf_counter() - t0)
        except Exception as exc:  # a crash is a failed invocation
            walls[traced].append(math.nan)
            failures.append([f"cli.main raised {exc!r}"])
            return
        finally:
            tracer.uninstall()
        fails = [] if rc == 0 else [f"exit code {rc}"]
        if out.exists():
            fails += gate()
        else:
            fails.append("no output file")
        failures.append(fails)
        if wl.required_orders is not None and out.exists():
            errors.append(rate_err())

    start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            invoke(traced)
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "build_id": cli.build_id(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "walls": walls[False],
        "traced_walls": walls[True],
        "failures": failures,
        "work": work,
        "rate_err": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        tracer.write(workdir / f"spans-{wl.name}-seed{args.seed}.csv")
        result["layers"] = layers.layer_metrics(tracer, len(walls[True]))
        result["csv_bytes"] = out.stat().st_size if out.exists() else 0
    (workdir / "result.json").write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--config", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--workdir", required=True)
    args = parser.parse_args()
    (cmd_setup if args.mode == "setup" else cmd_run)(args)


if __name__ == "__main__":
    main()
