"""Outside-in tracing of tinlink's five layers and the per-layer metrics.

`Tracer.install` replaces public functions of `cli`, `scheme`, `rates`,
`linksim` and `constellations` with wrappers, through every module attribute
that refers to them (a function imported by name into another module is
replaced there too), and `Tracer.uninstall` puts the originals back.  Nothing
inside `src/` is instrumented.  Each wrapped call records a span (name,
entry, start, end, parent span, run id) in memory; counters are computed
from the call arguments at the same boundary.  The wrapper's own bookkeeping (the
counters and the span record) runs between the span's entry stamp and its
start stamp, and self time subtracts a child from its parent from the
child's entry, so that this cost is charged to neither span.  Leaf numeric
helpers called inside these spans (`qfunc`, the combiners, `gaussian_stats`,
...) are not wrapped: they would multiply the tracing overhead without
separating a layer.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import math
import time
from array import array
from collections import defaultdict

# Wrapped functions, by module.  Span names are "<module>.<function>".
SPANS = {
    "cli": ("main",),
    "scheme": ("design_search", "assign_power", "check_modulation_constraints",
               "build_layout", "codeword_lengths", "map_bits", "build_frame"),
    "rates": ("compute_plan_rates", "estimate_mi_dispersion", "qfunc_inv",
              "bc_gaussian_rates", "bc_shell_rates"),
    "linksim": ("simulate_frame", "demap_frame", "tin_llr", "random_payloads",
                "hard_bits"),
    "constellations": ("gray_sequence", "min_pairwise_distance",
                       "build_rect_qam", "build_gray_qam", "silent", "scale",
                       "grid_energy", "normalization_factor",
                       "superposition_factors", "superimpose"),
}

# Metric groups: a group's calls and time count its outermost spans only, so
# a constellation built inside another one is not counted twice.
GROUPS = {
    "rates.estimate": {"rates.estimate_mi_dispersion"},
    "rates.compute_plan_rates": {"rates.compute_plan_rates"},
    "rates.qfunc_inv": {"rates.qfunc_inv"},
    "rates.bench_rates": {"rates.bc_gaussian_rates", "rates.bc_shell_rates"},
    "scheme.design_search": {"scheme.design_search"},
    "scheme.assign_power": {"scheme.assign_power"},
    "scheme.frame": {"scheme.map_bits", "scheme.build_frame"},
    "constellations": {f"constellations.{f}" for f in SPANS["constellations"]},
    "linksim.tin_llr": {"linksim.tin_llr"},
    "linksim.simulate_frame": {"linksim.simulate_frame"},
    "cli": {"cli.main"},
}


# ---------------------------------------------------------------------------
# Counters computed from call arguments
# ---------------------------------------------------------------------------

def _count_estimate(tracer, args):
    """(|x_num|^2 + |x_den|^2) x samples likelihood pairs of one estimate."""
    combos = math.prod(len(x) for x in args["interferers"])
    n_num = len(args["desired"]) * combos
    tracer.counters["rates.kernel_pair_evals"] += (
        (n_num * n_num + combos * combos) * int(args["n_noise_samples"]))


def _count_plan_lookups(tracer, args):
    """Active (user, sub-block) statistics a plan asks for."""
    plan = args["plan"]
    tracer.counters["rates.stat_lookups"] += sum(
        1 for k in range(plan.spec.K)
        for sb in plan.layout.sub_blocks[:k + 1]
        if sb.length > 0 and plan.orders[k][sb.index] > 0)


def _count_llr(tracer, args):
    """Symbols demapped and symbol x candidate metrics evaluated."""
    plan, user, j = args["plan"], args["user"], args["sub_block"]
    if plan.orders[user][j] == 0:
        return
    symbols = len(args["y"])
    bits = sum(plan.orders[u][j] for u in plan.layout.sub_blocks[j].participants)
    tracer.counters["linksim.llr_symbols"] += symbols
    tracer.counters["linksim.llr_candidate_evals"] += symbols * (1 << bits)


def _count_frame(tracer, args):
    """Distinct frames: same payloads, noise seed and noise scale."""
    digest = hashlib.sha1()
    payloads = args["payloads"]
    for k in sorted(payloads):
        digest.update(payloads[k].tobytes())
    tracer.frame_keys.add((tracer.run_id, args["plan"].orders, args["seed"],
                           args["noise_scale"], digest.hexdigest()))


COUNTERS = {
    "rates.estimate_mi_dispersion": _count_estimate,
    "rates.compute_plan_rates": _count_plan_lookups,
    "linksim.tin_llr": _count_llr,
    "linksim.simulate_frame": _count_frame,
}


# ---------------------------------------------------------------------------
# Span recording
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counters of the wrapped calls, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.entry = array("d")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.frame_keys: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        count = COUNTERS.get(span)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = time.perf_counter()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments)
            sid = len(self.start)
            self.name_id.append(name_id)
            self.entry.append(entry)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap SPANS in `modules` (name -> module) and every alias of them."""
        for mod_name, functions in SPANS.items():
            for fn_name in functions:
                orig = getattr(modules[mod_name], fn_name)
                wrapper = self.wrap(orig, f"{mod_name}.{fn_name}")
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._patched.append((module, attr, orig))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def write(self, path) -> None:
        """Spans as CSV: span_id, run_id, parent_id, name, entry_s, start_s,
        end_s."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "run_id", "parent_id", "name",
                          "entry_s", "start_s", "end_s"])
            for sid, name in enumerate(self.span_names()):
                out.writerow([sid, self.run[sid], self.parent[sid], name,
                              repr(self.entry[sid]), repr(self.start[sid]),
                              repr(self.end[sid])])


# ---------------------------------------------------------------------------
# Derivation: calls, total and self time
# ---------------------------------------------------------------------------

def self_times(entry, start, end, parent) -> list[float]:
    """Each span's duration minus its children's, counted from their entry.

    Spans nest: the tracer is synchronous and keeps one stack.
    """
    out = [e - s for s, e in zip(start, end)]
    for sid, pid in enumerate(parent):
        if pid >= 0:
            out[pid] -= end[sid] - entry[sid]
    return out


def group_stats(names, start, end, parent, selfs, members) -> tuple[int, float, float]:
    """(outermost calls, their total seconds, self seconds of all members)."""
    calls = 0
    total = 0.0
    self_s = 0.0
    for sid, name in enumerate(names):
        if name not in members:
            continue
        self_s += selfs[sid]
        pid = parent[sid]
        if pid < 0 or names[pid] not in members:
            calls += 1
            total += end[sid] - start[sid]
    return calls, total, self_s


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, n_runs: int) -> dict[str, float]:
    """Per-layer metrics per traced invocation (means over `n_runs`)."""
    names = tracer.span_names()
    selfs = self_times(tracer.entry, tracer.start, tracer.end, tracer.parent)
    stats = {g: group_stats(names, tracer.start, tracer.end, tracer.parent,
                            selfs, members)
             for g, members in GROUPS.items()}
    counters = tracer.counters
    est_calls, est_s, _ = stats["rates.estimate"]
    lookups = counters["rates.stat_lookups"]
    llr_calls, llr_s, _ = stats["linksim.tin_llr"]
    frame_calls, _, frame_self = stats["linksim.simulate_frame"]
    out = {
        "rates.estimate.calls": est_calls,
        "rates.estimate.s": est_s,
        "rates.kernel_pair_evals": counters["rates.kernel_pair_evals"],
        "rates.kernel_pair_evals_per_s": _per_s(
            counters["rates.kernel_pair_evals"], est_s),
        "rates.stats_cache_hit_ratio": (1.0 - est_calls / lookups
                                        if lookups else 0.0),
        "rates.compute_plan_rates.calls": stats["rates.compute_plan_rates"][0],
        "rates.compute_plan_rates.self_s": stats["rates.compute_plan_rates"][2],
        "rates.qfunc_inv.calls": stats["rates.qfunc_inv"][0],
        "rates.qfunc_inv.s": stats["rates.qfunc_inv"][1],
        "rates.bench_rates.calls": stats["rates.bench_rates"][0],
        "rates.bench_rates.self_s": stats["rates.bench_rates"][2],
        "scheme.design_search.self_s": stats["scheme.design_search"][2],
        "scheme.assign_power.calls": stats["scheme.assign_power"][0],
        "scheme.assign_power.self_s": stats["scheme.assign_power"][2],
        "constellations.calls": stats["constellations"][0],
        "constellations.s": stats["constellations"][1],
        "scheme.frame.s": stats["scheme.frame"][1],
        "linksim.tin_llr.calls": llr_calls,
        "linksim.tin_llr.s": llr_s,
        "linksim.llr_candidate_evals": counters["linksim.llr_candidate_evals"],
        "linksim.llr_symbols_per_s": _per_s(counters["linksim.llr_symbols"],
                                            llr_s),
        "linksim.simulate_frame.calls": frame_calls,
        "linksim.simulate_frame.self_s": frame_self,
        "linksim.frame_reuse_ratio": (len(tracer.frame_keys) / frame_calls
                                      if frame_calls else 0.0),
        "cli.self_s": stats["cli"][2],
    }
    # counts, times and pair evaluations are per invocation; ratios and
    # rates already are
    for key in list(out):
        if not key.endswith(("_ratio", "_per_s")):
            out[key] /= n_runs
    return out
