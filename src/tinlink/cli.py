"""Batch front end: design search, rate-region sweeps, benchmarks, simulation,
and validation suites driven by JSON configs, emitting RFC-4180 CSV.

Outputs are reproducible: every row carries the package build id, the seed,
and the sample count, and reruns with identical inputs are byte-identical.
Exit codes: 0 success, 1 validation failure, 2 invalid config or schema
(also a config too large to run in memory), 3 no feasible design.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__, constellations, rates, scheme

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NO_DESIGN = 3


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# Build id and formatting
# ---------------------------------------------------------------------------

@functools.cache
def build_id() -> str:
    """Short content hash of the installed package sources, read and hashed
    on the first call and reused for the life of the process."""
    digest = hashlib.sha1()
    digest.update(__version__.encode())
    pkg_dir = Path(__file__).parent
    for source in sorted(pkg_dir.glob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()[:12]


def _csv_cell(text: str) -> str:
    """`text` as `csv` writes it under QUOTE_MINIMAL: quoted, inner quotes
    doubled, when it holds a delimiter, a quote or a line break."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line_template(lead: Sequence[str], tail: str) -> str:
    """A CSV line as a %-format: the constant cells `lead`, quoted once,
    then `tail`, which takes floats by `%.12g` and integers and quoted
    strings by `%s`, and the CRLF line end."""
    cells = "".join(_csv_cell(c).replace("%", "%%") + "," for c in lead)
    return cells + tail + "\r\n"


def _write_lines(path, header: Sequence[str], lines: Iterable[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\r\n")
        fh.writelines(lines)


def _orders_cell(K: int) -> str:
    """The `orders` cell of a flat K-user order matrix (see
    `scheme.DesignSearchResult`) as a %-format, one `%s` per order and
    quoted when the orders hold a comma, as `_csv_cell` quotes them."""
    return _csv_cell("|".join(",".join(["%s"] * (k + 1)) for k in range(K)))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = _read(cfg, "schema_version", 1, int)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}")
    if "system" not in cfg:
        raise ConfigError("config is missing the 'system' section")
    return cfg


def _section(cfg: Mapping, name: str) -> Mapping:
    """Config section `name` ({} if absent), which must be a JSON object."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    return section


def _read(section: Mapping, key: str, default, kind: type):
    """section[key] (default if absent), required to be a JSON integer or
    boolean as `kind` says: other values are rejected, never converted."""
    value = section.get(key, default)
    if (not isinstance(value, kind)
            or isinstance(value, bool) != (kind is bool)):
        name = "a boolean" if kind is bool else "an integer"
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return value


def spec_from_config(cfg: Mapping) -> scheme.SystemSpec:
    try:
        return scheme.SystemSpec.from_dict(cfg["system"])
    except scheme.SpecError as exc:
        raise ConfigError(str(exc)) from exc


def sampling_params(cfg: Mapping, args) -> tuple[int, int]:
    sampling = _section(cfg, "sampling")
    samples = args.samples if args.samples is not None else _read(
        sampling, "n_noise_samples", 20_000, int)
    seed = args.seed if args.seed is not None else _read(
        sampling, "seed", 0, int)
    if samples < rates.MIN_NOISE_SAMPLES:
        raise ConfigError(
            f"n_noise_samples must be >= {rates.MIN_NOISE_SAMPLES}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return samples, seed


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def cmd_design(cfg: Mapping, args) -> int:
    spec = spec_from_config(cfg)
    samples, seed = sampling_params(cfg, args)
    section = _section(cfg, "design")
    result = scheme.design_search(
        spec, section.get("weights"), orders=section.get("orders"),
        max_sub_block_order=_read(section, "max_sub_block_order",
                                  scheme.DEFAULT_ORDER_CAP, int),
        pareto_only=_read(section, "pareto_only", True, bool))

    header = (["build_id", "seed", "n_noise_samples", "rank", "orders",
               "weighted_sum", "feasible", "min_order_slack"]
              + [f"R_{k + 1}" for k in range(spec.K)]
              + [f"k_{k + 1}" for k in range(spec.K)]
              + [f"n_{k + 1}" for k in range(spec.K)])
    line = _line_template([build_id(), str(seed), str(samples)],
                          "%s," + _orders_cell(spec.K) + ",%.12g,yes,%.12g"
                          + ",%.12g" * spec.K + ",%s" * (2 * spec.K))
    _write_lines(args.out, header, (
        line % (rank, *orders, weighted, slack, *rate_row, *info, *codeword)
        for rank, (orders, weighted, slack, rate_row, info, codeword)
        in enumerate(zip(result.orders.tolist(),
                         result.weighted_sum.tolist(),
                         result.min_order_slack.tolist(),
                         result.rates.tolist(), result.info_bits.tolist(),
                         result.codeword_bits.tolist()))))
    if args.plan_out and len(result.weighted_sum):
        with open(args.plan_out, "w") as fh:
            plan = scheme.assign_power(result.order_matrix(0), spec)
            json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
    if not len(result.weighted_sum):
        print(result.explanation or "no feasible design", file=sys.stderr)
        return EXIT_NO_DESIGN
    return EXIT_OK


# ---------------------------------------------------------------------------
# rate-region and benchmark sweeps
# ---------------------------------------------------------------------------

# Most power splits in one chunk (`_sweep_chunks`) of the sweep: what a
# sweep holds at once follows this, not its number of splits
_SWEEP_CHUNK = 4096


def _split_tables(spec: scheme.SystemSpec, layout, steps: int):
    """The grid over benchmark power allocations, as (shape, tables).

    Free parameters are the per-sub-block totals (under the frame-average
    total power constraint) and the within-sub-block shares; each is swept
    over `steps` points.  Splits are numbered in product order over
    `shape`, the totals slowest and then each active sub-block's shares.
    Each (user, sub_block) column, in sorted order, has a table
    (key, shares axis, powers, items): the per-symbol power and its
    `user.subblock=power` param item, both indexed [totals row, shares
    row].  An item ends in the `;` before the next item or, in the last
    column, in the `,` that closes the param cell and the empty orders
    cell's `,`.
    """
    active = [sb for sb in layout.sub_blocks if sb.length > 0]
    axes = [_simplex_grid(len(active), steps,
                          layout.boundaries[-1] * spec.P)]
    axes += [_simplex_grid(len(sb.participants), steps, 1.0) for sb in active]
    columns = sorted(
        ((user, sb.index), a + 1,
         (axes[0][:, a] / sb.length)[:, None] * axes[a + 1][:, i])
        for a, sb in enumerate(active)
        for i, user in enumerate(sb.participants))
    tables = []
    for c, ((u, j), axis, powers) in enumerate(columns):
        # items hold no delimiter or quote, so they go in unquoted
        end = ";" if c + 1 < len(columns) else ",,"
        tables.append(((u, j), axis, powers,
                       _float_cells(powers, f"{u + 1}.{j + 1}=%.6g{end}")))
    return [len(a) for a in axes], tables


def _sweep_chunks(shape, size: int):
    """The chunks of the split grid `shape`, in product order, each of at
    most `size` splits.  A chunk fixes an index on each leading axis, takes
    a slice of the next axis and the whole of every later one; it is given
    as those indices followed by the slice."""
    axis, inner = len(shape) - 1, 1
    while axis > 0 and inner * shape[axis] <= size:
        inner *= shape[axis]
        axis -= 1
    step = size // inner
    for lead in np.ndindex(*shape[:axis]):
        for start in range(0, shape[axis], step):
            yield lead + (slice(start, min(start + step, shape[axis])),)


def _chunk_powers(shape, tables, at
                  ) -> tuple[tuple[int, ...],
                             dict[tuple[int, int], np.ndarray],
                             list[np.ndarray]]:
    """Chunk `at` of `_sweep_chunks` over the grid `_split_tables` returns,
    as (chunk shape, powers, items): the shape over the chunk's sliced and
    whole axes, then (user, sub_block) -> power and the param items of
    each column, each its table at the chunk's (totals, shares) rows,
    shaped to broadcast over the chunk shape."""
    sliced = len(at) - 1
    chunk = (at[-1].stop - at[-1].start,) + tuple(shape[sliced + 1:])
    powers, items = {}, []
    for key, axis, power, item in tables:
        rows = tuple(at[a] if a <= sliced else slice(None) for a in (0, axis))
        kept = [a - sliced for a in (0, axis) if a >= sliced]
        view = [n if a in kept else 1 for a, n in enumerate(chunk)]
        # a chunk that fixes both of the table's axes picks a 0-d entry
        powers[key] = np.asarray(power[rows]).reshape(view)
        items.append(np.asarray(item[rows], dtype=object).reshape(view))
    return chunk, powers, items


def _simplex_grid(dims: int, steps: int, total: float) -> np.ndarray:
    """Splits of `total` into `dims` parts, one row each: every part but the
    last takes one of `steps` evenly spaced fractions of what is left."""
    grid = np.linspace(0.0, 1.0, steps)
    parts = np.empty((1, 0))
    remaining = np.array([total])
    for _ in range(dims - 1):
        spent = grid * remaining[:, None]
        parts = np.column_stack([np.repeat(parts, steps, axis=0),
                                 spent.ravel()])
        remaining = (remaining[:, None] - spent).ravel()
    return np.column_stack([parts, remaining])


def _float_cells(values: np.ndarray, fmt: str) -> np.ndarray:
    """`fmt % v` for each v of `values`, as an object array of the same
    shape; each distinct bit pattern is formatted once."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = list(map(fmt.__mod__, bits.view(np.float64).tolist()))
    return np.array(text, dtype=object)[inverse.reshape(values.shape)]


def _sweep_cells(spec: scheme.SystemSpec, layout, shape, tables, at,
                 leads: np.ndarray) -> np.ndarray:
    """The cells of the `gauss_sic`, `gauss_tin` and `shell_sic` lines of
    chunk `at` (see `_sweep_chunks`), shaped (chunk shape, kind, cell),
    that joined in order give the lines; `leads` are the three kinds'
    constant cells.  A split's shell line is left out, its cells blanked,
    where any shell rate is NaN."""
    chunk, powers, items = _chunk_powers(shape, tables, at)
    sic, tin = rates.bc_gaussian_rates(spec, layout, powers,
                                       mode=("sic", "tin"))
    kinds = [sic, tin, rates.bc_shell_rates(spec, layout, powers, mode="sic")]
    # one row of cells per line, joined once: the leads, the param items,
    # then the rates, the last of them ending the line
    cells = np.empty(chunk + (len(kinds), 1 + len(items) + spec.K),
                     dtype=object)
    cells[..., 0] = leads
    for c, item in enumerate(items, 1):
        cells[..., c] = item[..., None]
    for kind, block in enumerate(kinds):
        for k in range(spec.K):
            cells[..., kind, 1 + len(items) + k] = _float_cells(
                block[..., k], "%.12g\r\n" if k + 1 == spec.K else "%.12g,")
    cells[np.isnan(kinds[2]).any(axis=-1), 2, :] = ""
    return cells


def cmd_rate_region(cfg: Mapping, args, benchmarks_only: bool = False) -> int:
    """The QAM designs (unless `benchmarks_only`), then the benchmark sweep.

    Every config check runs before the output file is opened.  The sweep
    is streamed in sub-grids of at most `_SWEEP_CHUNK` splits, in split
    order (`_sweep_chunks`): each chunk's entries of the power tables are
    taken, its rates computed and its lines written before the next chunk
    is taken.  A link is evaluated once per entry of its sub-block's
    power table that the chunk holds, not once per split.  A sweep that
    runs out of memory exits 2 naming its split count, leaving the lines
    already written.
    """
    spec = spec_from_config(cfg)
    layout = scheme.build_layout(spec)
    samples, seed = sampling_params(cfg, args)
    section = _section(cfg, "rate_region")
    steps = _read(section, "power_steps", 17, int)
    if steps < 2:
        raise ConfigError("rate_region.power_steps must be >= 2")
    # `_split_tables` crosses simplices of steps^(dims - 1) points each
    n_splits = steps ** (sum(len(sb.participants)
                             for sb in layout.sub_blocks if sb.length) - 1)
    too_many = f"{n_splits} power splits (power_steps {steps}) are too many"
    if n_splits > np.iinfo(np.intp).max:
        raise ConfigError(too_many)
    cap = _read(section, "max_sub_block_order", scheme.DEFAULT_ORDER_CAP, int)
    if cap < 1:
        raise ConfigError(
            f"rate_region.max_sub_block_order must be >= 1, got {cap}")
    include_qam = not benchmarks_only and _read(section, "include_qam", True,
                                                bool)

    header = (["build_id", "seed", "n_noise_samples", "point_type", "param",
               "orders"]
              + [f"R_{k + 1}" for k in range(spec.K)])
    lead = [build_id(), str(seed), str(samples)]

    n_qam = 0
    if include_qam:
        result = scheme.design_search(
            spec, [1.0] * spec.K, max_sub_block_order=cap, pareto_only=False)
        if not len(result.weighted_sum):
            print(result.explanation or "no feasible design", file=sys.stderr)
            _write_lines(args.out, header, ())
            return EXIT_NO_DESIGN
        n_qam = len(result.weighted_sum)
    qam = _line_template(lead + ["qam_tin", ""],
                         _orders_cell(spec.K) + ",%.12g" * spec.K)
    leads = np.array(["".join(_csv_cell(c) + "," for c in lead + [kind])
                      for kind in ("gauss_sic", "gauss_tin", "shell_sic")],
                     dtype=object)

    def lines():
        # the QAM rows go to lists chunk by chunk, so no whole-array list
        # is held
        for start in range(0, n_qam, _SWEEP_CHUNK):
            stop = start + _SWEEP_CHUNK
            for orders, rate_row in zip(result.orders[start:stop].tolist(),
                                        result.rates[start:stop].tolist()):
                yield qam % (*orders, *rate_row)
        try:
            shape, tables = _split_tables(spec, layout, steps)
            for at in _sweep_chunks(shape, _SWEEP_CHUNK):
                # the chunk's arrays are dropped before its text is joined
                yield "".join(_sweep_cells(spec, layout, shape, tables, at,
                                           leads).ravel().tolist())
        except MemoryError as exc:
            raise ConfigError(too_many) from exc

    _write_lines(args.out, header, lines())
    return EXIT_OK


def cmd_benchmark(cfg: Mapping, args) -> int:
    return cmd_rate_region(cfg, args, benchmarks_only=True)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: Mapping, args) -> int:
    from . import linksim
    spec = spec_from_config(cfg)
    samples, seed = sampling_params(cfg, args)
    section = _section(cfg, "simulate")
    orders = section.get("orders")
    if orders is None:
        raise ConfigError("simulate requires simulate.orders")
    n_frames = _read(section, "n_frames", 50, int)
    if n_frames <= 0:
        raise ConfigError("simulate.n_frames must be positive")
    try:
        plan = scheme.assign_power(orders, spec)
    except scheme.InfeasiblePlanError as exc:
        print(f"infeasible orders: {exc}", file=sys.stderr)
        return EXIT_NO_DESIGN
    if not any(map(any, plan.orders)):
        print("simulate.orders are all zero: no bits to send", file=sys.stderr)
        return EXIT_NO_DESIGN

    header = ["build_id", "seed", "n_noise_samples", "user", "n_frames",
              "n_bits", "bit_errors", "uncoded_ber", "mean_symbol_power",
              "zero_noise_roundtrip"]
    # one pass over the frames in blocks (`linksim.frame_blocks`): each block
    # is synthesized once into the run's buffers, each of its links demapped
    # once for all its frames and counted against its payload bits, before
    # the next block overwrites it; the zero-noise frame is the first frame's
    # h x, not a second synthesis
    n_bits = [0] * spec.K
    n_err = [0] * spec.K
    clean_ok = None
    power_acc = 0.0
    power_n = 0
    magnitude = None  # |x|^2 of a block, one buffer for the run
    for block in linksim.frame_blocks(plan, seed, n_frames):
        if magnitude is None:
            magnitude = np.empty(block.x.shape)
        power = np.abs(block.x, out=magnitude[:len(block.x)])
        np.square(power, out=power)
        # one sum per frame, added in frame order
        for frame_power in power.sum(axis=1).tolist():
            power_acc += frame_power
        power_n += block.x.size
        if clean_ok is None:
            quiet = linksim.zero_noise(block.row(0), plan)
            clean_ok = [linksim.bit_errors(quiet, k, plan) == 0
                        for k in range(spec.K)]
            del quiet  # its arrays are views of the block's
        for k in range(spec.K):
            n_err[k] += linksim.bit_errors(block, k, plan)
            n_bits[k] += block.payloads[k].size
    line = _line_template([build_id(), str(seed), str(samples)],
                          "%s,%s,%s,%s,%.12g,%.12g,%s")
    _write_lines(args.out, header, (
        line % (k + 1, n_frames, n_bits[k], n_err[k],
                (n_err[k] / n_bits[k]) if n_bits[k] else 0.0,
                power_acc / power_n if power_n else 0.0,
                "yes" if clean_ok[k] else "no") for k in range(spec.K)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# Largest |dI| or |dV| that `kernel_vs_quadrature` passes.  On its plan the
# 64-node oracle is at most 6.3e-5 off the kernel, while a kernel that drops
# the interference misses by 2.3e-2 or more.
_KERNEL_TOL = 1e-4


def _validation_checks(seed: int):
    """Fast invariant suite over all modules; yields (name, passed, detail)."""
    from . import linksim
    # constellation energy and distance identities
    for m in range(1, 7):
        c = constellations.build_gray_qam(m)
        expected = constellations.grid_energy((m + 1) // 2, m // 2)
        ok = (abs(c.energy - expected) <= 1e-12
              and abs(c.mean) <= 1e-12
              and abs(c.min_pairwise_distance() - 1.0) <= 1e-12
              and c.is_gray())
        yield f"qam_order_{m}", ok, f"energy={c.energy:.6g}"
    comp = constellations.superimpose(
        [constellations.build_gray_qam(2), constellations.build_gray_qam(4)])
    ok = (comp.size == 64
          and abs(comp.min_pairwise_distance() - 1.0) <= 1e-12
          and abs(comp.energy - 63.0 / 6.0) <= 1e-12)
    yield "superposition_64", ok, f"d_min={comp.min_pairwise_distance():.6g}"

    # q function inverse round trip
    worst = 0.0
    for p in (0.5, 1e-2, 1e-4, 1e-6, 1e-9):
        x = rates.qfunc_inv(p)
        worst = max(worst, abs(rates.qfunc(x) - p) / p)
    yield "qfunc_roundtrip", worst <= 1e-12, f"max_rel_err={worst:.3g}"

    # randomized plans: power accounting and minimum distances
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(25):
        spec = _random_spec(rng)
        plan = _random_feasible_plan(spec, rng)
        if plan is None:
            continue
        if not _accounting_ok(plan) or not all(
                r.ok for r in scheme.verify_min_distances(plan)):
            bad += 1
    yield "random_plan_invariants", bad == 0, f"violations={bad}"

    # zero-noise LLR round trip on a mixed design
    spec = scheme.SystemSpec.create(1.0, [
        scheme.UserSpec(16, 1e-6, math.sqrt(10 ** 1.8)),
        scheme.UserSpec(24, 1e-4, math.sqrt(10 ** 0.5))])
    plan = scheme.assign_power([[2], [4, 4]], spec)
    payloads = linksim.random_payloads(plan, seed)
    frame = linksim.simulate_frame(plan, payloads, seed, noise_scale=0.0)
    ok = True
    for k in range(spec.K):
        llr = linksim.demap_frame(frame, k, plan)
        ok = ok and bool(np.array_equal(
            linksim.hard_bits(llr), payloads[k]))
    yield "zero_noise_llr_roundtrip", ok, ""

    # per-dimension kernel against the 2-D quadrature oracle on the same plan
    worst = 0.0
    result = rates.compute_plan_rates(plan)
    for k in range(spec.K):
        for j in range(k + 1):
            oracle = rates.quadrature_mi_dispersion(
                *plan.sub_block_signals(k, j), spec.users[k].h)
            worst = max(worst, abs(result.mi[k, j] - oracle.mi),
                        abs(result.dispersion[k, j] - oracle.dispersion))
    yield ("kernel_vs_quadrature", worst <= _KERNEL_TOL,
           f"worst_gap={worst:.3g} tol={_KERNEL_TOL:.3g}")


def _random_spec(rng) -> scheme.SystemSpec:
    k = int(rng.integers(1, 4))
    lengths = np.sort(rng.integers(8, 64, size=k))
    users = []
    mags = 10 ** rng.uniform(0.0, 1.2, size=k)
    while np.unique(np.round(mags, 6)).size < k:
        mags = 10 ** rng.uniform(0.0, 1.2, size=k)
    phases = rng.uniform(0, 2 * np.pi, size=k)
    for i in range(k):
        users.append(scheme.UserSpec(
            int(lengths[i]), float(rng.uniform(1e-7, 0.4)),
            mags[i] * complex(np.cos(phases[i]), np.sin(phases[i]))))
    return scheme.SystemSpec.create(float(10 ** rng.uniform(-0.2, 1.0)), users)


def _random_feasible_plan(spec, rng):
    sub_blocks = scheme.build_layout(spec).sub_blocks
    for _ in range(40):
        # orders in an empty sub-block must be 0 (their draw is still taken)
        orders = [[int(rng.integers(0, 5)) * (sb.length > 0)
                   for sb in sub_blocks[:k + 1]] for k in range(spec.K)]
        if any(m > 0 for row in orders for m in row):
            try:
                return scheme.assign_power(orders, spec)
            except scheme.InfeasiblePlanError:
                pass
    return None


def _accounting_ok(plan, tol: float = 1e-9) -> bool:
    """Per-sub-block powers sum to the budget wherever anyone transmits."""
    spec = plan.spec
    for sb in plan.layout.sub_blocks:
        total = sum(plan.entries[(u, sb.index)].power for u in sb.participants)
        active = any(plan.entries[(u, sb.index)].order > 0
                     for u in sb.participants)
        target = spec.P if active else 0.0
        if abs(total - target) > tol * max(1.0, spec.P):
            return False
    # frame-average total power
    n_total = plan.layout.boundaries[-1]
    frame_avg = sum(sb.length * sum(plan.entries[(u, sb.index)].power
                                    for u in sb.participants)
                    for sb in plan.layout.sub_blocks) / n_total
    full = all(
        any(plan.entries[(u, sb.index)].order > 0 for u in sb.participants)
        for sb in plan.layout.sub_blocks if sb.length > 0)
    return not full or abs(frame_avg - spec.P) <= tol * max(1.0, spec.P)


def cmd_validate(cfg: Mapping, args) -> int:
    spec_from_config(cfg)  # a bad system section exits 2, as elsewhere
    samples, seed = sampling_params(cfg, args)
    plan_path = _section(cfg, "validate").get("plan")
    if plan_path is not None and not (isinstance(plan_path, str)
                                      and plan_path):
        raise ConfigError(f"validate.plan must be a non-empty path string, "
                          f"got {plan_path!r}")
    rows = []
    if plan_path is not None:
        try:
            with open(plan_path) as fh:
                data = json.load(fh)
            scheme.plan_from_dict(data)
        except (OSError, json.JSONDecodeError, scheme.SpecError) as exc:
            print(f"plan schema error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        rows.append(("plan_schema", True, str(plan_path)))
    rows.extend(_validation_checks(seed))
    if args.out:
        line = _line_template([build_id(), str(seed), str(samples)],
                              "%s,%s,%s")
        _write_lines(args.out, ["build_id", "seed", "n_noise_samples",
                                "check", "passed", "detail"],
                     (line % (_csv_cell(name), "yes" if ok else "no",
                              _csv_cell(detail)) for name, ok, detail in rows))
    for name, ok, detail in rows:
        print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: each
    `parse_args` fills a new namespace, so no call sees another's
    arguments."""
    parser = argparse.ArgumentParser(
        prog="tinlink",
        description="Superimposed-QAM downlink design and finite-blocklength "
                    "rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out in (("design", True), ("rate-region", True),
                            ("benchmark", True), ("simulate", True),
                            ("validate", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=needs_out)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="ignored; every command runs in one thread")
        if name == "design":
            p.add_argument("--plan-out", default=None)
    return parser


_COMMANDS = {
    "design": cmd_design,
    "rate-region": cmd_rate_region,
    "benchmark": cmd_benchmark,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, invoked {args.command!r}")
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, scheme.SpecError, rates.RateEngineError,
            constellations.ConstellationError,
            OSError, MemoryError) as exc:  # unwritable output, run too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
