"""Reference implementations that the array code is tested against.

These are the per-split and per-candidate loops the package used before its
rate combiner, benchmark sweep and power-split grid took whole arrays.  They
compute each value with Python floats (`math.log2`, `**`, one `@` per user),
so the array code must match them bit for bit.

The CSV writer is the per-cell `csv.writer` loop the commands used before
they wrote each line from a template; their files must match it byte for
byte.

`log2_reference` is `math.log2` on every element, which `rates._log2` must
match bit for bit while it calls `math.log2` once per distinct value.

The Pareto filters below are the quadratic double loop, the sort-based loop
that tested one candidate at a time against the front found so far, and a
numpy all-pairs test; `design_search_reference` is the search that built its
candidates as a Python list of rank-vector tuples, used that loop and
packaged each returned candidate's columns in Python, with each
sub-block's vectors and slacks from `feasible_rank_vectors`, which asks the
public `check_modulation_constraints` about one vector at a time, as a
separate check of the search's own feasibility pass.  The blocked filter,
the array candidate index and the gathered columns must give the same flags
and rows, in the same order.  `sub_block_stats_per_key` integrates both
dimensions of one (I, V) key, as the kernel table did before it integrated
each distinct grid once per call; the table must match it bit for bit.  It
and `information_densities_reference` build their grids from the level
enumeration `dimension_levels_reference`, not from `rates.receive_grids`,
so the grid formula is checked too.

`rate_single_block` and `rate_two_segment` are the closed forms that the
one combiner, `rates.combine_second_order`, reduces to.  `quadrature_mi`
is the interference-free 2-D Gauss-Hermite loop that
`rates.quadrature_mi_dispersion` replaced; the two agree to rounding.

The TIN kernel, LLR demapper and `simulate` loop below are the forms the
package used before it kept symbols on the last axis of the kernel's working
array and simulated each frame once for all users.  Their sums over
interferer levels run in another order, so the current kernel matches them
to a relative 1e-12, not bit for bit.  `tin_loglik_general_reference` is
the kernel's body before grids with one interferer sum took their
likelihood as it is; on those grids the kernel must match it bit for bit,
also in the sign of a zero.
"""
import csv
import itertools
import math

import numpy as np

from tinlink import linksim, rates, scheme
from tinlink.constellations import MAX_TOTAL_ORDER, gray_sequence
from tinlink.rates import (
    GH_NODES,
    LN2,
    LOG2E,
    RateEngineError,
    SubBlockRateStats,
    _combo_sums,
    _hermite_rule,
    _lse_over_alts,
    dimension_densities,
    qfunc_inv,
)


def scalar_second_order(lengths, mis, dispersions, eps, n_total):
    """One user's rate (sum L_j I_j - sqrt(sum L_j V_j) Qinv(eps)) / N."""
    lengths = np.asarray(lengths, dtype=float)
    mis = np.asarray(mis, dtype=float)
    dispersions = np.asarray(dispersions, dtype=float)
    if np.any(dispersions < 0):
        raise RateEngineError("negative dispersion")
    first = float(lengths @ mis)
    radicand = float(lengths @ dispersions)
    penalty = math.sqrt(radicand) * qfunc_inv(eps)
    return (first - penalty) / n_total


def rate_single_block(mi: float, dispersion: float, n: int, eps: float) -> float:
    """Single-block closed form I - sqrt(V/n) Qinv(eps)."""
    return mi - math.sqrt(dispersion / n) * qfunc_inv(eps)


def rate_two_segment(len1: int, stats1: SubBlockRateStats, len2: int,
                     stats2: SubBlockRateStats, eps: float, n_total: int) -> float:
    """Two-segment closed form (partially interfered frame)."""
    first = len1 * stats1.mi + len2 * stats2.mi
    rad = len1 * stats1.dispersion + len2 * stats2.dispersion
    return (first - math.sqrt(rad) * qfunc_inv(eps)) / n_total


def quadrature_mi(points, h, n_nodes: int = 64) -> float:
    """Interference-free mutual information by 2-D Gauss-Hermite
    quadrature, summed over the noise nodes 512 at a time."""
    points = np.asarray(points, dtype=complex)
    if points.size > 256:
        raise RateEngineError("quadrature oracle limited to 256 points")
    if points.size < 1:
        raise RateEngineError("empty constellation")
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    x = complex(h) * points
    m_bits = math.log2(points.size)
    # E over Z ~ CN(0,1): (1/pi) sum_ij w_i w_j f(t_i + 1j t_j)
    zr_grid, zi_grid = np.meshgrid(nodes, nodes, indexing="ij")
    wgt = (weights[:, None] * weights[None, :]).ravel() / math.pi
    zr_flat = zr_grid.ravel()
    zi_flat = zi_grid.ravel()
    total = 0.0
    chunk = 512
    for lo in range(0, zr_flat.size, chunk):
        zr = zr_flat[lo:lo + chunk]
        zi = zi_flat[lo:lo + chunk]
        lse = _lse_over_alts(x, x, zr, zi)
        # log2(num/den) with den = exp(-|z|^2)
        val = (lse + (zr * zr + zi * zi)[None, :]) / LN2
        total += float(val.mean(axis=0) @ wgt[lo:lo + chunk])
    return m_bits - total


def gaussian_stats_reference(sinr):
    if sinr < 0:
        raise RateEngineError("negative SINR")
    return math.log2(1.0 + sinr), 2.0 * LOG2E ** 2 * sinr / (sinr + 1.0)


def shell_stats_reference(p_eff):
    if p_eff < 0:
        raise RateEngineError("negative power")
    return (math.log2(1.0 + p_eff),
            LOG2E ** 2 * p_eff * (p_eff + 2.0) / (p_eff + 1.0) ** 2)


def _gaussian_link(p, interf, gain):
    return gaussian_stats_reference((p * gain) / (interf * gain + 1.0))


def _shell_link(p, interf, gain):
    if p > 0.0 and interf > 0.0:
        return None
    return shell_stats_reference(p * gain) if interf == 0.0 else (0.0, 0.0)


def bc_rates_reference(spec, layout, powers, mode, shell=False):
    """Every user's benchmark rate at one split, None where it has none.

    powers maps (user, sub_block) to one float; shell picks the shell-code
    link instead of the Gaussian one.
    """
    link_stats = _shell_link if shell else _gaussian_link
    out = []
    for k, user in enumerate(spec.users):
        lengths, mis, vs = [], [], []
        gain = abs(user.h) ** 2
        for sb in layout.sub_blocks[:k + 1]:
            if sb.length == 0:
                continue
            interf = 0.0
            for other in sb.participants:
                if other == k:
                    continue
                if mode == "sic" and abs(spec.users[other].h) <= abs(user.h):
                    continue
                interf += powers.get((other, sb.index), 0.0)
            stats = link_stats(powers.get((k, sb.index), 0.0), interf, gain)
            if stats is None:
                lengths = None
                break
            lengths.append(sb.length)
            mis.append(stats[0])
            vs.append(stats[1])
        out.append(None if lengths is None else scalar_second_order(
            lengths, mis, vs, user.eps, user.N))
    return out


def power_splits_reference(spec, layout, steps):
    """The benchmark power splits as dicts (user, sub_block) -> power, from
    the recursive generators, in sweep order."""
    lengths = [sb.length for sb in layout.sub_blocks]
    n_total = layout.boundaries[-1]
    active = [j for j, L in enumerate(lengths) if L > 0]
    grid = np.linspace(0.0, 1.0, steps)

    def total_combos(index, remaining):
        if index == len(active) - 1:
            yield {active[index]: remaining}
            return
        j = active[index]
        for frac in grid:
            spent = frac * remaining
            rest = remaining - spent
            for tail in total_combos(index + 1, rest):
                combo = {j: spent}
                combo.update(tail)
                yield combo

    def simplex(dims):
        out = []

        def recurse(prefix, remaining):
            if len(prefix) == dims - 1:
                out.append(tuple(prefix) + (remaining,))
                return
            for frac in grid:
                recurse(prefix + [frac * remaining],
                        remaining - frac * remaining)

        recurse([], 1.0)
        return out

    for totals_raw in total_combos(0, n_total * spec.P):
        totals = {j: totals_raw[j] / lengths[j] for j in active}
        share_axes = []
        for j in active:
            participants = layout.sub_blocks[j].participants
            if len(participants) == 1:
                share_axes.append([(1.0,)])
            else:
                share_axes.append(simplex(len(participants)))
        for shares in itertools.product(*share_axes):
            powers = {}
            for j, share in zip(active, shares):
                for user, frac in zip(layout.sub_blocks[j].participants,
                                      share):
                    powers[(user, j)] = totals[j] * frac
            yield powers


def log2_reference(x):
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log2, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def param_str_reference(powers):
    """One split's `user.subblock=power` items."""
    return ";".join(f"{u + 1}.{j + 1}={p:.6g}"
                    for (u, j), p in sorted(powers.items()))


def bits(values) -> bytes:
    """The IEEE bit patterns of a float or a sequence of floats, for 0 ulp
    comparisons that also tell 0.0 from -0.0."""
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# TIN kernel, LLR demapper and simulate loop, symbols first
# ---------------------------------------------------------------------------

def dimension_levels_reference(parts, user):
    """(desired levels, interferer level sums) in I, then in Q."""
    def levels(part, d):
        n = 1 << part[0][d]
        return part[1 + d] * (np.arange(n) - (n - 1) / 2)

    others = [p for u, p in parts.items() if u != user]
    return [(levels(parts[user], d),
             _combo_sums([levels(p, d) for p in others])) for d in (0, 1)]


def log_sum_exp_reference(a, axis):
    mx = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - mx).sum(axis=axis)) + np.squeeze(mx, axis=axis)


def tin_loglik_reference(y, g, levels, sums):
    """(len(y), len(levels)) TIN log-likelihoods from a (symbols, levels,
    sums) working array, reduced over its short last axis."""
    x = g * (levels[:, None] + sums[None, :])
    out = np.empty((y.size, levels.size))
    step = max(1, (1 << 23) // x.size)
    for lo in range(0, y.size, step):
        m = y[lo:lo + step, None, None] - x[None, :, :]
        np.square(m, out=m)
        np.negative(m, out=m)
        out[lo:lo + step] = log_sum_exp_reference(m, 2)
    return out


def tin_loglik_general_reference(y, grid):
    """`rates.tin_loglik` with every grid through the min, floor, exp, sum
    and log passes, one interferer sum or more, chunked by the module's
    current `_ELEM_BUDGET`."""
    out = np.empty((grid.shape[0], y.size))
    step = max(1, rates._ELEM_BUDGET // grid.size)
    for lo in range(0, y.size, step):
        d = y[lo:lo + step] - grid[:, :, None]
        np.square(d, out=d)
        low = d.min(axis=1)
        dst = out[:, lo:lo + step]
        np.subtract(low[:, None, :], d, out=d)
        np.maximum(d, rates._EXP_FLOOR, out=d)
        np.exp(d, out=d)
        total = d.sum(axis=1)
        np.log(total, out=total)
        np.subtract(total, low, out=dst)
    return out.T


def tin_llr_reference(y, user, sub_block, plan):
    """(n_symbols, m) bit LLRs, one masked reduction over levels per bit."""
    h = plan.spec.users[user].h
    g = abs(h)
    y = np.asarray(y, dtype=complex).ravel() * (np.conj(h) / g)
    shape = plan.entries[(user, sub_block)].shape
    cols = []
    for yd, n_bits, (levels, sums) in zip(
            (y.real, y.imag), shape,
            dimension_levels_reference(plan_parts(plan, sub_block), user)):
        if n_bits == 0:
            continue
        ll = tin_loglik_reference(yd, g, levels, sums)
        labels = gray_sequence(n_bits)
        for b in range(n_bits):
            one = ((labels >> (n_bits - 1 - b)) & 1).astype(bool)
            cols.append(log_sum_exp_reference(ll[:, ~one], axis=1)
                        - log_sum_exp_reference(ll[:, one], axis=1))
    return np.stack(cols, axis=1) if cols else np.zeros((y.size, 0))


def tin_llr_reduced_reference(y, user, sub_block, plan):
    """`linksim.tin_llr` on one link with every half of the levels reduced,
    also a half that holds one level: the form before 1-bit dimensions took
    their one log-likelihood as it is."""
    h = plan.spec.users[user].h
    y = np.asarray(y, dtype=complex).ravel() * (np.conj(h) / abs(h))
    rows = []
    for d, grid, halves in plan.entries[(user, sub_block)].dims:
        ll = rates.tin_loglik((y.real, y.imag)[d], grid).T
        per_half = rates.log_sum_exp(ll[halves], axis=1)
        rows.append(per_half[:len(halves) // 2] - per_half[len(halves) // 2:])
    return np.concatenate(rows).T


def bit_halves_reference(n_bits):
    """(2 n_bits, levels / 2) level positions: row b those whose Gray label
    bit b (most significant first) is 0, row n_bits + b those where it is 1,
    each found by testing every label."""
    labels = gray_sequence(n_bits).tolist()
    return np.array([[p for p, label in enumerate(labels)
                      if (label >> (n_bits - 1 - b)) & 1 == value]
                     for value in (0, 1) for b in range(n_bits)])


def sub_block_stats_reference(g, parts, user):
    """(I, V) by Gauss-Hermite quadrature over the symbols-first kernel."""
    nodes, weights = _hermite_rule(GH_NODES)
    mi = dispersion = 0.0
    for levels, sums in dimension_levels_reference(parts, user):
        pairs = levels.size * sums.size
        y = (g * (levels[:, None] + sums[None, :]))[:, :, None] + nodes
        sent = np.repeat(np.arange(levels.size), sums.size * nodes.size)
        ll = tin_loglik_reference(y.ravel(), g, levels, sums)
        own = np.take_along_axis(ll, sent[:, None], axis=1)[:, 0]
        dens = math.log2(levels.size) + (
            own - log_sum_exp_reference(ll, 1)) / LN2
        w = np.tile(weights, pairs) / pairs
        first, second = float(dens @ w), float((dens * dens) @ w)
        mi += first
        dispersion += max(second - first * first, 0.0)
    return SubBlockRateStats(mi, dispersion, 0, 0.0, 0.0)


def block_parts(spec, sub_block, mv):
    """(shape, amp_i, amp_q) per user of one sub-block at rank-order vector
    mv, in participant order, as `scheme.design_search` builds them."""
    sb = scheme.build_layout(spec).sub_blocks[sub_block]
    by_rank = dict(zip(sb.ranks, scheme.sub_block_parts(mv, spec.P)))
    return {u: by_rank[u] for u in sb.participants}


def plan_parts(plan, sub_block):
    """`block_parts` at the rank-order vector of a plan's sub-block."""
    sb = plan.layout.sub_blocks[sub_block]
    return block_parts(plan.spec, sub_block,
                       [plan.orders[u][sub_block] for u in sb.ranks])


def sub_block_stats_per_key(g, parts, user):
    """(I, V) of one key from `rates.dimension_stats` on both of its grids,
    built from `dimension_levels_reference`: no grid shared with another key
    and no one-level dimension skipped."""
    mi = dispersion = 0.0
    for levels, sums in dimension_levels_reference(parts, user):
        grid = g * (levels[:, None] + sums[None, :])
        first, var = rates.dimension_stats(grid)
        mi += first
        dispersion += var
    return SubBlockRateStats(mi, dispersion, 0, 0.0, 0.0)


def active_bits_reference(payload, user, plan):
    """Bits that land on non-empty sub-blocks, in demapper order."""
    keep = []
    pos = 0
    for sb in plan.layout.sub_blocks[:user + 1]:
        m = plan.entries[(user, sb.index)].order
        take = sb.length * m
        if sb.length > 0 and m > 0:
            keep.append(payload[pos:pos + take])
        pos += take
    return np.concatenate(keep) if keep else np.zeros(0, dtype=np.int64)


def _demap_frame_reference(frame, user, plan):
    parts = []
    for sb in plan.layout.sub_blocks[:user + 1]:
        if sb.length == 0 or plan.entries[(user, sb.index)].order == 0:
            continue
        seg = frame.y[user][sb.start:sb.stop]
        parts.append(tin_llr_reference(seg, user, sb.index, plan).ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def frame_seeds_reference(seed, index):
    """(payload seed, noise seed) of frame `index` of a run seeded `seed`."""
    return seed + 7919 * index, seed + 104729 * index + 1


def simulate_rows_reference(plan, n_frames, seed, samples, bid):
    """The `simulate` CSV rows from a user loop around the frame loop, which
    builds every frame, and the zero-noise frame, once per user."""
    rows = []
    for k in range(plan.spec.K):
        n_bits = 0
        n_err = 0
        power_acc = 0.0
        power_n = 0
        clean_ok = True
        for f in range(n_frames):
            payload_seed, noise_seed = frame_seeds_reference(seed, f)
            payloads = linksim.random_payloads(plan, payload_seed)
            frame = linksim.simulate_frame(plan, payloads, noise_seed)
            llr = _demap_frame_reference(frame, k, plan)
            sent = active_bits_reference(payloads[k], k, plan)
            n_err += int(np.count_nonzero(linksim.hard_bits(llr) != sent))
            n_bits += sent.size
            power_acc += float(np.sum(np.abs(frame.x) ** 2))
            power_n += frame.x.size
            if f == 0:
                quiet = linksim.simulate_frame(plan, payloads, seed,
                                               noise_scale=0.0)
                llr0 = _demap_frame_reference(quiet, k, plan)
                clean_ok = bool(np.array_equal(linksim.hard_bits(llr0), sent))
        rows.append([bid, seed, samples, k + 1, n_frames, n_bits, n_err,
                     (n_err / n_bits) if n_bits else 0.0,
                     power_acc / power_n if power_n else 0.0,
                     "yes" if clean_ok else "no"])
    return rows


def information_densities_reference(frame, user, sub_block, plan):
    """Per-symbol densities with both dimensions' receive grids built for
    the call from `dimension_levels_reference`, a one-level dimension
    included."""
    h = plan.spec.users[user].h
    sb = plan.layout.sub_blocks[sub_block]
    y = frame.y[user][sb.start:sb.stop] * (np.conj(h) / abs(h))
    sent = scheme.map_bits(frame.payloads[user], user, plan)[sb.start:sb.stop]
    dens = np.zeros(sent.size)
    for yd, unit, (levels, sums) in zip(
            (y.real, y.imag), (sent.real, sent.imag),
            dimension_levels_reference(plan_parts(plan, sub_block), user)):
        grid = abs(h) * (levels[:, None] + sums[None, :])
        idx = np.rint(unit + (grid.shape[0] - 1) / 2).astype(np.int64)
        dens += dimension_densities(yd, grid, idx)
    return dens


# ---------------------------------------------------------------------------
# CSV writer, one formatted cell at a time
# ---------------------------------------------------------------------------

def fmt_reference(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv_reference(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_reference(v) for v in row])


# ---------------------------------------------------------------------------
# Pareto filters and the list-built design search
# ---------------------------------------------------------------------------

def pareto_reference(rate_tuples, dims):
    """The quadratic double loop that the sort-based filter replaced."""
    flags = []
    for i, ri in enumerate(rate_tuples):
        dominated = False
        for j, rj in enumerate(rate_tuples):
            if i == j:
                continue
            if all(rj[d] >= ri[d] for d in dims) and any(
                    rj[d] > ri[d] for d in dims):
                dominated = True
                break
        flags.append(not dominated)
    return flags


def pareto_front_loop_reference(rate_tuples, dims):
    """One numpy test per point, in descending lexicographic order, against
    the front found so far."""
    pts = np.asarray(rate_tuples, dtype=float)[:, list(dims)]
    front = np.empty_like(pts)
    size = 0
    flags = [False] * len(pts)
    for i in np.lexsort(-pts.T[::-1]):
        p, seen = pts[i], front[:size]
        if not np.any((seen >= p).all(axis=1) & (seen > p).any(axis=1)):
            front[size] = p
            size += 1
            flags[i] = True
    return flags


def pareto_all_pairs(rate_tuples, dims, chunk=256):
    """Every point tested against every point, `chunk` points at a time."""
    pts = np.asarray(rate_tuples, dtype=float)[:, list(dims)]
    flags = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), chunk):
        p = pts[start:start + chunk, None, :]
        flags[start:start + chunk] = ~((pts >= p).all(-1)
                                       & (pts > p).any(-1)).any(-1)
    return flags.tolist()


def feasible_rank_vectors(spec, sb, cap):
    """Every rank-order vector of non-empty sub-block `sb` with total at
    most `cap` that `scheme.check_modulation_constraints` passes on the
    order matrix holding it alone, in lexicographic order, mapped to the
    least slack of that report's order_sum rows for `sb`."""
    found = {}
    for mv in itertools.product(range(cap + 1), repeat=len(sb.ranks)):
        if sum(mv) > cap:
            continue
        orders = [[0] * (k + 1) for k in range(spec.K)]
        for user, m in zip(sb.ranks, mv):
            orders[user][sb.index] = m
        report = scheme.check_modulation_constraints(orders, spec)
        if report.feasible:
            found[mv] = min(r.slack for r in report.rows if
                            r.kind == "order_sum" and r.sub_block == sb.index)
    return found


def design_search_reference(spec, weights=None, max_sub_block_order=12,
                            pareto_only=True):
    """`scheme.design_search` over the enumerated candidates, with each
    sub-block's vectors and slacks from `feasible_rank_vectors`, `combos` a
    list of rank-vector tuples from `itertools.product`, a gather index
    built by `dict.setdefault` per sub-block, every table key integrated on
    its own by `sub_block_stats_per_key`, and the front loop."""
    layout = scheme.build_layout(spec)
    weights = [1.0] * spec.K if weights is None else weights
    cap = min(max_sub_block_order, MAX_TOTAL_ORDER)
    per_block = [feasible_rank_vectors(spec, sb, cap)
                 if sb.length else {(0,) * len(sb.ranks): math.inf}
                 for sb in layout.sub_blocks]
    combos = [combo for combo in itertools.product(*per_block)
              if any(m for vec in combo for m in vec)]
    table = {}
    index = np.empty((len(combos), spec.K), dtype=np.intp)
    vectors = []
    for sb in layout.sub_blocks:
        seen = {}
        index[:, sb.index] = [seen.setdefault(combo[sb.index], len(seen))
                              for combo in combos]
        vectors.append(list(seen))
        for mv in seen:
            for m, user in zip(mv, sb.ranks):
                if sb.length and m:
                    table[(sb.index, mv, user)] = sub_block_stats_per_key(
                        abs(spec.users[user].h),
                        block_parts(spec, sb.index, mv), user)

    def stats_of(k, j, mv):
        return table.get((j, mv, k), SubBlockRateStats(0.0, 0.0, 0, 0.0, 0.0))

    def gathered(k, field):
        return np.stack([np.array([getattr(stats_of(k, j, mv), field)
                                   for mv in vectors[j]])[index[:, j]]
                         for j in range(k + 1)], axis=-1)

    user_rates = np.stack([rates.user_rates(spec, layout, k, gathered(k, "mi"),
                                            gathered(k, "dispersion"))
                           for k in range(spec.K)], axis=-1)
    flags = pareto_front_loop_reference(
        user_rates, [k for k in range(spec.K) if weights[k] > 0])
    rows = []
    for combo, row, is_pareto in zip(combos, user_rates.tolist(), flags):
        if pareto_only and not is_pareto:
            continue
        matrix = [[0] * (k + 1) for k in range(spec.K)]
        for sb, vec in zip(layout.sub_blocks, combo):
            for rank, user in enumerate(sb.ranks):
                matrix[user][sb.index] = vec[rank]
        rows.append((
            sum(w * r for w, r in zip(weights, row)),
            [m for orders in matrix for m in orders], row,
            [max(0, math.floor(r * u.N)) for r, u in zip(row, spec.users)],
            list(scheme.codeword_lengths(matrix, layout)),
            min(per_block[j][mv] for j, mv in enumerate(combo))))
    rows.sort(key=lambda r: (-r[0], r[1]))
    n_flat = spec.K * (spec.K + 1) // 2
    return scheme.DesignSearchResult(
        orders=np.array([r[1] for r in rows], dtype=np.int64).reshape(
            -1, n_flat),
        rates=np.array([r[2] for r in rows]).reshape(-1, spec.K),
        weighted_sum=np.array([r[0] for r in rows]),
        info_bits=np.array([r[3] for r in rows],
                           dtype=np.int64).reshape(-1, spec.K),
        codeword_bits=np.array([r[4] for r in rows],
                               dtype=np.int64).reshape(-1, spec.K),
        min_order_slack=np.array([r[5] for r in rows]))
