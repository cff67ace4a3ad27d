"""Reference implementations that the array code is tested against.

These are the per-split and per-candidate loops the package used before its
rate combiner, benchmark sweep and power-split grid took whole arrays.  They
compute each value with Python floats (`math.log2`, `**`, one `@` per user),
so the array code must match them bit for bit.

The CSV writer is the per-cell `csv.writer` loop the commands used before
they wrote each line from a template; their files must match it byte for
byte.

The TIN kernel, LLR demapper and `simulate` loop below are the forms the
package used before it kept symbols on the last axis of the kernel's working
array and simulated each frame once for all users.  Their sums over
interferer levels run in another order, so the current kernel matches them
to a relative 1e-12, not bit for bit.
"""
import csv
import itertools
import math

import numpy as np

from tinlink import linksim
from tinlink.constellations import gray_sequence
from tinlink.rates import (
    GH_NODES,
    LN2,
    LOG2E,
    RateEngineError,
    SecondOrderRate,
    SubBlockRateStats,
    _combo_sums,
    _hermite_rule,
    dimension_densities,
    qfunc_inv,
    receive_grids,
)


def scalar_second_order(lengths, mis, dispersions, eps, n_total):
    """One user's (sum L_j I_j - sqrt(sum L_j V_j) Qinv(eps)) / N."""
    lengths = np.asarray(lengths, dtype=float)
    mis = np.asarray(mis, dtype=float)
    dispersions = np.asarray(dispersions, dtype=float)
    if np.any(dispersions < 0):
        raise RateEngineError("negative dispersion")
    first = float(lengths @ mis)
    radicand = float(lengths @ dispersions)
    penalty = math.sqrt(radicand) * qfunc_inv(eps)
    rate = (first - penalty) / n_total
    return SecondOrderRate(rate, first / n_total, penalty / n_total,
                           rate <= 0.0)


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
            lengths, mis, vs, user.eps, user.N).rate)
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


def tin_loglik_reference(y, g, levels, sums, *, max_log=False):
    """(len(y), len(levels)) TIN log-likelihoods from a (symbols, levels,
    sums) working array, reduced over its short last axis."""
    x = g * (levels[:, None] + sums[None, :])
    out = np.empty((y.size, levels.size))
    step = max(1, (1 << 23) // x.size)
    for lo in range(0, y.size, step):
        m = y[lo:lo + step, None, None] - x[None, :, :]
        np.square(m, out=m)
        np.negative(m, out=m)
        out[lo:lo + step] = (m.max(axis=2) if max_log
                             else log_sum_exp_reference(m, 2))
    return out


def tin_llr_reference(y, user, sub_block, plan, h=None, *, max_log=False):
    """(n_symbols, m) bit LLRs, one masked reduction over levels per bit."""
    if h is None:
        h = plan.spec.users[user].h
    g = abs(h)
    y = np.asarray(y, dtype=complex).ravel() * (np.conj(h) / g if h else 1)
    shape = plan.entries[(user, sub_block)].shape
    reduce = np.max if max_log else log_sum_exp_reference
    cols = []
    for yd, n_bits, (levels, sums) in zip(
            (y.real, y.imag), shape,
            dimension_levels_reference(plan.parts(sub_block), user)):
        if n_bits == 0:
            continue
        ll = tin_loglik_reference(yd, g, levels, sums, max_log=max_log)
        labels = gray_sequence(n_bits)
        for b in range(n_bits):
            one = ((labels >> (n_bits - 1 - b)) & 1).astype(bool)
            cols.append(reduce(ll[:, ~one], axis=1)
                        - reduce(ll[:, one], axis=1))
    return np.stack(cols, axis=1) if cols else np.zeros((y.size, 0))


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


def _demap_frame_reference(frame, user, plan, max_log=False):
    parts = []
    for sb in plan.layout.sub_blocks[:user + 1]:
        if sb.length == 0 or plan.entries[(user, sb.index)].order == 0:
            continue
        seg = frame.y[user][sb.start:sb.stop]
        parts.append(tin_llr_reference(seg, user, sb.index, plan,
                                       max_log=max_log).ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


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
            payloads = linksim.random_payloads(plan, seed + 7919 * f)
            frame = linksim.simulate_frame(plan, payloads,
                                           seed + 104729 * f + 1)
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


def information_densities_reference(frame, user, sub_block, plan, h=None):
    """Per-symbol densities with both dimensions' receive grids built for
    the call, a one-level dimension included."""
    if h is None:
        h = plan.spec.users[user].h
    sb = plan.layout.sub_blocks[sub_block]
    y = frame.y[user][sb.start:sb.stop] * (np.conj(h) / abs(h) if h else 1)
    sent = frame.symbols[user][sb.start:sb.stop]
    dens = np.zeros(sent.size)
    for yd, unit, grid in zip((y.real, y.imag), (sent.real, sent.imag),
                              receive_grids(abs(h), plan.parts(sub_block),
                                            user)):
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
