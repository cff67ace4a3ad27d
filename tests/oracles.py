"""Scalar reference implementations that the array code is tested against.

These are the per-split and per-candidate loops the package used before its
rate combiner, benchmark sweep and power-split grid took whole arrays.  They
compute each value with Python floats (`math.log2`, `**`, one `@` per user),
so the array code must match them bit for bit.
"""
import itertools
import math

import numpy as np

from tinlink.rates import LOG2E, RateEngineError, SecondOrderRate, qfunc_inv


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
