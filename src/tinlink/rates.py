"""Mutual information, dispersion, and second-order achievable rates.

Logarithms are base 2 (rates in bits per complex symbol), the noise is
circularly symmetric complex Gaussian with unit total variance, and the
channel law is y = h x + z.  Every part is a Gray rectangular QAM stretched
separately in I and Q, so after rotating y by conj(h)/|h| the information
density splits into independent I and Q parts and I = I_I + I_Q,
V = V_I + V_Q.  One per-dimension kernel, `tin_loglik`, gives the TIN
likelihoods: `dimension_stats` takes one dimension's (I_d, V_d) from it by
Gauss-Hermite quadrature, `sub_block_stats_table` sums them into the
(links, 2) (I, V) array of `compute_plan_rates` or `scheme.design_search`,
integrating each distinct receive grid once per call, and `linksim` takes
its LLRs and information densities from it.  `compute_plan_rates` reads
the grids from the plan entries' dims, built once per plan, and
`scheme.design_search` builds each distinct one once by its `grid_key`.
`receive_grid` is the one grid formula, and `receive_grids` applies it in I
and Q.  Likelihood sums go through log-sum-exp, so values stay finite.

One array combiner, `combine_second_order`, turns per-sub-block (I, V) into
second-order rates over a leading batch axis: design candidates one user at
a time (`user_rates`, with `compute_plan_rates` the one-row case) and every
benchmark power split at once (`bc_gaussian_rates`, `bc_shell_rates`).

The kernel's independent oracles enumerate the 2-D desired x interferer
tuples with no I/Q factorisation and share one 2-D density,
`_DensityContext`: `quadrature_mi_dispersion` integrates the noise by a
2-D product Gauss-Hermite rule, deterministically, and is what `validate`
checks the kernel against; `estimate_mi_dispersion` averages over Monte
Carlo noise from Philox substreams keyed by (seed, batch index); no command
calls it, and it and its noise batching stay only for `bench/layers.py`.

Q comes from `math.erfc` and Q^{-1} from `statistics.NormalDist`, so numpy
is the only third-party package the rate engine, and tinlink, imports.
"""
from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2

MAX_TUPLES = 4096
QUADRATURE_TUPLES = 256
MIN_NOISE_SAMPLES = 1000
GH_NODES = 128

_BATCH = 4096
# Elements in one kernel working array.  Each grid goes through the kernel
# on its own: batching a design search's same-shape grids into one pass
# ran 7% slower on `design` of two_user_search.json, with about 5 times
# the minor page faults (1,169 against 224 a call, 2-core x86-64 VM): the
# C allocator hands freed working arrays above about 1 MB back to the
# system, and they fault in again on the next call.
_ELEM_BUDGET = 1 << 23
# Floor on exp arguments in the likelihood sums.  numpy's vectorized exp
# leaves its fast path below about -708, where results are subnormal or 0,
# and ran 15-90 times slower there (numpy 2.4, AVX-512).  Every such sum
# also holds exp(0) = 1, which absorbs a term of exp(-700) ~ 1e-304 in its
# rounding as it would absorb 0.
_EXP_FLOOR = -700.0

_STD_NORMAL = NormalDist()


class RateEngineError(ValueError):
    """Invalid input to a rate computation."""


# ---------------------------------------------------------------------------
# Q function and inverse
# ---------------------------------------------------------------------------

def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) of a scalar x."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def qfunc_inv(p: float) -> float:
    """Q^{-1}(p) = -Phi^{-1}(p) on (0, 0.5], by Wichura's AS241."""
    p = float(p)
    if not 0.0 < p <= 0.5:
        raise RateEngineError(f"qfunc_inv requires p in (0, 0.5], got {p}")
    if p == 0.5:
        return 0.0
    return -_STD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# Noise substreams
# ---------------------------------------------------------------------------

def _noise_batch(seed: int, batch_index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Real/imag parts of `size` CN(0,1) samples; stream fixed by (seed, batch)."""
    bitgen = np.random.Philox(key=seed, counter=batch_index << 128)
    raw = np.random.Generator(bitgen).standard_normal(2 * size)
    s = math.sqrt(0.5)
    return s * raw[0::2], s * raw[1::2]


def _batch_plan(n_samples: int, batch: int = _BATCH) -> list[tuple[int, int]]:
    plan = []
    done = 0
    idx = 0
    while done < n_samples:
        take = min(batch, n_samples - done)
        plan.append((idx, take))
        done += take
        idx += 1
    return plan


# ---------------------------------------------------------------------------
# Exact-enumeration information density statistics
# ---------------------------------------------------------------------------

def _combo_sums(sets: Sequence[np.ndarray]) -> np.ndarray:
    """All sums over the cartesian product of the given level or symbol sets."""
    acc = np.zeros(1)
    for arr in sets:
        acc = (acc[:, None] + np.asarray(arr)[None, :]).ravel()
    return acc


def _lse_over_alts(xt: np.ndarray, xa: np.ndarray, zr: np.ndarray,
                   zi: np.ndarray) -> np.ndarray:
    """log sum_a exp(-|z + xt[r] - xa[a]|^2) for each true row r and sample.

    xt, xa are complex receive-scaled symbols; zr, zi the noise coordinates.
    Returns an array of shape (len(xt), len(zr)).
    """
    n_alt = xa.size
    n_z = zr.size
    out = np.empty((xt.size, n_z))
    rows_per = max(1, _ELEM_BUDGET // max(1, n_alt * n_z))
    for lo in range(0, xt.size, rows_per):
        hi = min(xt.size, lo + rows_per)
        dr = xt.real[lo:hi, None] - xa.real[None, :]
        di = xt.imag[lo:hi, None] - xa.imag[None, :]
        a = dr[:, :, None] + zr[None, None, :]
        np.square(a, out=a)
        b = di[:, :, None] + zi[None, None, :]
        np.square(b, out=b)
        a += b
        np.negative(a, out=a)
        mx = a.max(axis=1)
        a -= mx[:, None, :]
        np.exp(a, out=a)
        s = a.sum(axis=1)
        np.log(s, out=s)
        out[lo:hi] = mx + s
    return out


class SubBlockRateStats(NamedTuple):
    """One link's mutual information and dispersion from an oracle.

    mi and dispersion are in bits and bits**2 per complex symbol, and
    third_abs_moment is the centred third absolute moment E|i - I|^3 of the
    information density.  From the Monte Carlo estimator, sample_count and
    the standard errors describe the noise averaging (symbol tuples are
    enumerated exactly) and third_abs_moment is None.  From the 2-D
    quadrature oracle, which carries no sampling error, sample_count and
    the standard errors are 0; the per-dimension kernel returns arrays.
    """

    mi: float
    dispersion: float
    sample_count: int
    std_err_mi: float
    std_err_dispersion: float
    third_abs_moment: float | None = None


class _DensityContext:
    """Receive-side enumeration structure for one (user, sub-block) link."""

    def __init__(self, desired, interferers, h, max_tuples: int = MAX_TUPLES):
        desired = np.asarray(desired, dtype=complex)
        if desired.size < 1:
            raise RateEngineError("desired constellation is empty")
        combos = _combo_sums(list(interferers))
        n_tuples = desired.size * combos.size
        if n_tuples > max_tuples:
            raise RateEngineError(
                f"tuple count {n_tuples} exceeds cap {max_tuples}")
        self.m_bits = math.log2(desired.size)
        self.h = complex(h)
        self.x_den = self.h * combos
        self.x_num = (self.h * desired[:, None] + self.x_den[None, :]).ravel()
        self.n_combos = combos.size

    def densities(self, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """Information density per (true tuple, noise sample), in bits."""
        lse_num = _lse_over_alts(self.x_num, self.x_num, zr, zi)
        lse_den = _lse_over_alts(self.x_den, self.x_den, zr, zi)
        rows = np.arange(self.x_num.size)
        lse_num -= lse_den[rows % self.n_combos]
        lse_num /= -LN2
        lse_num += self.m_bits
        return lse_num


def estimate_mi_dispersion(desired, interferers, h, n_noise_samples: int,
                           seed: int) -> SubBlockRateStats:
    """Estimate (I, V) for a discrete input under additive interference.

    desired: complex transmit amplitudes of the wanted constellation (uniform
    input); interferers: list of interfering constellations, each uniform and
    independent; h: complex channel applied to everything.  Interference-free
    links pass an empty interferer list.  Symbol tuples are enumerated exactly
    (product cardinality capped at 4096); the expectation over the unit
    complex Gaussian noise uses n_noise_samples common random numbers shared
    by all tuples.  This Monte Carlo oracle has no caller in the package;
    the tests compare it with the quadrature kernel and the 2-D oracle.  It
    stays only because `bench/layers.py` wraps it and reads its parameters.

    No sigma-based check may use it on a plan well above its bit budget:
    V there comes from rare boundary crossings that a few thousand samples
    miss, and so do the standard errors.  8-QAM alone at P = 3.78, |h| =
    3.60 (five bits of slack), seed 1, 4,000 samples: V = 1.4e-7 +- 7.7e-8,
    while the kernel gives 9.70e-4 and the 64-node 2-D oracle 9.69e-4.
    """
    n_noise_samples = int(n_noise_samples)
    if n_noise_samples < MIN_NOISE_SAMPLES:
        raise RateEngineError(
            f"n_noise_samples must be >= {MIN_NOISE_SAMPLES}")
    ctx = _DensityContext(desired, interferers, h)
    means, squares = [], []
    for idx, take in _batch_plan(n_noise_samples):
        dens = ctx.densities(*_noise_batch(seed, idx, take))
        means.append(dens.mean(axis=0))
        squares.append(np.mean(dens * dens, axis=0))
    per_z_mean = np.concatenate(means)
    per_z_sq = np.concatenate(squares)
    n = per_z_mean.size
    mi = float(per_z_mean.mean())
    second = float(per_z_sq.mean())
    dispersion = max(second - mi * mi, 0.0)
    se_mi = float(per_z_mean.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    g = per_z_sq - 2.0 * mi * per_z_mean
    se_v = float(g.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SubBlockRateStats(mi, dispersion, n, se_mi, se_v)


def quadrature_mi_dispersion(desired, interferers, h, n_nodes: int = 64
                             ) -> SubBlockRateStats:
    """(I, V) and E|i - I|^3 by 2-D product Gauss-Hermite quadrature.

    Inputs are those of `estimate_mi_dispersion`.  The densities of every
    desired x interferer tuple (at most QUADRATURE_TUPLES) come from the
    same 2-D enumeration, with no I/Q factorisation, so this stays an
    independent, deterministic oracle for the per-dimension kernel.  The
    noise expectation is (1/pi) sum_ij w_i w_j f(t_i + 1j t_j) over
    n_nodes^2 nodes; sample_count and the standard errors are 0.  Commands
    take the default n_nodes; it stays because tests vary it for convergence.
    """
    ctx = _DensityContext(desired, interferers, h, QUADRATURE_TUPLES)
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    zr, zi = np.meshgrid(nodes, nodes, indexing="ij")
    wgt = (weights[:, None] * weights[None, :]).ravel() / math.pi
    dens = ctx.densities(zr.ravel(), zi.ravel())
    mi = float(dens.mean(axis=0) @ wgt)
    dens -= mi
    np.abs(dens, out=dens)
    dispersion = float((dens * dens).mean(axis=0) @ wgt)
    third = float((dens * dens * dens).mean(axis=0) @ wgt)
    return SubBlockRateStats(mi, dispersion, 0, 0.0, 0.0, third)


# ---------------------------------------------------------------------------
# Per-dimension TIN kernel
# ---------------------------------------------------------------------------

def grid_key(g: float, parts: Mapping, user: int, d: int) -> tuple:
    """(g, own, others): what one user's receive grid in dimension d (0 for
    I, 1 for Q) depends on, as `receive_grid` takes it.

    own is the user's (bits, amplitude) in d and others the co-scheduled
    users' (bits, amplitude) in d, in user order.
    """
    def dim(part):
        return part[0][d], part[1 + d]

    return g, dim(parts[user]), tuple(dim(p) for u, p in parts.items()
                                      if u != user)


def receive_grid(g: float, own: tuple[int, float],
                 others: Sequence[tuple[int, float]]) -> np.ndarray:
    """Noiseless receive points g (x + t) of one user in one dimension.

    A (levels, interferer sums) array: rows x are the desired levels in
    position order, the order `build_rect_qam` Gray-labels them in, and
    columns t the sums of the other users' levels (a silent co-scheduled
    user adds the single level 0).  own and others are (bits, amplitude)
    pairs, as `grid_key` gives them.
    """
    def levels(bits, amp):
        n = 1 << bits
        return amp * (np.arange(n) - (n - 1) / 2)

    return g * (levels(*own)[:, None]
                + _combo_sums([levels(*p) for p in others])[None, :])


def receive_grids(g: float, parts: Mapping, user: int) -> list[np.ndarray]:
    """One user's receive grids in I, then in Q, from `receive_grid`.

    parts maps every user co-scheduled in a sub-block to its (shape, amp_i,
    amp_q), in user order, from `scheme.sub_block_parts`, and g is the
    user's |h|.
    """
    return [receive_grid(*grid_key(g, parts, user, d)) for d in (0, 1)]


def log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along one axis, finite for any magnitudes.

    Works in a: its values are overwritten, so pass an array that is not
    needed afterwards (every caller passes a kernel result or a gathered
    copy of one).
    """
    mx = a.max(axis=axis, keepdims=True)
    np.subtract(a, mx, out=a)
    np.maximum(a, _EXP_FLOOR, out=a)
    np.exp(a, out=a)
    total = a.sum(axis=axis)
    np.log(total, out=total)
    total += np.squeeze(mx, axis=axis)
    return total


def log_sum_exp_pair(a: np.ndarray, b: np.ndarray, out: np.ndarray
                     ) -> np.ndarray:
    """log(exp(a) + exp(b)) elementwise into out, with one exp per element.

    Written as log(1 + exp(max(min(a, b) - max(a, b), floor))) + max(a, b):
    bit for bit `log_sum_exp` of each (a, b) pair, whose shifted terms are
    exp(0) = 1 and the floored exp(min - max).  a is overwritten; out must
    not share memory with a or b.
    """
    np.maximum(a, b, out=out)
    np.minimum(a, b, out=a)
    np.subtract(a, out, out=a)
    np.maximum(a, _EXP_FLOOR, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.log(a, out=a)
    np.add(a, out, out=out)
    return out


def tin_loglik_into(y: np.ndarray, grid: np.ndarray, out: np.ndarray,
                    d: np.ndarray | None, low: np.ndarray | None) -> None:
    """`tin_loglik` of coordinates y into out, a (levels, len(y)) array.

    d, (levels, sums, len(y)), and low, (levels, len(y)), are the working
    arrays; a grid with one interferer sum needs neither (pass None).  The
    body of the kernel: `tin_loglik` calls it on chunks of new arrays and
    `linksim.tin_llr` on tiles of one work array.
    """
    if grid.shape[1] == 1:
        # one contiguous pass per receive point: numpy's broadcast subtract
        # of a (points, 1) grid ran about 1.6 times slower
        for row, point in zip(out, grid[:, 0].tolist()):
            np.subtract(y, point, out=row)
        np.square(out, out=out)
        np.subtract(0.0, out, out=out)
        return
    for row, point in zip(d.reshape(grid.size, -1), grid.ravel().tolist()):
        np.subtract(y, point, out=row)
    # squared distances d; -max_t(-d) = min_t d and -d - (-min) = min - d
    # exactly, so no negated copy is needed
    np.square(d, out=d)
    np.minimum.reduce(d, axis=1, out=low)
    np.subtract(low[:, None, :], d, out=d)
    np.maximum(d, _EXP_FLOOR, out=d)
    np.exp(d, out=d)
    np.add.reduce(d, axis=1, out=out)
    np.log(out, out=out)
    np.subtract(out, low, out=out)


def tin_loglik(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """log sum_t exp(-(y - g (x + t))^2) for every desired level x.

    The TIN likelihood of one real dimension up to a constant, the one place
    it is computed (its body is `tin_loglik_into`): y are coordinates after
    rotation by conj(h)/|h| and grid is the dimension's (levels, interferer
    sums) array from `receive_grids`.  Returns a (len(y), levels) array: the
    transpose of a C-contiguous (levels, symbols) array, as the working
    array is (levels, sums, symbols) and the reductions over t are passes
    over contiguous symbols.  The symbols go through in chunks of at most
    _ELEM_BUDGET working elements.

    A grid with one interferer sum (no co-scheduled user has bits in the
    dimension) has the likelihood -d itself, d the squared distance, written
    as 0.0 - d: bit for bit the log(exp(0)) - d of the sums, +0.0 at a zero
    distance.  d is always finite: a spec whose SNR could overflow it is
    rejected by `scheme.SystemSpec.create`, so no command reaches inf - inf.
    """
    n_levels, n_sums = grid.shape
    out = np.empty((n_levels, y.size))
    step = max(1, _ELEM_BUDGET // grid.size)
    for lo in range(0, y.size, step):
        chunk = y[lo:lo + step]
        work = (None, None) if n_sums == 1 else (
            np.empty(grid.shape + chunk.shape),
            np.empty((n_levels, chunk.size)))
        tin_loglik_into(chunk, grid, out[:, lo:lo + step], *work)
    return out.T


def dimension_densities(y: np.ndarray, grid: np.ndarray,
                        sent: np.ndarray) -> np.ndarray:
    """One dimension's information density in bits, at sent level indices."""
    ll = tin_loglik(y, grid)
    own = ll[np.arange(sent.size), sent]  # taken before ll is overwritten
    return math.log2(grid.shape[0]) + (own - log_sum_exp(ll, 1)) / LN2


@functools.cache
def _hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights for E over N(0, 1/2)."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    weights /= math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# Second-order rate combiners
# ---------------------------------------------------------------------------

def combine_second_order(lengths, mis, dispersions, eps: float,
                         n_total: int):
    """(sum_j L_j I_j - sqrt(sum_j L_j V_j) Q^{-1}(eps)) / N, the one combiner.

    mis and dispersions hold the sub-blocks on their last axis; any leading
    axes (power splits, design candidates) carry over to the returned rate,
    in bits per complex symbol, and 1-D inputs give a scalar.  `np.vecdot`
    sums each row exactly as the 1-D `lengths @ mis` does, so a batch row
    equals its one-row result bit for bit.
    """
    lengths = np.asarray(lengths, dtype=float)
    mis = np.asarray(mis, dtype=float)
    dispersions = np.asarray(dispersions, dtype=float)
    if np.any(dispersions < 0):
        raise RateEngineError("negative dispersion")
    first = np.vecdot(lengths, mis)
    penalty = np.sqrt(np.vecdot(lengths, dispersions)) * qfunc_inv(eps)
    return (first - penalty) / n_total


def berry_esseen_diagnostic(lengths, stats: Sequence[SubBlockRateStats],
                            n_total: int, c0: float = 0.5600) -> float:
    """Berry-Esseen constant of the length-weighted density sum (diagnostic).

    Requires stats with third_abs_moment, from `quadrature_mi_dispersion`.
    """
    w = np.asarray(lengths, dtype=float) / float(n_total)
    t3 = []
    for s in stats:
        if s.third_abs_moment is None:
            raise RateEngineError("third moments not available")
        t3.append(s.third_abs_moment)
    denom = float(w @ [s.dispersion for s in stats]) ** 1.5
    if denom == 0.0:
        return math.inf
    return c0 * float(w @ t3) / denom


# ---------------------------------------------------------------------------
# Gaussian and shell benchmarks (complex channel)
# ---------------------------------------------------------------------------

def _log2(x) -> np.ndarray:
    """math.log2 of every element.  np.log2 differs from it in the last bit
    on about 0.1% of inputs, which would move printed benchmark rates.
    math.log2 runs once per distinct bit pattern, then is scattered back."""
    x = np.asarray(x, dtype=float)
    keys, inverse = np.unique(np.ascontiguousarray(x).view(np.uint64),
                              return_inverse=True)
    logs = np.fromiter(map(math.log2, keys.view(np.float64).tolist()), float,
                       keys.size)
    return logs[inverse].reshape(x.shape)


def gaussian_stats(sinr):
    """Capacity and dispersion of i.i.d. Gaussian codes at the given SINR,
    a scalar or an array."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise RateEngineError("negative SINR")
    mi = _log2(1.0 + sinr)
    v = 2.0 * LOG2E ** 2 * sinr / (sinr + 1.0)
    return mi[()], v[()]


def shell_stats(p_eff):
    """Capacity and dispersion of shell codes at the given receive SNR, a
    scalar or an array."""
    p_eff = np.asarray(p_eff, dtype=float)
    if np.any(p_eff < 0):
        raise RateEngineError("negative power")
    mi = _log2(1.0 + p_eff)
    # float_power calls pow() like Python's float **; numpy's ** squares,
    # which differs in the last bit on some inputs
    v = LOG2E ** 2 * p_eff * (p_eff + 2.0) / np.float_power(p_eff + 1.0, 2)
    return mi[()], v[()]


def sinr(signal_power: float, interference_power: float) -> float:
    """Signal to interference-plus-unit-noise ratio."""
    return signal_power / (interference_power + 1.0)


def _bc_rates(spec, layout, powers: Mapping[tuple[int, int], np.ndarray],
              mode: str | Sequence[str], link_stats):
    """Benchmark rate of every user at every power split, NaN where it has
    none; shape (..., K), (...) the broadcast shape of the power arrays, or
    a list of such arrays, one per mode, when mode is a tuple of modes.
    The power arrays may have any shapes that broadcast together: each link
    is evaluated on the broadcast shape of its own and its interferers'
    powers, and only the stacking of a user's links and of the users'
    rates makes arrays of the full shape.

    link_stats(own power, interference power, |h|^2) gives the (I, V) arrays
    of one non-empty sub-block, with I NaN where the user gets no rate.  mode
    "tin" counts all co-scheduled powers as interference; mode "sic" only
    those of stronger-channel users.  A link (user, sub-block) or a user's
    rate whose interferers are the same under two modes is computed once,
    as the weakest-channel user's are under "sic" and "tin".
    """
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    for name in modes:
        if name not in ("sic", "tin"):
            raise RateEngineError(f"unknown benchmark mode {name!r}")
    out = [[] for _ in modes]
    for k, user in enumerate(spec.users):
        blocks = [sb for sb in layout.sub_blocks[:k + 1] if sb.length]
        links, rate_of = {}, {}
        for m, name in enumerate(modes):
            # the interferers of each of the user's links under this mode
            sets = tuple(tuple(
                other for other in sb.participants
                if other != k and (name == "tin" or abs(spec.users[other].h)
                                   > abs(user.h))) for sb in blocks)
            if sets not in rate_of:
                for sb, others in zip(blocks, sets):
                    if (sb.index, others) in links:
                        continue
                    interf = 0.0
                    for other in others:
                        interf = interf + powers.get((other, sb.index), 0.0)
                    links[sb.index, others] = link_stats(
                        powers.get((k, sb.index), 0.0), interf,
                        abs(user.h) ** 2)
                mis, vs = zip(*(links[sb.index, others]
                                for sb, others in zip(blocks, sets)))
                rate_of[sets] = combine_second_order(
                    [sb.length for sb in blocks],
                    np.stack(np.broadcast_arrays(*mis), axis=-1),
                    np.stack(np.broadcast_arrays(*vs), axis=-1),
                    user.eps, user.N)
            out[m].append(rate_of[sets])
    stacked = [np.stack(np.broadcast_arrays(*o), axis=-1) for o in out]
    return stacked[0] if isinstance(mode, str) else stacked


def bc_gaussian_rates(spec, layout, powers: Mapping[tuple[int, int], np.ndarray],
                      mode: str | Sequence[str] = "sic"):
    """Gaussian-code benchmark rates for every user of a broadcast spec.

    powers maps (user, sub_block) to the per-symbol power that user spends
    there: a scalar, or an array over power splits (absent entries are 0).
    The arrays may have any shapes that broadcast together, and each link
    is evaluated on its own powers' shape.  Returns the rates, of the
    broadcast shape, with a last axis over the users.
    mode "tin" counts all co-scheduled powers as interference; mode "sic"
    assumes each user perfectly cancels every weaker-channel user and is
    only interfered by stronger-channel users.  A tuple of modes, such as
    ("sic", "tin"), returns a list of rate arrays, one per mode, sharing
    every link that the modes interfere alike.
    """
    return _bc_rates(spec, layout, powers, mode, lambda p, i, gain:
                     gaussian_stats(sinr(p * gain, i * gain)))


def _shell_link(p, interf, gain):
    mi, v = shell_stats(np.where(interf == 0.0, p * gain, 0.0))
    return np.where((p > 0.0) & (interf > 0.0), np.nan, mi), v


def bc_shell_rates(spec, layout, powers: Mapping[tuple[int, int], np.ndarray],
                   mode: str | Sequence[str] = "sic"):
    """Shell-code benchmark rates, laid out as `bc_gaussian_rates`; NaN for
    a user that sees interference where it carries power."""
    return _bc_rates(spec, layout, powers, mode, _shell_link)


# ---------------------------------------------------------------------------
# Plan-level rate evaluation
# ---------------------------------------------------------------------------

class RateResult(NamedTuple):
    """Per-user second-order rates of one plan, and each link's (I, V) as
    (K, K) arrays indexed [user, sub-block], 0 where the user sends nothing."""

    rates: tuple[float, ...]
    mi: np.ndarray
    dispersion: np.ndarray


def dimension_stats(grid: np.ndarray) -> tuple[float, float]:
    """(I_d, V_d) of one dimension's receive grid from `receive_grids`.

    Every (level, interferer sum) pair is equally likely, and the noise
    N(0, 1/2) is integrated by the GH_NODES-point rule.  The result depends
    on the grid's shape and values alone.
    """
    nodes, weights = _hermite_rule(GH_NODES)
    n_levels, n_sums = grid.shape
    y = grid[:, :, None] + nodes
    sent = np.repeat(np.arange(n_levels), n_sums * nodes.size)
    dens = dimension_densities(y.ravel(), grid, sent)
    w = np.tile(weights, grid.size) / grid.size
    first, second = float(dens @ w), float((dens * dens) @ w)
    return first, max(second - first * first, 0.0)


def sub_block_stats_table(links: Iterable[Sequence[np.ndarray]]
                          ) -> np.ndarray:
    """(links, 2) array of each link's (I, V): its grids' (I_d, V_d) summed.

    A link is one user's receive grids in one sub-block, from
    `receive_grids` or a plan entry's dims.  Each distinct grid is
    integrated once per call by `dimension_stats`, keyed by its shape and
    bytes, so only byte-equal grids share a result.  A one-level grid (no
    bits in that dimension) is skipped: its density is exactly 0.
    """
    done: dict[tuple, tuple[float, float]] = {}
    table = []
    for grids in links:
        mi = dispersion = 0.0
        for grid in grids:
            if grid.shape[0] == 1:
                continue
            key = (grid.shape, grid.tobytes())
            if key not in done:
                done[key] = dimension_stats(grid)
            first, var = done[key]
            mi += first
            dispersion += var
        table.append((mi, dispersion))
    return np.array(table, dtype=float).reshape(-1, 2)


def user_rates(spec, layout, k: int, mi, dispersion) -> np.ndarray:
    """User k's second-order rate for a batch of candidates, (n,).

    mi and dispersion are (n, k + 1) arrays of its (I, V) in each sub-block
    up to its own, 0 where it is silent or the block is empty.
    """
    return combine_second_order(
        [sb.length for sb in layout.sub_blocks[:k + 1]], mi, dispersion,
        spec.users[k].eps, spec.users[k].N)


def compute_plan_rates(plan) -> RateResult:
    """Every user's second-order rate for a plan: the (I, V) of its entries
    that carry bits come from one `sub_block_stats_table` call over their
    dims, and each rate is the one-row case of `user_rates`."""
    K = plan.spec.K
    links = [e for e in plan.entries.values() if e.order]
    table = sub_block_stats_table([[grid for _, grid, _ in e.dims]
                                   for e in links])
    mi, dispersion = np.zeros((2, K, K))
    at = ([e.user for e in links], [e.sub_block for e in links])
    mi[at], dispersion[at] = table[:, 0], table[:, 1]
    rates = tuple(float(user_rates(plan.spec, plan.layout, k, mi[k, :k + 1],
                                   dispersion[k, :k + 1])) for k in range(K))
    return RateResult(rates, mi, dispersion)
