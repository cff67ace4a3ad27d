"""Physical-channel simulation, exact TIN LLR demapping, and empirical checks.

The channel applies each user's complex coefficient to the superimposed frame
and adds circularly symmetric complex Gaussian noise with unit total variance
(0.5 per real dimension).  Demapping treats co-scheduled users' signals as
part of the channel law: bit LLRs marginalize the desired constellation and
sum over all interferer symbol combinations, never touching interferer
codebooks.  After rotating y by conj(h)/|h| every likelihood factors into an
I and a Q part, so LLRs and information densities come from the per-dimension
kernel `rates.tin_loglik`: each I-bit LLR depends on the I coordinate only
and each Q-bit LLR on the Q coordinate only (BICM demapping).  Frames are
sent and demapped at the plan's channels; to use others, rebuild the plan
(`assign_power(plan.orders, other_spec, check=False)`).

`cli simulate` and `empirical_id_check` walk a run's frames in blocks
(`frame_blocks`) of at most `_BLOCK_SYMBOLS` symbols.  The run allocates
its payload, noise, frame, received and demapper work arrays once, as views
of one allocation (`_FrameBuffers`), and each block fills them, so a block
is valid until the next one is drawn.  Each block is synthesized once along
a leading frame axis, and each (user, sub-block) link that carries bits is
demapped with one `tin_llr` call (or its densities taken in one pass) over
all its frames.  `tin_llr` walks the link's symbols in tiles of at most
`_TILE_ELEMS` work elements inside the run's work array; a link whose I and
Q grids are byte-equal (`PlanEntry.stacked`, square QAM) takes each tile's
I and Q coordinates through one kernel call and one bit reduction.  So a
run's memory does not grow with the number of frames, and a process that
runs `simulate` again reuses the same memory: on the `link-3u` benchmark
workload the worker took 0 minor page faults per steady-state call, where
the C allocator had handed freed per-block kernel arrays back to the
system and faulted them in again at 5,040-5,790 faults a call.  A link's
demapper set-up is its user's `UserSpec.rotation` and its plan entry's
`dims`, which `scheme.assign_power` builds once per plan.
"""
from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .rates import (
    compute_plan_rates,
    dimension_densities,
    log_sum_exp,
    log_sum_exp_pair,
    tin_loglik_into,
)
from .scheme import PlanEntry, SchemePlan, build_frame, map_bits


class SimulationError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# Frame simulation
# ---------------------------------------------------------------------------

# Symbols that one block of `frame_blocks` holds at most (4 frames at
# N_K = 2000).  A block is synthesized, and each of its links demapped, in
# one numpy pass, so per-call overhead is paid per block, not per frame.
# The run's buffers grow with the block, never with the run: on the
# `link-3u` benchmark workload (2-core x86-64 VM), 3-frame blocks ran 1-7%
# slower and peaked about 0.2 MiB higher, and 8-frame blocks ran about 6%
# faster but peaked about 1.2 MiB higher than 4-frame ones.
_BLOCK_SYMBOLS = 8192

# Work elements (float64) per demapping tile of `tin_llr`: the kernel's
# working array, the bit reduction's and the kernel's result rows.  On the
# `link-3u` benchmark workload half this ran about 3.5% slower in process
# and peaked about 0.3 MiB lower.
_TILE_ELEMS = 1 << 17


class ReceivedFrame(NamedTuple):
    """One channel use of the full superimposed frame, or a block of them.

    payloads[k] are user k's codeword bits, x is the transmitted superimposed
    frame and y[k] holds the first N_k received samples at user k (the unit
    symbols are `scheme.map_bits` of the payloads).  In a block every array
    has a leading frame axis, one row per frame.  The channels are the
    plan's.  work, when set, is memory that `tin_llr` works in while it
    demaps this frame's links (`frame_blocks` gives every block of a run
    the same array); without it each `tin_llr` call allocates its own.
    """

    payloads: dict[int, np.ndarray]
    x: np.ndarray
    y: dict[int, np.ndarray]
    work: np.ndarray | None = None

    def row(self, i: int) -> ReceivedFrame:
        """Frame i of a block."""
        return ReceivedFrame(
            payloads={k: v[i] for k, v in self.payloads.items()},
            x=self.x[i], y={k: v[i] for k, v in self.y.items()},
            work=self.work)


def random_payloads(plan: SchemePlan, seed: int) -> dict[int, np.ndarray]:
    """Uniform random codeword bits of the right length for every user."""
    rng = np.random.default_rng(seed)
    return {k: rng.integers(0, 2, size=n)
            for k, n in enumerate(plan.codeword_lengths)}


class _FrameBuffers:
    """The frame, received, payload, noise and demapper work arrays of up
    to `rows` frames, as views of one allocation.

    A run allocates them once and each block fills their first rows, so
    neither synthesis nor demapping makes a frame-sized allocation per
    block, and the C allocator keeps the run's one large allocation rather
    than handing memory back and faulting it in again block by block.  work
    is sized for `tin_llr` on every link of a `rows`-frame block, and the
    noise rows are its first elements.  A noise row holds 2 sum(N_k)
    standard normals: user 0's real then imaginary parts, then user 1's,
    and so on, the order in which the frame's one generator draws them.
    """

    def __init__(self, plan: SchemePlan, rows: int):
        users = plan.spec.users
        noise = 2 * sum(u.N for u in users)
        # a block's noise is added into y before any of its links is
        # demapped, so the noise rows lie in the demapper's work memory
        work = max([rows * noise] + [
            _tile_plan(entry, rows * plan.layout.sub_blocks[j].length)[2]
            for (_, j), entry in plan.entries.items() if entry.dims])
        # float64 elements per row of each array; payload bits take bytes
        widths = [2 * plan.layout.boundaries[-1], *(2 * u.N for u in users),
                  *(-(-n // 8) for n in plan.codeword_lengths)]
        slab = np.empty(rows * sum(widths) + work)
        parts = []
        at = 0
        for w in widths:
            parts.append(slab[at:at + rows * w].reshape(rows, w))
            at += rows * w
        self.x = parts[0].view(complex)
        self.y = {k: parts[1 + k].view(complex) for k in range(len(users))}
        self.payloads = {k: part.view(np.uint8)[:, :n] for k, (part, n) in
                         enumerate(zip(parts[1 + len(users):],
                                       plan.codeword_lengths))}
        self.work = slab[at:]
        self.noise = self.work[:rows * noise].reshape(rows, noise)

    def transmit(self, plan: SchemePlan, payloads: Mapping[int, np.ndarray],
                 noise_seeds: Sequence[int], noise_scale: float
                 ) -> ReceivedFrame:
        """Send row i of every payloads[k] with the noise seeded
        noise_seeds[i]; x and y of the frame returned are views of the
        buffers."""
        rows = len(noise_seeds)
        x, _ = build_frame({k: map_bits(bits, k, plan)
                            for k, bits in payloads.items()}, plan,
                           out=self.x[:rows])
        noise = self.noise[:rows]
        for row, s in zip(noise, noise_seeds):
            np.random.default_rng(s).standard_normal(out=row)
        noise *= np.sqrt(0.5)
        noise *= noise_scale
        y = {}
        at = 0
        for k, user in enumerate(plan.spec.users):
            n = user.N
            yk = np.multiply(user.h, x[:, :n], out=self.y[k][:rows])
            yk.real += noise[:, at:at + n]
            yk.imag += noise[:, at + n:at + 2 * n]
            at += 2 * n
            y[k] = yk
        return ReceivedFrame(payloads=dict(payloads), x=x, y=y,
                             work=self.work)


def simulate_frame(plan: SchemePlan, payloads: Mapping[int, np.ndarray],
                   seed: int, *, noise_scale: float = 1.0) -> ReceivedFrame:
    """Transmit one frame: y_k[j] = h_k x[j] + z_k[j] for j < N_k.

    Deterministic given the seed; noise_scale=0 is the zero-noise test hook.
    The frame is a one-row block of the synthesis `frame_blocks` runs, in
    arrays of its own.
    """
    rows = {k: np.asarray(payloads[k])[None] for k in range(plan.spec.K)}
    return _FrameBuffers(plan, 1).transmit(plan, rows, [seed],
                                           noise_scale).row(0)


def frame_blocks(plan: SchemePlan, seed: int, n_frames: int
                 ) -> Iterator[ReceivedFrame]:
    """The n_frames frames of a run seeded `seed`, as blocks of frames.

    The one frame-seed policy of `simulate` and `empirical_id_check`: frame
    f's payloads are drawn from seed + 7919 f and its noise from
    seed + 104729 f + 1, so every frame of a run is distinct.  Yields the
    blocks in frame order, each of at most _BLOCK_SYMBOLS // N_K frames (at
    least one), with the payloads stored as uint8.

    Every block is a view of arrays allocated once per run: a block is
    valid until the next one is drawn, which overwrites it.  A caller uses
    each block before asking for the next (`cli.cmd_simulate` and
    `empirical_id_check` do) or copies what it keeps.
    """
    per_block = max(1, min(n_frames,
                           _BLOCK_SYMBOLS // plan.layout.boundaries[-1]))
    buffers = _FrameBuffers(plan, per_block)
    payloads = buffers.payloads
    for first in range(0, n_frames, per_block):
        frames = range(first, min(n_frames, first + per_block))
        for i, f in enumerate(frames):
            for k, bits in random_payloads(plan, seed + 7919 * f).items():
                payloads[k][i] = bits
        yield buffers.transmit(plan,
                               {k: v[:len(frames)] for k, v in payloads.items()},
                               [seed + 104729 * f + 1 for f in frames], 1.0)


def zero_noise(frame: ReceivedFrame, plan: SchemePlan) -> ReceivedFrame:
    """The same frame (or block) received without noise, y_k = h_k x[:N_k]."""
    return frame._replace(y={k: user.h * frame.x[..., :user.N]
                             for k, user in enumerate(plan.spec.users)})


# ---------------------------------------------------------------------------
# Exact TIN LLR demapping
# ---------------------------------------------------------------------------

def _tiles(n: int, step: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the fewest tiles of at most `step` symbols that
    cover range(n), of equal size give or take one.

    No tile holds one symbol unless n is 1: numpy sums a one-column kernel
    array over the interferer sums in another order (pairwise), so a
    one-symbol tile could move the last bit of an LLR that a longer tile
    gives.  So with step 1 the tiles take two or three symbols.
    """
    count = max(1, min(-(-n // step), n // 2))
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _tile_plan(entry: PlanEntry, n: int
               ) -> tuple[bool, list[tuple[int, int]], int]:
    """(stacked, tiles, work elements) of demapping n symbols of a link.

    Per coordinate a grid takes the kernel's (levels, sums) working array,
    whose room also holds the gathered halves of the reduction, plus the
    kernel's low and result rows.
    """
    # one symbol stacks into two coordinates, which a one-symbol link's own
    # per-dimension calls would sum in another order (see `_tiles`)
    stacked = entry.stacked and n > 1
    per_symbol = (1 + stacked) * max(_room(grid, halves) + 2 * grid.shape[0]
                                     for _, grid, halves in entry.dims)
    tiles = _tiles(n, max(1, _TILE_ELEMS // per_symbol))
    return stacked, tiles, per_symbol * max(hi - lo for lo, hi in tiles)


def _room(grid: np.ndarray, halves: np.ndarray) -> int:
    """Elements per coordinate of the kernel working array of `_bit_llrs`,
    which afterwards holds the pair reduction's three (2 bits, coords)
    arrays where each half holds two levels."""
    return max(grid.size, 3 * halves.shape[0] if halves.shape[1] == 2 else 0)


def _bit_llrs(coords: np.ndarray, grid: np.ndarray, halves: np.ndarray,
              work: np.ndarray, dst: np.ndarray) -> None:
    """LLRs of one dimension's label bits at coords into dst.

    dst is a (bits, ...) view that a (bits, len(coords)) array reshapes
    into; work holds at least (_room + 2 levels) * len(coords) elements.
    """
    n = coords.size
    n_levels = grid.shape[0]
    room = _room(grid, halves) * n
    low = work[room:room + n_levels * n].reshape(n_levels, n)
    ll = work[room + n_levels * n:room + 2 * n_levels * n].reshape(n_levels, n)
    d = None if grid.shape[1] == 1 else work[:grid.size * n].reshape(
        grid.shape + (n,))
    # ll is (levels, coordinates), so each reduction over a half of the
    # levels is an elementwise pass over contiguous coordinates
    tin_loglik_into(coords, grid, ll, d, low)
    rows, per_level = halves.shape
    if per_level == 1:  # a 1-bit dimension: each half is one level
        (zero,), (one,) = halves
        np.subtract(ll[zero].reshape(dst.shape), ll[one].reshape(dst.shape),
                    out=dst)
        return
    if per_level == 2:
        a, b, per_half = (work[i * rows * n:(i + 1) * rows * n].reshape(rows, n)
                          for i in range(3))
        ll.take(halves[:, 0], axis=0, out=a)
        ll.take(halves[:, 1], axis=0, out=b)
        log_sum_exp_pair(a, b, per_half)
    else:
        per_half = log_sum_exp(ll[halves], axis=1)
    np.subtract(per_half[:rows // 2].reshape(dst.shape),
                per_half[rows // 2:].reshape(dst.shape), out=dst)


def tin_llr(y: np.ndarray, user: int, sub_block: int, plan: SchemePlan, *,
            work: np.ndarray | None = None) -> np.ndarray:
    """Exact per-bit LLRs for one user's sub-block segment under TIN.

    Interference enters only through its marginal law: the metric for each
    desired point sums the Gaussian likelihood over every interferer symbol
    combination.  Label bits 0..a-1 select the I level and the rest the Q
    level (`build_rect_qam`), so each bit's LLR marginalizes one dimension's
    levels.  Returns an (n_symbols, m) array with the convention
    LLR = log P(bit=0 | y) / P(bit=1 | y) in nats, so the sign of the LLR at
    zero noise recovers the transmitted bit.  The set-up is the plan
    entry's dims; a pair that carries no bits (or has no entry) gives an
    (n_symbols, 0) array.

    The symbols are demapped in tiles (`_tiles`) of at most _TILE_ELEMS
    work elements, all in one work array, and written into the one output
    array.  The work array is `work` when that is large enough
    (`frame_blocks` sizes one per run), else a new one.  A stacked
    entry (byte-equal I and Q grids) runs each tile's I and Q coordinates
    through one kernel call and one reduction; other entries take one call
    per dimension.
    """
    y = np.asarray(y, dtype=complex).ravel()
    n = y.size
    entry = plan.entries.get((user, sub_block))
    if entry is None or not entry.dims:
        return np.zeros((n, 0))
    y = y * plan.spec.users[user].rotation
    bits = [halves.shape[0] // 2 for _, _, halves in entry.dims]
    out = np.empty((n, sum(bits)))
    stacked, tiles, size = _tile_plan(entry, n)
    if work is None or work.size < size:
        work = np.empty(size)
    for lo, hi in tiles:
        if stacked:
            _, grid, halves = entry.dims[0]
            # (re, im) pairs: LLR column d * bits + b is coordinate d, bit b
            t, b = hi - lo, bits[0]
            _bit_llrs(y[lo:hi].view(float), grid, halves, work,
                      out[lo:hi].reshape(t, 2, b).transpose(2, 0, 1))
            continue
        col = 0
        for (d, grid, halves), width in zip(entry.dims, bits):
            coords = y.imag[lo:hi] if d else y.real[lo:hi]
            _bit_llrs(coords, grid, halves, work,
                      out[lo:hi, col:col + width].T)
            col += width
    return out


def hard_bits(llr: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (ties resolve to bit 0)."""
    return (llr < 0).astype(np.int64)


def _link_llrs(frame: ReceivedFrame, user: int, plan: SchemePlan
               ) -> Iterator[tuple[np.ndarray, slice]]:
    """(LLRs, payload slice) of each of one user's links that carry bits.

    One `tin_llr` call per link over all the frames of a block; the LLRs
    keep the block's leading frame axis, one row per frame, and the slice
    picks the link's bits from the last axis of the user's payloads.
    """
    y = frame.y[user]
    lead = y.shape[:-1]
    pos = 0
    for sb, m in zip(plan.layout.sub_blocks, plan.orders[user]):
        if m:
            llr = tin_llr(y[..., sb.start:sb.stop].ravel(), user, sb.index,
                          plan, work=frame.work)
            yield llr.reshape(lead + (-1,)), slice(pos, pos + sb.length * m)
            pos += sb.length * m


def demap_frame(frame: ReceivedFrame, user: int, plan: SchemePlan
                ) -> np.ndarray:
    """Concatenated LLRs of one user's links that carry bits, in frame order.

    A block is demapped with one `tin_llr` call per link over all its
    frames; the LLRs keep the block's leading frame axis, one row per frame.
    """
    parts = [llr for llr, _ in _link_llrs(frame, user, plan)]
    lead = frame.y[user].shape[:-1]
    return np.concatenate(parts, axis=-1) if parts else np.zeros(lead + (0,))


def bit_errors(frame: ReceivedFrame, user: int, plan: SchemePlan) -> int:
    """Hard-decision errors (LLR < 0 read as bit 1) in one user's payloads.

    The links are demapped as `demap_frame` demaps them and compared with
    their payload bits one at a time, so no frame-wide LLR array is built.
    Every payload bit lies on a link that carries bits.
    """
    sent = frame.payloads[user]
    return sum(int(np.count_nonzero((llr < 0) != sent[..., bits]))
               for llr, bits in _link_llrs(frame, user, plan))


# ---------------------------------------------------------------------------
# Empirical information-density validation
# ---------------------------------------------------------------------------

class DensityCheckRow(NamedTuple):
    user: int
    sub_block: int
    n_samples: int
    empirical_mi: float
    empirical_dispersion: float
    reference_mi: float
    reference_dispersion: float
    mi_sigma: float
    dispersion_sigma: float
    ok: bool


def information_densities(frame: ReceivedFrame, user: int, sub_block: int,
                          plan: SchemePlan) -> np.ndarray:
    """Per-symbol information densities of one received sub-block segment.

    The density is the sum of the I and Q parts; the sent levels are read
    from the payloads' unit symbols (`map_bits`), whose coordinates sit on
    the half-integer grid; a dimension without label bits has one level and
    adds nothing, so a pair that carries no bits (or has no entry) gives
    zeros.  A block gives the densities of its frames one after the other.
    """
    return _densities(frame, map_bits(frame.payloads[user], user, plan),
                      user, sub_block, plan)


def _densities(frame: ReceivedFrame, symbols: np.ndarray, user: int,
               sub_block: int, plan: SchemePlan) -> np.ndarray:
    """`information_densities` given the user's unit symbols, `symbols`,
    which one `map_bits` call gives for all of its sub-blocks."""
    sb = plan.layout.sub_blocks[sub_block]
    sent = symbols[..., sb.start:sb.stop].ravel()
    dens = np.zeros(sent.size)
    entry = plan.entries.get((user, sub_block))
    if entry is None or not entry.dims:
        return dens
    y = (frame.y[user][..., sb.start:sb.stop].ravel()
         * plan.spec.users[user].rotation)
    coords = ((y.real, sent.real), (y.imag, sent.imag))
    for d, grid, _ in entry.dims:
        yd, unit = coords[d]
        idx = np.rint(unit + (grid.shape[0] - 1) / 2).astype(np.int64)
        dens += dimension_densities(yd, grid, idx)
    return dens


def empirical_id_check(plan: SchemePlan, user: int, n_frames: int, seed: int,
                       *, sigma_limit: float = 4.0) -> tuple[DensityCheckRow, ...]:
    """Compare sampled information densities against the rate engine.

    Simulates n_frames independent frames, samples per-symbol densities on
    each of the user's links that carry bits (mapping each block's payloads
    once for all of them), and flags sub-blocks whose empirical mean or
    variance deviates from the quadrature (I, V) by more than sigma_limit
    standard errors of the sample.  Raises SimulationError when there is
    nothing to sample: n_frames < 1, or a silent user.
    """
    if n_frames < 1:
        raise SimulationError(f"n_frames must be positive, got {n_frames}")
    per_block: dict[int, list[np.ndarray]] = {
        j: [] for j, m in enumerate(plan.orders[user]) if m}
    if not per_block:
        raise SimulationError(f"user {user} sends no bits in this plan")
    for block in frame_blocks(plan, seed, n_frames):
        symbols = map_bits(block.payloads[user], user, plan)
        for j, chunks in per_block.items():
            chunks.append(_densities(block, symbols, user, j, plan))
    exact = compute_plan_rates(plan)
    ref_mi, ref_v = exact.mi[user].tolist(), exact.dispersion[user].tolist()
    rows = []
    for j, chunks in per_block.items():
        samples = np.concatenate(chunks)
        n = samples.size
        emp_mi = float(samples.mean())
        emp_v = float(samples.var(ddof=1))
        se_mean = np.sqrt(emp_v / n)
        # variance-of-variance from the fourth central moment
        m4 = float(np.mean((samples - emp_mi) ** 4))
        se_var = np.sqrt(max(m4 - emp_v ** 2, 0.0) / n)
        mi_sigma = abs(emp_mi - ref_mi[j]) / se_mean
        v_sigma = abs(emp_v - ref_v[j]) / se_var
        rows.append(DensityCheckRow(
            user=user, sub_block=j, n_samples=n,
            empirical_mi=emp_mi, empirical_dispersion=emp_v,
            reference_mi=ref_mi[j], reference_dispersion=ref_v[j],
            mi_sigma=float(mi_sigma), dispersion_sigma=float(v_sigma),
            ok=bool(mi_sigma <= sigma_limit and v_sigma <= sigma_limit)))
    return tuple(rows)

