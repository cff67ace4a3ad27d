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
(`frame_blocks`) of at most `_BLOCK_SYMBOLS` symbols: each block is
synthesized once along a leading frame axis, each of its (user, sub-block)
segments is demapped (one `tin_llr` call) or its densities taken in one
pass over all its frames, and the block is dropped before the next, so a
run holds one block (and, in `simulate`, the zero-noise frame) and its
memory does not grow with the number of frames.  The demapper set-up of
each segment (rotation, receive grids and Gray bit halves) is the plan's
`SchemePlan.segments`, which `scheme.assign_power` builds once per plan.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .rates import compute_plan_rates, dimension_densities, log_sum_exp, tin_loglik
from .scheme import SchemePlan, build_frame, map_bits


class SimulationError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# Frame simulation
# ---------------------------------------------------------------------------

# Symbols that one block of `frame_blocks` holds at most (4 frames at
# N_K = 2000).  A block is synthesized, and each of its segments demapped,
# in one numpy pass, so per-call overhead is paid per block, not per frame.
# The demapper's temporaries grow with the block, never with the run: on
# `simulate` of three_user.json, 3-frame blocks ran about 10% slower and
# 8-frame blocks peaked about 1.5 MiB higher than 4-frame ones.
_BLOCK_SYMBOLS = 8192


@dataclass(frozen=True)
class ReceivedFrame:
    """One channel use of the full superimposed frame, or a block of them.

    payloads[k] are user k's codeword bits, x is the transmitted superimposed
    frame and y[k] holds the first N_k received samples at user k (the unit
    symbols are `scheme.map_bits` of the payloads).  In a block every array
    has a leading frame axis, one row per frame.  The channels are the
    plan's.
    """

    payloads: dict[int, np.ndarray]
    x: np.ndarray
    y: dict[int, np.ndarray]

    def row(self, i: int) -> ReceivedFrame:
        """Frame i of a block."""
        return ReceivedFrame(
            payloads={k: v[i] for k, v in self.payloads.items()},
            x=self.x[i], y={k: v[i] for k, v in self.y.items()})


def random_payloads(plan: SchemePlan, seed: int) -> dict[int, np.ndarray]:
    """Uniform random codeword bits of the right length for every user."""
    rng = np.random.default_rng(seed)
    return {k: rng.integers(0, 2, size=n)
            for k, n in enumerate(plan.codeword_lengths)}


def _transmit(plan: SchemePlan, payloads: Mapping[int, np.ndarray],
              noise_seeds: Sequence[int], noise_scale: float) -> ReceivedFrame:
    """Send row i of every payloads[k] with the noise seeded noise_seeds[i].

    Each row's generator draws the real and then the imaginary noise part of
    user 0, then of user 1, and so on, so a frame does not depend on the
    block it is sent in.
    """
    spec = plan.spec
    x, _ = build_frame({k: map_bits(payloads[k], k, plan)
                        for k in range(spec.K)}, plan)
    rngs = [np.random.default_rng(s) for s in noise_seeds]
    y = {}
    for k, user in enumerate(spec.users):
        n = user.N
        z = np.empty((len(rngs), n), dtype=complex)
        for row, rng in zip(z, rngs):
            row[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= np.sqrt(0.5)
        z *= noise_scale
        z += user.h * x[:, :n]
        y[k] = z
    return ReceivedFrame(payloads=dict(payloads), x=x, y=y)


def simulate_frame(plan: SchemePlan, payloads: Mapping[int, np.ndarray],
                   seed: int, *, noise_scale: float = 1.0) -> ReceivedFrame:
    """Transmit one frame: y_k[j] = h_k x[j] + z_k[j] for j < N_k.

    Deterministic given the seed; noise_scale=0 is the zero-noise test hook.
    The frame is a one-row block of the synthesis `frame_blocks` runs.
    """
    rows = {k: np.asarray(payloads[k])[None] for k in range(plan.spec.K)}
    return _transmit(plan, rows, [seed], noise_scale).row(0)


def frame_blocks(plan: SchemePlan, seed: int, n_frames: int
                 ) -> Iterator[ReceivedFrame]:
    """The n_frames frames of a run seeded `seed`, as blocks of frames.

    The one frame-seed policy of `simulate` and `empirical_id_check`: frame
    f's payloads are drawn from seed + 7919 f and its noise from
    seed + 104729 f + 1, so every frame of a run is distinct.  Yields the
    blocks in frame order, each of at most _BLOCK_SYMBOLS // N_K frames (at
    least one), with the payloads stored as uint8.
    """
    per_block = max(1, _BLOCK_SYMBOLS // plan.layout.boundaries[-1])
    for first in range(0, n_frames, per_block):
        frames = range(first, min(n_frames, first + per_block))
        payloads = {k: np.empty((len(frames), n), dtype=np.uint8)
                    for k, n in enumerate(plan.codeword_lengths)}
        for i, f in enumerate(frames):
            for k, bits in random_payloads(plan, seed + 7919 * f).items():
                payloads[k][i] = bits
        yield _transmit(plan, payloads,
                        [seed + 104729 * f + 1 for f in frames], 1.0)


def zero_noise(frame: ReceivedFrame, plan: SchemePlan) -> ReceivedFrame:
    """The same frame (or block) received without noise, y_k = h_k x[:N_k]."""
    return replace(frame, y={k: user.h * frame.x[..., :user.N]
                             for k, user in enumerate(plan.spec.users)})


# ---------------------------------------------------------------------------
# Exact TIN LLR demapping
# ---------------------------------------------------------------------------

def tin_llr(y: np.ndarray, user: int, sub_block: int, plan: SchemePlan, *,
            max_log: bool = False) -> np.ndarray:
    """Exact per-bit LLRs for one user's sub-block segment under TIN.

    Interference enters only through its marginal law: the metric for each
    desired point sums the Gaussian likelihood over every interferer symbol
    combination.  Label bits 0..a-1 select the I level and the rest the Q
    level (`build_rect_qam`), so each bit's LLR marginalizes one dimension's
    levels.  Returns an (n_symbols, m) array with the convention
    LLR = log P(bit=0 | y) / P(bit=1 | y) in nats, so the sign of the LLR at
    zero noise recovers the transmitted bit.  max_log replaces the sums with
    maxima.  The set-up is the plan's segment; a pair without one (the
    user sends no bits there) gives an (n_symbols, 0) array.
    """
    y = np.asarray(y, dtype=complex).ravel()
    segment = plan.segments.get((user, sub_block))
    if segment is None:
        return np.zeros((y.size, 0))
    y = y * segment.rotation
    coords = (y.real, y.imag)
    reduce = np.max if max_log else log_sum_exp
    rows = []
    for d, grid, halves in segment.dims:
        # ll is (levels, symbols), so each reduction over a half of the
        # levels is an elementwise pass over contiguous symbols
        ll = tin_loglik(coords[d], grid, max_log=max_log).T
        # a 1-bit dimension has one level per half: nothing to reduce
        per_half = (ll[halves[:, 0]] if halves.shape[1] == 1
                    else reduce(ll[halves], axis=1))
        n_bits = halves.shape[0] // 2
        rows.append(per_half[:n_bits] - per_half[n_bits:])
    return np.concatenate(rows).T


def hard_bits(llr: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (ties resolve to bit 0)."""
    return (llr < 0).astype(np.int64)


def demap_frame(frame: ReceivedFrame, user: int, plan: SchemePlan, *,
                max_log: bool = False) -> np.ndarray:
    """Concatenated LLRs of every segment of one user, in frame order.

    A block is demapped with one `tin_llr` call per segment over all its
    frames; the LLRs keep the block's leading frame axis, one row per frame.
    """
    y = frame.y[user]
    lead = y.shape[:-1]
    parts = [tin_llr(y[..., seg.sub_block.start:seg.sub_block.stop].ravel(),
                     user, j, plan, max_log=max_log).reshape(lead + (-1,))
             for (k, j), seg in plan.segments.items() if k == user]
    return np.concatenate(parts, axis=-1) if parts else np.zeros(lead + (0,))


# ---------------------------------------------------------------------------
# Empirical information-density validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityCheckRow:
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
    adds nothing, so a pair without a segment (the user sends no bits there)
    gives zeros.  A block gives the densities of its frames one after the
    other.
    """
    sb = plan.layout.sub_blocks[sub_block]
    sent = map_bits(frame.payloads[user], user, plan)[..., sb.start:sb.stop]
    sent = sent.ravel()
    dens = np.zeros(sent.size)
    segment = plan.segments.get((user, sub_block))
    if segment is None:
        return dens
    y = frame.y[user][..., sb.start:sb.stop].ravel() * segment.rotation
    coords = ((y.real, sent.real), (y.imag, sent.imag))
    for d, grid, _ in segment.dims:
        yd, unit = coords[d]
        idx = np.rint(unit + (grid.shape[0] - 1) / 2).astype(np.int64)
        dens += dimension_densities(yd, grid, idx)
    return dens


def empirical_id_check(plan: SchemePlan, user: int, n_frames: int, seed: int,
                       *, sigma_limit: float = 4.0) -> tuple[DensityCheckRow, ...]:
    """Compare sampled information densities against the rate engine.

    Simulates n_frames independent frames, samples per-symbol densities for
    each segment of the user, and flags sub-blocks whose empirical mean or
    variance deviates from the quadrature (I, V) by more than sigma_limit
    standard errors of the sample.  Raises SimulationError when there is
    nothing to sample: n_frames < 1, or a user without a segment.
    """
    if n_frames < 1:
        raise SimulationError(f"n_frames must be positive, got {n_frames}")
    per_block: dict[int, list[np.ndarray]] = {
        j: [] for k, j in plan.segments if k == user}
    if not per_block:
        raise SimulationError(f"user {user} sends no bits in this plan")
    for block in frame_blocks(plan, seed, n_frames):
        for j, chunks in per_block.items():
            chunks.append(information_densities(block, user, j, plan))
    exact = compute_plan_rates(plan).users[user].stats
    rows = []
    for j, chunks in per_block.items():
        samples = np.concatenate(chunks)
        ref = exact[j]
        n = samples.size
        emp_mi = float(samples.mean())
        emp_v = float(samples.var(ddof=1))
        se_mean = np.sqrt(emp_v / n)
        # variance-of-variance from the fourth central moment
        m4 = float(np.mean((samples - emp_mi) ** 4))
        se_var = np.sqrt(max(m4 - emp_v ** 2, 0.0) / n)
        mi_sigma = abs(emp_mi - ref.mi) / se_mean
        v_sigma = abs(emp_v - ref.dispersion) / se_var
        rows.append(DensityCheckRow(
            user=user, sub_block=j, n_samples=n,
            empirical_mi=emp_mi, empirical_dispersion=emp_v,
            reference_mi=ref.mi, reference_dispersion=ref.dispersion,
            mi_sigma=float(mi_sigma), dispersion_sigma=float(v_sigma),
            ok=bool(mi_sigma <= sigma_limit and v_sigma <= sigma_limit)))
    return tuple(rows)

