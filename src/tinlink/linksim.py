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

`cli simulate` simulates each frame once, demaps it for every user and drops
it before the next, so no run holds more than one frame (and the zero-noise
frame).  The demapper set-up of each (user, sub-block) segment (rotation,
receive grids and Gray bit halves) is the plan's `SchemePlan.segments`,
which `scheme.assign_power` builds once per plan.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .rates import compute_plan_rates, dimension_densities, log_sum_exp, tin_loglik
from .scheme import SchemePlan, build_frame, map_bits


class SimulationError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# Frame simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceivedFrame:
    """One channel use of the full superimposed frame.

    y[k] holds the first N_k received samples at user k; x is the transmitted
    superimposed frame and symbols/packets keep the per-user unit symbols and
    power-scaled packets for reference.  The channels are the plan's.
    """

    y: dict[int, np.ndarray]
    x: np.ndarray
    symbols: dict[int, np.ndarray]
    packets: dict[int, np.ndarray]


def random_payloads(plan: SchemePlan, seed: int) -> dict[int, np.ndarray]:
    """Uniform random codeword bits of the right length for every user."""
    rng = np.random.default_rng(seed)
    return {k: rng.integers(0, 2, size=n)
            for k, n in enumerate(plan.codeword_lengths)}


def simulate_frame(plan: SchemePlan, payloads: Mapping[int, np.ndarray],
                   seed: int, *, noise_scale: float = 1.0) -> ReceivedFrame:
    """Transmit one frame: y_k[j] = h_k x[j] + z_k[j] for j < N_k.

    Deterministic given the seed; noise_scale=0 is the zero-noise test hook.
    """
    spec = plan.spec
    symbols = {k: map_bits(payloads[k], k, plan) for k in range(spec.K)}
    x, packets = build_frame(symbols, plan)
    rng = np.random.default_rng(seed)
    y = {}
    for k, user in enumerate(spec.users):
        n = user.N
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        y[k] = user.h * x[:n] + noise_scale * z
    return ReceivedFrame(y=y, x=x, symbols=symbols, packets=packets)


def seeded_frame(plan: SchemePlan, seed: int, index: int
                 ) -> tuple[dict[int, np.ndarray], ReceivedFrame]:
    """Payloads and received frame number `index` of a run seeded `seed`.

    The one frame-seed policy of `simulate` and `empirical_id_check`: the
    payloads are drawn from seed + 7919 index and the noise from
    seed + 104729 index + 1, so every frame of a run is distinct.
    """
    payloads = random_payloads(plan, seed + 7919 * index)
    return payloads, simulate_frame(plan, payloads, seed + 104729 * index + 1)


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
        per_half = reduce(ll[halves], axis=1)
        n_bits = halves.shape[0] // 2
        rows.append(per_half[:n_bits] - per_half[n_bits:])
    return np.concatenate(rows).T


def hard_bits(llr: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (ties resolve to bit 0)."""
    return (llr < 0).astype(np.int64)


def demap_frame(frame: ReceivedFrame, user: int, plan: SchemePlan, *,
                max_log: bool = False) -> np.ndarray:
    """Concatenated LLRs of every segment of one user, in frame order."""
    parts = [tin_llr(frame.y[user][seg.sub_block.start:seg.sub_block.stop],
                     user, j, plan, max_log=max_log).ravel()
             for (k, j), seg in plan.segments.items() if k == user]
    return np.concatenate(parts) if parts else np.zeros(0)


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
    from the unit symbols, whose coordinates sit on the half-integer grid;
    a dimension without label bits has one level and adds nothing, so a
    pair without a segment (the user sends no bits there) gives zeros.
    """
    sb = plan.layout.sub_blocks[sub_block]
    sent = frame.symbols[user][sb.start:sb.stop]
    dens = np.zeros(sent.size)
    segment = plan.segments.get((user, sub_block))
    if segment is None:
        return dens
    y = frame.y[user][sb.start:sb.stop] * segment.rotation
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
    for f in range(n_frames):
        _, frame = seeded_frame(plan, seed, f)
        for j, chunks in per_block.items():
            chunks.append(information_densities(frame, user, j, plan))
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


# ---------------------------------------------------------------------------
# Interleaver hook and frame dumps
# ---------------------------------------------------------------------------

def random_interleaver(n: int, seed: int) -> np.ndarray:
    """Seedable uniform random permutation for bit interleaving."""
    return np.random.default_rng(seed).permutation(n)


def interleave(bits, permutation: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits)
    out = np.empty_like(bits)
    out[permutation] = bits
    return out


def deinterleave(bits, permutation: np.ndarray) -> np.ndarray:
    return np.asarray(bits)[permutation]


_DUMP_MAGIC = b"TINLNKD1"


def dump_frames(path, records: Sequence[tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]]) -> None:
    """Write (bits, symbols, y, llrs) records for external decoder runs.

    Layout (all little-endian): 8-byte magic, uint64 record count; per record
    four uint64 lengths (bits, symbols, y, llrs) followed by the payloads as
    float64 arrays: bits as 0.0/1.0, complex vectors as interleaved re/im
    pairs, LLRs flattened symbol-major.
    """
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<Q", len(records)))
        for bits, symbols, y, llrs in records:
            bits = np.asarray(bits, dtype=np.float64).ravel()
            sym = np.asarray(symbols, dtype=complex).ravel()
            yv = np.asarray(y, dtype=complex).ravel()
            ll = np.asarray(llrs, dtype=np.float64).ravel()
            fh.write(struct.pack("<4Q", bits.size, sym.size, yv.size, ll.size))
            bits.astype("<f8").tofile(fh)
            _complex_to_file(sym, fh)
            _complex_to_file(yv, fh)
            ll.astype("<f8").tofile(fh)


def _complex_to_file(arr: np.ndarray, fh) -> None:
    inter = np.empty(2 * arr.size, dtype="<f8")
    inter[0::2] = arr.real
    inter[1::2] = arr.imag
    inter.tofile(fh)


def load_frame_dump(path) -> list[tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]]:
    """Read back a dump_frames file.

    Raises SimulationError unless the file holds exactly the records its
    header announces: a short header, a short payload and bytes after the
    last record are all rejected.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(8) != _DUMP_MAGIC:
            raise SimulationError("not a frame dump file")
        (count,) = _read_header(fh, "<Q")
        records = []
        for _ in range(count):
            nb, ns, ny, nl = _read_header(fh, "<4Q")
            bits = _read_floats(fh, nb, end).astype(np.int64)
            sym = _complex_from_file(fh, ns, end)
            yv = _complex_from_file(fh, ny, end)
            ll = _read_floats(fh, nl, end)
            records.append((bits, sym, yv, ll))
        if fh.tell() != end:
            raise SimulationError(
                f"frame dump has {end - fh.tell()} bytes after its "
                f"{count} records")
    return records


def _read_header(fh, fmt: str) -> tuple[int, ...]:
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise SimulationError("frame dump header is truncated")
    return struct.unpack(fmt, raw)


def _read_floats(fh, n: int, end: int) -> np.ndarray:
    if 8 * n > end - fh.tell():
        raise SimulationError("frame dump payload is truncated")
    return np.fromfile(fh, dtype="<f8", count=n)


def _complex_from_file(fh, n: int, end: int) -> np.ndarray:
    raw = _read_floats(fh, 2 * n, end)
    return raw[0::2] + 1j * raw[1::2]
