"""Physical-channel simulation, exact TIN LLR demapping, and empirical checks.

The channel applies each user's complex coefficient to the superimposed frame
and adds circularly symmetric complex Gaussian noise with unit total variance
(0.5 per real dimension).  Demapping treats co-scheduled users' signals as
part of the channel law: bit LLRs marginalize the desired constellation and
sum over all interferer symbol combinations, never touching interferer
codebooks.  After rotating y by conj(h)/|h| every likelihood factors into an
I and a Q part, so LLRs and information densities come from the per-dimension
kernel `rates.tin_loglik`: each I-bit LLR depends on the I coordinate only
and each Q-bit LLR on the Q coordinate only (BICM demapping).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constellations import gray_sequence
from .rates import (
    compute_plan_rates,
    dimension_densities,
    dimension_levels,
    log_sum_exp,
    tin_loglik,
)
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
    power-scaled packets for reference.
    """

    y: dict[int, np.ndarray]
    seed: int
    channels: tuple[complex, ...]
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
    return ReceivedFrame(y=y, seed=seed,
                         channels=tuple(u.h for u in spec.users),
                         x=x, symbols=symbols, packets=packets)


# ---------------------------------------------------------------------------
# Exact TIN LLR demapping
# ---------------------------------------------------------------------------

def _rotated(y: np.ndarray, h: complex
             ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """|h| and the I and Q coordinates of y conj(h)/|h| (of y if h = 0)."""
    y = np.asarray(y, dtype=complex).ravel() * (np.conj(h) / abs(h) if h else 1)
    return abs(h), (y.real, y.imag)


def tin_llr(y: np.ndarray, user: int, sub_block: int, plan: SchemePlan,
            h: complex | None = None, *, max_log: bool = False) -> np.ndarray:
    """Exact per-bit LLRs for one user's sub-block segment under TIN.

    Interference enters only through its marginal law: the metric for each
    desired point sums the Gaussian likelihood over every interferer symbol
    combination.  Label bits 0..a-1 select the I level and the rest the Q
    level (`build_rect_qam`), so each bit's LLR marginalizes one dimension's
    levels.  Returns an (n_symbols, m) array with the convention
    LLR = log P(bit=0 | y) / P(bit=1 | y) in nats, so the sign of the LLR at
    zero noise recovers the transmitted bit.  max_log replaces the sums with
    maxima.
    """
    if h is None:
        h = plan.spec.users[user].h
    g, coords = _rotated(y, h)
    shape = plan.entries[(user, sub_block)].shape
    reduce = np.max if max_log else log_sum_exp
    cols = []
    for yd, n_bits, (levels, sums) in zip(
            coords, shape, dimension_levels(plan.parts(sub_block), user)):
        if n_bits == 0:
            continue
        ll = tin_loglik(yd, g, levels, sums, max_log=max_log)
        labels = gray_sequence(n_bits)
        for b in range(n_bits):
            one = ((labels >> (n_bits - 1 - b)) & 1).astype(bool)
            cols.append(reduce(ll[:, ~one], axis=1)
                        - reduce(ll[:, one], axis=1))
    return np.stack(cols, axis=1) if cols else np.zeros((coords[0].size, 0))


def hard_bits(llr: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (ties resolve to bit 0)."""
    return (llr < 0).astype(np.int64)


def demap_frame(frame: ReceivedFrame, user: int, plan: SchemePlan, *,
                max_log: bool = False) -> np.ndarray:
    """Concatenated LLRs for every sub-block segment of one user."""
    parts = []
    for sb in plan.layout.sub_blocks[:user + 1]:
        if sb.length == 0 or plan.entries[(user, sb.index)].order == 0:
            continue
        seg = frame.y[user][sb.start:sb.stop]
        parts.append(tin_llr(seg, user, sb.index, plan).ravel())
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
                          plan: SchemePlan, h: complex | None = None
                          ) -> np.ndarray:
    """Per-symbol information densities of one received sub-block segment.

    The density is the sum of the I and Q parts; the sent levels are read
    from the unit symbols, whose coordinates sit on the half-integer grid.
    """
    if h is None:
        h = plan.spec.users[user].h
    sb = plan.layout.sub_blocks[sub_block]
    g, coords = _rotated(frame.y[user][sb.start:sb.stop], h)
    sent = frame.symbols[user][sb.start:sb.stop]
    dens = np.zeros(sent.size)
    for yd, unit, (levels, sums) in zip(
            coords, (sent.real, sent.imag),
            dimension_levels(plan.parts(sub_block), user)):
        idx = np.rint(unit + (levels.size - 1) / 2).astype(np.int64)
        dens += dimension_densities(yd, g, levels, sums, idx)
    return dens


def empirical_id_check(plan: SchemePlan, user: int, n_frames: int, seed: int,
                       *, sigma_limit: float = 4.0) -> tuple[DensityCheckRow, ...]:
    """Compare sampled information densities against the rate engine.

    Simulates n_frames independent frames, samples per-symbol densities for
    each sub-block of the user, and flags sub-blocks whose empirical mean or
    variance deviates from the quadrature (I, V) by more than sigma_limit
    standard errors of the sample.
    """
    rows = []
    per_block: dict[int, list[np.ndarray]] = {}
    for f in range(n_frames):
        payloads = random_payloads(plan, seed + 7919 * f)
        frame = simulate_frame(plan, payloads, seed + 104729 * f + 1)
        for sb in plan.layout.sub_blocks[:user + 1]:
            if sb.length == 0 or plan.entries[(user, sb.index)].order == 0:
                continue
            per_block.setdefault(sb.index, []).append(
                information_densities(frame, user, sb.index, plan))
    exact = compute_plan_rates(plan).users[user].stats
    for j, chunks in sorted(per_block.items()):
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
    """Read back a dump_frames file."""
    with open(path, "rb") as fh:
        if fh.read(8) != _DUMP_MAGIC:
            raise SimulationError("not a frame dump file")
        (count,) = struct.unpack("<Q", fh.read(8))
        records = []
        for _ in range(count):
            nb, ns, ny, nl = struct.unpack("<4Q", fh.read(32))
            bits = np.fromfile(fh, dtype="<f8", count=nb).astype(np.int64)
            sym = _complex_from_file(fh, ns)
            yv = _complex_from_file(fh, ny)
            ll = np.fromfile(fh, dtype="<f8", count=nl)
            records.append((bits, sym, yv, ll))
    return records


def _complex_from_file(fh, n: int) -> np.ndarray:
    raw = np.fromfile(fh, dtype="<f8", count=2 * n)
    return raw[0::2] + 1j * raw[1::2]
