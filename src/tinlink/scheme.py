"""Transmission-plan construction for the superimposed downlink frame.

A system spec (blocklengths, error targets, channels, total power) is turned
into a validated plan: sub-block layout, modulation-order feasibility, the
two-layer power assignment, per-user symbol scales, bit mapping, and frame
synthesis.  The power rule is the balanced one: every sub-block of the
superimposed frame carries the full per-symbol power budget, which fixes all
per-user sub-block powers once the modulation orders are known.

Only channel magnitudes enter plan construction, so plans are invariant to a
common phase rotation of the channel coefficients but for the receive
rotations conj(h)/|h| (`UserSpec.rotation`).  A (user, sub-block) link has
one record, its `PlanEntry`, whose `dims` hold the receive grids and Gray
bit halves that the rate kernel integrates and the demapper evaluates.
"""
from __future__ import annotations

import itertools
import math
import numbers
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import rates
from .constellations import (
    MAX_TOTAL_ORDER,
    ConstellationError,
    LabeledConstellation,
    build_rect_qam,
    grid_energy,
    gray_sequence,
    silent,
    superposition_factors,
)

DMIN_TOL = 1e-9
DEFAULT_ORDER_CAP = 12
_PARETO_BLOCK = 64  # rows per step of the Pareto filter


class SpecError(ValueError):
    """Invalid system specification."""


class InfeasiblePlanError(ValueError):
    """Modulation orders violate the feasibility constraints."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"{len(report.violations())} constraint(s) violated")


def _number(value, what: str, integer: bool = False):
    """`value` as a float (an int if `integer`), which it must already be:
    strings, booleans, NaN and infinities are rejected, never converted."""
    kind, name = ((numbers.Integral, "an integer") if integer
                  else (numbers.Real, "a finite number"))
    valid = not isinstance(value, bool) and isinstance(value, kind)
    if valid and not integer:
        try:
            valid = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            valid = False
    if not valid:
        raise SpecError(f"{what} must be {name}, got {value!r}")
    return int(value) if integer else float(value)


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

class UserSpec(NamedTuple):
    """One receiver: symbol budget N, error target eps, complex channel h."""

    N: int
    eps: float
    h: complex

    @property
    def rotation(self) -> complex:
        """conj(h)/|h|, which turns y = h x + z into |h| x + z'."""
        return np.conj(self.h) / abs(self.h)


class SystemSpec(NamedTuple):
    """K-user downlink spec; users are kept sorted by non-decreasing N.

    ``order_map[i]`` is the position of sorted user i in the constructor
    input, so callers that supplied unsorted users can map results back.
    """

    P: float
    users: tuple[UserSpec, ...]
    order_map: tuple[int, ...]

    @classmethod
    def create(cls, P: float, users: Sequence[UserSpec]) -> "SystemSpec":
        if P <= 0:
            raise SpecError("total power must be positive")
        if not users:
            raise SpecError("at least one user required")
        # a sweep splits the frame energy N_K P, and the shell dispersion
        # squares receive SNRs of up to 6 N_K P |h_k|^2, which is inf when
        # |h_k|^2 overflows, as other code squares |h_k| on its own
        for k, u in enumerate(users):
            if u.N <= 0:
                raise SpecError("blocklengths must be positive")
            if not 0.0 < u.eps < 0.5:
                raise SpecError(f"error target {u.eps} outside (0, 0.5)")
            snr = 6.0 * max(v.N for v in users) * P * (abs(u.h) * abs(u.h))
            if not math.isfinite(snr * snr):
                raise SpecError(f"user {k + 1} (N = {u.N}) is out of range: "
                                f"its receive SNR 6 N_K P |h|^2 = {snr:.3g} "
                                f"at P = {P!r} overflows when squared")
            if abs(u.h) == 0.0:
                raise SpecError("channel coefficients must be non-zero")
        order = sorted(range(len(users)), key=lambda i: users[i].N)
        sorted_users = tuple(users[i] for i in order)
        mags = sorted(abs(u.h) for u in users)
        for a, b in zip(mags, mags[1:]):
            if abs(a - b) <= 1e-12 * max(a, b):
                raise SpecError(
                    "channel magnitudes must be pairwise distinct")
        order_map = tuple(order.index(i) for i in range(len(users)))
        return cls(P=float(P), users=sorted_users, order_map=order_map)

    @property
    def K(self) -> int:
        return len(self.users)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SystemSpec":
        try:
            users = [UserSpec(N=_number(u["N"], "N", integer=True),
                              eps=_number(u["eps"], "eps"),
                              h=complex(_number(u["h_re"], "h_re"),
                                        _number(u["h_im"], "h_im")))
                     for u in data["users"]]
            P = _number(data["P"], "P")
        except (KeyError, TypeError, SpecError) as exc:
            raise SpecError(f"malformed system spec: {exc}") from exc
        return cls.create(P, users)

    def to_dict(self) -> dict:
        return {
            "P": self.P,
            "users": [{"N": u.N, "eps": u.eps,
                       "h_re": u.h.real, "h_im": u.h.imag}
                      for u in self.users],
        }


# ---------------------------------------------------------------------------
# Sub-block layout
# ---------------------------------------------------------------------------

class SubBlock(NamedTuple):
    """Symbol range over which the active-user set is constant."""

    index: int
    start: int
    stop: int
    participants: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.stop - self.start


class SubBlockLayout(NamedTuple):
    boundaries: tuple[int, ...]
    sub_blocks: tuple[SubBlock, ...]


def build_layout(spec: SystemSpec) -> SubBlockLayout:
    """Sub-block boundaries and per-sub-block channel-rank permutations.

    Sub-block j spans symbols (N_{j-1}, N_j]; its participants are users
    j..K-1 (0-based), ranked by decreasing channel magnitude.
    """
    boundaries = (0,) + tuple(u.N for u in spec.users)
    blocks = []
    for j in range(spec.K):
        participants = tuple(range(j, spec.K))
        ranks = tuple(sorted(participants,
                             key=lambda u: -abs(spec.users[u].h)))
        blocks.append(SubBlock(index=j, start=boundaries[j],
                               stop=boundaries[j + 1],
                               participants=participants, ranks=ranks))
    return SubBlockLayout(boundaries=boundaries, sub_blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Modulation-order feasibility
# ---------------------------------------------------------------------------

def part_shapes(rank_orders: Sequence[int]) -> list[tuple[int, int]]:
    """(I, Q) bit split per rank, keeping the running grid nearly square.

    Strongest rank first.  Even orders split evenly; odd orders put their
    extra bit in whichever dimension is currently behind, so the cumulative
    superimposed grid never gets more than one bit out of balance.
    """
    shapes = []
    ti = tq = 0
    for m in rank_orders:
        if m < 0:
            raise SpecError("modulation orders must be non-negative")
        hi, lo = (m + 1) // 2, m // 2
        a, b = (lo, hi) if ti > tq else (hi, lo)
        shapes.append((a, b))
        ti += a
        tq += b
    return shapes


class ConstraintRow(NamedTuple):
    """One feasibility condition with its slack.

    kind "order_sum" rows carry bit budgets (slack = rhs - lhs, in bits);
    the distance rows carry squared effective minimum distances against the
    unit target (slack = lhs - 1).
    """

    kind: str
    sub_block: int
    rank: int
    user: int
    lhs: float
    rhs: float
    slack: float
    passed: bool


class FeasibilityReport(NamedTuple):
    rows: tuple[ConstraintRow, ...]
    feasible: bool

    def violations(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if not r.passed)


def _normalize_orders(orders, layout: SubBlockLayout
                      ) -> tuple[tuple[int, ...], ...]:
    """The order matrix as int tuples; SpecError unless every order is a
    non-negative integer, and 0 in an empty sub-block."""
    K = len(layout.sub_blocks)
    try:
        if len(orders) != K:
            raise SpecError(f"orders must have {K} rows")
        raw = [tuple(_number(m, "modulation order", integer=True)
                     for m in row) for row in orders]
    except TypeError as exc:
        raise SpecError(f"malformed order matrix {orders!r}: {exc}") from exc
    for k, row in enumerate(raw):
        if len(row) != k + 1:
            raise SpecError(f"orders row {k} must have {k + 1} entries")
        if any(m < 0 for m in row):
            raise SpecError("modulation orders must be non-negative")
        for sb, m in zip(layout.sub_blocks, row):
            if m and not sb.length:
                raise SpecError(f"user {k + 1} has order {m} in sub-block "
                                f"{sb.index + 1}, which holds no symbols")
    return tuple(raw)


def sub_block_geometry(mv: Sequence[int]
                       ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], float]:
    """Part shapes, stretch factors and normaliser of one sub-block.

    mv lists the orders strongest rank first.  The stretched parts tile a
    2^t_I x 2^t_Q unit grid, so the normaliser that gives the superimposed
    constellation unit energy is eta = 1 / sqrt(grid_energy(t_I, t_Q));
    a silent sub-block has eta = 0.
    """
    total = sum(mv)
    if total > MAX_TOTAL_ORDER:
        raise ConstellationError(
            f"cumulative order {total} exceeds {MAX_TOTAL_ORDER}")
    shapes = part_shapes(mv)
    factors = superposition_factors([(1 << a, 1 << b) for a, b in shapes])
    if total == 0:
        return shapes, factors, 0.0
    ti = sum(a for a, _ in shapes)
    tq = sum(b for _, b in shapes)
    return shapes, factors, 1.0 / math.sqrt(grid_energy(ti, tq))


def sub_block_parts(mv: Sequence[int], P: float
                    ) -> list[tuple[tuple[int, int], float, float]]:
    """(shape, amp_i, amp_q) of every rank of one sub-block at power P.

    The one place the per-dimension amplitudes are computed: the normaliser
    and sub-block power times each rank's stretch factors.
    """
    shapes, factors, eta = sub_block_geometry(mv)
    root = eta * math.sqrt(P)
    return [(shape, root * fi, root * fq)
            for shape, (fi, fq) in zip(shapes, factors)]


def _sub_block_rows(mv: Sequence[int], sb: SubBlock,
                    spec: SystemSpec) -> list[ConstraintRow]:
    """Feasibility rows for one sub-block's rank-ordered order vector; an
    empty sub-block sends nothing and has none."""
    if not sb.length:
        return []
    rows = []
    S = spec.P
    total = sum(mv)
    for i, user in enumerate(sb.ranks):
        suffix = sum(mv[i:])
        snr6 = 6.0 * S * abs(spec.users[user].h) ** 2
        arg = 1.0 + snr6 if i == 0 else snr6
        rhs = math.floor(math.log2(arg)) if arg > 0 else -math.inf
        passed = suffix == 0 or suffix <= rhs
        rows.append(ConstraintRow(
            kind="order_sum", sub_block=sb.index, rank=i, user=user,
            lhs=float(suffix), rhs=float(rhs), slack=float(rhs - suffix),
            passed=passed))
    if total >= 1:
        shapes, factors, eta = sub_block_geometry(mv)
        eta_sq = eta * eta
        d_sup = eta_sq * S * abs(spec.users[sb.ranks[0]].h) ** 2
        rows.append(ConstraintRow(
            kind="superimposed_distance", sub_block=sb.index, rank=0,
            user=sb.ranks[0], lhs=d_sup, rhs=1.0, slack=d_sup - 1.0,
            passed=d_sup >= 1.0 - DMIN_TOL))
        for i, user in enumerate(sb.ranks):
            if mv[i] == 0:
                continue
            a, b = shapes[i]
            fi, fq = factors[i]
            active = [fi * fi] if b == 0 else (
                [fq * fq] if a == 0 else [fi * fi, fq * fq])
            d_ind = eta_sq * S * abs(spec.users[user].h) ** 2 * min(active)
            rows.append(ConstraintRow(
                kind="min_distance", sub_block=sb.index, rank=i, user=user,
                lhs=d_ind, rhs=1.0, slack=d_ind - 1.0,
                passed=d_ind >= 1.0 - DMIN_TOL))
    return rows


def check_modulation_constraints(orders, spec: SystemSpec,
                                 layout: SubBlockLayout | None = None
                                 ) -> FeasibilityReport:
    """Evaluate the per-sub-block modulation-order constraints.

    For sub-block power budget S and ranks ordered by decreasing channel
    gain, rank i requires sum_{i' >= i} m_{i'} <= floor(log2(6 S |h_i|^2)),
    with the top rank using 1 + 6 S |h_1|^2 inside the logarithm.  The bit
    budgets are complemented by exact effective-minimum-distance rows, which
    coincide with the bit budgets for evenly balanced grids and tighten them
    for odd splits; a plan is feasible when every row passes.
    """
    layout = layout or build_layout(spec)
    orders = _normalize_orders(orders, layout)
    rows: list[ConstraintRow] = []
    for sb in layout.sub_blocks:
        mv = [orders[u][sb.index] for u in sb.ranks]
        rows.extend(_sub_block_rows(mv, sb, spec))
    return FeasibilityReport(rows=tuple(rows),
                             feasible=all(r.passed for r in rows))


# ---------------------------------------------------------------------------
# Power assignment and the transmission plan
# ---------------------------------------------------------------------------

class PlanEntry(NamedTuple):
    """One user's link in one sub-block, after power assignment.

    amp_i / amp_q are the full per-dimension amplitudes applied to the unit
    constellation (normalizer, sub-block power, and superposition stretch
    included); they are equal whenever the stacking is evenly balanced, in
    which case the entry reduces to one complex scale.  dims is the link's
    receive set-up after rotation by `UserSpec.rotation`, empty where the
    order is 0, else one (coordinate, grid, halves) per dimension with bits:
    0 for I or 1 for Q, the receive grid from `rates.receive_grids`, and a
    (2 bits, levels / 2) array whose row b lists the level positions with
    Gray label bit b equal to 0 and row bits + b those with it equal to 1.
    stacked is True when both dimensions carry bits on byte-equal grids
    (square QAM), so the demapper takes I and Q through one kernel pass.
    """

    user: int
    sub_block: int
    order: int
    rank: int
    shape: tuple[int, int]
    part: LabeledConstellation
    factor_i: int
    factor_q: int
    amp_i: float
    amp_q: float
    tx_points: np.ndarray
    power: float
    dims: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    stacked: bool


class SchemePlan(NamedTuple):
    """Validated transmission plan for one system spec.

    entries maps every (user, sub-block) pair with the user among the
    sub-block's participants to its `PlanEntry`, in (sub-block, rank) order,
    so one user's entries come in sub-block order, which is frame order.
    """

    spec: SystemSpec
    layout: SubBlockLayout
    orders: tuple[tuple[int, ...], ...]
    entries: dict[tuple[int, int], PlanEntry]
    eta: tuple[float, ...]
    sub_block_power: tuple[float, ...]
    codeword_lengths: tuple[int, ...]

    def sub_block_signals(self, user: int, sub_block: int
                          ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Transmit constellation of `user` plus co-scheduled interferers."""
        desired = self.entries[(user, sub_block)].tx_points
        interferers = []
        for other in self.layout.sub_blocks[sub_block].participants:
            if other == user:
                continue
            entry = self.entries[(other, sub_block)]
            if entry.order >= 1:
                interferers.append(entry.tx_points)
        return desired, interferers

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "system": self.spec.to_dict(),
            "orders": [list(row) for row in self.orders],
            "eta": list(self.eta),
            "sub_block_power": list(self.sub_block_power),
            "codeword_lengths": list(self.codeword_lengths),
            "entries": [
                {"user": e.user, "sub_block": e.sub_block, "order": e.order,
                 "rank": e.rank, "i_bits": e.shape[0], "q_bits": e.shape[1],
                 "factor_i": e.factor_i, "factor_q": e.factor_q,
                 "amp_i": e.amp_i, "amp_q": e.amp_q, "power": e.power}
                for e in self.entries.values()
            ],
        }


def plan_from_dict(data: Mapping) -> SchemePlan:
    """Rebuild a plan from its JSON form: the plan of its `system` and
    `orders`, which must send bits and whose `to_dict()` the whole file must
    equal (`_match_plan`)."""
    try:
        plan = assign_power(data["orders"],
                            SystemSpec.from_dict(data["system"]))
    except (KeyError, TypeError, IndexError, InfeasiblePlanError) as exc:
        raise SpecError(f"malformed plan file: {exc}") from exc
    if not any(any(row) for row in plan.orders):
        raise SpecError("plan file sends no bits: every order is 0")
    _match_plan(plan.to_dict(), data)
    return plan


def _match_plan(want, got, path: str = "") -> None:
    """Raise SpecError at the first field of `got` (a plan file's JSON at
    `path`) that differs from `want` (the rebuilt plan's): keys, list lengths,
    floats within 1e-9 max(1, |want|), all else equal and of its JSON type."""
    where = f"plan file field {path}" if path else "plan file"
    if isinstance(want, dict):
        if not isinstance(got, dict):
            raise SpecError(f"{where} must be an object, got {got!r}")
        prefix = f"{path}." if path else ""
        for key in [*want, *got]:
            if key not in want or key not in got:
                raise SpecError(f"plan file field {prefix}{key} is " + (
                    "missing" if key in want else "not a plan field"))
        for key, value in want.items():
            _match_plan(value, got[key], prefix + key)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise SpecError(f"{where} must be a list of {len(want)}, "
                            f"got {got!r}")
        for i, (w, g) in enumerate(zip(want, got)):
            _match_plan(w, g, f"{path}[{i}]")
    else:
        ok = (abs(_number(got, where) - want) <= 1e-9 * max(1.0, abs(want))
              if isinstance(want, float)
              else type(got) is type(want) and got == want)
        if not ok:
            raise SpecError(f"{where} = {got!r} is inconsistent with the "
                            f"rebuilt plan's {want!r}")


def assign_power(orders, spec: SystemSpec, *,
                 check: bool = True) -> SchemePlan:
    """Two-layer power assignment under the balanced sub-block rule.

    Layer one stretches co-scheduled constellations into one regular
    superimposed QAM per sub-block; layer two normalizes each superimposed
    sub-block to unit energy and scales it to the full power budget, so the
    frame's expected per-symbol power equals P wherever anyone transmits.
    The resulting per-user sub-block power of rank i is
    2^{s_i} (2^{m_i} - 1) / (2^{sum m} - 1) * P with s_i the bits of the
    stronger ranks, whenever the stacking is evenly balanced.  No command
    passes check=False; it stays because the tests build infeasible plans,
    and rebuild plans at other channels, with it.
    """
    layout = build_layout(spec)
    orders = _normalize_orders(orders, layout)
    if check:
        report = check_modulation_constraints(orders, spec, layout)
        if not report.feasible:
            raise InfeasiblePlanError(report)
    entries: dict[tuple[int, int], PlanEntry] = {}
    etas = []
    powers = []
    for sb in layout.sub_blocks:
        mv = [orders[u][sb.index] for u in sb.ranks]
        _, factors, eta = sub_block_geometry(mv)
        etas.append(eta)
        powers.append(spec.P if eta > 0 else 0.0)
        # in user order, as `rates.grid_key` lists the co-scheduled users
        parts = dict(sorted(zip(sb.ranks, sub_block_parts(mv, spec.P))))
        for rank, user in enumerate(sb.ranks):
            shape, amp_i, amp_q = parts[user]
            fi, fq = factors[rank]
            part = silent() if mv[rank] == 0 else build_rect_qam(*shape)
            tx = amp_i * part.points.real + 1j * (amp_q * part.points.imag)
            grids = (rates.receive_grids(abs(spec.users[user].h), parts, user)
                     if mv[rank] else ())
            dims = []
            for d, (n_bits, grid) in enumerate(zip(shape, grids)):
                if n_bits:
                    shifts = np.arange(n_bits - 1, -1, -1)[:, None]
                    bit = (gray_sequence(n_bits) >> shifts) & 1
                    halves = np.nonzero(np.vstack([bit == 0, bit == 1]))[1]
                    dims.append((d, grid, halves.reshape(2 * n_bits, -1)))
            entries[(user, sb.index)] = PlanEntry(
                user=user, sub_block=sb.index, order=mv[rank], rank=rank,
                shape=shape, part=part, factor_i=fi, factor_q=fq,
                amp_i=amp_i, amp_q=amp_q, tx_points=tx,
                power=float(np.mean(np.abs(tx) ** 2)), dims=tuple(dims),
                stacked=(len(dims) == 2 and dims[0][1].shape == dims[1][1].shape
                         and dims[0][1].tobytes() == dims[1][1].tobytes()))
    return SchemePlan(spec=spec, layout=layout, orders=orders,
                      entries=entries, eta=tuple(etas),
                      sub_block_power=tuple(powers),
                      codeword_lengths=codeword_lengths(orders, layout))


class MinDistanceRow(NamedTuple):
    user: int
    sub_block: int
    kind: str
    d_min: float
    ok: bool


def verify_min_distances(plan: SchemePlan) -> tuple[MinDistanceRow, ...]:
    """Effective minimum distances after the plan's channels.

    For each active sub-block: the superimposed constellation through the
    strongest participant's channel, and every transmitting user's own scaled
    constellation through its own channel.  Feasible plans keep all of these
    at or above 1 (up to 1e-9).  To probe other channels, rebuild the plan on
    that spec with `assign_power(plan.orders, other_spec, check=False)`.
    """
    users = plan.spec.users
    rows = []
    for sb in plan.layout.sub_blocks:
        if plan.sub_block_power[sb.index] == 0:
            continue
        root = plan.eta[sb.index] * math.sqrt(plan.sub_block_power[sb.index])
        strongest = sb.ranks[0]
        d_sup = abs(users[strongest].h) * root
        rows.append(MinDistanceRow(
            user=strongest, sub_block=sb.index, kind="superimposed",
            d_min=d_sup, ok=d_sup >= 1.0 - DMIN_TOL))
        for user in sb.participants:
            entry = plan.entries[(user, sb.index)]
            if entry.order == 0:
                continue
            amps = []
            if entry.shape[0] > 0:
                amps.append(entry.amp_i)
            if entry.shape[1] > 0:
                amps.append(entry.amp_q)
            d_ind = abs(users[user].h) * min(amps)
            rows.append(MinDistanceRow(
                user=user, sub_block=sb.index, kind="individual",
                d_min=d_ind, ok=d_ind >= 1.0 - DMIN_TOL))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Bit mapping and frame synthesis
# ---------------------------------------------------------------------------

def codeword_lengths(orders, layout: SubBlockLayout) -> tuple[int, ...]:
    """n_k = sum over sub-blocks of (sub-block length) * (order there)."""
    orders = _normalize_orders(orders, layout)
    return tuple(sum(sb.length * row[sb.index]
                     for sb in layout.sub_blocks[:k + 1])
                 for k, row in enumerate(orders))


def map_bits(bits, user: int, plan: SchemePlan) -> np.ndarray:
    """Map a user's codewords onto unit-energy symbol vectors.

    bits holds one codeword on its last axis, after any leading (frame)
    axes.  Consecutive groups of m_{k,j} bits (most significant first)
    select points of the sub-block-j constellation by Gray label; the output
    has the same leading axes and one complex symbol per transmit slot, with
    unit grid spacing (power is applied by build_frame).  Integer bits
    (the uint8 payloads of `linksim.frame_blocks` among them) are read as
    they are, without a widened copy.
    """
    bits = np.asarray(bits)
    if bits.dtype.kind not in "biu":
        bits = bits.astype(np.int64)
    n_k = plan.codeword_lengths[user]
    if bits.shape[-1:] != (n_k,):
        raise SpecError(f"user {user} expects {n_k} bits, got shape "
                        f"{bits.shape}")
    lead = bits.shape[:-1]
    out = np.zeros(lead + (plan.spec.users[user].N,), dtype=complex)
    pos = 0
    for sb in plan.layout.sub_blocks[:user + 1]:
        entry = plan.entries[(user, sb.index)]
        m = entry.order
        if m == 0:
            continue
        take = sb.length * m
        seg = bits[..., pos:pos + take].reshape(lead + (sb.length, m))
        pos += take
        label = seg[..., 0].astype(np.intp)
        for b in range(1, m):
            label <<= 1
            label |= seg[..., b]
        out[..., sb.start:sb.stop] = entry.part.points[label]
    return out


def build_frame(symbols: Mapping[int, np.ndarray], plan: SchemePlan, *,
                out: np.ndarray | None = None
                ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Apply the power assignment and superimpose all users' packets.

    symbols maps each user to its unit symbol vectors (from map_bits), with
    the same leading (frame) axes for every user.  Returns the superimposed
    frames x, N_K symbols on the last axis, and each user's power-scaled
    packets.  x is written into out when it is given (a complex array of
    x's shape, which `linksim.frame_blocks` allocates once per run), else
    into a new array.
    """
    lead = np.shape(symbols[0])[:-1]
    shape = lead + (plan.layout.boundaries[-1],)
    if out is None:
        x = np.zeros(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex:
        raise SpecError(f"frame buffer must be complex of shape {shape}")
    else:
        x = out
        x.fill(0.0)
    packets: dict[int, np.ndarray] = {}
    for user in range(plan.spec.K):
        v = np.asarray(symbols[user], dtype=complex)
        n_user = plan.spec.users[user].N
        if v.shape != lead + (n_user,):
            raise SpecError(f"user {user} symbol vector must have {n_user} entries")
        xk = np.empty(lead + (n_user,), dtype=complex)
        for sb in plan.layout.sub_blocks[:user + 1]:
            entry = plan.entries[(user, sb.index)]
            seg = v[..., sb.start:sb.stop]
            dst = xk[..., sb.start:sb.stop]
            np.multiply(seg.real, entry.amp_i, out=dst.real)
            np.multiply(seg.imag, entry.amp_q, out=dst.imag)
        packets[user] = xk
        x[..., :n_user] += xk
    return x, packets


# ---------------------------------------------------------------------------
# Design search
# ---------------------------------------------------------------------------

class DesignSearchResult(NamedTuple):
    """Scored order matrices as columns, one row per candidate, best first.

    `orders` holds each order matrix flattened user by user, so user k's
    sub-blocks 0..k follow user k-1's; `rates`, `info_bits` and
    `codeword_bits` are (n, K), `weighted_sum` and `min_order_slack` (the
    least order_sum row slack, inf if none) have one entry per row.
    """

    orders: np.ndarray
    rates: np.ndarray
    weighted_sum: np.ndarray
    info_bits: np.ndarray
    codeword_bits: np.ndarray
    min_order_slack: np.ndarray
    explanation: str | None = None

    def order_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Row i's order matrix, orders[k][j] user k's order in sub-block j."""
        flat = self.orders[i].tolist()
        return tuple(tuple(flat[k * (k + 1) // 2:(k + 1) * (k + 2) // 2])
                     for k in range(self.rates.shape[1]))


def _vector_slack(sb: SubBlock, mv: tuple[int, ...],
                  spec: SystemSpec) -> float | None:
    """The least order_sum row slack of rank-order vector mv in sub-block
    sb, None if one of its feasibility rows fails; an empty sub-block has no
    rows, so its one vector, all zeros, passes there at slack inf."""
    rows = _sub_block_rows(mv, sb, spec)
    if not all(r.passed for r in rows):
        return None
    return min((r.slack for r in rows if r.kind == "order_sum"),
               default=math.inf)


def design_search(spec: SystemSpec, weights: Sequence[float] | None = None, *,
                  orders: Sequence | None = None,
                  max_sub_block_order: int = DEFAULT_ORDER_CAP,
                  pareto_only: bool = True) -> DesignSearchResult:
    """Score order matrices and rank them by weighted-sum rate.

    By default every sub-block's feasible rank-order vectors (budget capped at
    max_sub_block_order, at least 1) are combined across sub-blocks, and the
    candidates are Pareto-filtered over the users with positive weight (unless
    pareto_only=False).  Passing `orders` scores exactly those matrices
    instead: a malformed matrix raises SpecError, infeasible ones are skipped,
    and none is Pareto-filtered.  The all-silent matrix is never scored.
    Sub-block j carries users j..K-1, and a user's (I, V) there depends
    only on its rank-order vector, so a design is one vector per sub-block.
    `_vector_slack` decides each distinct vector once, for a search over
    every capped vector and for listed orders over their own vectors (a
    matrix is kept when all of its vectors pass).  Each sub-block keeps one
    row per kept vector: every user's order there, its (I, V) from one
    `rates.sub_block_stats_table` call, and the vector's least order_sum
    slack.  The table's links share their grids: each distinct multi-level
    receive grid (`rates.grid_key`) is built once per call, and one-level
    grids, whose density is 0, never.  A (sub-blocks, candidates) index,
    for a search the product grid of the vector counts in
    `itertools.product` order, holds each candidate's row in every
    sub-block, and every column is gathered through it, so no plan is
    built.  A Pareto-filtered search keeps `_chain_front` of the
    candidates, which filters along the sub-block chain before its flat
    pass: on three_user.json at cap 4, 245 of the 2,624 candidates reach
    that pass.  One combiner pass per user gives the kept candidates'
    rates, and the rows are sorted by descending weighted sum, ties broken
    by the lexicographically smaller flat order matrix.
    """
    layout = build_layout(spec)
    if weights is None:
        weights = [1.0] * spec.K
    try:
        weights = [_number(w, "weight") for w in weights]
    except (TypeError, SpecError) as exc:
        raise SpecError(f"malformed weights: {exc}") from exc
    if len(weights) != spec.K or any(w < 0 for w in weights):
        raise SpecError("weights must be non-negative, one per user")
    if not any(w > 0 for w in weights):
        raise SpecError("at least one weight must be positive")
    if max_sub_block_order < 1:
        raise SpecError(f"max_sub_block_order must be >= 1, "
                        f"got {max_sub_block_order}")

    if orders is not None:
        if not isinstance(orders, (list, tuple)) or not orders:
            raise SpecError(f"orders must be a non-empty list of order "
                            f"matrices, got {orders!r}")
        listed = [[tuple(o[u][sb.index] for u in sb.ranks)
                   for sb in layout.sub_blocks]
                  for o in (_normalize_orders(o, layout) for o in orders)]
        # decide each distinct (sub-block, vector) once, in listed order
        slack_of = {(j, mv): _vector_slack(layout.sub_blocks[j], mv, spec)
                    for j, mv in dict.fromkeys(
                        (j, mv) for vs in listed for j, mv in enumerate(vs))}
        # position of each kept matrix's vector among its sub-block's rows
        seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(spec.K)]
        rows = [[s.setdefault(mv, len(s)) for s, mv in zip(seen, vs)]
                for vs in listed if all(
                    slack_of[j, mv] is not None for j, mv in enumerate(vs))]
        vectors = [{mv: slack_of[j, mv] for mv in s} for j, s in enumerate(seen)]
        index = np.array(rows, dtype=np.intp).reshape(-1, spec.K).T
        none_left = "no configured order matrix is feasible and sends bits"
    else:
        # larger sums have no constellation
        cap = min(max_sub_block_order, MAX_TOTAL_ORDER)
        vectors = []
        for sb in layout.sub_blocks:
            # an empty sub-block carries only the all-zero vector
            found = {mv: _vector_slack(sb, mv, spec) for mv in
                     itertools.product(range(cap + 1 if sb.length else 1),
                                       repeat=len(sb.ranks))
                     if sum(mv) <= cap}
            vectors.append({mv: s for mv, s in found.items() if s is not None})
        # every combination of one vector per sub-block, in product order
        index = np.indices([len(v) for v in vectors]).reshape(spec.K, -1)
        none_left = ("only the all-silent order matrix is feasible "
                     "at this power budget")

    # one row per kept vector of each sub-block: every user's order there,
    # its (I, V) (0 where the user is silent or the sub-block is empty) and
    # the vector's slack; index[j, i] is candidate i's row in sub-block j
    vector_orders = [np.zeros((len(v), spec.K), np.int64) for v in vectors]
    stats = [np.zeros((len(v), spec.K, 2)) for v in vectors]
    # each link's multi-level grids, every distinct one built once
    grids: dict[tuple, np.ndarray] = {}
    links, cells = [], []
    for sb, found in zip(layout.sub_blocks, vectors):
        for row, mv in enumerate(found):
            parts = dict(sorted(zip(sb.ranks, sub_block_parts(mv, spec.P))))
            vector_orders[sb.index][row, list(sb.ranks)] = mv
            for m, user in zip(mv, sb.ranks):
                if not m:
                    continue
                link = []
                for d in (0, 1):
                    key = rates.grid_key(abs(spec.users[user].h), parts,
                                         user, d)
                    if key[1][0]:  # a one-level grid has density 0
                        if key not in grids:
                            grids[key] = rates.receive_grid(*key)
                        link.append(grids[key])
                links.append(link)
                cells.append((sb.index, row, user))
    for (j, row, user), s in zip(cells, rates.sub_block_stats_table(links)):
        stats[j][row, user] = s

    def rates_of(k, index):
        """User k's rates at the candidates whose rows index holds."""
        return rates.user_rates(spec, layout, k, *[
            np.stack([stats[j][index[j], k, c] for j in range(k + 1)], axis=-1)
            for c in (0, 1)])

    # the all-silent order matrix carries no bits, so it is never a design
    silent = np.logical_and.reduce([~o.any(axis=1)[i]
                                    for o, i in zip(vector_orders, index)])
    if pareto_only and orders is None:
        keep = _chain_front(lambda k, at: rates_of(k, index[:, at]),
                            [len(v) for v in vectors], silent,
                            [k for k in range(spec.K) if weights[k] > 0])
    else:
        keep = np.flatnonzero(~silent)
    index = index[:, keep]
    user_rates = np.stack([rates_of(k, index) for k in range(spec.K)],
                          axis=-1)

    # flat[:, k(k+1)/2 + j] is user k's order in sub-block j; a candidate's
    # slack is the least of its sub-blocks' vector slacks
    n = index.shape[1]
    picked = [o[i] for o, i in zip(vector_orders, index)]
    flat = np.stack([picked[j][:, k] for k in range(spec.K)
                     for j in range(k + 1)], axis=-1)
    codeword = sum(sb.length * p for sb, p in zip(layout.sub_blocks, picked))
    slack = np.min([np.array(list(v.values()))[i]
                    for v, i in zip(vectors, index)], axis=0)
    info = np.maximum(np.floor(
        user_rates * [u.N for u in spec.users]), 0).astype(np.int64)
    weighted = np.zeros(n)
    for w, column in zip(weights, user_rates.T):
        weighted += w * column
    order = np.lexsort((*flat.T[::-1], -weighted))
    return DesignSearchResult(
        orders=flat[order], rates=user_rates[order],
        weighted_sum=weighted[order], info_bits=info[order],
        codeword_bits=codeword[order], min_order_slack=slack[order],
        explanation=None if n else none_left)


def _chain_front(rates_of, counts: Sequence[int], dropped,
                 dims: Sequence[int]) -> np.ndarray:
    """Positions of the Pareto front over `dims` of the candidates in
    `itertools.product` order of one of counts[j] vectors per sub-block,
    leaving out the dropped ones (the all-silent candidate).

    rates_of(k, at) gives user k's rates at candidate positions `at` (an
    index array or a slice), and user k's rate depends only on the vectors
    of sub-blocks 0..k.  So each run of counts[-1] consecutive candidates
    shares every rate but the last user's, and only its candidates with the
    largest last rate can be on the front (all of them on a tie); the
    dropped candidates count as -inf there and are removed afterwards.
    Each run of counts[-2] * counts[-1] candidates shares every rate but the
    last two users', so only its front over those two can be on the front
    (`_pair_fronts`).  A level is skipped when none of its users is in
    dims.  `_pareto_flags` then filters the survivors.
    """
    K = len(counts)
    dropped = np.asarray(dropped, dtype=bool)
    at = np.flatnonzero(~dropped)
    if K - 1 in dims:
        runs = np.where(dropped, -np.inf,
                        rates_of(K - 1, slice(None))).reshape(-1, counts[-1])
        at = np.flatnonzero((runs == runs.max(axis=1, keepdims=True)).ravel()
                            & ~dropped)
    if K > 1 and {K - 2, K - 1} & set(dims):
        a, b = (rates_of(k, at) if k in dims else np.zeros(len(at))
                for k in (K - 2, K - 1))
        at = at[_pair_fronts(at // (counts[-2] * counts[-1]), a, b)]
    return at[_pareto_flags(np.stack([rates_of(k, at) for k in dims],
                                     axis=-1))]


def _pair_fronts(group, a, b) -> np.ndarray:
    """Flags of the points that no point of their own group dominates in
    (a, b): at least as large in both and larger in one.

    Sorted by group, then descending a, then descending b, a point is
    dominated exactly when an earlier point of its group with a larger a
    has a b at least as large, or the first point of its run of equal a
    has a larger b.  The b values are replaced by their ranks, offset by
    group, so one running maximum serves every group.
    """
    order = np.lexsort((-b, -a, group))
    group, a = group[order], a[order]
    rank = np.unique(b, return_inverse=True)[1][order] + 1
    base = group * (int(rank.max(initial=0)) + 1)
    # base + the best rank of the group so far, at every point
    best = np.maximum.accumulate(base + rank)
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (group[1:] != group[:-1]) | (a[1:] != a[:-1])
    first = np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    # the best rank of the group before each run, <= 0 when there is none
    prior = np.zeros(len(first), dtype=best.dtype)
    prior[1:] = best[first[1:] - 1] - base[first[1:]]
    dominated = (prior[run] >= rank) | (rank[first][run] > rank)
    flags = np.empty(len(order), dtype=bool)
    flags[order] = ~dominated
    return flags


def _pareto_flags(rate_tuples) -> np.ndarray:
    """Non-domination flags of (points, dims) rate rows, as a bool array: a
    point is flagged unless another point is at least as large in every
    dimension and larger in one, so equal points never dominate each other.

    `design_search` runs it only on the survivors of `_chain_front`'s
    levels.  Points are visited in descending lexicographic order, in
    blocks of `_PARETO_BLOCK` rows, so every point that dominates another
    is visited before it or in the same block.  Dominance is transitive, so a point is
    dominated exactly when a point of the front found so far or of its own
    block dominates it.  Each block is tested against both in one set of
    2-D comparisons, one dimension at a time, and its survivors join the
    front.
    """
    pts = np.asarray(rate_tuples, dtype=float)
    order = np.lexsort(-pts.T[::-1])
    ranked = pts[order].T  # (dims, points), best first
    rivals = np.empty_like(ranked)  # the front so far, then the block
    size = 0
    keep = np.empty(len(order), dtype=bool)
    for start in range(0, len(order), _PARETO_BLOCK):
        block = ranked[:, start:start + _PARETO_BLOCK]
        stop = size + block.shape[1]
        rivals[:, size:stop] = block
        ge = np.ones((stop, block.shape[1]), dtype=bool)
        gt = np.zeros_like(ge)
        for c, p in zip(rivals[:, :stop], block):
            ge &= c[:, None] >= p
            gt |= c[:, None] > p
        alive = ~(ge & gt).any(axis=0)
        keep[start:start + block.shape[1]] = alive
        survivors = block[:, alive]
        rivals[:, size:size + survivors.shape[1]] = survivors
        size += survivors.shape[1]
    flags = np.empty_like(keep)
    flags[order] = keep
    return flags
