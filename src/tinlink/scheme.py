"""Transmission-plan construction for the superimposed downlink frame.

A system spec (blocklengths, error targets, channels, total power) is turned
into a validated plan: sub-block layout, modulation-order feasibility, the
two-layer power assignment, per-user symbol scales, bit mapping, and frame
synthesis.  The power rule is the balanced one: every sub-block of the
superimposed frame carries the full per-symbol power budget, which fixes all
per-user sub-block powers once the modulation orders are known.

Only channel magnitudes enter plan construction, so plans are invariant to a
common phase rotation of the channel coefficients.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rates
from .constellations import (
    MAX_TOTAL_ORDER,
    ConstellationError,
    LabeledConstellation,
    build_rect_qam,
    grid_energy,
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
        bad = [r for r in report.rows if not r.passed]
        super().__init__(f"{len(bad)} constraint(s) violated")


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

@dataclass(frozen=True)
class UserSpec:
    """One receiver: symbol budget N, error target eps, complex channel h."""

    N: int
    eps: float
    h: complex


@dataclass(frozen=True)
class SystemSpec:
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
        for u in users:
            if u.N <= 0:
                raise SpecError("blocklengths must be positive")
            if not 0.0 < u.eps < 0.5:
                raise SpecError(f"error target {u.eps} outside (0, 0.5)")
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

@dataclass(frozen=True)
class SubBlock:
    """Symbol range over which the active-user set is constant."""

    index: int
    start: int
    stop: int
    participants: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class SubBlockLayout:
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


@dataclass(frozen=True)
class ConstraintRow:
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


@dataclass(frozen=True)
class FeasibilityReport:
    rows: tuple[ConstraintRow, ...]
    feasible: bool

    def violations(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if not r.passed)


def _normalize_orders(orders, K: int) -> tuple[tuple[int, ...], ...]:
    rows = []
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
        rows.append(row)
    return tuple(rows)


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


def _sub_block_rows(mv: Sequence[int], ranks: Sequence[int], sub_block: int,
                    spec: SystemSpec) -> list[ConstraintRow]:
    """Feasibility rows for one sub-block's rank-ordered order vector."""
    rows = []
    S = spec.P
    total = sum(mv)
    for i, user in enumerate(ranks):
        suffix = sum(mv[i:])
        snr6 = 6.0 * S * abs(spec.users[user].h) ** 2
        arg = 1.0 + snr6 if i == 0 else snr6
        rhs = math.floor(math.log2(arg)) if arg > 0 else -math.inf
        passed = suffix == 0 or suffix <= rhs
        rows.append(ConstraintRow(
            kind="order_sum", sub_block=sub_block, rank=i, user=user,
            lhs=float(suffix), rhs=float(rhs), slack=float(rhs - suffix),
            passed=passed))
    if total >= 1:
        shapes, factors, eta = sub_block_geometry(mv)
        eta_sq = eta * eta
        d_sup = eta_sq * S * abs(spec.users[ranks[0]].h) ** 2
        rows.append(ConstraintRow(
            kind="superimposed_distance", sub_block=sub_block, rank=0,
            user=ranks[0], lhs=d_sup, rhs=1.0, slack=d_sup - 1.0,
            passed=d_sup >= 1.0 - DMIN_TOL))
        for i, user in enumerate(ranks):
            if mv[i] == 0:
                continue
            a, b = shapes[i]
            fi, fq = factors[i]
            active = [fi * fi] if b == 0 else (
                [fq * fq] if a == 0 else [fi * fi, fq * fq])
            d_ind = eta_sq * S * abs(spec.users[user].h) ** 2 * min(active)
            rows.append(ConstraintRow(
                kind="min_distance", sub_block=sub_block, rank=i, user=user,
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
    orders = _normalize_orders(orders, spec.K)
    rows: list[ConstraintRow] = []
    for sb in layout.sub_blocks:
        if sb.length == 0:
            continue
        mv = [orders[u][sb.index] for u in sb.ranks]
        rows.extend(_sub_block_rows(mv, sb.ranks, sb.index, spec))
    return FeasibilityReport(rows=tuple(rows),
                             feasible=all(r.passed for r in rows))


# ---------------------------------------------------------------------------
# Power assignment and the transmission plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    """One user's modulation inside one sub-block, after power assignment.

    amp_i / amp_q are the full per-dimension amplitudes applied to the unit
    constellation (normalizer, sub-block power, and superposition stretch
    included); they are equal whenever the stacking is evenly balanced, in
    which case the entry reduces to one complex scale.
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


@dataclass
class SchemePlan:
    """Validated transmission plan for one system spec."""

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

    def parts(self, sub_block: int
              ) -> dict[int, tuple[tuple[int, int], float, float]]:
        """(shape, amp_i, amp_q) of each participant, in user order."""
        entries = (self.entries[(u, sub_block)]
                   for u in self.layout.sub_blocks[sub_block].participants)
        return {e.user: (e.shape, e.amp_i, e.amp_q) for e in entries}

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
    """Rebuild a plan from its JSON form, verifying the stored derived values."""
    try:
        if data["schema_version"] != 1:
            raise SpecError(f"unsupported schema_version {data['schema_version']}")
        spec = SystemSpec.from_dict(data["system"])
        orders = data["orders"]
        plan = assign_power(orders, spec)
        stored_eta = [float(x) for x in data["eta"]]
        stored_n = [int(x) for x in data["codeword_lengths"]]
    except (KeyError, TypeError, IndexError, InfeasiblePlanError) as exc:
        raise SpecError(f"malformed plan file: {exc}") from exc
    if len(stored_eta) != len(plan.eta) or any(
            abs(a - b) > 1e-9 * max(1.0, abs(b))
            for a, b in zip(stored_eta, plan.eta)):
        raise SpecError("plan file normalization factors are inconsistent")
    if tuple(stored_n) != plan.codeword_lengths:
        raise SpecError("plan file codeword lengths are inconsistent")
    return plan


def assign_power(orders, spec: SystemSpec,
                 layout: SubBlockLayout | None = None, *,
                 check: bool = True) -> SchemePlan:
    """Two-layer power assignment under the balanced sub-block rule.

    Layer one stretches co-scheduled constellations into one regular
    superimposed QAM per sub-block; layer two normalizes each superimposed
    sub-block to unit energy and scales it to the full power budget, so the
    frame's expected per-symbol power equals P wherever anyone transmits.
    The resulting per-user sub-block power of rank i is
    2^{s_i} (2^{m_i} - 1) / (2^{sum m} - 1) * P with s_i the bits of the
    stronger ranks, whenever the stacking is evenly balanced.
    """
    layout = layout or build_layout(spec)
    orders = _normalize_orders(orders, spec.K)
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
        for rank, (user, (shape, amp_i, amp_q)) in enumerate(
                zip(sb.ranks, sub_block_parts(mv, spec.P))):
            fi, fq = factors[rank]
            part = silent() if mv[rank] == 0 else build_rect_qam(*shape)
            tx = amp_i * part.points.real + 1j * (amp_q * part.points.imag)
            entries[(user, sb.index)] = PlanEntry(
                user=user, sub_block=sb.index, order=mv[rank], rank=rank,
                shape=shape, part=part, factor_i=fi, factor_q=fq,
                amp_i=amp_i, amp_q=amp_q, tx_points=tx,
                power=float(np.mean(np.abs(tx) ** 2)))
    n_k = codeword_lengths(orders, layout)
    return SchemePlan(spec=spec, layout=layout, orders=orders,
                      entries=entries, eta=tuple(etas),
                      sub_block_power=tuple(powers),
                      codeword_lengths=n_k)


@dataclass(frozen=True)
class MinDistanceRow:
    user: int
    sub_block: int
    kind: str
    d_min: float
    ok: bool


def verify_min_distances(plan: SchemePlan, spec: SystemSpec | None = None
                         ) -> tuple[MinDistanceRow, ...]:
    """Effective minimum distances after channel effects.

    For each active sub-block: the superimposed constellation through the
    strongest participant's channel, and every transmitting user's own scaled
    constellation through its own channel.  Feasible plans keep all of these
    at or above 1 (up to 1e-9).  Passing a spec overrides the channels, e.g.
    to probe scaled-channel behaviour with an existing plan.
    """
    spec = spec or plan.spec
    if spec.K != plan.spec.K:
        raise SpecError("override spec must have the same user count")
    rows = []
    for sb in plan.layout.sub_blocks:
        if sb.length == 0 or plan.sub_block_power[sb.index] == 0:
            continue
        root = plan.eta[sb.index] * math.sqrt(plan.sub_block_power[sb.index])
        strongest = sb.ranks[0]
        d_sup = abs(spec.users[strongest].h) * root
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
            d_ind = abs(spec.users[user].h) * min(amps)
            rows.append(MinDistanceRow(
                user=user, sub_block=sb.index, kind="individual",
                d_min=d_ind, ok=d_ind >= 1.0 - DMIN_TOL))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Bit mapping and frame synthesis
# ---------------------------------------------------------------------------

def codeword_lengths(orders, layout: SubBlockLayout) -> tuple[int, ...]:
    """n_k = sum over sub-blocks of (sub-block length) * (order there)."""
    return _codeword_bits(_normalize_orders(orders, len(layout.sub_blocks)),
                          layout)


def _codeword_bits(orders: tuple[tuple[int, ...], ...],
                   layout: SubBlockLayout) -> tuple[int, ...]:
    """`codeword_lengths` of an order matrix already normalized."""
    return tuple(sum(sb.length * row[sb.index]
                     for sb in layout.sub_blocks[:k + 1])
                 for k, row in enumerate(orders))


def map_bits(bits, user: int, plan: SchemePlan) -> np.ndarray:
    """Map a user's interleaved codeword onto its unit-energy symbol vector.

    Consecutive groups of m_{k,j} bits (most significant first) select points
    of the sub-block-j constellation by Gray label; the output has one
    complex symbol per transmit slot and unit grid spacing (power is applied
    by build_frame).
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    n_k = plan.codeword_lengths[user]
    if bits.size != n_k:
        raise SpecError(f"user {user} expects {n_k} bits, got {bits.size}")
    segments = []
    pos = 0
    for sb in plan.layout.sub_blocks[:user + 1]:
        entry = plan.entries[(user, sb.index)]
        m = entry.order
        if sb.length == 0:
            continue
        if m == 0:
            segments.append(np.zeros(sb.length, dtype=complex))
            continue
        take = sb.length * m
        seg = bits[pos:pos + take].reshape(sb.length, m)
        pos += take
        weights = 1 << np.arange(m - 1, -1, -1)
        idx = seg @ weights
        segments.append(entry.part.points[idx])
    return np.concatenate(segments) if segments else np.zeros(0, dtype=complex)


def build_frame(symbols: Mapping[int, np.ndarray], plan: SchemePlan
                ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Apply the power assignment and superimpose all users' packets.

    symbols maps each user to its unit symbol vector (from map_bits). Returns
    the length-N_K superimposed frame x and each user's power-scaled packet.
    """
    n_total = plan.layout.boundaries[-1]
    x = np.zeros(n_total, dtype=complex)
    packets: dict[int, np.ndarray] = {}
    for user in range(plan.spec.K):
        v = np.asarray(symbols[user], dtype=complex)
        n_user = plan.spec.users[user].N
        if v.size != n_user:
            raise SpecError(f"user {user} symbol vector must have {n_user} entries")
        xk = np.empty(n_user, dtype=complex)
        for sb in plan.layout.sub_blocks[:user + 1]:
            entry = plan.entries[(user, sb.index)]
            seg = v[sb.start:sb.stop]
            xk[sb.start:sb.stop] = (entry.amp_i * seg.real
                                    + 1j * (entry.amp_q * seg.imag))
        packets[user] = xk
        x[:n_user] += xk
    return x, packets


# ---------------------------------------------------------------------------
# Design search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignCandidate:
    orders: tuple[tuple[int, ...], ...]
    rate_result: rates.RateResult
    weighted_sum: float
    info_bits: tuple[int, ...]
    codeword_bits: tuple[int, ...]
    pareto: bool
    min_order_slack: float  # least order_sum row slack (inf if none)


@dataclass(frozen=True)
class DesignSearchResult:
    candidates: tuple[DesignCandidate, ...]
    explanation: str | None = None


def _enumerate_rank_vectors(ranks, sub_block, spec, cap):
    """All feasible rank-order vectors for one sub-block, budget included,
    in lexicographic order."""
    return [mv for mv in itertools.product(range(cap + 1), repeat=len(ranks))
            if sum(mv) <= cap and all(
                r.passed for r in _sub_block_rows(mv, ranks, sub_block, spec))]


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
    and none is Pareto-filtered.  A user's (I, V) in a sub-block depends only
    on that sub-block's rank-order vector, so the kernel fills one table keyed
    by (sub-block, rank-order vector, user).  A (sub-blocks, candidates)
    index holds each candidate's vector positions; a search takes it from
    the product grid of the vector counts, in `itertools.product` order,
    without the all-silent row.  The table is gathered through it into
    per-user (candidates, sub-blocks) I and V arrays, and one combiner pass
    gives every candidate's rates; no plan is built, and rank vectors and
    rate results are packaged only for the candidates returned.
    Candidates are sorted by descending weighted sum, ties broken by the
    lexicographically smaller order matrix.
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
        matrices = [_normalize_orders(o, spec.K) for o in orders]
        # position of each listed vector in its sub-block's `vectors` list
        seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(spec.K)]
        rows = [[s.setdefault(tuple(o[u][sb.index] for u in sb.ranks), len(s))
                 for s, sb in zip(seen, layout.sub_blocks)]
                for o in matrices
                if check_modulation_constraints(o, spec, layout).feasible]
        vectors = [list(s) for s in seen]
        index = np.array(rows, dtype=np.intp).reshape(-1, spec.K).T
        none_left = "no feasible plan among the configured order matrices"
    else:
        vectors = []
        for sb in layout.sub_blocks:
            if sb.length == 0:
                vectors.append([(0,) * len(sb.ranks)])
                continue
            # larger sums have no constellation
            found = _enumerate_rank_vectors(
                sb.ranks, sb.index, spec,
                min(max_sub_block_order, MAX_TOTAL_ORDER))
            if not found:
                return DesignSearchResult(
                    candidates=(),
                    explanation=(f"no feasible order vector for sub-block "
                                 f"{sb.index} under the modulation constraints"))
            vectors.append(found)
        # every combination of one vector per sub-block, in product order,
        # but the all-silent one
        index = np.indices([len(v) for v in vectors]).reshape(spec.K, -1)
        silent = np.logical_and.reduce([
            np.array([not any(mv) for mv in v])[index[j]]
            for j, v in enumerate(vectors)])
        index = index[:, ~silent]
        none_left = ("only the all-silent order matrix is feasible "
                     "at this power budget")
    if not index.size:
        return DesignSearchResult(candidates=(), explanation=none_left)

    # one kernel call per (sub-block, rank-order vector, user); index[j, i]
    # is candidate i's position in vectors[j], and order_slack[j][mv] the
    # least order_sum slack of vector mv in non-empty sub-block j
    table = {}
    order_slack = []
    for sb, found in zip(layout.sub_blocks, vectors):
        order_slack.append({mv: min(
            r.slack for r in _sub_block_rows(mv, sb.ranks, sb.index, spec)
            if r.kind == "order_sum") for mv in found} if sb.length else {})
        for mv in found:
            by_rank = dict(zip(sb.ranks, sub_block_parts(mv, spec.P)))
            parts = {u: by_rank[u] for u in sb.participants}
            for m, user in zip(mv, sb.ranks):
                if sb.length and m:
                    table[(sb.index, mv, user)] = rates.sub_block_stats(
                        abs(spec.users[user].h), parts, user)

    def stats_of(k, j, mv):
        return table.get((j, mv, k), rates.ZERO_STATS)

    def gathered(k, field):
        return np.stack([np.array([getattr(stats_of(k, j, mv), field)
                                   for mv in vectors[j]])[index[j]]
                         for j in range(k + 1)], axis=-1)

    user_rates = rates.second_order_rates(
        spec, layout, [gathered(k, "mi") for k in range(spec.K)],
        [gathered(k, "dispersion") for k in range(spec.K)])

    n = index.shape[1]
    if orders is not None:
        pareto_flags = np.ones(n, dtype=bool)
    else:
        pareto_flags = np.array(_pareto_flags(
            user_rates, [k for k in range(spec.K) if weights[k] > 0]))
    returned = np.flatnonzero(pareto_flags) if pareto_only else np.arange(n)
    candidates = []
    for positions, row, is_pareto in zip(index[:, returned].T.tolist(),
                                         user_rates[returned].tolist(),
                                         pareto_flags[returned].tolist()):
        combo = [vectors[j][p] for j, p in enumerate(positions)]
        result = rates.rate_result(spec, layout, [
            [stats_of(k, j, combo[j]) for j in range(k + 1)]
            for k in range(spec.K)], row)
        matrix = _orders_from_rank_vectors(combo, layout, spec.K)
        ws = sum(w * r for w, r in zip(weights, result.rates))
        info = tuple(max(0, math.floor(u.rate * u.n_symbols))
                     for u in result.users)
        candidates.append(DesignCandidate(
            orders=matrix, rate_result=result, weighted_sum=ws,
            info_bits=info, codeword_bits=_codeword_bits(matrix, layout),
            pareto=is_pareto, min_order_slack=min(
                (order_slack[j][mv] for j, mv in enumerate(combo)
                 if order_slack[j]), default=math.inf)))
    candidates.sort(key=lambda c: (-c.weighted_sum, _flat(c.orders)))
    return DesignSearchResult(candidates=tuple(candidates))


def _flat(orders) -> tuple[int, ...]:
    return tuple(m for row in orders for m in row)


def _orders_from_rank_vectors(combo, layout, K):
    rows = [[0] * (k + 1) for k in range(K)]
    for sb, vec in zip(layout.sub_blocks, combo):
        for rank, user in enumerate(sb.ranks):
            rows[user][sb.index] = vec[rank]
    return tuple(tuple(r) for r in rows)


def _pareto_flags(rate_tuples, dims) -> list[bool]:
    """Non-domination flags over the given rate dimensions: a point is
    flagged unless another point is at least as large in every dimension
    and larger in one, so equal points never dominate each other.

    Points are visited in descending lexicographic order, in blocks of
    `_PARETO_BLOCK` rows, so every point that dominates another is visited
    before it or in the same block.  Dominance is transitive, so a point is
    dominated exactly when a point of the front found so far or of its own
    block dominates it.  Each block is tested against both in one set of
    2-D comparisons, one dimension at a time, and its survivors join the
    front.
    """
    pts = np.asarray(rate_tuples, dtype=float)[:, list(dims)]
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
    return flags.tolist()
