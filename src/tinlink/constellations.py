"""Gray-labeled QAM constellations with exact energy and distance accounting.

Constellations are finite sets of complex amplitudes indexed by their integer
label value (bit string, most significant bit first).  Regular builds sit on a
rectangular grid of half-integer coordinates with spacing 1, so means,
energies, and distances are exact dyadic rationals in double precision.

Superposition composes regular grids per real dimension: the i-th component
is stretched by the number of grid levels that all earlier (stronger)
components occupy in that dimension.  When every component carries an even
number of bits this reduces to multiplying component i by sqrt(2**s_i) with
s_i the cumulative bit count, and the result is the familiar square QAM
nesting; the per-dimension rule extends the same exact tiling to odd orders.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

MAX_TOTAL_ORDER = 16

_STRUCTURE_TOL = 1e-9


class ConstellationError(ValueError):
    """Invalid constellation construction request."""


def gray_sequence(n_bits: int) -> np.ndarray:
    """Binary-reflected Gray code: grid position -> label value."""
    if n_bits < 0:
        raise ConstellationError("bit count must be non-negative")
    idx = np.arange(1 << n_bits)
    return idx ^ (idx >> 1)


def min_pairwise_distance(points: np.ndarray) -> float:
    """Exact minimum pairwise distance by chunked brute force."""
    pts = np.asarray(points, dtype=complex)
    n = pts.size
    if n < 2:
        return math.inf
    best = math.inf
    for lo in range(0, n, 512):
        chunk = pts[lo:lo + 512]
        d = np.abs(chunk[:, None] - pts[None, :])
        rows = np.arange(chunk.size)
        d[rows, lo + rows] = np.inf
        best = min(best, float(d.min()))
    return best


class _Constellation(NamedTuple):
    points: np.ndarray
    order: int
    d_min: float
    mean: complex
    energy: float


class LabeledConstellation(_Constellation):
    """Finite complex signal set with bit labels.

    ``points[v]`` is the amplitude whose label is the ``order``-bit binary
    expansion of ``v``, most significant bit first; construction makes
    ``points`` read-only.  Constellations compare and hash by identity, as
    comparing their point arrays has no truth value.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, points, order, d_min, mean, energy):
        points.setflags(write=False)
        return super().__new__(cls, points, order, d_min, mean, energy)

    @property
    def size(self) -> int:
        return self.points.size

    def min_pairwise_distance(self) -> float:
        return min_pairwise_distance(self.points)

    def is_gray(self, tol: float = 1e-9) -> bool:
        """True if every pair of points at distance d_min differs in one bit."""
        pts = self.points
        if pts.size > 4096:
            raise ConstellationError("gray scan limited to 4096 points")
        if pts.size < 2:
            return True
        d = np.abs(pts[:, None] - pts[None, :])
        ii, jj = np.nonzero(np.abs(d - self.d_min) <= tol * max(1.0, self.d_min))
        for a, b in zip(ii, jj):
            if a < b and ((int(a) ^ int(b)).bit_count() != 1):
                return False
        return True


def build_rect_qam(i_bits: int, q_bits: int) -> LabeledConstellation:
    """Regular Gray-labeled grid with 2**i_bits x 2**q_bits levels, spacing 1.

    The first ``i_bits`` label bits select the in-phase level, the remaining
    ``q_bits`` the quadrature level, each through a binary-reflected Gray code
    so that neighbouring levels differ in exactly one bit.
    """
    if i_bits < 0 or q_bits < 0:
        raise ConstellationError("bit counts must be non-negative")
    order = i_bits + q_bits
    if not 1 <= order <= MAX_TOTAL_ORDER:
        raise ConstellationError(f"order {order} outside [1, {MAX_TOTAL_ORDER}]")
    n_i, n_q = 1 << i_bits, 1 << q_bits
    lev_i = np.arange(n_i) - (n_i - 1) / 2
    lev_q = np.arange(n_q) - (n_q - 1) / 2
    gi = gray_sequence(i_bits)
    gq = gray_sequence(q_bits)
    pts = np.empty(n_i * n_q, dtype=complex)
    # position (pi, pq) carries label (gray(pi) << q_bits) | gray(pq)
    v = (gi[:, None] << q_bits) | gq[None, :]
    pts[v.ravel()] = (lev_i[:, None] + 1j * lev_q[None, :]).ravel()
    energy = float(np.mean(np.abs(pts) ** 2))
    return LabeledConstellation(
        points=pts,
        order=order,
        d_min=1.0,
        mean=complex(pts.mean()),
        energy=energy,
    )


def build_gray_qam(m: int) -> LabeledConstellation:
    """Regular Gray-labeled QAM of order m (2**m points), minimum distance 1.

    Even m gives square QAM; odd m the 2**ceil(m/2) x 2**floor(m/2) rectangle
    (wide in I), so per-dimension Gray labeling stays exact for all m.
    """
    if not 1 <= m <= MAX_TOTAL_ORDER:
        raise ConstellationError(f"modulation order {m} outside [1, {MAX_TOTAL_ORDER}]")
    return build_rect_qam((m + 1) // 2, m // 2)


def silent() -> LabeledConstellation:
    """Degenerate order-0 constellation: the single point 0 (no transmission)."""
    return LabeledConstellation(
        points=np.zeros(1, dtype=complex),
        order=0,
        d_min=math.inf,
        mean=0j,
        energy=0.0,
    )


def scale(c: LabeledConstellation, g: complex) -> LabeledConstellation:
    """Multiply every point by g; energy scales by |g|**2.  No command
    calls it: it stays only because `bench/layers.py` wraps it by name."""
    g = complex(g)
    if g == 0:
        raise ConstellationError("scale factor must be non-zero")
    return LabeledConstellation(
        points=c.points * g,
        order=c.order,
        d_min=c.d_min * abs(g),
        mean=c.mean * g,
        energy=c.energy * abs(g) ** 2,
    )


def grid_energy(i_bits: int, q_bits: int) -> float:
    """Average energy of the unit-spacing rectangular grid with the given bits."""
    return ((4.0 ** i_bits - 1.0) + (4.0 ** q_bits - 1.0)) / 12.0


def normalization_factor(total_order: int) -> float:
    """Scale that gives a unit-d_min square QAM of the given order unit energy.

    Returns sqrt(6 / (2**total_order - 1)); exact for the square grids that
    arise whenever the order splits evenly between the two dimensions.  No
    command calls it: it stays only because `bench/layers.py` wraps it.
    """
    if not 1 <= total_order <= MAX_TOTAL_ORDER:
        raise ConstellationError(
            f"total order {total_order} outside [1, {MAX_TOTAL_ORDER}]")
    return math.sqrt(6.0 / (2.0 ** total_order - 1.0))


def _grid_structure(points: np.ndarray, tol: float = _STRUCTURE_TOL) -> tuple[int, int]:
    """Level counts (I, Q) of a unit-spacing rectangular grid, else raise."""
    pts = np.asarray(points, dtype=complex)
    re = pts.real - pts.real.min()
    im = pts.imag - pts.imag.min()
    pi = np.rint(re)
    pq = np.rint(im)
    if np.max(np.abs(re - pi)) > tol or np.max(np.abs(im - pq)) > tol:
        raise ConstellationError("points are not on a unit-spacing grid")
    n_i = int(pi.max()) + 1
    n_q = int(pq.max()) + 1
    if n_i * n_q != pts.size:
        raise ConstellationError("points do not fill a full rectangle")
    codes = (pi.astype(np.int64) * n_q + pq.astype(np.int64))
    if np.unique(codes).size != pts.size:
        raise ConstellationError("duplicate grid positions")
    return n_i, n_q


def superposition_factors(shapes: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Per-component (I, Q) stretch factors: products of earlier level counts."""
    factors = []
    fi = fq = 1
    for n_i, n_q in shapes:
        factors.append((fi, fq))
        fi *= n_i
        fq *= n_q
    return factors


def superimpose(parts: Sequence[LabeledConstellation]) -> LabeledConstellation:
    """Superimpose regular unit-d_min parts, strongest first.

    Component i is stretched per dimension by the number of levels the earlier
    components occupy there, which tiles the grid exactly: the result is a
    regular QAM with 2**(sum of orders) points, zero mean, and d_min 1.
    Labels are concatenated with the first (strongest) part's bits most
    significant.
    """
    if not parts:
        raise ConstellationError("superimpose requires at least one part")
    total = sum(p.order for p in parts)
    if total > MAX_TOTAL_ORDER:
        raise ConstellationError(
            f"cumulative order {total} exceeds {MAX_TOTAL_ORDER}")
    shapes = []
    for p in parts:
        if p.order == 0:
            shapes.append((1, 1))
            continue
        if abs(p.mean) > 1e-9:
            raise ConstellationError("parts must have zero mean")
        shapes.append(_grid_structure(p.points))
    if len(parts) == 1:
        return parts[0]
    factors = superposition_factors(shapes)
    acc = np.zeros(1, dtype=complex)
    for part, (fi, fq) in zip(parts, factors):
        comp = fi * part.points.real + 1j * (fq * part.points.imag)
        acc = (acc[:, None] + comp[None, :]).ravel()
    if total == 0:
        return silent()
    return LabeledConstellation(
        points=acc,
        order=total,
        d_min=1.0,
        mean=complex(acc.mean()),
        energy=float(np.mean(np.abs(acc) ** 2)),
    )
