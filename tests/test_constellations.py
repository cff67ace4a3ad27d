"""Constellation construction, scaling, superposition, and power concentration."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinlink.constellations import (
    ConstellationError,
    build_gray_qam,
    build_rect_qam,
    grid_energy,
    min_pairwise_distance,
    normalization_factor,
    scale,
    silent,
    superimpose,
    superposition_factors,
)


def pam_energy(levels: int) -> float:
    # unit-spacing PAM with `levels` levels, centred at zero
    return (levels ** 2 - 1) / 12.0


def brute_force_min_distance(points) -> float:
    best = math.inf
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, abs(pts[i] - pts[j]))
    return best


class TestBuildGrayQam:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_cardinality_mean_dmin(self, m):
        c = build_gray_qam(m)
        assert c.size == 2 ** m
        assert len(set(map(tuple, zip(c.points.real, c.points.imag)))) == 2 ** m
        assert abs(c.mean) < 1e-12
        assert c.d_min == 1.0

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_even_order_energy_identity(self, m):
        c = build_gray_qam(m)
        assert abs(c.energy - (2 ** m - 1) / 6.0) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_odd_order_energy_is_rectangular(self, m):
        c = build_gray_qam(m)
        expected = pam_energy(2 ** ((m + 1) // 2)) + pam_energy(2 ** (m // 2))
        assert abs(c.energy - expected) <= 1e-12

    def test_bpsk(self):
        c = build_gray_qam(1)
        assert sorted(c.points.real.tolist()) == [-0.5, 0.5]
        assert np.all(c.points.imag == 0)
        assert abs(c.energy - 0.25) <= 1e-12

    def test_4qam(self):
        c = build_gray_qam(2)
        got = sorted((p.real, p.imag) for p in c.points)
        want = sorted([(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)])
        assert got == pytest.approx(want)
        assert abs(c.energy - 0.5) <= 1e-12

    def test_16qam_energy(self):
        assert abs(build_gray_qam(4).energy - 2.5) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 9))
    def test_min_distance_exactly_one(self, m):
        assert abs(build_gray_qam(m).min_pairwise_distance() - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 9))
    def test_gray_adjacency(self, m):
        assert build_gray_qam(m).is_gray()

    def test_labels_match_indices(self):
        # points[v] carries the label v, most significant bit first: its
        # first two bits Gray-select the I level and the last the Q level
        c = build_gray_qam(3)
        gray = [p ^ (p >> 1) for p in range(4)]
        for v, x in enumerate(c.points.tolist()):
            assert gray[round(x.real + 1.5)] == v >> 1
            assert gray[round(x.imag + 0.5)] == v & 1

    @pytest.mark.parametrize("m", [0, -1, 17])
    def test_order_out_of_range(self, m):
        with pytest.raises(ConstellationError):
            build_gray_qam(m)


class TestScale:
    def test_energy_and_distance(self):
        c = scale(build_gray_qam(2), math.sqrt(2))
        assert abs(c.energy - 1.0) <= 1e-12
        assert abs(c.d_min - math.sqrt(2)) <= 1e-12

    def test_identity(self):
        base = build_gray_qam(2)
        c = scale(base, 1)
        assert np.array_equal(c.points, base.points)

    def test_rotation_preserves_norms(self):
        c = scale(build_gray_qam(2), 1j)
        assert abs(c.energy - 0.5) <= 1e-12
        assert abs(c.d_min - 1.0) <= 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ConstellationError):
            scale(build_gray_qam(2), 0)


class TestSuperimpose:
    def test_two_4qam_gives_16qam(self):
        comp = superimpose([build_gray_qam(2), build_gray_qam(2)])
        ref = build_gray_qam(4)
        assert comp.size == 16
        assert comp.d_min == 1.0
        got = np.sort_complex(comp.points)
        want = np.sort_complex(ref.points)
        assert np.allclose(got, want, atol=1e-12)

    def test_4qam_and_16qam(self):
        comp = superimpose([build_gray_qam(2), build_gray_qam(4)])
        assert comp.size == 64
        # independent exhaustive pairwise check over all 64*63/2 pairs
        assert abs(brute_force_min_distance(comp.points) - 1.0) <= 1e-12
        assert abs(comp.energy - 63.0 / 6.0) <= 1e-12
        assert abs(comp.mean) < 1e-12

    def test_single_part_is_identity(self):
        base = build_gray_qam(2)
        assert superimpose([base]) is base

    def test_matches_scalar_scaling_when_balanced(self):
        # even-order parts: the per-dimension rule equals scaling the weaker
        # part by sqrt(2**m_strong)
        strong, weak = build_gray_qam(2), build_gray_qam(4)
        comp = superimpose([strong, weak])
        direct = (strong.points[:, None]
                  + math.sqrt(2 ** 2) * weak.points[None, :]).ravel()
        assert np.allclose(comp.points, direct, atol=1e-12)

    def test_label_concatenation_strongest_first(self):
        strong, weak = build_gray_qam(1), build_gray_qam(2)
        comp = superimpose([strong, weak])
        factors = superposition_factors([(2, 1), (2, 2)])
        for v in range(8):
            v1, v2 = v >> 2, v & 3
            fi, fq = factors[1]
            expected = (strong.points[v1]
                        + fi * weak.points[v2].real
                        + 1j * fq * weak.points[v2].imag)
            assert comp.points[v] == pytest.approx(expected)

    def test_cumulative_order_cap(self):
        with pytest.raises(ConstellationError):
            superimpose([build_gray_qam(10), build_gray_qam(10)])

    def test_rejects_non_unit_grid(self):
        stretched = scale(build_gray_qam(2), 2)
        with pytest.raises(ConstellationError):
            superimpose([stretched, build_gray_qam(2)])

    def test_rejects_rotated_grid(self):
        rotated = scale(build_gray_qam(2), complex(math.cos(0.7), math.sin(0.7)))
        with pytest.raises(ConstellationError):
            superimpose([rotated, build_gray_qam(2)])

    def test_silent_part_is_transparent(self):
        comp = superimpose([build_gray_qam(2), silent(), build_gray_qam(2)])
        ref = superimpose([build_gray_qam(2), build_gray_qam(2)])
        got = np.sort_complex(comp.points)
        assert np.allclose(got, np.sort_complex(ref.points), atol=1e-12)

    def test_twelve_bit_composition_brute_force(self):
        comp = superimpose([build_gray_qam(4)] * 3)
        assert comp.size == 4096
        assert min_pairwise_distance(comp.points) >= 1.0 - 1e-12
        assert abs(comp.energy - (2 ** 12 - 1) / 6.0) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                    max_size=4).filter(lambda ms: 1 <= sum(ms) <= 10))
    def test_random_compositions_tile_exactly(self, orders):
        parts = [silent() if m == 0 else build_gray_qam(m) for m in orders]
        comp = superimpose(parts)
        total = sum(orders)
        assert comp.size == 2 ** total
        pts = np.round(comp.points.real, 9) + 1j * np.round(comp.points.imag, 9)
        assert np.unique(pts).size == 2 ** total
        if comp.size > 1:
            assert min_pairwise_distance(comp.points) >= 1.0 - 1e-12
        assert abs(comp.mean) < 1e-12


class TestNormalizationFactor:
    def test_values(self):
        assert normalization_factor(2) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert normalization_factor(6) == pytest.approx(math.sqrt(6 / 63), abs=1e-15)
        assert normalization_factor(1) == pytest.approx(math.sqrt(6), abs=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_unit_energy_after_scaling(self, m):
        c = scale(build_gray_qam(m), normalization_factor(m))
        assert abs(c.energy - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [0, 17])
    def test_out_of_range(self, t):
        with pytest.raises(ConstellationError):
            normalization_factor(t)

    def test_grid_energy_matches_builds(self):
        for i_bits, q_bits in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
            c = build_rect_qam(i_bits, q_bits)
            assert abs(c.energy - grid_energy(i_bits, q_bits)) <= 1e-12


class TestPowerConcentration:
    """Empirical codeword power exceeds its mean by eps at most with the
    Bernstein frequency exp(-n eps^2 / (2 (sigma^2 + M eps / 3)))."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_bernstein_bound(self, n):
        c = scale(build_gray_qam(4), normalization_factor(4))
        energies = np.abs(c.points) ** 2
        sigma_sq = float(np.mean((energies - 1.0) ** 2))
        m_max = float(energies.max())
        eps = 0.5
        bound = math.exp(-n * eps ** 2 / (2.0 * (sigma_sq + m_max * eps / 3.0)))
        rng = np.random.default_rng(2024)
        trials = 1_000_000
        exceed = 0
        chunk = 50_000
        for lo in range(0, trials, chunk):
            take = min(chunk, trials - lo)
            draws = rng.choice(energies, size=(take, n))
            exceed += int(np.count_nonzero(draws.mean(axis=1) >= 1.0 + eps))
        assert exceed / trials <= bound
