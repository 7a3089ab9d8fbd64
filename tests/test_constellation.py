import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcrate.constellation import (equal_power_psk_amplitude, explicit_constellation,
                                   mask_constellation, mpsk_constellation)


class TestMaskConstellation:
    def test_binary(self):
        c = mask_constellation(2, 0.0)
        assert c.points == (0j, 1 + 0j)
        assert c.order == 2

    def test_phase_pi_flips_sign(self):
        c = mask_constellation(4, math.pi)
        for got, amp in zip(c.points, (0.0, 1 / 3, 2 / 3, 1.0)):
            assert got == pytest.approx(-amp, abs=1e-15)

    def test_quadrature_phase(self):
        c = mask_constellation(3, math.pi / 2)
        for got, want in zip(c.points, (0.0, 0.5j, 1.0j)):
            assert got == pytest.approx(want, abs=1e-15)

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            mask_constellation(1, 0.0)

    @given(m=st.integers(2, 64), phi=st.floats(-10.0, 10.0))
    @settings(max_examples=60)
    def test_points_collinear_through_origin(self, m, phi):
        c = mask_constellation(m, phi)
        direction = cmath.exp(1j * phi)
        for p in c.points:
            # p / e^{j phi} must be real and non-negative
            ratio = p * direction.conjugate()
            assert abs(ratio.imag) < 1e-12
            assert ratio.real >= -1e-12
        assert max(abs(p) for p in c.points) <= 1.0 + 1e-12


class TestMpskConstellation:
    def test_binary_ring(self):
        c = mpsk_constellation(2, 0.9, 0.0)
        assert c.points[0] == pytest.approx(0.9)
        assert c.points[1] == pytest.approx(-0.9, abs=1e-15)

    def test_qpsk_axes(self):
        c = mpsk_constellation(4, 1.0, 0.0)
        for got, want in zip(c.points, (1, 1j, -1, -1j)):
            assert got == pytest.approx(want, abs=1e-15)

    def test_eight_points_direct_evaluation(self):
        c = mpsk_constellation(8, 0.5, math.pi / 8)
        for k, p in enumerate(c.points):
            want = 0.5 * cmath.exp(1j * (math.pi / 8 + 2 * math.pi * k / 8))
            assert p == pytest.approx(want, abs=1e-15)

    def test_base_phase_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="base phase"):
            mpsk_constellation(4, 0.9, math.pi / 2)  # limit is 2pi/4

    def test_amplitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mpsk_constellation(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            mpsk_constellation(4, 1.2, 0.0)

    @given(m=st.integers(2, 64), alpha=st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_points_on_common_ring(self, m, alpha):
        phi = 0.3 * (2 * math.pi / m)
        c = mpsk_constellation(m, alpha, phi)
        for p in c.points:
            assert abs(p) == pytest.approx(alpha, rel=1e-12)


class TestPower:
    def test_binary_amplitude_grid(self):
        assert np.mean(np.abs(mask_constellation(2, 0.0).points) ** 2) == pytest.approx(0.5)

    def test_ternary_amplitude_grid(self):
        power = np.mean(np.abs(mask_constellation(3, 1.0).points) ** 2)
        assert power == pytest.approx(5.0 / 12.0)

    @given(m=st.integers(2, 32), alpha=st.floats(0.05, 1.0), frac=st.floats(0.0, 0.99))
    @settings(max_examples=60)
    def test_ring_power_independent_of_phase_and_order(self, m, alpha, frac):
        c = mpsk_constellation(m, alpha, frac * 2 * math.pi / m)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(alpha * alpha, rel=1e-12)

    def test_equal_power_amplitudes(self):
        assert equal_power_psk_amplitude(2) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert equal_power_psk_amplitude(3) == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-12)

    def test_equal_power_large_order_limit(self):
        # Continuous uniform amplitude on [0, 1] has mean square 1/3.
        assert equal_power_psk_amplitude(100000) == pytest.approx(math.sqrt(1.0 / 3.0),
                                                                  abs=1e-5)

    def test_equal_power_matches_grid_power(self):
        for m in (2, 3, 4, 8, 17):
            alpha = equal_power_psk_amplitude(m)
            mask_p = np.mean(np.abs(mask_constellation(m, 0.0).points) ** 2)
            psk_p = np.mean(np.abs(mpsk_constellation(m, alpha, 0.0).points) ** 2)
            assert psk_p == pytest.approx(mask_p, rel=1e-12)


class TestExplicit:
    def test_arbitrary_points(self):
        c = explicit_constellation([0.0, 0.3 + 0.1j, -0.5j])
        assert c.order == 3

    def test_passivity_enforced(self):
        with pytest.raises(ValueError, match="passivity"):
            explicit_constellation([1.5])
