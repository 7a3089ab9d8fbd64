import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sbcrate.channel import ChannelTriple, SystemParams
from sbcrate.constellation import (explicit_constellation, mask_constellation, mask_points,
                                   mpsk_constellation, mpsk_points)
from sbcrate.phase_opt import optimal_phase
from sbcrate.pt_rate import (max_pt_rate_ask, max_pt_rate_psk, pt_rate, pt_rate_ask_infinite,
                             pt_rate_no_bd, pt_rate_psk_infinite)

from .conftest import channel_from_polar, psk_infinite_50_digits

TWO_PI = 2.0 * math.pi
UNIT_SYS = SystemParams(power_w=1.0, noise_w=1.0, spread=1)


def pt_rate_finite_expanded(sys, ch, c):
    """Independent oracle: the finite-order rate through the expanded cosine form.

    Each term uses |h1|^2 + |h2 h3 Gamma_m|^2 + 2 |h1||h2||h3| alpha_m
    cos(theta0 + phi_m).
    """
    rho = sys.snr_scale
    a1, a23, theta0 = ch.a1, ch.a23, ch.theta0
    acc = 0.0
    for p in c.points:
        am = abs(p)
        phim = math.atan2(p.imag, p.real)
        snr = rho * (a1**2 + (a23 * am) ** 2
                     + 2.0 * a1 * a23 * am * math.cos(theta0 + phim))
        acc += math.log1p(snr)
    return acc / (c.order * math.log(2.0))


def ask_infinite_quadrature(sys, ch, phi0):
    """Independent oracle: adaptive quadrature of the defining integral."""
    rho = sys.snr_scale
    h23 = ch.h2 * ch.h3
    rot = complex(math.cos(phi0), math.sin(phi0))
    val, _ = quad(lambda a: math.log2(1.0 + rho * abs(ch.h1 + h23 * a * rot) ** 2),
                  0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def ask_infinite_mp(sys, ch, phi0, digits: int = 50) -> float:
    """Independent oracle: the defining integral at `digits` digits on the exact double inputs.

    The SNR rho |h1 + h2 h3 a e^{j psi}|^2 is formed from its real and imaginary
    parts, and the integral is split where it is smallest.
    """
    with mpmath.workdps(digits):
        rho, a1, a23 = (mpmath.mpf(v) for v in (sys.snr_scale, ch.a1, ch.a23))
        psi = mpmath.mpf(ch.theta0 + phi0)
        re, im = a23 * mpmath.cos(psi), a23 * mpmath.sin(psi)
        low = -a1 * re / (a23 * a23)
        value = mpmath.quad(lambda a: mpmath.log(1 + rho * ((a1 + re * a) ** 2 + (im * a) ** 2)),
                            [0, low, 1] if 0 < low < 1 else [0, 1])
        return float(value / mpmath.log(2))


class TestNoBdRate:
    def test_unit_snr(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        assert pt_rate_no_bd(UNIT_SYS, ch) == pytest.approx(1.0, rel=1e-15)

    def test_dead_direct_link(self):
        ch = ChannelTriple(h1=0j, h2=1 + 0j, h3=1 + 0j)
        assert pt_rate_no_bd(UNIT_SYS, ch) == 0.0

    def test_default_operating_point(self, default_system, default_channel):
        # Frozen from a direct scalar evaluation of log2(1 + P|h1|^2/sigma^2).
        assert pt_rate_no_bd(default_system, default_channel) == pytest.approx(
            4.222714503651714, abs=1e-9)


class TestFiniteRate:
    def test_all_zero_points_reduce_to_baseline(self, default_system, default_channel):
        c = explicit_constellation([0j, 0j, 0j])
        assert pt_rate(default_system, default_channel, c.points) == pytest.approx(
            pt_rate_no_bd(default_system, default_channel), rel=1e-15)

    def test_binary_aligned_two_term_form(self):
        # theta0 = 0 and phi0 = 0: the two symbols contribute |h1|^2 and
        # (|h1| + |h2 h3|)^2 exactly.
        ch = channel_from_polar(2.0, 0.5, 1.5)
        sys = SystemParams(power_w=2.0, noise_w=0.25, spread=1)
        rho = sys.snr_scale
        expected = 0.5 * (math.log2(1 + rho * 4.0) + math.log2(1 + rho * (2.0 + 0.75) ** 2))
        got = pt_rate(sys, ch, mask_constellation(2, 0.0).points)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_direct_matches_cosine_expansion(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            ch = channel_from_polar(*10 ** rng.uniform(-7, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            sys = SystemParams(power_w=float(10 ** rng.uniform(-3, 0)),
                               noise_w=1e-13, spread=1)
            if rng.uniform() < 0.5:
                c = mask_constellation(int(rng.integers(2, 17)), float(rng.uniform(0, TWO_PI)))
            else:
                m = int(rng.integers(2, 17))
                c = mpsk_constellation(m, float(rng.uniform(0.05, 1.0)),
                                       float(rng.uniform(0, TWO_PI / m)))
            direct = pt_rate(sys, ch, c.points)
            expanded = pt_rate_finite_expanded(sys, ch, c)
            assert abs(direct - expanded) <= 1e-12 * max(abs(direct), 1.0)

    def test_rate_gain_packaging(self, default_system, default_channel):
        # The `rate` command's gain is pt_rate - pt_rate_no_bd; a
        # device that reflects nothing gains nothing.
        silent = pt_rate(default_system, default_channel, explicit_constellation([0j, 0j]).points)
        assert silent == pytest.approx(pt_rate_no_bd(default_system, default_channel), abs=1e-12)

    def test_aligned_binary_gain_signs(self):
        # Destructive alignment with a dominant direct link loses rate;
        # constructive alignment always gains.
        ch = channel_from_polar(2.0, 1.0, 1.0)  # |h1| = 2 |h2||h3|, theta0 = 0
        sys = SystemParams(power_w=1.0, noise_w=0.1, spread=1)
        no_bd = pt_rate_no_bd(sys, ch)
        for m in (2, 4, 8):
            assert pt_rate(sys, ch, mask_constellation(m, math.pi).points) < no_bd
            assert pt_rate(sys, ch, mask_constellation(m, 0.0).points) > no_bd


class TestAskInfinite:
    def test_matches_quadrature_on_random_draws(self):
        rng = np.random.default_rng(7)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        for _ in range(25):
            ch = channel_from_polar(float(10 ** rng.uniform(-7, -3)),
                                    float(10 ** rng.uniform(-4, -2)),
                                    float(10 ** rng.uniform(-4, -2)),
                                    *rng.uniform(0, TWO_PI, size=3))
            phi0 = float(rng.uniform(0, TWO_PI))
            closed = pt_rate_ask_infinite(sys, ch, phi0)
            oracle = ask_infinite_quadrature(sys, ch, phi0)
            assert abs(closed - oracle) <= 1e-8 * abs(oracle)

    def test_vanishing_direct_link(self):
        # c2 = 0; the closed form must match the pure-quadratic integral.
        ch = ChannelTriple(h1=0j, h2=3e-4 + 0j, h3=2e-3 + 0j)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        c3 = sys.snr_scale * ch.a23**2
        oracle, _ = quad(lambda a: math.log2(1.0 + c3 * a * a), 0.0, 1.0,
                         epsabs=0.0, epsrel=1e-12)
        assert pt_rate_ask_infinite(sys, ch, 1.234) == pytest.approx(oracle, rel=1e-10)

    def test_constructive_phase_dominates_destructive(self):
        ch = channel_from_polar(3e-5, 1e-3, 1e-2, 0.4, 1.1, 2.2)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        theta0 = ch.theta0
        best = pt_rate_ask_infinite(sys, ch, (-theta0) % TWO_PI)
        worst = pt_rate_ask_infinite(sys, ch, (math.pi - theta0) % TWO_PI)
        assert best >= worst

    def test_infinite_order_gain_signs(self):
        # With a dominant direct link the anti-aligned phase loses rate and
        # the aligned phase gains, also in the continuous-amplitude limit.
        ch = channel_from_polar(4e-5, 1e-3, 1e-2, 0.3, 0.9, 1.7)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        assert ch.a1 > ch.a23
        rp = pt_rate_no_bd(sys, ch)
        theta0 = ch.theta0
        assert pt_rate_ask_infinite(sys, ch, (math.pi - theta0) % TWO_PI) < rp
        assert pt_rate_ask_infinite(sys, ch, (-theta0) % TWO_PI) > rp

    def test_dead_backscatter_rejected(self):
        ch = ChannelTriple(h1=1 + 0j, h2=0j, h3=1 + 0j)
        with pytest.raises(ValueError, match="degenerate"):
            pt_rate_ask_infinite(UNIT_SYS, ch, 0.0)

    def test_nearly_cancelling_paths_match_high_precision_integral(self):
        # |h1| / |h2 h3| - 1 and psi - pi each +-1e-12..1e-2: both pieces of
        # S - 1 are tiny, and 2 sqrt(b c3) (1 + cos psi) must not be formed as
        # 2 sqrt(b c3) + c2 (that left relative errors up to 9.5e-12 here).
        rng = np.random.default_rng(2026)
        for _ in range(30):
            rho = float(10 ** rng.uniform(2, 20))
            ratio, offset = (float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -2))
                             for _ in range(2))
            sys = SystemParams(power_w=rho, noise_w=1.0, spread=1)
            ch = ChannelTriple(h1=complex(1.0 + ratio), h2=1 + 0j, h3=1 + 0j)
            closed = pt_rate_ask_infinite(sys, ch, math.pi + offset)
            oracle = ask_infinite_mp(sys, ch, math.pi + offset)
            assert abs(closed - oracle) <= 1e-14 * abs(oracle), (rho, ratio, offset)

    @pytest.mark.parametrize("rho", [1e8, 1e12, 1e15, 1e16, 1e20])
    def test_cancelling_paths(self, rho):
        # |h1| = |h2 h3| and psi = pi: the SNR rho (1 - a)^2 vanishes at a = 1,
        # and the average of log(1 + rho t^2) over [0, 1] has a closed form.
        ch = ChannelTriple(h1=1 + 0j, h2=1 + 0j, h3=1 + 0j)
        sys = SystemParams(power_w=rho, noise_w=1.0, spread=1)
        root = math.sqrt(rho)
        exact = (math.log1p(rho) - 2.0 + 2.0 * math.atan(root) / root) / math.log(2.0)
        assert pt_rate_ask_infinite(sys, ch, math.pi) == pytest.approx(exact, rel=1e-12)


class TestPskInfinite:
    def test_zero_amplitude_is_baseline(self, default_system, default_channel):
        assert pt_rate_psk_infinite(default_system, default_channel, 0.0) == pytest.approx(
            pt_rate_no_bd(default_system, default_channel), rel=1e-14)

    def test_dead_direct_link(self):
        ch = ChannelTriple(h1=0j, h2=2e-3 + 0j, h3=0.5 + 0j)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        expected = math.log2(1.0 + sys.snr_scale * (ch.a23 * 0.8) ** 2)
        assert pt_rate_psk_infinite(sys, ch, 0.8) == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_phase_average(self):
        rng = np.random.default_rng(11)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        phases = (np.arange(65536) + 0.5) * (TWO_PI / 65536)
        for _ in range(5):
            ch = channel_from_polar(float(10 ** rng.uniform(-6, -3)),
                                    float(10 ** rng.uniform(-4, -2)),
                                    float(10 ** rng.uniform(-4, -2)),
                                    *rng.uniform(0, TWO_PI, size=3))
            alpha0 = float(rng.uniform(0.1, 1.0))
            snr = sys.snr_scale * (ch.a1**2 + (ch.a23 * alpha0) ** 2
                                   + 2 * ch.a1 * ch.a23 * alpha0 * np.cos(phases))
            oracle = float(np.log1p(snr).mean() / math.log(2))
            assert pt_rate_psk_infinite(sys, ch, alpha0) == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("rho", [1e3, 1e10, 1e16, 1e20])
    def test_cancelling_paths_match_phase_average(self, rho):
        # |h1| = alpha0 |h2 h3|: the SNR rho (2 |h1| cos(u/2))^2 vanishes at u = pi.
        alpha0 = 0.5
        ch = channel_from_polar(alpha0, 1.0, 1.0)
        sys = SystemParams(power_w=rho, noise_w=1.0, spread=1)
        n = 2**20
        half = (np.arange(n) + 0.5) * (math.pi / n)
        oracle = float(np.log1p(rho * (2.0 * alpha0 * np.cos(half)) ** 2).mean() / math.log(2.0))
        assert pt_rate_psk_infinite(sys, ch, alpha0) == pytest.approx(oracle, abs=1e-4)

    def test_matches_50_digit_closed_form_across_the_float_range(self):
        # The closed form at 50 digits, d1 up to the float range: the product
        # (d1 - d2)(d1 + d2) passes it once d1 passes 1.3e154, d1 + root once
        # d1 passes 9e307.
        rng = np.random.default_rng(3)
        cases = [(10.0 ** rng.uniform(-20.0, 300.0), 10.0 ** rng.uniform(-3.0, 0.0, size=3),
                  rng.uniform(0, TWO_PI, size=3), float(rng.uniform(0.0, 1.0)))
                 for _ in range(400)]
        # d1 past 9e307: a faint backscatter path, and one of 0.3 |h1| at d1 + d2 = 1.7e308.
        cases += [(power, (1.0, 1e-3, 1e-3), (0.0, 0.5, 1.0), 0.5)
                  for power in (9.5e307, 1.2e308, 1.7e308)]
        cases += [(1.7e308 / 1.3**2, (1.0, 1.0, 0.6), (0.0, 0.0, 0.0), 0.5)]
        for power, amplitudes, phases, alpha0 in cases:
            sys = SystemParams(power_w=power, noise_w=1.0, spread=1)
            ch = channel_from_polar(*amplitudes, *phases)
            exact = psk_infinite_50_digits(sys, ch, alpha0)
            got = pt_rate_psk_infinite(sys, ch, alpha0)
            assert abs(got - exact) <= 2 * math.ulp(max(exact, 1.0)), (sys, ch, alpha0)

    def test_ring_amplitude_outside_unit_interval_rejected(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        for alpha0 in (-0.1, 1.1):
            with pytest.raises(ValueError, match="alpha0 must lie in"):
                pt_rate_psk_infinite(UNIT_SYS, ch, alpha0)


class TestMaxRates:
    def test_ask_equals_finite_rate_at_optimal_phase(self):
        rng = np.random.default_rng(5)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        for _ in range(20):
            ch = channel_from_polar(*10 ** rng.uniform(-6, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            m = int(rng.integers(2, 17))
            phi = optimal_phase("mask", m, ch.theta0).phase_rad
            direct = pt_rate(sys, ch, mask_constellation(m, phi).points)
            assert max_pt_rate_ask(sys, ch, m) == pytest.approx(direct, rel=1e-12)

    def test_ask_dead_backscatter_is_baseline(self):
        ch = ChannelTriple(h1=2 + 0j, h2=0j, h3=1 + 0j)
        assert max_pt_rate_ask(UNIT_SYS, ch, 2) == pytest.approx(
            pt_rate_no_bd(UNIT_SYS, ch), rel=1e-14)

    def test_ask_monotone_in_backscatter_amplitude(self):
        sys = SystemParams(power_w=1.0, noise_w=0.5, spread=1)
        rates = [max_pt_rate_ask(sys, channel_from_polar(1.0, a, 1.0), 4)
                 for a in (0.1, 0.3, 0.7, 1.5)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_psk_equals_finite_rate_at_optimal_phase(self):
        rng = np.random.default_rng(6)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        for _ in range(20):
            ch = channel_from_polar(*10 ** rng.uniform(-6, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            m = int(rng.integers(2, 17))
            alpha0 = float(rng.uniform(0.1, 1.0))
            phi = optimal_phase("mpsk", m, ch.theta0).phase_rad
            direct = pt_rate(sys, ch, mpsk_constellation(m, alpha0, phi).points)
            assert max_pt_rate_psk(sys, ch, m, alpha0) == pytest.approx(direct, rel=1e-12)

    def test_psk_zero_amplitude_is_baseline(self, default_system, default_channel):
        got = max_pt_rate_psk(default_system, default_channel, 4, 0.0)
        assert got == pytest.approx(pt_rate_no_bd(default_system, default_channel),
                                    rel=1e-14)

    def test_psk_high_order_approaches_continuous_limit(self, default_system,
                                                        default_channel):
        inf = pt_rate_psk_infinite(default_system, default_channel, 0.9)
        got = max_pt_rate_psk(default_system, default_channel, 256, 0.9)
        assert abs(got - inf) < 1e-3


class TestPhaseKeyingInvariances:
    def test_rate_invariant_under_symbol_spacing_shift(self):
        # Shifting theta0 by one symbol spacing relabels the constellation.
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        m, alpha0, phi0 = 8, 0.7, 0.31
        ch_a = channel_from_polar(2e-4, 1e-3, 2e-3, 0.0, 0.9, 0.4)
        shift = TWO_PI / m
        ch_b = channel_from_polar(2e-4, 1e-3, 2e-3, 0.0, 0.9 + shift, 0.4)
        c = mpsk_constellation(m, alpha0, phi0)
        assert pt_rate(sys, ch_a, c.points) == pytest.approx(
            pt_rate(sys, ch_b, c.points), rel=1e-12)
        assert pt_rate_psk_infinite(sys, ch_a, alpha0) == pytest.approx(
            pt_rate_psk_infinite(sys, ch_b, alpha0), rel=1e-12)

    def test_binary_ring_gain_witnesses(self):
        # With |h1| = alpha0 |h2||h3| and a strong direct link: the aligned
        # fan loses rate for order 4, the quarter-turn binary fan gains.
        sys = SystemParams(power_w=1.0, noise_w=1.0, spread=1)
        alpha0 = 0.8
        b = 1e4
        a1 = math.sqrt(b)
        a23 = a1 / alpha0
        ch = channel_from_polar(a1, a23 / 100.0, 100.0)  # theta0 = 0
        rp = pt_rate_no_bd(sys, ch)
        aligned = pt_rate(sys, ch, mpsk_constellation(4, alpha0, 0.0).points)
        assert aligned < rp
        quarter = pt_rate(sys, ch, mpsk_constellation(2, alpha0, math.pi / 2).points)
        assert quarter > rp


class TestRateCurves:
    """pt_rate on a (P, M) array of points gives the P one-row calls bit for bit."""

    # Orders whose rows do and do not fill whole SIMD registers, so a row's
    # points sit in other lanes in the whole array than in its own call.
    ORDERS = (2, 3, 4, 7, 8, 33, 256)

    @staticmethod
    def assert_rows_match(sys, ch, points):
        curve = pt_rate(sys, ch, points)
        assert curve.shape == points.shape[:-1]
        rows = np.array([pt_rate(sys, ch, row) for row in points])
        assert curve.tobytes() == rows.tobytes()

    def test_mask_curve_matches_pointwise_rates(self, default_system, default_channel):
        for m in self.ORDERS:
            phases = np.linspace(0, TWO_PI, 61, endpoint=False)
            self.assert_rows_match(default_system, default_channel, mask_points(m, phases))

    def test_mpsk_curve_matches_pointwise_rates(self, default_system, default_channel):
        for m in self.ORDERS:
            phases = np.linspace(0, TWO_PI / m, 61, endpoint=False)
            self.assert_rows_match(default_system, default_channel, mpsk_points(m, 0.9, phases))
