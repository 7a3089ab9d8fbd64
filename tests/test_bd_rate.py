import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from sbcrate.bd_rate import (DEFAULT_MI_TOL, MrcStatistics, PrecisionError, bd_rate,
                             mi_monte_carlo, mi_quadrature, mrc_statistics)
from sbcrate.channel import SystemParams
from sbcrate.constellation import (explicit_constellation, mask_constellation,
                                   mpsk_constellation)

from .conftest import channel_from_polar


def tensor_mi_oracle(points, gain: float, noise_var: float, nodes: int) -> float:
    """Mutual information on one tensor Gauss-Hermite level, in the difference form.

    Independent of the engine's log-ratio kernel: the exponent differences are
    -(|g d|^2 + 2 Re(g d conj w)) / sigma_s^2 with d = Gamma_m - Gamma_i and w
    the noise node, so no O(g) terms are formed and subtracted.
    """
    points = np.asarray(points, dtype=complex)
    M = len(points)
    x, wq = hermgauss(nodes)
    w_nodes = math.sqrt(noise_var) * (x[:, None] + 1j * x[None, :])
    w2 = (wq[:, None] * wq[None, :]) / math.pi
    diff = points[:, None] - points[None, :]
    acc = 0.0
    for m in range(M):
        dm = gain * diff[m]
        t = -(np.abs(dm)[:, None, None] ** 2
              + 2.0 * np.real(dm[:, None, None] * np.conj(w_nodes)[None, :, :])) / noise_var
        tmax = np.maximum(t.max(axis=0), 0.0)
        lse = tmax / math.log(2.0) + np.log2(np.exp(t - tmax).sum(axis=0))
        acc += float((w2 * lse).sum())
    return math.log2(M) - acc / M


class TestMrcStatistics:
    def test_unit_case(self):
        sys = SystemParams(power_w=1.0, noise_w=1.0, spread=1)
        st_ = mrc_statistics(sys, channel_from_polar(1.0, 1.0, 1.0))
        assert st_.gain == 1.0 and st_.noise_var == 1.0

    def test_linear_in_spread(self):
        ch = channel_from_polar(1.0, 0.5, 2.0)
        one = mrc_statistics(SystemParams(1.0, 1.0, spread=1), ch)
        two = mrc_statistics(SystemParams(1.0, 1.0, spread=2), ch)
        assert two.gain == pytest.approx(2 * one.gain, rel=1e-15)
        assert two.noise_var == pytest.approx(2 * one.noise_var, rel=1e-15)

    def test_default_operating_point(self, default_system, default_channel):
        # Frozen from a direct evaluation of L P |h2|^2 |h3|^2 / sigma^2.
        st_ = mrc_statistics(default_system, default_channel)
        assert st_.gain == pytest.approx(642.5679030907881, rel=1e-9)
        assert st_.gain == st_.noise_var


class TestMiQuadrature:
    def test_zero_gain_carries_no_information(self):
        est = mi_quadrature(mask_constellation(4, 0.0), MrcStatistics(0.0, 0.0))
        assert est.value_bits == 0.0 and est.std_error_bits == 0.0
        assert est.method == "quadrature"

    def test_identical_symbols_carry_no_information(self):
        c = explicit_constellation([0.4 + 0.1j] * 3)
        est = mi_quadrature(c, MrcStatistics(10.0, 10.0))
        assert est.value_bits == 0.0

    def test_noiseless_limit_saturates_at_log2_m(self):
        # Effective SNR (g dmin)^2 / sigma_s^2 = 1e4 under the g-coupling.
        for m in (2, 4):
            c = mask_constellation(m, 0.0)
            dmin = 1.0 / (m - 1)
            g = 1e4 / dmin**2
            est = mi_quadrature(c, MrcStatistics(g, g))
            assert abs(est.value_bits - math.log2(m)) < 1e-3

    def test_binary_matches_monte_carlo_oracle(self):
        c = mpsk_constellation(2, 0.9, 0.0)  # BPSK-like pair {+0.9, -0.9}
        stats = MrcStatistics(8.0, 8.0)
        qd = mi_quadrature(c, stats)
        mc = mi_monte_carlo(c, stats, samples=10**7, seed=314159)
        assert abs(qd.value_bits - mc.value_bits) <= 3.0 * mc.std_error_bits

    def test_rotation_invariance(self):
        base = mpsk_constellation(4, 0.8, 0.2)
        stats = MrcStatistics(25.0, 25.0)
        ref = mi_quadrature(base, stats).value_bits
        for psi in (0.7, 2.9, 4.4):
            rot = explicit_constellation([p * complex(math.cos(psi), math.sin(psi))
                                          for p in base.points])
            assert abs(mi_quadrature(rot, stats).value_bits - ref) <= 1e-6

    def test_monotone_in_spread(self, default_channel):
        # g and sigma_s^2 move together; information still grows with L.
        prev = -1.0
        for spread in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=spread)
            est = bd_rate(sys, default_channel, mask_constellation(2, 0.0))
            assert est.value_bits >= prev - 1e-6
            prev = est.value_bits

    @given(n_points=st.integers(2, 8), g=st.floats(0.01, 1e6), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_range_bounds(self, n_points, g, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.7, 0.7, size=n_points) + 1j * rng.uniform(-0.7, 0.7, n_points)
        est = mi_quadrature(explicit_constellation(pts), MrcStatistics(g, g))
        assert -1e-9 <= est.value_bits <= math.log2(n_points) + 1e-9

    @pytest.mark.parametrize("nodes", [64, 96])
    def test_matches_tensor_difference_oracle(self, nodes):
        cases = [(c, MrcStatistics(g, g))
                 for M in (2, 3, 4, 8, 16)
                 for c in (mask_constellation(M, 0.7), mpsk_constellation(M, 0.9, 0.1))
                 for g in (0.1, 1.0, 30.0, 3000.0)]
        cases.append((explicit_constellation([0.9, 0.5j, -0.3 - 0.4j]), MrcStatistics(7.0, 7.0)))
        cases.append((mpsk_constellation(4, 0.8, 0.3), MrcStatistics(12.0, 3.0)))  # gain != noise
        for c, stats in cases:
            est = mi_quadrature(c, stats, node_schedule=(nodes, nodes))
            ref = tensor_mi_oracle(c.points, stats.gain, stats.noise_var, nodes)
            assert abs(est.value_bits - ref) <= 1e-12, (c.kind, c.order, stats)

    @given(scheme=st.sampled_from(["mask", "mpsk"]), M=st.sampled_from([2, 4, 8, 16]),
           log_g=st.lists(st.floats(-6.0, 8.0), min_size=2, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_bounded_and_monotone_at_extreme_gains(self, scheme, M, log_g):
        # Gains from 1e-6 to 1e8, where the kernel subtracts O(g) terms.
        c = mask_constellation(M, 0.0) if scheme == "mask" else mpsk_constellation(M, 0.9, 0.0)
        lo, hi = (mi_quadrature(c, MrcStatistics(10.0**e, 10.0**e)).value_bits
                  for e in sorted(log_g))
        for v in (lo, hi):
            assert -1e-9 <= v <= math.log2(M) + 1e-9
        assert hi >= lo - 2 * DEFAULT_MI_TOL

    def test_precision_error_carries_estimate(self):
        c = mpsk_constellation(4, 0.9, 0.1)
        with pytest.raises(PrecisionError) as info:
            mi_quadrature(c, MrcStatistics(20.0, 20.0), tol=1e-14, node_schedule=(6, 8))
        est = info.value.estimate
        assert est.method == "quadrature"
        assert 0.0 <= est.value_bits <= 2.0

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            mi_quadrature(mask_constellation(2, 0.0), MrcStatistics(1.0, 0.0))


class TestMiMonteCarlo:
    def test_zero_gain(self):
        est = mi_monte_carlo(mask_constellation(2, 0.0), MrcStatistics(0.0, 0.0),
                             samples=10_000, seed=1)
        assert est.value_bits == 0.0 and est.std_error_bits == 0.0

    def test_noiseless_limit(self):
        c = mask_constellation(2, 0.0)
        est = mi_monte_carlo(c, MrcStatistics(1e4, 1e4), samples=50_000, seed=2)
        assert abs(est.value_bits - 1.0) < 1e-3

    def test_fixed_seed_is_bit_identical(self):
        c = mpsk_constellation(4, 0.7, 0.0)
        stats = MrcStatistics(5.0, 5.0)
        a = mi_monte_carlo(c, stats, samples=200_000, seed=99)
        b = mi_monte_carlo(c, stats, samples=200_000, seed=99)
        assert a == b

    def test_seed_changes_estimate(self):
        c = mpsk_constellation(4, 0.7, 0.0)
        stats = MrcStatistics(5.0, 5.0)
        a = mi_monte_carlo(c, stats, samples=50_000, seed=1)
        b = mi_monte_carlo(c, stats, samples=50_000, seed=2)
        assert a.value_bits != b.value_bits

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            mi_monte_carlo(mask_constellation(2, 0.0), MrcStatistics(1.0, 1.0),
                           samples=100, seed=0)

    def test_agreement_with_quadrature_random_scenarios(self):
        rng = np.random.default_rng(424242)
        for _ in range(20):
            m = int(rng.choice([2, 4, 8]))
            if rng.uniform() < 0.5:
                c = mask_constellation(m, float(rng.uniform(0, 2 * math.pi)))
            else:
                c = mpsk_constellation(m, float(rng.uniform(0.3, 1.0)),
                                       float(rng.uniform(0, 2 * math.pi / m)))
            g = float(10 ** rng.uniform(-0.5, 2.0))
            stats = MrcStatistics(g, g)
            qd = mi_quadrature(c, stats)
            mc = mi_monte_carlo(c, stats, samples=200_000, seed=int(rng.integers(2**31)))
            # Both estimators carry error: sampling noise plus a quadrature
            # term (the successive-difference stop underestimates by ~2x).
            assert abs(qd.value_bits - mc.value_bits) <= 4.0 * mc.std_error_bits + 1e-7


class TestBdRate:
    def test_mask_rate_unaffected_by_common_phase(self, default_channel):
        sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=8)
        vals = [bd_rate(sys, default_channel, mask_constellation(2, phi)).value_bits
                for phi in (0.0, math.pi / 3, 1.7, 5.5)]
        assert max(vals) - min(vals) <= 1e-6
        assert 0.05 < vals[0] < 1.0  # informative but unsaturated

    def test_mpsk_rate_unaffected_by_base_phase(self, default_channel):
        sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=8)
        m = 4
        eps = 1e-6
        vals = [bd_rate(sys, default_channel,
                        mpsk_constellation(m, 0.9, phi)).value_bits
                for phi in (0.0, 0.3, 2 * math.pi / m - eps)]
        assert max(vals) - min(vals) <= 1e-6

    def test_zero_amplitude_set_has_zero_rate(self, default_system, default_channel):
        c = explicit_constellation([0j, 0j, 0j, 0j])
        assert bd_rate(default_system, default_channel, c).value_bits == 0.0
