import math
import warnings

import numpy as np
import pytest

from sbcrate.bd_rate import mi_quadrature, mrc_statistics
from sbcrate.channel import ChannelTriple, SystemParams
from sbcrate.constellation import (explicit_constellation, mask_constellation,
                                   mpsk_constellation)
from sbcrate.link_sim import (RngSpec, SimulatedBlock, cscg_samples, empirical_bd_mi,
                              sic_mrc_receiver, simulate_block)

from .conftest import channel_from_polar


def chain_oracle(sys, ch, c, n_bd, gen, normalize_pt_power):
    """The simulated chain in whole-array expressions: (s, indices, y, residual, outputs).

    Draws in the simulator's order: primary symbols, device symbols, noise.
    """
    L = sys.spread
    s = math.sqrt(0.5) * (gen.standard_normal(n_bd * L) + 1j * gen.standard_normal(n_bd * L))
    if normalize_pt_power:
        spans = s.reshape(n_bd, L)
        energy = np.sqrt(np.mean(np.abs(spans) ** 2, axis=1, keepdims=True))
        s = (spans / energy).reshape(n_bd * L)
    idx = gen.integers(0, c.order, size=n_bd)
    h_eq = ch.h1 + ch.h2 * ch.h3 * np.asarray(c.points, dtype=complex)[idx]
    noise = math.sqrt(sys.noise_w) * (math.sqrt(0.5) * (gen.standard_normal(n_bd * L)
                                                       + 1j * gen.standard_normal(n_bd * L)))
    y = math.sqrt(sys.power_w) * np.repeat(h_eq, L) * s + noise
    residual = y - math.sqrt(sys.power_w) * ch.h1 * s
    weights = (math.sqrt(sys.power_w) * ch.h2 * ch.h3 * s).conj()
    out = (weights * residual).reshape(n_bd, L).sum(axis=1) / sys.noise_w
    return s, idx, y, residual, out


class TestSimulateBlock:
    def test_zero_reflection_and_vanishing_noise(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=2.0, noise_w=1e-30, spread=32)
        c = explicit_constellation([0j, 0j])
        block = simulate_block(sys, ch, c, 8, RngSpec(5))
        expected = math.sqrt(2.0) * ch.h1 * block.pt_symbols
        assert np.allclose(block.received, expected, rtol=1e-10, atol=1e-12)

    def test_received_power_matches_two_path_model(self, default_channel):
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=128)
        c = mask_constellation(2, 0.7)
        block = simulate_block(sys, default_channel, c, 8192, RngSpec(11))
        h23 = default_channel.h2 * default_channel.h3
        heq = np.abs(default_channel.h1 + h23 * np.asarray(c.points)) ** 2
        expected = sys.power_w * heq.mean() + sys.noise_w
        got = np.mean(np.abs(block.received) ** 2)
        assert abs(got - expected) / expected < 0.01

    def test_fixed_rng_spec_is_bit_identical(self, default_channel, default_system):
        c = mask_constellation(4, 0.0)
        a = simulate_block(default_system, default_channel, c, 16, RngSpec(7, stream=3))
        b = simulate_block(default_system, default_channel, c, 16, RngSpec(7, stream=3))
        assert np.array_equal(a.pt_symbols, b.pt_symbols)
        assert np.array_equal(a.bd_symbol_indices, b.bd_symbol_indices)
        assert np.array_equal(a.received, b.received)

    def test_symbol_spans_hold_one_reflection_state(self, default_channel, default_system):
        c = mask_constellation(4, 0.0)
        block = simulate_block(default_system, default_channel, c, 32, RngSpec(1))
        assert len(block.pt_symbols) == 32 * default_system.spread
        assert len(block.bd_symbol_indices) == 32
        assert block.bd_symbol_indices.min() >= 0
        assert block.bd_symbol_indices.max() < 4

    def test_low_spread_warns(self, default_channel):
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=4)
        with pytest.warns(UserWarning, match="spreading factor"):
            simulate_block(sys, default_channel, mask_constellation(2, 0.0), 4, RngSpec(0))

    def test_normalized_spans_have_exact_unit_power(self, default_channel, default_system):
        block = simulate_block(default_system, default_channel,
                               mask_constellation(2, 0.0), 16, RngSpec(3))
        spans = block.pt_symbols.reshape(16, default_system.spread)
        power = np.mean(np.abs(spans) ** 2, axis=1)
        assert np.allclose(power, 1.0, rtol=1e-12)


@pytest.mark.parametrize("L", [16, 64, 128])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
def test_chain_matches_whole_array_oracle(default_channel, L, normalize):
    # Neither power nor noise a power of ten, so no scaling is exact by accident.
    sys = SystemParams(power_w=7.3e-4, noise_w=2.9e-13, spread=L)
    c = mpsk_constellation(4, 0.8, 0.1)
    block = simulate_block(sys, default_channel, c, 300, RngSpec(41, stream=L),
                           normalize_pt_power=normalize)
    residual = np.empty(len(block.received), dtype=complex)
    outputs = sic_mrc_receiver(block, sys, default_channel, residual)
    want = chain_oracle(sys, default_channel, c, 300, RngSpec(41, stream=L).generator(),
                        normalize)
    got = (block.pt_symbols, block.bd_symbol_indices, block.received, residual, outputs)
    for name, a, b in zip(("s", "indices", "received", "residual", "outputs"), got, want):
        assert np.array_equal(a, b), name


class TestSicMrcReceiver:
    def test_noiseless_output_is_gain_times_symbol(self):
        ch = channel_from_polar(1.0, 1.0, 1.0, 0.3, 0.8, 1.9)
        sys = SystemParams(power_w=1.0, noise_w=1e-20, spread=64)
        c = mpsk_constellation(4, 0.9, 0.2)
        block = simulate_block(sys, ch, c, 16, RngSpec(21))
        received = block.received.copy()
        out = sic_mrc_receiver(block, sys, ch)
        g = mrc_statistics(sys, ch).gain
        want = g * np.asarray(c.points)[block.bd_symbol_indices]
        assert np.allclose(out, want, rtol=1e-10)
        # Without a residual buffer the block is left as drawn.
        assert np.array_equal(block.received, received)

    def test_residual_may_overwrite_the_received_samples(self, default_channel):
        # The streaming estimator passes `block.received` as the buffer.
        sys = SystemParams(power_w=7.3e-4, noise_w=2.9e-13, spread=16)
        c = mpsk_constellation(4, 0.8, 0.1)
        block = simulate_block(sys, default_channel, c, 40, RngSpec(8))
        residual = np.empty(len(block.received), dtype=complex)
        out = sic_mrc_receiver(block, sys, default_channel, residual)
        in_place = sic_mrc_receiver(block, sys, default_channel, block.received)
        assert np.array_equal(in_place, out)
        assert np.array_equal(block.received, residual)

    def test_real_valued_block_gives_a_complex_residual(self, default_channel):
        # A caller may build a block from real arrays; the residual and the
        # outputs are still the complex whole-array expressions.
        sys = SystemParams(power_w=7.3e-4, noise_w=2.9e-13, spread=16)
        gen = np.random.default_rng(17)
        s, y = gen.standard_normal(64), 1e-3 * gen.standard_normal(64)
        block = SimulatedBlock(pt_symbols=s, bd_symbol_indices=np.zeros(4, dtype=int),
                               received=y)
        buffer = np.empty(64, dtype=complex)
        out = sic_mrc_receiver(block, sys, default_channel, buffer)
        residual = y - math.sqrt(sys.power_w) * default_channel.h1 * s
        weights = (math.sqrt(sys.power_w) * default_channel.h2 * default_channel.h3 * s).conj()
        # Its own residual buffer is complex too, or these outputs would differ.
        assert np.array_equal(sic_mrc_receiver(block, sys, default_channel), out)
        assert np.array_equal(buffer, residual)
        assert np.array_equal(out, (weights * residual).reshape(4, 16).sum(axis=1) / sys.noise_w)

    def test_residual_has_no_direct_component(self):
        # The correlation of the residual against s recovers only the
        # backscatter coefficient, not h1.
        ch = channel_from_polar(1.0, 0.3, 0.7, 0.5, 1.1, 2.3)
        sys = SystemParams(power_w=1.0, noise_w=0.01, spread=256)
        c = mpsk_constellation(2, 0.9, 0.1)
        block = simulate_block(sys, ch, c, 64, RngSpec(9))
        residual = np.empty(len(block.received), dtype=complex)
        sic_mrc_receiver(block, sys, ch, residual)
        s = block.pt_symbols.reshape(64, sys.spread)
        res = residual.reshape(64, sys.spread)
        per_symbol = (res * s.conj()).sum(axis=1) / (np.abs(s) ** 2).sum(axis=1)
        gamma = np.asarray(c.points)[block.bd_symbol_indices]
        backscatter = math.sqrt(sys.power_w) * ch.h2 * ch.h3 * gamma
        err = per_symbol - backscatter
        # Residual correlation is pure noise: mean within 5 standard errors of 0.
        se = np.std(err) / math.sqrt(len(err))
        assert abs(np.mean(err)) <= 5.0 * se + 1e-12

    def test_conditional_moments_match_combining_statistics(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=0.05, noise_w=1.0, spread=200)  # g = 10
        c = mask_constellation(2, 0.0)
        stats = mrc_statistics(sys, ch)
        outs, idx = [], []
        for chunk in range(20):
            block = simulate_block(sys, ch, c, 2500, RngSpec(1234, stream=chunk))
            outs.append(sic_mrc_receiver(block, sys, ch))
            idx.append(block.bd_symbol_indices)
        out = np.concatenate(outs)
        idx = np.concatenate(idx)
        for m, point in enumerate(c.points):
            sel = out[idx == m]
            n = len(sel)
            se = math.sqrt(stats.noise_var / (2 * n))
            mean = sel.mean()
            want = stats.gain * point
            assert abs(mean.real - want.real) <= 5 * se
            assert abs(mean.imag - want.imag) <= 5 * se
            var = np.mean(np.abs(sel - want) ** 2)
            assert abs(var - stats.noise_var) / stats.noise_var < 0.05


class TestEmpiricalMi:
    def test_agreement_with_quadrature_binary_amplitude(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=0.08, noise_w=1.0, spread=100)  # g = 8
        c = mask_constellation(2, 0.9)
        emp = empirical_bd_mi(sys, ch, c, 40_000, RngSpec(77))
        qd = mi_quadrature(c, mrc_statistics(sys, ch))
        assert abs(emp.value_bits - qd.value_bits) <= 3 * emp.std_error_bits

    def test_agreement_with_quadrature_quaternary_ring(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=0.12, noise_w=1.0, spread=100)  # g = 12
        c = mpsk_constellation(4, 0.9, 0.4)
        emp = empirical_bd_mi(sys, ch, c, 40_000, RngSpec(78))
        qd = mi_quadrature(c, mrc_statistics(sys, ch))
        assert abs(emp.value_bits - qd.value_bits) <= 3 * emp.std_error_bits

    def test_dead_backscatter_estimates_zero(self):
        ch = ChannelTriple(h1=1.0 + 0j, h2=0j, h3=1.0 + 0j)
        sys = SystemParams(power_w=1.0, noise_w=1.0, spread=32)
        c = mask_constellation(2, 0.0)
        emp = empirical_bd_mi(sys, ch, c, 10_000, RngSpec(5))
        assert abs(emp.value_bits) <= 3 * emp.std_error_bits + 1e-12

    def test_symbol_floor_enforced(self, default_system, default_channel):
        with pytest.raises(ValueError):
            empirical_bd_mi(default_system, default_channel,
                            mask_constellation(2, 0.0), 100, RngSpec(1))

    @pytest.mark.parametrize("L, count", [(8, 1), (64, 0)])
    def test_low_spread_warns_once_at_the_caller(self, L, count):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=1.0 / L, noise_w=1.0, spread=L)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            empirical_bd_mi(sys, ch, mask_constellation(2, 0.0), 20_000, RngSpec(4))
        assert [w.category for w in caught] == [UserWarning] * count
        assert all(w.filename == __file__ for w in caught)

    def test_deterministic_for_fixed_spec(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=0.08, noise_w=1.0, spread=64)
        c = mask_constellation(2, 0.0)
        a = empirical_bd_mi(sys, ch, c, 10_000, RngSpec(123))
        b = empirical_bd_mi(sys, ch, c, 10_000, RngSpec(123))
        assert a == b


def test_cscg_samples_have_unit_variance():
    rng = np.random.default_rng(8)
    z = cscg_samples(rng, 200_000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.mean(z)) < 0.01
