import math
import warnings

import numpy as np
import pytest

from sbcrate import link_sim
from sbcrate.bd_rate import _KERNEL_BLOCK, _log_ratio_bits, mi_quadrature, mrc_statistics
from sbcrate.channel import ChannelTriple, SystemParams
from sbcrate.constellation import mask_constellation, mpsk_constellation
from sbcrate.link_sim import RngSpec, combiner_outputs, empirical_bd_mi

from .conftest import channel_from_polar


def chain_oracle(sys, ch, c, n_bd, gen):
    """The simulated chain in whole-array expressions: (indices, outputs).

    Draws in the simulator's order: primary symbols, device symbols, noise.
    """
    L = sys.spread
    s = math.sqrt(0.5) * (gen.standard_normal(n_bd * L) + 1j * gen.standard_normal(n_bd * L))
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
    return idx, out


class TestSimulateBlock:
    """The simulated link as `combiner_outputs` returns it."""

    def test_fixed_rng_spec_is_bit_identical(self, default_channel, default_system):
        c = mask_constellation(4, 0.0)
        a = combiner_outputs(default_system, default_channel, c, 16, RngSpec(7, stream=3))
        b = combiner_outputs(default_system, default_channel, c, 16, RngSpec(7, stream=3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_symbol_spans_hold_one_reflection_state(self, default_channel, default_system):
        c = mask_constellation(4, 0.0)
        idx, out = combiner_outputs(default_system, default_channel, c, 32, RngSpec(1))
        assert idx.shape == out.shape == (32,)
        assert idx.min() >= 0
        assert idx.max() < 4

    def test_low_spread_warns(self, default_channel):
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=4)
        with pytest.warns(UserWarning, match="spreading factor"):
            combiner_outputs(sys, default_channel, mask_constellation(2, 0.0), 4, RngSpec(0))

    @pytest.mark.parametrize("n_bd", [0, -1])
    def test_no_device_symbols_is_refused(self, default_channel, default_system, n_bd):
        with pytest.raises(ValueError, match="n_bd_symbols"):
            combiner_outputs(default_system, default_channel, mask_constellation(2, 0.0),
                             n_bd, RngSpec(0))


def assert_chain_matches_oracle(ch, L: int, n_bd: int) -> None:
    # Neither power nor noise a power of ten, so no scaling is exact by accident.
    sys = SystemParams(power_w=7.3e-4, noise_w=2.9e-13, spread=L)
    c = mpsk_constellation(4, 0.8, 0.1)
    got = combiner_outputs(sys, ch, c, n_bd, RngSpec(41, stream=L))
    want = chain_oracle(sys, ch, c, n_bd, RngSpec(41, stream=L).generator())
    for name, a, b in zip(("indices", "outputs"), got, want):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("L", [16, 64, 128])
def test_chain_matches_whole_array_oracle(default_channel, L):
    assert_chain_matches_oracle(default_channel, L, 300)


@pytest.mark.parametrize("L, n_bd", [
    (100, 2 * 655 + 17),       # blocks of 655 rows; L does not divide _KERNEL_BLOCK
    (128, 2 * 512 + 76),       # blocks of 512 rows, the last one short
    (_KERNEL_BLOCK + 3, 3),    # one row per block
])
def test_chain_in_row_blocks_matches_whole_array_oracle(default_channel, L, n_bd):
    assert_chain_matches_oracle(default_channel, L, n_bd)


@pytest.mark.parametrize("L, kernel_block",
                         [(100, _KERNEL_BLOCK), (100, 64), (128, _KERNEL_BLOCK)],
                         ids=["655_rows", "1_row", "512_rows"])
def test_streamed_estimate_matches_receiver_on_simulated_blocks(default_channel, monkeypatch,
                                                                L, kernel_block):
    # empirical_bd_mi feeds each chunk's combiner outputs to the kernel; the
    # kernel summed over combiner_outputs chunk by chunk gives its bits.
    monkeypatch.setattr(link_sim, "_KERNEL_BLOCK", kernel_block)
    sys = SystemParams(power_w=7.3e-4, noise_w=2.9e-13, spread=L)
    c = mpsk_constellation(4, 0.8, 0.1)
    g = mrc_statistics(sys, default_channel).gain
    points = np.asarray(c.points, dtype=complex)
    n, spec = 10_000, RngSpec(43, stream=L)
    total = total_sq = 0.0
    for index, start in enumerate(range(0, n, link_sim._SIM_CHUNK)):
        idx, y = combiner_outputs(sys, default_channel, c, min(link_sim._SIM_CHUNK, n - start),
                                  spec.generator(index))
        v = _log_ratio_bits(y.real, y.imag, idx, points, g)
        total += float(v.sum())
        total_sq += float((v * v).sum())
    mean = total / n
    se = math.sqrt(max(total_sq - n * mean * mean, 0.0) / (n - 1) / n)
    est = empirical_bd_mi(sys, default_channel, c, n, spec)
    assert (est.value_bits, est.std_error_bits) == (mean, se)


class TestSicMrcReceiver:
    """The combiner outputs after direct-path cancellation and MRC."""

    def test_noiseless_output_is_gain_times_symbol(self):
        ch = channel_from_polar(1.0, 1.0, 1.0, 0.3, 0.8, 1.9)
        sys = SystemParams(power_w=1.0, noise_w=1e-20, spread=64)
        c = mpsk_constellation(4, 0.9, 0.2)
        idx, out = combiner_outputs(sys, ch, c, 16, RngSpec(21))
        g = mrc_statistics(sys, ch).gain
        want = g * np.asarray(c.points)[idx]
        assert np.allclose(out, want, rtol=1e-10)

    def test_conditional_moments_match_combining_statistics(self):
        ch = channel_from_polar(1.0, 1.0, 1.0)
        sys = SystemParams(power_w=0.05, noise_w=1.0, spread=200)  # g = 10
        c = mask_constellation(2, 0.0)
        stats = mrc_statistics(sys, ch)
        outs, idx = [], []
        for chunk in range(20):
            i, y = combiner_outputs(sys, ch, c, 2500, RngSpec(1234, stream=chunk))
            outs.append(y)
            idx.append(i)
        out = np.concatenate(outs)
        idx = np.concatenate(idx)
        for m, point in enumerate(c.points):
            sel = out[idx == m]
            n = len(sel)
            se = math.sqrt(stats.gain / (2 * n))  # the noise variance is g
            mean = sel.mean()
            want = stats.gain * point
            assert abs(mean.real - want.real) <= 5 * se
            assert abs(mean.imag - want.imag) <= 5 * se
            var = np.mean(np.abs(sel - want) ** 2)
            assert abs(var - stats.gain) / stats.gain < 0.05


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
