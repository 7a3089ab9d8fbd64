import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcrate.channel import (ChannelTriple, PathLossModel, SystemParams, composite_phase,
                             channel_from_path_loss, make_channel, path_loss)

from .conftest import L1, L2, L3, channel_from_polar

TWO_PI = 2.0 * math.pi


class TestPathLoss:
    def test_long_links_are_minus_100_db(self, default_model):
        for link in (1, 2):
            mu_db = 10.0 * math.log10(path_loss(default_model, link))
            assert abs(mu_db - (-100.0)) < 0.2

    def test_short_link_is_minus_4_db(self, default_model):
        mu_db = 10.0 * math.log10(path_loss(default_model, 3))
        assert abs(mu_db - (-4.0)) < 0.2

    def test_free_space_identity_distance(self):
        # Unit gains, exponent 2, d = wavelength / 4pi gives unit gain.
        lam = 0.75
        model = PathLossModel(wavelength_m=lam, gain_pt=1.0, gain_rx=1.0, gain_bd=1.0,
                              exponent=2.0, d1_m=lam / (4 * math.pi),
                              d2_m=1.0, d3_m=1.0)
        assert path_loss(model, 1) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_link_rejected(self, default_model):
        with pytest.raises(ValueError):
            path_loss(default_model, 4)

    @given(d_a=st.floats(0.1, 1e4), d_b=st.floats(0.1, 1e4),
           g_a=st.floats(0.01, 100.0), g_b=st.floats(0.01, 100.0))
    @settings(max_examples=50)
    def test_monotone_in_distance_and_gain(self, d_a, d_b, g_a, g_b):
        def mu(d, g):
            m = PathLossModel(wavelength_m=0.33, gain_pt=g, gain_rx=2.0, gain_bd=1.0,
                              exponent=3.5, d1_m=d, d2_m=1.0, d3_m=1.0)
            return path_loss(m, 1)

        lo_d, hi_d = sorted((d_a, d_b))
        if lo_d != hi_d:
            assert mu(hi_d, 1.0) < mu(lo_d, 1.0)
        lo_g, hi_g = sorted((g_a, g_b))
        if lo_g != hi_g:
            assert mu(1.0, hi_g) > mu(1.0, lo_g)

    @pytest.mark.parametrize("field, value, link", [
        ("d3_m", 1e-100, 3),     # d**exponent underflows: a zero denominator
        ("d1_m", 1e300, 1),      # d**exponent overflows
        ("exponent", 300.0, 1),
        ("gain_pt", 1e308, 1),   # the gain product is infinite
    ])
    def test_gain_beyond_float_range_names_the_link(self, default_model, field, value, link):
        model = replace(default_model, **{field: value})
        with pytest.raises(ValueError, match=f"power gain of link {link} is beyond"):
            for which in (1, 2, 3):
                path_loss(model, which)

    def test_gain_underflow_is_a_dead_link(self, default_model):
        model = replace(default_model, gain_pt=1e-300, gain_rx=1e-300)
        assert path_loss(model, 1) == 0.0

    def test_model_requires_positive_fields(self):
        with pytest.raises(ValueError):
            PathLossModel(wavelength_m=0.33, gain_pt=0.0, gain_rx=1.0, gain_bd=1.0,
                          exponent=3.5, d1_m=1.0, d2_m=1.0, d3_m=1.0)


class TestMakeChannel:
    def test_identity(self):
        assert make_channel(1.0, 1.0 + 0j) == 1.0 + 0j

    def test_scaling(self):
        assert make_channel(0.25, 0.0 + 2.0j) == 0.0 + 1.0j

    def test_fading_sample_oracle(self):
        # Direct complex arithmetic: sqrt(1e-10) * l1.
        expected = math.sqrt(1e-10) * L1
        assert make_channel(1e-10, L1) == pytest.approx(expected, rel=1e-15)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            make_channel(-1.0, 1.0)

    def test_non_finite_fading_rejected(self):
        with pytest.raises(ValueError):
            make_channel(1.0, complex(float("nan"), 0.0))


class TestCompositePhase:
    def test_all_zero_phases(self):
        assert composite_phase(channel_from_polar(1, 1, 1)) == 0.0

    def test_wraps_past_two_pi(self):
        ch = channel_from_polar(1, 1, 1, t1=0.0, t2=math.pi, t3=math.pi)
        assert composite_phase(ch) == pytest.approx(0.0, abs=1e-12)

    def test_default_samples_match_argument_arithmetic(self, default_channel):
        # Independent oracle: path-loss factors are positive reals, so the
        # composite phase comes straight from the fading arguments.
        expected = (math.atan2(L2.imag, L2.real) + math.atan2(L3.imag, L3.real)
                    - math.atan2(L1.imag, L1.real)) % TWO_PI
        assert composite_phase(default_channel) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_channel_rejected(self):
        ch = ChannelTriple(h1=1.0 + 0j, h2=0j, h3=1.0 + 0j)
        with pytest.raises(ValueError, match="degenerate"):
            composite_phase(ch)

    @given(t1=st.floats(-10, 10), t2=st.floats(-10, 10), t3=st.floats(-10, 10),
           scale=st.floats(1e-6, 1e6))
    @settings(max_examples=100)
    def test_range_and_scale_invariance(self, t1, t2, t3, scale):
        ch = channel_from_polar(1.0, 2.0, 0.5, t1, t2, t3)
        phase = composite_phase(ch)
        assert 0.0 <= phase < TWO_PI
        scaled = ChannelTriple(h1=ch.h1 * scale, h2=ch.h2 * scale, h3=ch.h3 * scale)
        assert composite_phase(scaled) == pytest.approx(phase, abs=1e-9)


class TestSystemParams:
    def test_snr_scale(self):
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=128)
        assert sys.snr_scale == pytest.approx(5e11)

    @pytest.mark.parametrize("kwargs", [
        dict(power_w=0.0, noise_w=1.0, spread=1),
        dict(power_w=1.0, noise_w=0.0, spread=1),
        dict(power_w=1.0, noise_w=1.0, spread=0),
        dict(power_w=1e300, noise_w=1e-13, spread=1),   # P / sigma^2 = inf
        dict(power_w=1.0, noise_w=1.0, spread=10**400),  # beyond the float range
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


def test_channel_from_path_loss_composition(default_model):
    ch = channel_from_path_loss(default_model, L1, L2, L3)
    assert ch.h1 == make_channel(path_loss(default_model, 1), L1)
    assert ch.h2 == make_channel(path_loss(default_model, 2), L2)
    assert ch.h3 == make_channel(path_loss(default_model, 3), L3)
    assert ch.a23 == abs(ch.h2) * abs(ch.h3)
