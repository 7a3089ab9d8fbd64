"""Shared fixtures, the default operating point used across the suite, and helpers."""

import pytest

from sbcrate import link_sim
from sbcrate.bd_rate import _Scratch
from sbcrate.channel import ChannelTriple, PathLossModel, SystemParams
from sbcrate.scenario import load_scenario

# Fixed small-scale fading samples of the default operating point.
L1 = 0.3421 - 0.4988j
L2 = -0.0139 - 0.4378j
L3 = -0.5246 - 1.0546j
L1_PRIME = 0.2651 + 0.0031j
L2_PRIME = -1.2621 + 0.0425j
L3_PRIME = -0.3110 - 0.7787j

GAIN_6DB = 10.0 ** 0.6


@pytest.fixture
def default_model() -> PathLossModel:
    return PathLossModel(wavelength_m=0.33, gain_pt=GAIN_6DB, gain_rx=GAIN_6DB,
                         gain_bd=GAIN_6DB, exponent=3.5, d1_m=200.0, d2_m=200.0,
                         d3_m=0.36)


@pytest.fixture
def default_channel() -> ChannelTriple:
    return load_scenario(None).channel()


@pytest.fixture
def default_system() -> SystemParams:
    # 0.05 W transmit power, -100 dBm noise, spreading factor 128.
    return SystemParams(power_w=0.05, noise_w=1e-13, spread=128)


def channel_from_polar(a1: float, a2: float, a3: float,
                       t1: float = 0.0, t2: float = 0.0, t3: float = 0.0) -> ChannelTriple:
    """Construct a channel triple directly from amplitudes and phases."""
    from cmath import exp
    return ChannelTriple(h1=a1 * exp(1j * t1), h2=a2 * exp(1j * t2), h3=a3 * exp(1j * t3))


def combiner_outputs(sys, ch, c, n_bd_symbols: int, rng: link_sim.RngSpec, *subkey: int):
    """The simulated link for n_bd_symbols device symbols: (indices, combiner outputs).

    One run of the simulator's chain on the generator `rng.generator(*subkey)`;
    `empirical_bd_mi` runs its chunk i on `rng.generator(i)`.
    """
    return link_sim._chain(sys, ch, c, n_bd_symbols, rng.generator(*subkey), _Scratch())


def assert_close(actual: float, expected: float, rel: float = 0.0, abs_: float = 0.0):
    tol = max(rel * abs(expected), abs_)
    assert abs(actual - expected) <= tol, f"{actual} != {expected} (tol {tol})"
