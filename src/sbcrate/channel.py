"""Channel coefficients for the three-link backscatter geometry.

A deterministic path-loss model and externally supplied small-scale fading
samples produce the complex coefficients (h1, h2, h3) of the direct,
transmitter-to-device, and device-to-receiver links.  The composite phase
theta0 = arg(h2) + arg(h3) - arg(h1) drives all phase optimization downstream.
Fading samples are injected, never drawn here; the seeded generator lives in
:mod:`sbcrate.link_sim` so that fixed fading triples reproduce exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def _wrap_phase(x: float, period: float) -> float:
    """x reduced to [0, period); `%` alone rounds e.g. -1e-17 % 2pi up to 2pi."""
    x %= period
    return x - period if x >= period else x


def _require_finite(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite real and imaginary parts, got {z!r}")


@dataclass(frozen=True)
class PathLossModel:
    """Free-space-style path loss with a common exponent for all three links.

    Gains are linear (not dB); distances in meters.  A single exponent is
    used for every link; per-link exponents would be a trivial extension.
    """

    wavelength_m: float
    gain_pt: float
    gain_rx: float
    gain_bd: float
    exponent: float
    d1_m: float
    d2_m: float
    d3_m: float

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "gain_pt", "gain_rx", "gain_bd",
                     "exponent", "d1_m", "d2_m", "d3_m"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"PathLossModel.{name} must be finite and > 0, got {v!r}")


def path_loss(model: PathLossModel, which_link: int) -> float:
    """Linear power gain mu of one link (1: PT->R, 2: PT->BD, 3: BD->R)."""
    if which_link == 1:
        gains, d = model.gain_pt * model.gain_rx, model.d1_m
    elif which_link == 2:
        gains, d = model.gain_pt * model.gain_bd, model.d2_m
    elif which_link == 3:
        gains, d = model.gain_bd * model.gain_rx, model.d3_m
    else:
        raise ValueError(f"which_link must be 1, 2 or 3, got {which_link!r}")
    try:
        mu = model.wavelength_m**2 * gains / ((4.0 * math.pi) ** 2 * d**model.exponent)
    except (OverflowError, ZeroDivisionError):  # a power out of range, or a zero denominator
        mu = math.inf
    if not math.isfinite(mu):
        raise ValueError(f"the power gain of link {which_link} is beyond the float range")
    return mu


def make_channel(mu: float, fading: complex) -> complex:
    """Combine a path-loss power gain with a small-scale fading sample."""
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"path loss mu must be finite and >= 0, got {mu!r}")
    fading = complex(fading)
    _require_finite("fading sample", fading)
    return math.sqrt(mu) * fading


@dataclass(frozen=True)
class ChannelTriple:
    """The three complex link coefficients of one transmission block."""

    h1: complex
    h2: complex
    h3: complex

    def __post_init__(self) -> None:
        for name in ("h1", "h2", "h3"):
            _require_finite(name, getattr(self, name))

    @property
    def a1(self) -> float:
        return abs(self.h1)

    @property
    def a2(self) -> float:
        return abs(self.h2)

    @property
    def a3(self) -> float:
        return abs(self.h3)

    @property
    def a23(self) -> float:
        """Amplitude of the cascaded backscatter path, |h2|*|h3|."""
        return abs(self.h2) * abs(self.h3)

    @property
    def theta0(self) -> float:
        return composite_phase(self)


def composite_phase(ch: ChannelTriple) -> float:
    """Composite channel phase arg(h2) + arg(h3) - arg(h1), reduced to [0, 2pi).

    All downstream uses sit inside cos(.) or modular sets, so the canonical
    representative is harmless and keeps one value per physical channel.
    """
    if ch.a1 == 0.0 or ch.a2 == 0.0 or ch.a3 == 0.0:
        raise ValueError("degenerate channel: all of |h1|, |h2|, |h3| must be nonzero "
                         "for the composite phase to be defined")
    return _wrap_phase(cmath.phase(ch.h2) + cmath.phase(ch.h3) - cmath.phase(ch.h1), TWO_PI)


def channel_from_path_loss(model: PathLossModel, l1: complex, l2: complex,
                           l3: complex) -> ChannelTriple:
    """Build the channel triple h_i = sqrt(mu_i) * l_i from fading samples."""
    return ChannelTriple(
        h1=make_channel(path_loss(model, 1), l1),
        h2=make_channel(path_loss(model, 2), l2),
        h3=make_channel(path_loss(model, 3), l3),
    )


@dataclass(frozen=True)
class SystemParams:
    """Transmit power P (W), noise power sigma^2 (W), spreading factor L.

    The analysis assumes L >> 1 for the combining statistics to hold; only
    L >= 1 is enforced here and the simulator warns below L = 16.
    """

    power_w: float
    noise_w: float
    spread: int = 128

    def __post_init__(self) -> None:
        if not (math.isfinite(self.power_w) and self.power_w > 0):
            raise ValueError(f"power_w must be finite and > 0, got {self.power_w!r}")
        if not (math.isfinite(self.noise_w) and self.noise_w > 0):
            raise ValueError(f"noise_w must be finite and > 0, got {self.noise_w!r}")
        if not (isinstance(self.spread, int) and self.spread >= 1):
            raise ValueError(f"spread must be an integer >= 1, got {self.spread!r}")
        try:
            scale = self.spread * self.snr_scale  # L P / sigma^2 scales the combiner gain
        except OverflowError:  # a spread beyond the float range
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"spread * power_w / noise_w must be finite, got "
                             f"{self.spread!r} * {self.power_w!r} / {self.noise_w!r}")

    @property
    def snr_scale(self) -> float:
        """P / sigma^2, the factor multiplying every squared channel gain."""
        return self.power_w / self.noise_w
