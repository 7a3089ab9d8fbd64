"""Achievable rate of the primary transmitter.

Finite modulation orders use the exact M-term average of log2(1 + SNR_m)
over the equiprobable reflection states, evaluated by one broadcasting
kernel on the direct form |h1 + h2 h3 Gamma_m|^2, which does not cancel when
the direct and backscatter paths nearly do.  Infinite orders use closed forms: the
amplitude-keyed rate integrates the grid into a continuous uniform amplitude
on [0, 1], the phase-keyed rate averages a continuous uniform phase over
[0, 2pi).  All rates are bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTriple, SystemParams
from .constellation import Constellation, _check_order, mask_points, mpsk_points

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateReport:
    """The primary rate with and without device access, and their difference."""

    pt_rate: float
    no_bd_rate: float
    gain: float


def _rate_bits(rho: float, h1, h23, gammas) -> np.ndarray:
    """Mean over the last axis of log2(1 + rho |h1 + h23 Gamma|^2), broadcasting.

    The one evaluation of the finite-order primary rate: scalar rates, phase
    curves, optimum values and sweeps differ only in the shapes passed.
    """
    return np.log1p(rho * np.abs(h1 + h23 * gammas) ** 2).mean(axis=-1) / _LN2


def pt_rate_no_bd(sys: SystemParams, ch: ChannelTriple) -> float:
    """Baseline rate log2(1 + P|h1|^2 / sigma^2) with the device silent."""
    return math.log1p(sys.snr_scale * ch.a1**2) / _LN2


def pt_rate_finite(sys: SystemParams, ch: ChannelTriple, c: Constellation) -> float:
    """Exact finite-order rate (1/M) sum_m log2(1 + P|h1 + h2 h3 Gamma_m|^2 / sigma^2)."""
    return float(_rate_bits(sys.snr_scale, ch.h1, ch.h2 * ch.h3, np.asarray(c.points)))


def rate_gain(sys: SystemParams, ch: ChannelTriple, c: Constellation) -> RateReport:
    """Rate with device access minus the silent baseline, both included."""
    with_bd = pt_rate_finite(sys, ch, c)
    without = pt_rate_no_bd(sys, ch)
    return RateReport(pt_rate=with_bd, no_bd_rate=without, gain=with_bd - without)


# ---------------------------------------------------------------------------
# Infinite-order amplitude keying
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AskAsymptoticCoefficients:
    """Quadratic-in-amplitude SNR coefficients for the continuous amplitude limit.

    The integrand is log2(c1 + c2*a + c3*a^2) for a in [0, 1].  `delta` is
    c1*c3 - (c2/2)^2 > 0; it is carried explicitly because the product form
    cancels catastrophically in floating point when cos(theta0 + phi0) is
    near +-1, whereas c3*((c1-1)*sin^2 + 1) does not.
    """

    c1: float
    c2: float
    c3: float
    delta: float

    def __post_init__(self) -> None:
        if self.c1 < 1.0 - 1e-12:
            raise ValueError(f"c1 must be >= 1, got {self.c1!r}")
        if self.c3 <= 0.0:
            raise ValueError("degenerate backscatter path: c3 must be > 0 "
                             "(use pt_rate_no_bd when |h2||h3| = 0)")
        if self.delta <= 0.0:
            raise ValueError(f"c1*c3 - (c2/2)^2 must be > 0, got {self.delta!r}")

    @classmethod
    def from_link(cls, sys: SystemParams, ch: ChannelTriple,
                  phi0: float) -> "AskAsymptoticCoefficients":
        rho = sys.snr_scale
        b = rho * ch.a1**2
        c3 = rho * ch.a23**2
        if c3 <= 0.0:
            raise ValueError("degenerate backscatter path: |h2||h3| must be > 0")
        psi = (ch.theta0 + phi0) if ch.a1 > 0.0 else 0.0
        cos_psi = math.cos(psi)
        c2 = 2.0 * math.sqrt(b * c3) * cos_psi
        delta = c3 * (b * math.sin(psi) ** 2 + 1.0)
        return cls(c1=1.0 + b, c2=c2, c3=c3, delta=delta)


def ask_infinite_rate(coef: AskAsymptoticCoefficients) -> float:
    """Closed form of the continuous-amplitude average of log2(c1 + c2 a + c3 a^2).

    Derived by integration by parts plus the standard rational-quadratic
    antiderivative.  The arctan difference is folded into a single
    atan2(sqrt(delta), c1 + c2/2), which is continuous for delta > 0, so no
    branch selection arises anywhere in the parameter space.
    """
    c1, c2, c3, delta = coef.c1, coef.c2, coef.c3, coef.delta
    b = c1 - 1.0
    rootd = math.sqrt(delta)
    # S - 1 as a sum of two non-negative pieces, (sqrt(b) - sqrt(c3))^2 and
    # 2 sqrt(b c3) (1 + cos psi); the plain S = c1 + c2 + c3 cancels when
    # cos(psi) ~ -1 and b ~ c3.
    s1 = (math.sqrt(b) - math.sqrt(c3)) ** 2 + (2.0 * math.sqrt(b * c3) + c2)
    term_log = math.log1p(s1)
    term_ratio = (c2 / (2.0 * c3)) * math.log1p((c3 + c2) / c1)
    term_atan = (2.0 * rootd / c3) * math.atan2(rootd, c1 + 0.5 * c2)
    return (term_log - 2.0 + term_ratio + term_atan) / _LN2


def pt_rate_ask_infinite(sys: SystemParams, ch: ChannelTriple, phi0: float) -> float:
    """Infinite-order amplitude-keyed rate at common phase phi0."""
    return ask_infinite_rate(AskAsymptoticCoefficients.from_link(sys, ch, phi0))


# ---------------------------------------------------------------------------
# Infinite-order phase keying
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PskAsymptoticCoefficients:
    """Coefficients of the continuous-phase average log2(d1 + d2 cos(u)).

    d1 - d2 = 1 + P(|h1| - |h2 h3| alpha0)^2 / sigma^2 > 0 always holds, so
    the closed form never leaves its domain.
    """

    d1: float
    d2: float

    def __post_init__(self) -> None:
        if self.d2 < 0.0:
            raise ValueError(f"d2 must be >= 0, got {self.d2!r}")
        if self.d1 <= self.d2:
            raise ValueError(f"d1 must exceed d2, got d1={self.d1!r} d2={self.d2!r}")

    @classmethod
    def from_link(cls, sys: SystemParams, ch: ChannelTriple,
                  alpha0: float) -> "PskAsymptoticCoefficients":
        if not (0.0 <= alpha0 <= 1.0):
            raise ValueError(f"ring amplitude alpha0 must lie in [0, 1], got {alpha0!r}")
        rho = sys.snr_scale
        d1 = 1.0 + rho * (ch.a1**2 + (ch.a23 * alpha0) ** 2)
        d2 = 2.0 * rho * ch.a1 * ch.a23 * alpha0
        return cls(d1=d1, d2=d2)


def pt_rate_psk_infinite(sys: SystemParams, ch: ChannelTriple, alpha0: float) -> float:
    """Infinite-order phase-keyed rate log2((d1 + sqrt(d1^2 - d2^2)) / 2).

    Independent of any base phase by construction: the continuous-phase
    average integrates the phase out entirely.
    """
    coef = PskAsymptoticCoefficients.from_link(sys, ch, alpha0)
    d1, d2 = coef.d1, coef.d2
    # (d1 - d2)(d1 + d2) avoids the cancellation of d1^2 - d2^2 when the
    # direct and backscatter amplitudes nearly coincide.
    rho = sys.snr_scale
    d1_minus_d2 = 1.0 + rho * (ch.a1 - ch.a23 * alpha0) ** 2
    root = math.sqrt(d1_minus_d2 * (d1 + d2))
    return math.log2(0.5 * (d1 + root))


# ---------------------------------------------------------------------------
# Optimal-phase maxima and vectorized phase curves
# ---------------------------------------------------------------------------

def psk_optimal_offset(M: int) -> float:
    """Relative phase theta0 + phi0 maximizing the order-M phase-keyed rate.

    pi/M for even M, 0 for odd M.  Write the SNR of symbol m as
    A |1 + r e^{i u_m}|^2 with u_m = theta0 + phi0 + 2 pi m / M and
    0 <= r < 1.  Expanding log|1 + r e^{iu}|^2 = 2 sum_k (-1)^(k+1) r^k cos(ku) / k
    and averaging over the M symbols keeps only the harmonics k = jM, which
    sum to (1/M) log|1 - (-r)^M e^{iM(theta0 + phi0)}|^2.  That is largest
    where (-r)^M e^{iM(theta0 + phi0)} is negative real, i.e. where
    e^{iM(theta0 + phi0)} = (-1)^(M+1).
    """
    _check_order(M)
    return math.pi / M if M % 2 == 0 else 0.0


def max_pt_rate_ask(sys: SystemParams, ch: ChannelTriple, M: int) -> float:
    """Finite-order amplitude-keyed rate at the rate-maximizing common phase.

    At the optimum every term aligns constructively:
    (1/M) sum log2(1 + P(|h1| + (m-1)/(M-1) |h2||h3|)^2 / sigma^2).
    """
    return float(_rate_bits(sys.snr_scale, ch.a1, ch.a23, mask_points(M, 0.0)))


def max_pt_rate_psk(sys: SystemParams, ch: ChannelTriple, M: int, alpha0: float) -> float:
    """Finite-order phase-keyed rate at the rate-maximizing base phase.

    The symbols sit at psk_optimal_offset(M) + 2pi(m-1)/M relative to the
    composite channel phase.
    """
    points = mpsk_points(M, alpha0, psk_optimal_offset(M))
    return float(_rate_bits(sys.snr_scale, ch.a1, ch.a23, points))


def mask_rate_curve(sys: SystemParams, ch: ChannelTriple, M: int,
                    phases: np.ndarray) -> np.ndarray:
    """Finite-order amplitude-keyed rate evaluated at an array of common phases."""
    gammas = mask_points(M, np.atleast_1d(phases))
    return _rate_bits(sys.snr_scale, ch.h1, ch.h2 * ch.h3, gammas)


def mpsk_rate_curve(sys: SystemParams, ch: ChannelTriple, M: int, alpha0: float,
                    phases: np.ndarray) -> np.ndarray:
    """Finite-order phase-keyed rate evaluated at an array of base phases."""
    gammas = mpsk_points(M, alpha0, np.atleast_1d(phases))
    return _rate_bits(sys.snr_scale, ch.h1, ch.h2 * ch.h3, gammas)
