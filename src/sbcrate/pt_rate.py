"""Achievable rate of the primary transmitter.

Finite modulation orders use the exact M-term average of log2(1 + SNR_m)
over the equiprobable reflection states, evaluated by one broadcasting
kernel on the direct form |h1 + h2 h3 Gamma_m|^2, which does not cancel when
the direct and backscatter paths nearly do.  `pt_rate` takes the points as a
(..., M) array and gives one rate per row, so a single constellation and a
whole phase curve are the same call.  Infinite orders use closed forms: the
amplitude-keyed rate integrates the grid into a continuous uniform amplitude
on [0, 1], the phase-keyed rate averages a continuous uniform phase over
[0, 2pi).  All rates are bits per channel use.
"""

from __future__ import annotations

import math
import numpy as np

from .channel import ChannelTriple, SystemParams
from .constellation import _check_order, mask_points, mpsk_points

_LN2 = math.log(2.0)


def _rate_bits(rho: float, h1, h23, gammas) -> np.ndarray:
    """Mean over the last axis of log2(1 + rho |h1 + h23 Gamma|^2), broadcasting.

    The one evaluation of the finite-order primary rate: scalar rates, phase
    curves, optimum values and sweeps differ only in the shapes passed.
    """
    return np.log1p(rho * np.abs(h1 + h23 * gammas) ** 2).mean(axis=-1) / _LN2


def pt_rate_no_bd(sys: SystemParams, ch: ChannelTriple) -> float:
    """Baseline rate log2(1 + P|h1|^2 / sigma^2) with the device silent."""
    return math.log1p(sys.snr_scale * ch.a1**2) / _LN2


def pt_rate(sys: SystemParams, ch: ChannelTriple, points) -> np.ndarray:
    """Exact finite-order rate (1/M) sum_m log2(1 + P|h1 + h2 h3 Gamma_m|^2 / sigma^2).

    One rate per row of a (..., M) array of reflection coefficients: a
    constellation's `points` give one rate, `mask_points` or `mpsk_points` over
    an array of phases give the rate curve at those phases.
    """
    return _rate_bits(sys.snr_scale, ch.h1, ch.h2 * ch.h3, np.asarray(points))


# ---------------------------------------------------------------------------
# Infinite-order amplitude keying
# ---------------------------------------------------------------------------

def pt_rate_ask_infinite(sys: SystemParams, ch: ChannelTriple, phi0: float) -> float:
    """Infinite-order amplitude-keyed rate at common phase phi0.

    The continuous-amplitude average of log2(c1 + c2 a + c3 a^2) over a in
    [0, 1], with b = P|h1|^2/sigma^2, c1 = 1 + b, c3 = P|h2 h3|^2/sigma^2 and
    c2 = 2 sqrt(b c3) cos(psi), psi = theta0 + phi0.  Derived by integration
    by parts plus the standard rational-quadratic antiderivative.  The arctan
    difference is folded into a single atan2(sqrt(delta), c1 + c2/2), which
    is continuous for delta = c1 c3 - (c2/2)^2 > 0, so no branch selection
    arises anywhere in the parameter space.  delta is formed as
    c3 (b sin^2 psi + 1), since the product form cancels catastrophically
    when cos(psi) is near +-1.
    """
    rho = sys.snr_scale
    b = rho * ch.a1**2
    c3 = rho * ch.a23**2
    if c3 <= 0.0:
        raise ValueError("degenerate backscatter path: |h2||h3| must be > 0 "
                         "(use pt_rate_no_bd when |h2||h3| = 0)")
    psi = (ch.theta0 + phi0) if ch.a1 > 0.0 else 0.0
    c1 = 1.0 + b
    c2 = 2.0 * math.sqrt(b * c3) * math.cos(psi)
    rootd = math.sqrt(c3 * (b * math.sin(psi) ** 2 + 1.0))
    b = c1 - 1.0  # the b that c1 = 1 + b holds after rounding
    # S - 1 as a sum of two non-negative pieces, (sqrt(b) - sqrt(c3))^2 and
    # 2 sqrt(b c3) (1 + cos psi) = 4 sqrt(b c3) cos^2(psi / 2); the plain
    # S = c1 + c2 + c3 cancels when cos(psi) ~ -1 and b ~ c3, and so does
    # 2 sqrt(b c3) + c2.
    s1 = (math.sqrt(b) - math.sqrt(c3)) ** 2 + 4.0 * math.sqrt(b * c3) * math.cos(0.5 * psi) ** 2
    term_log = math.log1p(s1)
    ratio = (c3 + c2) / c1
    # 1 + ratio = (1 + s1) / c1; near -1 the ratio has lost its low bits.
    log_ratio = math.log1p(ratio) if ratio > -0.5 else term_log - math.log1p(b)
    term_ratio = (c2 / (2.0 * c3)) * log_ratio
    term_atan = (2.0 * rootd / c3) * math.atan2(rootd, c1 + 0.5 * c2)
    return (term_log - 2.0 + term_ratio + term_atan) / _LN2


# ---------------------------------------------------------------------------
# Infinite-order phase keying
# ---------------------------------------------------------------------------

def pt_rate_psk_infinite(sys: SystemParams, ch: ChannelTriple, alpha0: float) -> float:
    """Infinite-order phase-keyed rate log2((d1 + sqrt(d1^2 - d2^2)) / 2).

    The continuous-phase average of log2(d1 + d2 cos u), with
    d1 = 1 + P(|h1|^2 + |h2 h3|^2 alpha0^2)/sigma^2 and
    d2 = 2P|h1||h2 h3| alpha0/sigma^2.  Independent of any base phase by
    construction: the average integrates the phase out entirely.
    """
    if not (0.0 <= alpha0 <= 1.0):
        raise ValueError(f"ring amplitude alpha0 must lie in [0, 1], got {alpha0!r}")
    rho = sys.snr_scale
    d1 = 1.0 + rho * (ch.a1**2 + (ch.a23 * alpha0) ** 2)
    d2 = 2.0 * rho * ch.a1 * ch.a23 * alpha0
    # d1 - d2 = 1 + P(|h1| - |h2 h3| alpha0)^2/sigma^2 >= 1, formed directly:
    # the difference of the rounded d1 and d2 cancels, and can even turn
    # negative, when the direct and backscatter amplitudes nearly coincide.
    d1_minus_d2 = 1.0 + rho * (ch.a1 - ch.a23 * alpha0) ** 2
    root = math.sqrt(d1_minus_d2 * (d1 + d2))
    return math.log2(0.5 * (d1 + root))


# ---------------------------------------------------------------------------
# Optimal-phase maxima
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
