"""Closed-form phase optimization of the primary rate.

Amplitude keying aligns the common phase against the composite channel
phase; phase keying of even order centers the symbol fan so that the two
symbols nearest the channel phase straddle it symmetrically, and of odd
order aligns one symbol with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import TWO_PI, _wrap_phase
from .pt_rate import psk_optimal_offset


@dataclass(frozen=True)
class PhaseSolution:
    """An optimal base phase and its wrap index."""

    phase_rad: float
    wrap_index: int


def optimal_phase_ask(theta0: float) -> PhaseSolution:
    """Common phase maximizing the amplitude-keyed rate: (-theta0) mod 2pi.

    Every summand of the rate is maximized simultaneously when
    cos(theta0 + phi0) = 1; the wrap index is the integer lambda with
    phi0 = 2 lambda pi - theta0.  Independent of the modulation order.
    """
    phase = _wrap_phase(-theta0, TWO_PI)
    lam = round((phase + theta0) / TWO_PI)
    return PhaseSolution(phase_rad=phase, wrap_index=int(lam))


def optimal_phase_psk(theta0: float, M: int) -> PhaseSolution:
    """Base phase maximizing the order-M phase-keyed rate: (offset - theta0) mod 2pi/M.

    The offset is :func:`~sbcrate.pt_rate.psk_optimal_offset`: pi/M for even
    M, 0 for odd M.  The wrap index eta satisfies
    phi0 = offset + 2 eta pi / M - theta0.
    """
    offset = psk_optimal_offset(M)
    period = TWO_PI / M
    phase = _wrap_phase(offset - theta0, period)
    eta = round((phase + theta0 - offset) / period)
    return PhaseSolution(phase_rad=phase, wrap_index=int(eta))
