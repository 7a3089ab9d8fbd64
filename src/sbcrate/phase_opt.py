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


def phase_period(scheme: str, M: int) -> float:
    """Period of the rate in the base phase: 2pi for mask, the symbol spacing 2pi/M for mpsk."""
    return TWO_PI if scheme == "mask" else TWO_PI / M


def optimal_phase(scheme: str, M: int, theta0: float) -> PhaseSolution:
    """Base phase maximizing the primary rate: (offset - theta0) mod `phase_period`.

    The offset is 0 for mask, whose rate summands all peak at cos(theta0 + phi0)
    = 1 whatever M, and :func:`~sbcrate.pt_rate.psk_optimal_offset` for mpsk (pi/M
    for even M, 0 for odd M).  The wrap index k has phi0 = offset + k period - theta0.
    """
    offset = 0.0 if scheme == "mask" else psk_optimal_offset(M)
    period = phase_period(scheme, M)
    phase = _wrap_phase(offset - theta0, period)
    return PhaseSolution(phase, int(round((phase + theta0 - offset) / period)))
