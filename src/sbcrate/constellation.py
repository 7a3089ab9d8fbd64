"""Reflection-coefficient constellations of the backscatter device.

The device switches among M load impedances, each mapping to a complex
reflection coefficient Gamma with |Gamma| <= 1.  Symbols are equiprobable.
Amplitude keying uses the equidistant grid (m-1)/(M-1) at a common phase;
phase keying uses a common amplitude at M equally spaced phases.  Each scheme
has one point formula, vectorised over base phases, which the constellations,
the rate curves and the rate optima all share.  Arbitrary point sets are
supported for degenerate test inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import TWO_PI

_PASSIVITY_TOL = 1e-12


@dataclass(frozen=True)
class Constellation:
    """Ordered reflection coefficients Gamma_1..Gamma_M, equiprobable."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a constellation needs at least one point")
        for p in self.points:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError(f"non-finite constellation point {p!r}")
            if abs(p) > 1.0 + _PASSIVITY_TOL:
                raise ValueError(f"passivity violation: |Gamma| = {abs(p)} > 1")

    @property
    def order(self) -> int:
        return len(self.points)


def _check_order(M: int) -> None:
    if not (isinstance(M, int) and M >= 2):
        raise ValueError(f"modulation order must be an integer >= 2, got {M!r}")


def mask_points(M: int, phases) -> np.ndarray:
    """Amplitude-keyed points (m-1)/(M-1) * e^{j phi}, m = 1..M, one row per phase."""
    _check_order(M)
    return np.arange(M) / (M - 1) * np.exp(1j * np.asarray(phases, dtype=float)[..., None])


def mpsk_points(M: int, alpha0: float, phases) -> np.ndarray:
    """Phase-keyed points alpha0 * e^{j(phi + 2pi(m-1)/M)}, m = 1..M, one row per phase."""
    _check_order(M)
    phases = np.asarray(phases, dtype=float)[..., None]
    return alpha0 * np.exp(1j * (phases + TWO_PI * np.arange(M) / M))


def mask_constellation(M: int, phi0: float) -> Constellation:
    """Amplitude-keyed set (m-1)/(M-1) * e^{j phi0}, m = 1..M."""
    return Constellation(points=tuple(mask_points(M, phi0).tolist()))


def mpsk_constellation(M: int, alpha0: float, phi0: float) -> Constellation:
    """Phase-keyed set alpha0 * e^{j(phi0 + 2pi(m-1)/M)}, phi0 in [0, 2pi/M).

    The base phase is range-checked rather than wrapped; callers that want a
    wrapped phase go through the optimizer, which reports the wrap index.
    """
    _check_order(M)
    if not (0.0 < alpha0 <= 1.0):
        raise ValueError(f"ring amplitude alpha0 must lie in (0, 1], got {alpha0!r}")
    if not (0.0 <= phi0 < TWO_PI / M):
        raise ValueError(f"base phase {phi0!r} outside [0, 2pi/M) for M = {M}")
    return Constellation(points=tuple(mpsk_points(M, alpha0, phi0).tolist()))


def explicit_constellation(points) -> Constellation:
    return Constellation(points=tuple(complex(p) for p in points))


def equal_power_psk_amplitude(M: int) -> float:
    """Ring amplitude whose average power matches the order-M amplitude grid.

    sqrt((1/M) sum ((m-1)/(M-1))^2), clamped to the passive limit of 1.
    """
    _check_order(M)
    mean_sq = math.fsum((m / (M - 1)) ** 2 for m in range(M)) / M
    return min(math.sqrt(mean_sq), 1.0)
