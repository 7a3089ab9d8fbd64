"""Reflection-coefficient constellations of the backscatter device.

The device switches among M load impedances, each mapping to a complex
reflection coefficient Gamma with |Gamma| <= 1.  Symbols are equiprobable.
Amplitude keying uses the equidistant grid (m-1)/(M-1) at a common phase;
phase keying uses a common amplitude at M equally spaced phases.  Arbitrary
point sets are supported for impedance-derived and degenerate test inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .channel import TWO_PI

_PASSIVITY_TOL = 1e-12


@dataclass(frozen=True)
class Impedance:
    """Complex impedance Z = R + jX in ohms."""

    resistance_ohm: float
    reactance_ohm: float

    @property
    def z(self) -> complex:
        return complex(self.resistance_ohm, self.reactance_ohm)


def reflection_from_impedance(antenna: Impedance, load: Impedance) -> complex:
    """Reflection coefficient (Za* - Zm) / (Za + Zm) of one load state.

    The antenna must have positive resistance and the load a non-negative
    one (passive components), which keeps |Gamma| <= 1.
    """
    if antenna.resistance_ohm <= 0:
        raise ValueError(f"antenna resistance must be > 0 ohm, got {antenna.resistance_ohm!r}")
    if load.resistance_ohm < 0:
        raise ValueError(f"load resistance must be >= 0 ohm (passive load), "
                         f"got {load.resistance_ohm!r}")
    za, zm = antenna.z, load.z
    den = za + zm
    if den == 0:
        raise ValueError("singular impedance pair: Za + Zm = 0")
    gamma = (za.conjugate() - zm) / den
    if abs(gamma) > 1.0 + _PASSIVITY_TOL:
        raise ValueError(f"passivity violation: |Gamma| = {abs(gamma)} > 1")
    return gamma


@dataclass(frozen=True)
class Constellation:
    """Ordered reflection coefficients Gamma_1..Gamma_M, equiprobable.

    `base_phase` is the common phase of amplitude keying or the first-symbol
    phase of phase keying; `amplitude` is the common ring radius of phase
    keying.  Both are None for explicit point sets.
    """

    points: tuple[complex, ...]
    kind: str
    order: int
    base_phase: float | None = None
    amplitude: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("mask", "mpsk", "explicit"):
            raise ValueError(f"unknown constellation kind {self.kind!r}")
        if self.order != len(self.points) or self.order < 1:
            raise ValueError("order must equal the number of points and be >= 1")
        for p in self.points:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError(f"non-finite constellation point {p!r}")
            if abs(p) > 1.0 + _PASSIVITY_TOL:
                raise ValueError(f"passivity violation: |Gamma| = {abs(p)} > 1")

    def rotated(self, psi: float) -> "Constellation":
        """The same point set rotated by a global phase (explicit kind)."""
        rot = cmath.exp(1j * psi)
        return explicit_constellation([p * rot for p in self.points])


def _check_order(M: int) -> None:
    if not (isinstance(M, int) and M >= 2):
        raise ValueError(f"modulation order must be an integer >= 2, got {M!r}")


def mask_constellation(M: int, phi0: float) -> Constellation:
    """Amplitude-keyed set (m-1)/(M-1) * e^{j phi0}, m = 1..M."""
    _check_order(M)
    rot = cmath.exp(1j * phi0)
    pts = tuple((m / (M - 1)) * rot for m in range(M))
    return Constellation(points=pts, kind="mask", order=M, base_phase=float(phi0))


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
    pts = tuple(alpha0 * cmath.exp(1j * (phi0 + TWO_PI * m / M)) for m in range(M))
    return Constellation(points=pts, kind="mpsk", order=M,
                         base_phase=float(phi0), amplitude=float(alpha0))


def explicit_constellation(points) -> Constellation:
    pts = tuple(complex(p) for p in points)
    return Constellation(points=pts, kind="explicit", order=len(pts))


def avg_power(c: Constellation) -> float:
    """Mean squared amplitude (1/M) sum |Gamma_m|^2."""
    return math.fsum(abs(p) ** 2 for p in c.points) / c.order


def equal_power_psk_amplitude(M: int) -> float:
    """Ring amplitude whose average power matches the order-M amplitude grid.

    sqrt((1/M) sum ((m-1)/(M-1))^2), clamped to the passive limit of 1.
    """
    _check_order(M)
    mean_sq = math.fsum((m / (M - 1)) ** 2 for m in range(M)) / M
    return min(math.sqrt(mean_sq), 1.0)
