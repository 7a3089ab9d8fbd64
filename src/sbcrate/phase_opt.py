"""Closed-form phase optimization of the primary rate, with a grid oracle.

The device rate is invariant to the base phase, so the constrained problems
(maximize the primary rate subject to a minimum device rate) reduce to a
one-time feasibility check plus an unconstrained phase choice.  Amplitude
keying aligns the common phase against the composite channel phase; phase
keying of even order centers the symbol fan so that the two symbols nearest
the channel phase straddle it symmetrically, and of odd order aligns one
symbol with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bd_rate import bd_rate
from .channel import TWO_PI, ChannelTriple, SystemParams
from .constellation import equal_power_psk_amplitude, mask_constellation, mpsk_constellation
from .pt_rate import psk_optimal_offset, pt_rate_finite


@dataclass(frozen=True)
class PhaseOptProblem:
    """One rate-maximization instance: scheme, order, and device-rate floor."""

    scheme: str
    order: int
    alpha0: float | None = None
    min_bd_rate_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in ("mask", "mpsk"):
            raise ValueError(f"scheme must be 'mask' or 'mpsk', got {self.scheme!r}")
        if not (isinstance(self.order, int) and self.order >= 2):
            raise ValueError(f"order must be an integer >= 2, got {self.order!r}")
        if self.scheme == "mpsk" and self.alpha0 is None:
            raise ValueError("mpsk problems need a ring amplitude alpha0")
        if self.min_bd_rate_bits < 0.0:
            raise ValueError("min_bd_rate_bits must be >= 0")

    def resolved_alpha0(self) -> float:
        if self.scheme == "mask":
            return 1.0
        return self.alpha0 if self.alpha0 is not None else equal_power_psk_amplitude(self.order)


@dataclass(frozen=True)
class PhaseSolution:
    """An optimal base phase, its wrap index, and optionally the achieved rate."""

    phase_rad: float
    wrap_index: int
    achieved_pt_rate: float | None = None
    feasible: bool = True


def optimal_phase_ask(theta0: float) -> PhaseSolution:
    """Common phase maximizing the amplitude-keyed rate: (-theta0) mod 2pi.

    Every summand of the rate is maximized simultaneously when
    cos(theta0 + phi0) = 1; the wrap index is the integer lambda with
    phi0 = 2 lambda pi - theta0.  Independent of the modulation order.
    """
    phase = (-theta0) % TWO_PI
    if phase >= TWO_PI:
        phase -= TWO_PI
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
    phase = (offset - theta0) % period
    if phase >= period:
        phase -= period
    eta = round((phase + theta0 - offset) / period)
    return PhaseSolution(phase_rad=phase, wrap_index=int(eta))


def grid_search_phase(objective: Callable, lo: float, hi: float,
                      points: int) -> tuple[float, float]:
    """Argmax of the objective over a uniform grid on [lo, hi).

    The grid includes `lo` and excludes `hi`; ties break toward the smaller
    phase.  The objective takes the array of grid phases and returns one value
    per phase.
    """
    if points < 3:
        raise ValueError(f"grid needs at least 3 points, got {points!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo!r} hi={hi!r}")
    grid = np.linspace(lo, hi, points, endpoint=False)
    vals = np.asarray(objective(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(f"objective returned shape {vals.shape}, expected {grid.shape}")
    best = int(np.argmax(vals))  # argmax takes the first maximum: smaller phase
    return float(grid[best]), float(vals[best])


def check_feasibility(problem: PhaseOptProblem, sys: SystemParams,
                      ch: ChannelTriple) -> bool:
    """Whether the device-rate floor is met; one evaluation suffices.

    The device rate does not depend on the base phase, so feasibility at any
    phase settles the constraint for every phase.
    """
    if problem.min_bd_rate_bits == 0.0:
        return True
    if problem.min_bd_rate_bits > math.log2(problem.order):
        return False
    if problem.scheme == "mask":
        c = mask_constellation(problem.order, 0.0)
    else:
        c = mpsk_constellation(problem.order, problem.resolved_alpha0(), 0.0)
    return bd_rate(sys, ch, c).value_bits >= problem.min_bd_rate_bits


def solve_phase_problem(problem: PhaseOptProblem, sys: SystemParams,
                        ch: ChannelTriple) -> PhaseSolution:
    """Closed-form optimum with the achieved rate and feasibility filled in.

    Infeasible instances still return the optimal phase, with feasible=False,
    rather than erroring: the phase choice is unaffected by the floor.
    """
    theta0 = ch.theta0
    if problem.scheme == "mask":
        sol = optimal_phase_ask(theta0)
        c = mask_constellation(problem.order, sol.phase_rad)
    else:
        sol = optimal_phase_psk(theta0, problem.order)
        c = mpsk_constellation(problem.order, problem.resolved_alpha0(), sol.phase_rad)
    return PhaseSolution(
        phase_rad=sol.phase_rad,
        wrap_index=sol.wrap_index,
        achieved_pt_rate=pt_rate_finite(sys, ch, c),
        feasible=check_feasibility(problem, sys, ch),
    )

