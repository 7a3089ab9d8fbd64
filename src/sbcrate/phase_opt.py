"""Closed-form phase optimization of the primary rate.

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

from .bd_rate import bd_rate
from .channel import TWO_PI, ChannelTriple, SystemParams, _wrap_phase
from .constellation import _check_order, mask_constellation, mpsk_constellation
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
        _check_order(self.order)
        if self.scheme == "mpsk" and self.alpha0 is None:
            raise ValueError("mpsk problems need a ring amplitude alpha0")
        if self.min_bd_rate_bits < 0.0:
            raise ValueError("min_bd_rate_bits must be >= 0")


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
        c = mpsk_constellation(problem.order, problem.alpha0, 0.0)
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
        c = mpsk_constellation(problem.order, problem.alpha0, sol.phase_rad)
    return PhaseSolution(
        phase_rad=sol.phase_rad,
        wrap_index=sol.wrap_index,
        achieved_pt_rate=pt_rate_finite(sys, ch, c),
        feasible=check_feasibility(problem, sys, ch),
    )

