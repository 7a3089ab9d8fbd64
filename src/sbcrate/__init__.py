"""Rates, phase optimization, and link simulation for symbiotic backscatter
communication with amplitude- or phase-keyed reflection modulation."""

from .bd_rate import (MiEstimate, MrcStatistics, PrecisionError, bd_rate,
                      mi_monte_carlo, mi_quadrature, mrc_statistics)
from .channel import (ChannelTriple, PathLossModel, SystemParams, channel_from_path_loss,
                      composite_phase, make_channel, path_loss)
from .constellation import (Constellation, Impedance, avg_power, equal_power_psk_amplitude,
                            explicit_constellation, mask_constellation, mpsk_constellation,
                            reflection_from_impedance)
from .link_sim import RngSpec, SimulatedBlock, empirical_bd_mi, sic_mrc_receiver, simulate_block
from .phase_opt import (PhaseOptProblem, PhaseSolution, check_feasibility, grid_search_phase,
                        optimal_phase_ask, optimal_phase_psk, solve_phase_problem)
from .pt_rate import (AskAsymptoticCoefficients, PskAsymptoticCoefficients, RateReport,
                      max_pt_rate_ask, max_pt_rate_psk, pt_rate_ask_infinite, pt_rate_finite,
                      pt_rate_no_bd, pt_rate_psk_infinite, rate_gain)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, write_scenario

__version__ = "0.1.0"

__all__ = [
    "AskAsymptoticCoefficients",
    "ChannelTriple",
    "Constellation",
    "Impedance",
    "MiEstimate",
    "MrcStatistics",
    "PathLossModel",
    "PhaseOptProblem",
    "PhaseSolution",
    "PrecisionError",
    "PskAsymptoticCoefficients",
    "RateReport",
    "RngSpec",
    "Scenario",
    "ScenarioError",
    "SimulatedBlock",
    "SystemParams",
    "avg_power",
    "bd_rate",
    "channel_from_path_loss",
    "check_feasibility",
    "composite_phase",
    "empirical_bd_mi",
    "equal_power_psk_amplitude",
    "explicit_constellation",
    "grid_search_phase",
    "load_scenario",
    "make_channel",
    "mask_constellation",
    "max_pt_rate_ask",
    "max_pt_rate_psk",
    "mi_monte_carlo",
    "mi_quadrature",
    "mpsk_constellation",
    "mrc_statistics",
    "optimal_phase_ask",
    "optimal_phase_psk",
    "parse_scenario",
    "path_loss",
    "pt_rate_ask_infinite",
    "pt_rate_finite",
    "pt_rate_no_bd",
    "pt_rate_psk_infinite",
    "rate_gain",
    "reflection_from_impedance",
    "sic_mrc_receiver",
    "simulate_block",
    "solve_phase_problem",
    "write_scenario",
]
