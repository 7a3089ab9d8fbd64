"""Rates, phase optimization, and link simulation for symbiotic backscatter
communication with amplitude- or phase-keyed reflection modulation.

The modules are the interface: `pt_rate`, `bd_rate`, `phase_opt`,
`link_sim`, `constellation`, `channel`, `scenario` and `cli`.  The package
top level re-exports only the names its callers use from it.
"""

from .bd_rate import MrcStatistics, mi_quadrature, mrc_statistics
from .scenario import load_scenario

__all__ = ["MrcStatistics", "load_scenario", "mi_quadrature", "mrc_statistics"]
