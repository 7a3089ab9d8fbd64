"""Uniform-grid argmax, the oracle the closed-form phase optima are checked against."""

from typing import Callable

import numpy as np


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
