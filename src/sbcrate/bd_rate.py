"""Backscatter-device rate: exact mutual information of the combined statistic.

After interference cancellation and maximal ratio combining, one device
symbol is observed as y = g * Gamma_m + w with w circularly symmetric
complex Gaussian of variance sigma_s^2, and the coupling g = sigma_s^2 =
L P |h2|^2 |h3|^2 / sigma^2.  The device rate is the mutual information of
the equiprobable discrete input against that observation: one log-ratio
kernel averaged over the noise nodes of a tensor-product Gauss-Hermite rule,
or over sampled observations by Monte Carlo and the link simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import ChannelTriple, SystemParams
from .constellation import Constellation

_LN2 = math.log(2.0)

#: Node counts tried in turn until two consecutive estimates agree.  The
#: rule's weights overflow beyond roughly 400 nodes, so the ladder stops at
#: 324; the hardest regime (transition sitting a few noise deviations out)
#: converges to ~1e-9 there.
DEFAULT_NODE_SCHEDULE = (64, 96, 144, 216, 324)
DEFAULT_MI_TOL = 1e-8

#: Monte Carlo samples per substream; fixed so that results do not depend on
#: how substreams are distributed over workers.
_MC_CHUNK = 1 << 19


class PrecisionError(RuntimeError):
    """Quadrature failed to converge within the node budget.

    Carries the best estimate achieved so the caller can decide whether the
    achieved accuracy is still serviceable.
    """

    def __init__(self, message: str, estimate: "MiEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class MrcStatistics:
    """Post-combining gain g and noise variance sigma_s^2 (dimensionless).

    The receiver model ties them together, gain == noise_var; the
    constructor accepts unequal values only so unit tests can probe the
    integration engine off the physical manifold.
    """

    gain: float
    noise_var: float


def mrc_statistics(sys: SystemParams, ch: ChannelTriple) -> MrcStatistics:
    """g = sigma_s^2 = L P |h2|^2 |h3|^2 / sigma^2 for the given link."""
    g = sys.spread * sys.power_w * ch.a2**2 * ch.a3**2 / sys.noise_w
    return MrcStatistics(gain=g, noise_var=g)


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in bits with the estimator's standard error."""

    value_bits: float
    std_error_bits: float
    method: str


def _log_ratio_bits(y: np.ndarray, conditioned: int | np.ndarray, points: np.ndarray,
                    gain: float, noise_var: float) -> np.ndarray:
    """Per-observation log2[p(y | Gamma_m) / p(y)] for observations y.

    `conditioned` is the transmitted symbol index, one for all observations
    or one per observation.  Differences of the Gaussian exponents are taken
    against the transmitted symbol and reduced with max-subtraction, so gains
    up to ~1e8 stay inside the exponential range.  The |y|^2 term cancels in
    the difference and is never formed.
    """
    if gain == 0.0:
        return np.zeros(y.shape[0])
    scaled = gain * points
    # u[i, n] = (2 Re(y conj(g G_i)) - |g G_i|^2) / nv; the log ratio needs
    # only u_i - u_m, with u_m in the same arithmetic so that u_m - u_m == 0.
    u = (2.0 * (np.outer(scaled.real, y.real) + np.outer(scaled.imag, y.imag))
         - (np.abs(scaled) ** 2)[:, None]) / noise_var
    sc = scaled[conditioned]
    u -= (2.0 * (sc.real * y.real + sc.imag * y.imag) - np.abs(sc) ** 2) / noise_var
    umax = np.maximum(u.max(axis=0), 0.0)
    u -= umax
    np.exp(u, out=u)
    lse = umax / _LN2 + np.log2(u.sum(axis=0))
    return math.log2(len(points)) - lse


@lru_cache(maxsize=16)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit noise nodes x_i + j x_k and weights w_i w_k / pi of the tensor rule, flattened."""
    if nodes > 400:
        raise ValueError(f"Hermite rule weights overflow above ~400 nodes, got {nodes}")
    x, w = hermgauss(nodes)
    return (x[:, None] + 1j * x[None, :]).ravel(), np.outer(w, w).ravel() / math.pi


def mi_quadrature(c: Constellation, stats: MrcStatistics, tol: float = DEFAULT_MI_TOL,
                  node_schedule: tuple[int, ...] = DEFAULT_NODE_SCHEDULE) -> MiEstimate:
    """Deterministic mutual information of the constellation through the combiner.

    Refines the node count along `node_schedule` until two consecutive
    estimates differ by at most `tol` bits; raises :class:`PrecisionError`
    carrying the best estimate if the budget is exhausted first.
    """
    points = np.asarray(c.points, dtype=complex)
    if stats.gain == 0.0 or np.all(points == points[0]):
        # Output carries no information about the symbol.
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="quadrature")
    if stats.noise_var <= 0.0:
        raise ValueError(f"noise_var must be > 0, got {stats.noise_var!r}")
    if len(node_schedule) < 2:
        raise ValueError("node_schedule needs at least two levels to assess convergence")

    def level(nodes: int) -> float:
        # (w * v).sum(), not w @ v: the product weights reach the subnormal
        # range, where the BLAS dot slows down by orders of magnitude.
        z, weights = _hermite_rule(nodes)
        noise = math.sqrt(stats.noise_var) * z
        return sum(float((weights * _log_ratio_bits(stats.gain * points[m] + noise, m, points,
                                                    stats.gain, stats.noise_var)).sum())
                   for m in range(len(points))) / len(points)

    prev = level(node_schedule[0])
    for nodes in node_schedule[1:]:
        cur = level(nodes)
        if abs(cur - prev) <= tol:
            return MiEstimate(value_bits=cur, std_error_bits=0.0, method="quadrature")
        prev = cur
    achieved = MiEstimate(value_bits=prev, std_error_bits=0.0, method="quadrature")
    raise PrecisionError(
        f"quadrature did not reach tol={tol} within node budget {node_schedule}",
        achieved,
    )


def _sample_mean(samples: int, chunk: int,
                 draw: Callable[[list[tuple[int, int]]], Iterator[np.ndarray]]) -> MiEstimate:
    """Sample mean and standard error of `samples` values drawn in chunks.

    `draw` takes the (chunk index, size) of every chunk and yields each
    chunk's values in turn; chunks are summed in index order, so a result
    depends only on what each chunk draws.  A generator keeps one chunk's
    arrays alive until the next chunk replaces them, so their memory is
    reused rather than handed back to the system and faulted in again.
    """
    plan = [(i, min(chunk, samples - start)) for i, start in enumerate(range(0, samples, chunk))]
    total = total_sq = 0.0
    for vals in draw(plan):
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return MiEstimate(value_bits=mean, std_error_bits=math.sqrt(var / samples),
                      method="monte_carlo")


def mi_monte_carlo(c: Constellation, stats: MrcStatistics, samples: int,
                   seed: int) -> MiEstimate:
    """Monte Carlo estimate of the same mutual information.

    Draws symbols uniformly, adds the Gaussian observation noise, and
    averages the plug-in log ratio.  Samples are generated in fixed-size
    substreams keyed by (seed, chunk index), so the result is bit-identical
    for a given seed no matter how the chunks would be scheduled.
    """
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples!r}")
    if stats.gain == 0.0:
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="monte_carlo")
    if stats.noise_var <= 0.0:
        raise ValueError(f"noise_var must be > 0, got {stats.noise_var!r}")
    points = np.asarray(c.points, dtype=complex)
    half = math.sqrt(stats.noise_var / 2.0)

    def draw(plan: list[tuple[int, int]]) -> Iterator[np.ndarray]:
        for chunk_index, n in plan:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
            m = rng.integers(0, len(points), size=n)
            w = half * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            y = stats.gain * points[m] + w
            yield _log_ratio_bits(y, m, points, stats.gain, stats.noise_var)

    return _sample_mean(samples, _MC_CHUNK, draw)


def bd_rate(sys: SystemParams, ch: ChannelTriple, c: Constellation,
            tol: float = DEFAULT_MI_TOL) -> MiEstimate:
    """Device rate for one scenario: combiner statistics plus quadrature."""
    return mi_quadrature(c, mrc_statistics(sys, ch), tol=tol)
