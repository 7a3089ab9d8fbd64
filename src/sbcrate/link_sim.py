"""Symbol-level Monte Carlo simulation of the full transceiver chain.

Primary symbols are circularly symmetric complex Gaussian; each device
symbol holds its reflection coefficient over L primary symbols.  The
receiver removes the (perfectly known) direct-path contribution and applies
maximal ratio combining to the residual, reproducing the analytical
combining statistic used by the rate analysis.  Used to validate the
combiner moments and the device rate empirically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bd_rate import MiEstimate, _log_ratio_bits, _sample_mean, mrc_statistics
from .channel import ChannelTriple, SystemParams
from .constellation import Constellation

#: Below this spreading factor the L >> 1 combining approximation is shaky.
LOW_SPREAD_WARNING = 16

#: Device symbols per simulation chunk in the streaming estimator.
_SIM_CHUNK = 1 << 13


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream index; identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self, *subkey: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(self.stream, *subkey)))


def cscg_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian samples."""
    return math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass
class SimulatedBlock:
    """One simulated transmission block.

    `bd_symbol_indices` are 0-based positions into the constellation, each
    constant over its L-sample span of `pt_symbols`.  The receiver fills
    `residual` and `mrc_outputs`.
    """

    pt_symbols: np.ndarray
    bd_symbol_indices: np.ndarray
    received: np.ndarray
    residual: np.ndarray | None = field(default=None)
    mrc_outputs: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.pt_symbols) != len(self.received):
            raise ValueError("pt_symbols and received must have equal length")
        if len(self.pt_symbols) % len(self.bd_symbol_indices) != 0:
            raise ValueError("pt_symbols length must be a multiple of the device symbol count")


def simulate_block(sys: SystemParams, ch: ChannelTriple, c: Constellation,
                   n_bd_symbols: int, rng: RngSpec | np.random.Generator,
                   normalize_pt_power: bool = True) -> SimulatedBlock:
    """Simulate n_bd_symbols device symbols through the two-path channel.

    y(n) = sqrt(P) (h1 + h2 h3 Gamma_m) s(n) + w(n) with w ~ CN(0, sigma^2).
    With `normalize_pt_power` each L-sample span of s is scaled to exact unit
    average power, which realizes the analytical combining statistic exactly
    instead of up to an O(1/sqrt(L)) energy fluctuation; phases and relative
    amplitudes of s stay Gaussian.
    """
    if n_bd_symbols < 1:
        raise ValueError(f"n_bd_symbols must be >= 1, got {n_bd_symbols!r}")
    L = sys.spread
    if L < LOW_SPREAD_WARNING:
        warnings.warn(f"spreading factor L={L} is small; the combining model "
                      f"assumes L >> 1", stacklevel=2)
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    n_pt = n_bd_symbols * L
    s = cscg_samples(gen, n_pt)
    if normalize_pt_power:
        spans = s.reshape(n_bd_symbols, L)
        energy = np.sqrt(np.mean(np.abs(spans) ** 2, axis=1, keepdims=True))
        s = (spans / energy).reshape(n_pt)
    idx = gen.integers(0, c.order, size=n_bd_symbols)
    gamma = np.asarray(c.points, dtype=complex)[idx]
    h_eq = ch.h1 + ch.h2 * ch.h3 * gamma          # per device symbol
    noise = math.sqrt(sys.noise_w) * cscg_samples(gen, n_pt)
    y = math.sqrt(sys.power_w) * np.repeat(h_eq, L) * s + noise
    return SimulatedBlock(pt_symbols=s, bd_symbol_indices=idx, received=y)


def sic_mrc_receiver(block: SimulatedBlock, sys: SystemParams,
                     ch: ChannelTriple) -> np.ndarray:
    """Cancel the direct path, then combine each L-span against the residual.

    residual(n) = y(n) - sqrt(P) h1 s(n);
    out(m) = sum_n (sqrt(P) h2 h3 s(n))* residual(n) / sigma^2 over span m.
    Assumes the primary symbols and both cascaded coefficients are known
    exactly, as in the analytical model.
    """
    L = sys.spread
    n_bd = len(block.bd_symbol_indices)
    residual = block.received - math.sqrt(sys.power_w) * ch.h1 * block.pt_symbols
    weights = (math.sqrt(sys.power_w) * ch.h2 * ch.h3 * block.pt_symbols).conj()
    out = (weights * residual).reshape(n_bd, L).sum(axis=1) / sys.noise_w
    block.residual = residual
    block.mrc_outputs = out
    return out


def empirical_bd_mi(sys: SystemParams, ch: ChannelTriple, c: Constellation,
                    n_bd_symbols: int, rng: RngSpec) -> MiEstimate:
    """Plug-in mutual information estimate from simulated combiner outputs.

    Runs the full chain in chunks (one substream per chunk, so the estimate
    is independent of scheduling), feeds the (symbol, output) pairs into the
    model log ratio, and reports the sample mean and standard error.
    """
    if n_bd_symbols < 10_000:
        raise ValueError(f"n_bd_symbols must be >= 10000, got {n_bd_symbols!r}")
    stats = mrc_statistics(sys, ch)
    points = np.asarray(c.points, dtype=complex)

    def draw(plan: list[tuple[int, int]]) -> Iterator[np.ndarray]:
        for chunk_index, n in plan:
            block = simulate_block(sys, ch, c, n, rng.generator(chunk_index))
            y = sic_mrc_receiver(block, sys, ch)
            yield _log_ratio_bits(y, block.bd_symbol_indices, points,
                                  stats.gain, stats.noise_var)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # low-L warning surfaced once by callers
        return _sample_mean(n_bd_symbols, _SIM_CHUNK, draw)
