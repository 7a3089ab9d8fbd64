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
from dataclasses import dataclass

import numpy as np

from .bd_rate import (_KERNEL_BLOCK, MiEstimate, _add_complex_normal, _log_ratio_bits,
                      _sample_mean, mrc_statistics)
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
    z = np.zeros(n, dtype=complex)
    _add_complex_normal(rng, z, math.sqrt(0.5))
    return z


def _warn_low_spread(L: int) -> None:
    if L < LOW_SPREAD_WARNING:
        warnings.warn(f"spreading factor L={L} is small; the combining model "
                      f"assumes L >> 1", stacklevel=3)


@dataclass(frozen=True)
class SimulatedBlock:
    """One simulated transmission block.

    `bd_symbol_indices` are 0-based positions into the constellation, each
    constant over its L-sample span of `pt_symbols`.
    """

    pt_symbols: np.ndarray
    bd_symbol_indices: np.ndarray
    received: np.ndarray

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
    _warn_low_spread(sys.spread)
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return _simulate(sys, ch, c, n_bd_symbols, gen, normalize_pt_power)


def _simulate(sys: SystemParams, ch: ChannelTriple, c: Constellation, n_bd: int,
              gen: np.random.Generator, normalize_pt_power: bool) -> SimulatedBlock:
    """`simulate_block` without its checks; the chunks of `empirical_bd_mi` run it."""
    L = sys.spread
    s = cscg_samples(gen, n_bd * L)
    spans = s.reshape(n_bd, L)
    if normalize_pt_power:
        energy = np.abs(spans)
        np.square(energy, out=energy)
        energy = np.sqrt(np.mean(energy, axis=1, keepdims=True))
        # Scaling the float view by 1/energy gives the bits of complex / real.
        parts = s.view(float).reshape(n_bd, 2 * L)
        parts *= 1.0 / energy
    idx = gen.integers(0, c.order, size=n_bd)
    gamma = np.asarray(c.points, dtype=complex)[idx]
    h_eq = ch.h1 + ch.h2 * ch.h3 * gamma          # per device symbol
    y = np.multiply((math.sqrt(sys.power_w) * h_eq)[:, None], spans).reshape(n_bd * L)
    # Noise sqrt(sigma^2) * cscg_samples(gen, n_bd * L).
    _add_complex_normal(gen, y, math.sqrt(0.5), math.sqrt(sys.noise_w))
    return SimulatedBlock(pt_symbols=s, bd_symbol_indices=idx, received=y)


def sic_mrc_receiver(block: SimulatedBlock, sys: SystemParams, ch: ChannelTriple,
                     residual: np.ndarray | None = None) -> np.ndarray:
    """Cancel the direct path, then combine each L-span against the residual.

    residual(n) = y(n) - sqrt(P) h1 s(n);
    out(m) = sum_n (sqrt(P) h2 h3 s(n))* residual(n) / sigma^2 over span m.
    Assumes the primary symbols and both cascaded coefficients are known
    exactly, as in the analytical model.  Returns `out`; the residual goes to
    `residual` if given, a complex buffer the length of the block that may be
    `block.received` itself.  Works on about `_KERNEL_BLOCK` samples at a
    time, so no temporary spans the whole block; each span is summed on its
    own, so the outputs do not depend on how many spans a step takes.
    """
    L = sys.spread
    n_bd = len(block.bd_symbol_indices)
    if residual is None:
        residual = np.empty(len(block.received), dtype=complex)
    s = block.pt_symbols.reshape(n_bd, L)
    y = block.received.reshape(n_bd, L)
    res = residual.reshape(n_bd, L)
    direct = math.sqrt(sys.power_w) * ch.h1
    cascade = math.sqrt(sys.power_w) * ch.h2 * ch.h3
    out = np.empty(n_bd, dtype=complex)
    rows = max(_KERNEL_BLOCK // L, 1)
    for lo in range(0, n_bd, rows):
        span = slice(lo, lo + rows)
        np.subtract(y[span], direct * s[span], out=res[span])
        weights = np.multiply(cascade, s[span])
        np.conjugate(weights, out=weights)
        weights *= res[span]
        out[span] = weights.sum(axis=1)
    out /= sys.noise_w
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
    _warn_low_spread(sys.spread)
    stats = mrc_statistics(sys, ch)
    points = np.asarray(c.points, dtype=complex)

    def values(chunk_index: int, n: int) -> np.ndarray:
        block = _simulate(sys, ch, c, n, rng.generator(chunk_index), True)
        # The residual is not kept, so it overwrites the received samples.
        y = sic_mrc_receiver(block, sys, ch, block.received)
        return _log_ratio_bits(y, block.bd_symbol_indices, points,
                               stats.gain, stats.noise_var)

    return _sample_mean(n_bd_symbols, _SIM_CHUNK, values)
