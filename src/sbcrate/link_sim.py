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
from typing import Callable

import numpy as np

from .bd_rate import (_KERNEL_BLOCK, MiEstimate, _log_ratio_bits, _normal_blocks, _sample_mean,
                      _Scratch, check_gain, mrc_statistics)
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
                   n_bd_symbols: int, rng: RngSpec | np.random.Generator) -> SimulatedBlock:
    """Simulate n_bd_symbols device symbols through the two-path channel.

    y(n) = sqrt(P) (h1 + h2 h3 Gamma_m) s(n) + w(n) with w ~ CN(0, sigma^2).
    Each L-sample span of s is scaled to exact unit average power, which
    realizes the analytical combining statistic exactly instead of up to an
    O(1/sqrt(L)) energy fluctuation; phases and relative amplitudes of s stay
    Gaussian.
    """
    if n_bd_symbols < 1:
        raise ValueError(f"n_bd_symbols must be >= 1, got {n_bd_symbols!r}")
    _warn_low_spread(sys.spread)
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    s = np.empty(n_bd_symbols * sys.spread, dtype=complex)
    received = np.empty_like(s)
    rx = received.reshape(n_bd_symbols, sys.spread)

    def take(rows: slice, y: np.ndarray) -> None:
        rx[rows] = y

    idx = _chain(sys, ch, c, n_bd_symbols, gen, s, rx.real, _Scratch(), take)
    return SimulatedBlock(pt_symbols=s, bd_symbol_indices=idx, received=received)


def _row_blocks(n_bd: int, L: int) -> list[slice]:
    """Consecutive device symbols (rows of L samples), about `_KERNEL_BLOCK` samples a block."""
    rows = max(_KERNEL_BLOCK // L, 1)
    return [slice(lo, min(lo + rows, n_bd)) for lo in range(0, n_bd, rows)]


def _chain(sys: SystemParams, ch: ChannelTriple, c: Constellation, n_bd: int,
           gen: np.random.Generator, s: np.ndarray, y_real: np.ndarray, scratch: _Scratch,
           take: Callable[[slice, np.ndarray], None]) -> np.ndarray:
    """The chain of `simulate_block` one row block at a time; returns the symbol indices.

    Fills `s` (n_bd L complex) with the primary symbols and `y_real` (n_bd x L)
    with the real parts of the received samples, then calls `take(rows, y)`
    with the received samples of each row block, in a buffer reused for the
    next block.  The draws keep the order of the whole-array chain: all real
    then all imaginary parts of s, the device symbols, then all real and all
    imaginary noise parts.  Every other operation acts on one sample or
    reduces one row, so the blocks do not change a bit of the result.
    """
    L = sys.spread
    blocks = _row_blocks(n_bd, L)
    buf = scratch.array("draws", (blocks[0].stop - blocks[0].start) * L)
    for part in (s.real, s.imag):
        for span, x in _normal_blocks(gen, len(s), buf, math.sqrt(0.5)):
            part[span] = x
    spans = s.reshape(n_bd, L)
    # Scaling the float view by 1/energy gives the bits of complex / real.
    parts = s.view(float).reshape(n_bd, 2 * L)
    energy = scratch.array("energy", len(buf))
    for rows in blocks:
        span = spans[rows]
        e = np.abs(span, out=energy[:span.size].reshape(span.shape))
        np.square(e, out=e)
        parts[rows] *= 1.0 / np.sqrt(np.mean(e, axis=1, keepdims=True))
    idx = gen.integers(0, c.order, size=n_bd)
    gamma = np.asarray(c.points, dtype=complex)[idx]
    h_eq = ch.h1 + ch.h2 * ch.h3 * gamma          # per device symbol
    paths = (math.sqrt(sys.power_w) * h_eq)[:, None]
    y = scratch.array("received", len(buf), complex)
    # y = sqrt(P) h_eq s + sqrt(sigma^2) * CSCG noise.  The noise's real and
    # imaginary parts are drawn in two passes, so the product is formed in each.
    noise = (math.sqrt(0.5), math.sqrt(sys.noise_w))
    for rows, (_, x) in zip(blocks, _normal_blocks(gen, n_bd * L, buf, *noise)):
        yb = np.multiply(paths[rows], spans[rows], out=y[:len(x)].reshape(-1, L))
        np.add(yb.real, x.reshape(-1, L), out=y_real[rows])
    for rows, (_, x) in zip(blocks, _normal_blocks(gen, n_bd * L, buf, *noise)):
        yb = np.multiply(paths[rows], spans[rows], out=y[:len(x)].reshape(-1, L))
        yb.imag += x.reshape(-1, L)
        yb.real = y_real[rows]
        take(rows, yb)
    return idx


def _combine(y: np.ndarray, s: np.ndarray, residual: np.ndarray, sys: SystemParams,
             ch: ChannelTriple) -> np.ndarray:
    """Cancel the direct path from rows y of L samples, then combine each row.

    residual = y - sqrt(P) h1 s goes to `residual`, which may be `y`; returns
    sum over each row of (sqrt(P) h2 h3 s)* residual / sigma^2.
    """
    weights = np.multiply(math.sqrt(sys.power_w) * ch.h1, s)
    np.subtract(y, weights, out=residual)
    np.multiply(math.sqrt(sys.power_w) * ch.h2 * ch.h3, s, out=weights)
    np.conjugate(weights, out=weights)
    weights *= residual
    out = weights.sum(axis=1)
    out /= sys.noise_w
    return out


def sic_mrc_receiver(block: SimulatedBlock, sys: SystemParams, ch: ChannelTriple) -> np.ndarray:
    """Cancel the direct path, then combine each L-span against the residual.

    residual(n) = y(n) - sqrt(P) h1 s(n);
    out(m) = sum_n (sqrt(P) h2 h3 s(n))* residual(n) / sigma^2 over span m.
    Assumes the primary symbols and both cascaded coefficients are known
    exactly, as in the analytical model.  Works on about `_KERNEL_BLOCK`
    samples at a time, the residual included, so no temporary spans the whole
    block; each span is summed on its own, so the outputs do not depend on
    how many spans a step takes.
    """
    L = sys.spread
    n_bd = len(block.bd_symbol_indices)
    s = block.pt_symbols.reshape(n_bd, L)
    y = block.received.reshape(n_bd, L)
    blocks = _row_blocks(n_bd, L)
    residual = np.empty((blocks[0].stop - blocks[0].start) * L, dtype=complex)
    out = np.empty(n_bd, dtype=complex)
    for rows in blocks:
        res = residual[:(rows.stop - rows.start) * L].reshape(-1, L)
        out[rows] = _combine(y[rows], s[rows], res, sys, ch)
    return out


def empirical_bd_mi(sys: SystemParams, ch: ChannelTriple, c: Constellation,
                    n_bd_symbols: int, rng: RngSpec) -> MiEstimate:
    """Plug-in mutual information estimate from simulated combiner outputs.

    Runs the full chain in chunks (one substream per chunk, so the estimate
    is independent of scheduling), feeds the (symbol, output) pairs into the
    model log ratio, and reports the sample mean and standard error.  A
    chunk keeps only its primary symbols and the real parts of its received
    samples; each row block is combined as soon as it is complete.
    """
    if n_bd_symbols < 10_000:
        raise ValueError(f"n_bd_symbols must be >= 10000, got {n_bd_symbols!r}")
    _warn_low_spread(sys.spread)
    stats = mrc_statistics(sys, ch)
    points = np.asarray(c.points, dtype=complex)
    check_gain(stats.gain, float(np.abs(points).max()))
    L = sys.spread

    def values(chunk_index: int, n: int, scratch: _Scratch) -> np.ndarray:
        s = scratch.array("s", n * L, complex)
        spans = s.reshape(n, L)
        outputs = scratch.array("outputs", n, complex)

        def take(rows: slice, y: np.ndarray) -> None:
            # The residual is not kept, so it overwrites the received samples.
            outputs[rows] = _combine(y, spans[rows], y, sys, ch)

        idx = _chain(sys, ch, c, n, rng.generator(chunk_index), s,
                     scratch.array("y_real", n * L).reshape(n, L), scratch, take)
        return _log_ratio_bits(outputs.real, outputs.imag, idx, points, stats.gain,
                               stats.noise_var, out=scratch.array("values", n),
                               scratch=scratch)

    return _sample_mean(n_bd_symbols, _SIM_CHUNK, values)
