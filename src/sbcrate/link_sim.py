"""Symbol-level Monte Carlo simulation of the full transceiver chain.

Primary symbols are circularly symmetric complex Gaussian; each device
symbol holds its reflection coefficient over L primary symbols.  The
receiver removes the (perfectly known) direct-path contribution and applies
maximal ratio combining to the residual, reproducing the analytical
combining statistic used by the rate analysis.  `combiner_outputs` returns
that statistic for each simulated device symbol, and `empirical_bd_mi`
estimates the device rate from it; both run the same chain, `_chain`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bd_rate import (_KERNEL_BLOCK, MIN_SAMPLES, MiEstimate, _log_ratio_bits, _normal_blocks,
                      _sample_mean, _Scratch, check_gain, mrc_statistics)
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


def combiner_outputs(sys: SystemParams, ch: ChannelTriple, c: Constellation,
                     n_bd_symbols: int,
                     rng: RngSpec | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n_bd_symbols device symbols through the link and the receiver.

    Returns (indices, outputs): the 0-based constellation position of each
    device symbol, and the combiner output for its L-sample span.  See
    `_chain` for the channel and the receiver.
    """
    if n_bd_symbols < 1:
        raise ValueError(f"n_bd_symbols must be >= 1, got {n_bd_symbols!r}")
    _warn_low_spread(sys.spread)
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return _chain(sys, ch, c, n_bd_symbols, gen, _Scratch())


def _row_blocks(n_bd: int, L: int) -> list[slice]:
    """Consecutive device symbols (rows of L samples), about `_KERNEL_BLOCK` samples a block."""
    rows = max(_KERNEL_BLOCK // L, 1)
    return [slice(lo, min(lo + rows, n_bd)) for lo in range(0, n_bd, rows)]


def _chain(sys: SystemParams, ch: ChannelTriple, c: Constellation, n_bd: int,
           gen: np.random.Generator, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_bd device symbols and their L-spans, receive and combine them.

    y(n) = sqrt(P) (h1 + h2 h3 Gamma_m) s(n) + w(n) with w ~ CN(0, sigma^2).
    Each L-sample span of s is scaled to exact unit average power, which
    realizes the analytical combining statistic exactly instead of up to an
    O(1/sqrt(L)) energy fluctuation; phases and relative amplitudes of s stay
    Gaussian.  Returns the symbol indices and the combiner outputs, the
    latter in `scratch`.

    Only the primary symbols and the real parts of the received samples span
    all n_bd L samples; the received samples are formed and combined one row
    block at a time.  The draws keep the order of the whole-array chain: all
    real then all imaginary parts of s, the device symbols, then all real and
    all imaginary noise parts.  Every other operation acts on one sample or
    reduces one row, so the blocks do not change a bit of the result.
    """
    L = sys.spread
    blocks = _row_blocks(n_bd, L)
    s = scratch.array("s", n_bd * L, complex)
    y_real = scratch.array("y_real", n_bd * L).reshape(n_bd, L)
    outputs = scratch.array("outputs", n_bd, complex)
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
        outputs[rows] = _combine(yb, spans[rows], sys, ch)
    return idx, outputs


def _combine(y: np.ndarray, s: np.ndarray, sys: SystemParams, ch: ChannelTriple) -> np.ndarray:
    """Cancel the direct path from rows y of L samples in place, then combine each row.

    y becomes the residual y - sqrt(P) h1 s; returns the sum over each row of
    (sqrt(P) h2 h3 s)* residual / sigma^2.  Assumes the primary symbols and
    both cascaded coefficients are known exactly, as in the analytical model.
    """
    weights = np.multiply(math.sqrt(sys.power_w) * ch.h1, s)
    y -= weights
    np.multiply(math.sqrt(sys.power_w) * ch.h2 * ch.h3, s, out=weights)
    np.conjugate(weights, out=weights)
    weights *= y
    out = weights.sum(axis=1)
    out /= sys.noise_w
    return out


def empirical_bd_mi(sys: SystemParams, ch: ChannelTriple, c: Constellation,
                    n_bd_symbols: int, rng: RngSpec) -> MiEstimate:
    """Plug-in mutual information estimate from simulated combiner outputs.

    Runs the full chain in chunks (one substream per chunk, so the estimate
    is independent of scheduling), feeds the (symbol, output) pairs into the
    model log ratio, and reports the sample mean and standard error.
    """
    if n_bd_symbols < MIN_SAMPLES:
        raise ValueError(f"n_bd_symbols must be >= {MIN_SAMPLES}, got {n_bd_symbols!r}")
    _warn_low_spread(sys.spread)
    g = mrc_statistics(sys, ch).gain
    points = np.asarray(c.points, dtype=complex)
    check_gain(g, float(np.abs(points).max()))

    def values(chunk_index: int, n: int, scratch: _Scratch) -> np.ndarray:
        idx, outputs = _chain(sys, ch, c, n, rng.generator(chunk_index), scratch)
        return _log_ratio_bits(outputs.real, outputs.imag, idx, points, g,
                               out=scratch.array("values", n), scratch=scratch)

    return _sample_mean(n_bd_symbols, _SIM_CHUNK, values)
