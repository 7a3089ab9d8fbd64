"""Backscatter-device rate: exact mutual information of the combined statistic.

After interference cancellation and maximal ratio combining, one device
symbol is observed as y = g * Gamma_m + w with w circularly symmetric
complex Gaussian of variance sigma_s^2, and the coupling g = sigma_s^2 =
L P |h2|^2 |h3|^2 / sigma^2.  The device rate is the mutual information of
the equiprobable discrete input against that observation: one log-ratio
kernel averaged over Gauss-Hermite noise nodes, or over sampled observations
by Monte Carlo and the link simulator.

The MI is unchanged by translating, rotating or reflecting the point set,
and the quadrature uses it.  A collinear set (every amplitude-keyed set)
needs only a 1-D rule along its line, and, when it is symmetric about its
midpoint, only half of its conditioned terms.  A phase-keyed set, an equally
spaced ring, needs only the term conditioned on Gamma_0; turned so that
Gamma_0 is real, the ring is its own mirror image across the real axis, and
that term needs only the upper half of the tensor-product rule.

Each Gauss-Hermite rule keeps only the nodes inside the smallest disc whose
outside weight and second moment are both at most 2^-60.  The log-ratio
kernel is bounded by -|z|^2 / ln 2 and log2 M at a unit-noise node z, so the
nodes dropped would move a value by at most 2^-60 (log2 M + 1 / ln 2), below
1e-17 for M <= 256.  A rule of n = 64 to 324 nodes keeps the ones within a
radius of about 6.5 to 6.75: 850 of the 2048 half-plane nodes at n = 64, 46
of the 64 line nodes.

The sampled estimators draw fixed-size chunks, each from its own substream,
on one thread per usable CPU, and add the per-chunk sums in chunk order: a
fixed seed gives the same bits whatever the number of threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import ChannelTriple, SystemParams
from .constellation import Constellation

_LN2 = math.log(2.0)

#: Node counts tried in turn until two consecutive estimates agree.  numpy's
#: rule loses its weights past about 370 nodes (`_hermgauss` checks them), so
#: the ladder stops at 324; the hardest regime (transition sitting a few noise
#: deviations out) converges to ~1e-9 there.
DEFAULT_NODE_SCHEDULE = (64, 96, 144, 216, 324)
DEFAULT_MI_TOL = 1e-8

#: Monte Carlo samples per substream.  Fixed, so the chunks, and with them
#: every result bit, are the same whatever the number of worker threads.
_MC_CHUNK = 1 << 19

#: Matrix entries (symbols x observations) per block of the log-ratio kernel,
#: in the quadrature, Monte Carlo and the simulator alike: a block's
#: temporaries (512 kB each) stay in cache at any order or sample count.
_KERNEL_BLOCK = 1 << 16

#: Relative deviation that counts as rounding when the quadrature reads a
#: set's structure (collinear, or an equally spaced ring).
_STRUCTURE_TOL = 1e-12

#: Weight, and second moment |z|^2, of the outermost Gauss-Hermite nodes a
#: rule may drop (see `_hermite_rule`).
_TAIL_BUDGET = 2.0 ** -60


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
    the difference and is never formed.  Observations are taken in blocks of
    about `_KERNEL_BLOCK` matrix entries; each column is reduced on its own,
    so the block size does not change a bit of the result.
    """
    out = np.zeros(y.shape[0])
    if gain == 0.0:
        return out
    M = len(points)
    scaled = gain * points
    sr, si = scaled.real[:, None], scaled.imag[:, None]
    energy = (np.abs(scaled) ** 2)[:, None]
    step = max(min(_KERNEL_BLOCK // M, len(y)), 1)
    cols = np.arange(step)
    u_buf, t_buf = np.empty(M * step), np.empty(M * step)
    for lo in range(0, len(y), step):
        yr, yi = y[lo:lo + step].real, y[lo:lo + step].imag
        u = u_buf[:M * len(yr)].reshape(M, -1)
        t = t_buf[:M * len(yr)].reshape(M, -1)
        # u[i, n] = (2 Re(y conj(g G_i)) - |g G_i|^2) / nv; the log ratio needs
        # only u_i - u_m, and u_m is gathered from u itself, so u_m - u_m == 0.
        np.multiply(sr, yr, out=u)
        u += np.multiply(si, yi, out=t)
        u *= 2.0
        u -= energy
        u /= noise_var
        if np.ndim(conditioned) == 0:
            u -= u[conditioned].copy()
        else:
            u -= u[conditioned[lo:lo + step], cols[:len(yr)]]
        umax = np.maximum(u.max(axis=0), 0.0)
        u -= umax
        np.exp(u, out=u)
        out[lo:lo + step] = math.log2(M) - (umax / _LN2 + np.log2(u.sum(axis=0)))
    return out


@lru_cache(maxsize=8)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Hermite nodes and weights, computed once per node count for both rules."""
    with np.errstate(all="ignore"):  # past ~370 nodes numpy's weights go to 0, then to nan
        x, w = hermgauss(nodes)
        usable = np.all(w > 0.0) and math.isclose(w.sum(), math.sqrt(math.pi), rel_tol=1e-12)
    if not usable:
        raise ValueError(f"numpy's {nodes}-node Gauss-Hermite rule has no usable weights")
    return x, w


def _kept_radius2(r2: np.ndarray, w: np.ndarray, w_r2: np.ndarray,
                  mass: float = 0.0, moment: float = 0.0) -> float:
    """Squared radius of the smallest disc whose outside nodes fit `_TAIL_BUDGET`.

    Nodes at squared radius `r2` carry weights `w` and moments `w_r2`; `mass`
    and `moment` bound the tails of nodes already dropped, all of them outside
    the disc.  Returns the squared radius of the outermost node kept.
    """
    order = np.argsort(-r2)
    fits = ((mass + np.cumsum(w[order]) <= _TAIL_BUDGET)
            & (moment + np.cumsum(w_r2[order]) <= _TAIL_BUDGET))
    return r2[order[np.count_nonzero(fits)]]


@lru_cache(maxsize=16)
def _hermite_rule(nodes: int, region: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit noise nodes and weights of the 1-D rule or of a flattened 2-D tensor rule.

    "line": nodes x_i, weights w_i / sqrt(pi).  "plane": nodes x_i + j x_k,
    weights w_i w_k / pi.  "half_plane": the plane nodes with x_k >= 0, for an
    integrand even in the imaginary part; weights 2 w_i w_k / pi, and
    w_i w_k / pi on the x_k == 0 row of an odd node count (numpy's nodes are
    exactly symmetric, the middle one exactly 0).  Either way a node's real
    part is one noise component of variance 1/2.

    The rule keeps only its nodes z inside the smallest disc whose outside
    nodes have sum w <= `_TAIL_BUDGET` and sum w |z|^2 <= `_TAIL_BUDGET`, in
    their original order.  The log-ratio kernel lies in [-|z|^2 / ln 2,
    log2 M] at every node (the conditioned term is in its sum, and
    u_i - u_m <= |z|^2 by completing the square), so the dropped nodes would
    move an estimate by at most `_TAIL_BUDGET` (log2 M + 1 / ln 2), below
    1e-17 for M <= 256, whatever the points, gain or noise variance.  A
    tensor rule first drops the 1-D nodes outside a disc that a 1-D tail sum
    shows to contain the cut, and never forms the rest of the n x n tensor.
    """
    x, w = _hermgauss(nodes)
    x2 = x * x
    if region == "line":
        w = w / math.sqrt(math.pi)
        keep = x2 <= _kept_radius2(x2, w, w * x2)
        return x[keep], w[keep]
    # The tensor nodes in the rows and columns of a set of 1-D nodes weigh at
    # most row_w and row_w_r2 summed over the set.  If the 1-D cut on these
    # keeps x^2 <= t2, the tensor nodes outside the squared radius 2 t2 (each
    # has a coordinate with x^2 > t2) fit the budget, so the tensor cut keeps
    # no node with x^2 > 2 t2: those rows and columns are never formed, and
    # their sums start the tensor's tails.
    unit = w / math.sqrt(math.pi)
    row_w, row_w_r2 = 2.0 * unit, 2.0 * unit * (x2 + float((unit * x2).sum()))
    inner = x2 <= 2.0 * _kept_radius2(x2, row_w, row_w_r2)
    x, w = x[inner], w[inner]
    z, weights = x[:, None] + 1j * x[None, :], np.outer(w, w) / math.pi
    if region == "half_plane":
        upper = x >= 0.0
        z, weights = z[:, upper], weights[:, upper] * np.where(x[upper] > 0.0, 2.0, 1.0)
    z, weights = z.ravel(), weights.ravel()
    r2 = z.real ** 2 + z.imag ** 2
    keep = r2 <= _kept_radius2(r2, weights, weights * r2, row_w[~inner].sum(),
                               row_w_r2[~inner].sum())
    return z[keep], weights[keep]


def mi_quadrature(c: Constellation, stats: MrcStatistics, tol: float = DEFAULT_MI_TOL,
                  node_schedule: tuple[int, ...] = DEFAULT_NODE_SCHEDULE) -> MiEstimate:
    """Deterministic mutual information of the constellation through the combiner.

    The MI is the mean over m of the term conditioned on Gamma_m, and it is
    unchanged by translating, rotating or reflecting the point set; the rule
    uses every exact symmetry it can read from the points (to within
    `_STRUCTURE_TOL`), never from the scheme's name.

    - Line.  With Gamma_0 at the origin and the farthest point turned onto
      the positive real axis, the points are real to rounding (every `mask`
      set, any two points, any collinear set).  The noise orthogonal to the
      line carries no information, so a 1-D Gauss-Hermite rule of n nodes
      replaces the n^2 tensor rule.  If the line is also symmetric about its
      midpoint (every `mask` set and every pair), the term of each point
      equals the term of its mirror image with the noise negated, and the
      rule's nodes are symmetric: only ceil(M/2) terms are evaluated, each
      but an odd M's middle one counted twice.
    - Ring.  An equally spaced ring Gamma_m = Gamma_0 e^{2 pi j m / M} (every
      `mpsk` set) is M-fold rotation-symmetric, so only the Gamma_0 term is
      evaluated.  The ring is first turned by |Gamma_0| / Gamma_0 so that
      Gamma_0 is real; it is then closed under conjugation, the term is even
      in the imaginary noise component, and the tensor rule needs only its
      nodes with non-negative imaginary part.  The integrand, and with it the
      node count and the value, is then the same at every base phase.
    - Other sets average all M terms over the full tensor rule.

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

    M = len(points)
    shifted = points - points[0]
    far = shifted[np.argmax(np.abs(shifted))]
    canonical = shifted * (abs(far) / far)
    # terms[k] is evaluated and stands for counts[k] equal terms of the M.
    terms, counts = np.arange(M), np.ones(M)
    if np.all(np.abs(canonical.imag) <= _STRUCTURE_TOL * abs(far)):
        points, region = canonical.real, "line"
        ranked = np.argsort(points)
        ends = points[ranked[0]] + points[ranked[-1]]
        if np.all(np.abs(points[ranked] + points[ranked[::-1]] - ends)
                  <= _STRUCTURE_TOL * abs(far)):
            terms, counts = ranked[:(M + 1) // 2], np.full((M + 1) // 2, 2.0)
            if M % 2:
                counts[-1] = 1.0
    else:
        region = "plane"
        ring = points[0] * np.exp(2j * math.pi * terms / M)
        if np.all(np.abs(points - ring) <= _STRUCTURE_TOL * abs(points[0])):
            points, region = points * (abs(points[0]) / points[0]), "half_plane"
            terms, counts = terms[:1], np.array([float(M)])
    block = max(_KERNEL_BLOCK // M, 1)

    def level(nodes: int) -> float:
        z, weights = _hermite_rule(nodes, region)
        noise = math.sqrt(stats.noise_var) * z
        count = len(terms) * len(z)
        total = 0.0
        for start in range(0, count, block):
            term, node = np.divmod(np.arange(start, min(start + block, count)), len(z))
            m = terms[term]
            v = _log_ratio_bits(stats.gain * points[m] + noise[node], m, points,
                                stats.gain, stats.noise_var)
            # (w * v).sum(), not w @ v: no kept weight is subnormal, and numpy's
            # pairwise sum keeps the bits the results had before the cut.
            total += float((counts[term] * weights[node] * v).sum())
        return total / M

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


def _add_complex_normal(rng: np.random.Generator, y: np.ndarray, *scales: float) -> None:
    """y += scales[-1] * (... * (scales[0] * (x + j x'))), in place, real parts drawn first.

    The same bits as adding the complex noise array, with one float buffer
    for the draws.
    """
    noise = np.empty(len(y))
    for part in (y.real, y.imag):
        rng.standard_normal(out=noise)
        for scale in scales:
            noise *= scale
        part += noise


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_mean(samples: int, chunk: int,
                 values: Callable[[int, int], np.ndarray]) -> MiEstimate:
    """Sample mean and standard error of `samples` values drawn in chunks.

    `values(index, size)` returns the values of one chunk.  Chunks run on a
    pool of threads, one per usable CPU but no more than there are chunks
    (numpy's random fills and ufunc loops release the GIL); each chunk is
    reduced to its sum and sum of squares, and these are added in index
    order.  So a result depends only on what each chunk draws, not on the
    number of threads.
    """
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]

    def moments(index: int) -> tuple[float, float]:
        vals = values(index, sizes[index])
        return float(vals.sum()), float((vals * vals).sum())

    # Imported here: it adds about 10 ms to `import sbcrate` otherwise.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_usable_cpus(), len(sizes))) as pool:
        sums = list(pool.map(moments, range(len(sizes))))
    total = total_sq = 0.0
    for chunk_sum, chunk_sq in sums:
        total += chunk_sum
        total_sq += chunk_sq
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
    for a given seed however many threads share the chunks.
    """
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples!r}")
    if stats.gain == 0.0:
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="monte_carlo")
    if stats.noise_var <= 0.0:
        raise ValueError(f"noise_var must be > 0, got {stats.noise_var!r}")
    points = np.asarray(c.points, dtype=complex)
    scaled = stats.gain * points
    half = math.sqrt(stats.noise_var / 2.0)

    def values(chunk_index: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        m = rng.integers(0, len(points), size=n)
        y = scaled[m]
        _add_complex_normal(rng, y, half)
        return _log_ratio_bits(y, m, points, stats.gain, stats.noise_var)

    return _sample_mean(samples, _MC_CHUNK, values)


def bd_rate(sys: SystemParams, ch: ChannelTriple, c: Constellation,
            tol: float = DEFAULT_MI_TOL) -> MiEstimate:
    """Device rate for one scenario: combiner statistics plus quadrature."""
    return mi_quadrature(c, mrc_statistics(sys, ch), tol=tol)
