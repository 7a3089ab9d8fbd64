"""Backscatter-device rate: exact mutual information of the combined statistic.

After interference cancellation and maximal ratio combining, one device
symbol is observed as y = g * Gamma_m + w with w circularly symmetric
complex Gaussian of variance g, the one coupling g = L P |h2|^2 |h3|^2 /
sigma^2.  The device rate is the mutual information of the equiprobable
discrete input against that observation: one log-ratio kernel of (y, g)
averaged over trapezoidal noise nodes, or over sampled observations by
Monte Carlo and the link simulator.

The MI is unchanged by translating, rotating or reflecting the point set,
and the quadrature uses it.  A collinear set (every amplitude-keyed set)
needs only a 1-D rule along its line, and, when it is symmetric about its
midpoint, only half of its conditioned terms.  A phase-keyed set, an equally
spaced ring, needs only the term conditioned on Gamma_0; turned so that
Gamma_0 is real, the ring is its own mirror image across the real axis, and
that term needs only the upper half of the plane.

The rule is the trapezoidal rule on a lattice of unit-noise nodes in a disc,
its step halved at each level (`_trapezoid_nodes`); the integrand is
analytic, so the difference of two levels is an honest error estimate.

The sampled estimators draw fixed-size chunks, each from its own substream,
on one thread per usable CPU, and add the per-chunk sums in chunk order: a
fixed seed gives the same bits whatever the number of threads.  A chunk
holds only the arrays its draw order forces (Monte Carlo: the symbol
indices and the real parts of the observations, which then take the
values); the imaginary draws, the observations and the kernel run in blocks
of about `_KERNEL_BLOCK` samples.  Each worker thread takes its buffers from
one `_Scratch` of memory maps that it reuses across its chunks and unmaps
when the call returns.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .channel import ChannelTriple, SystemParams
from .constellation import Constellation

_LN2 = math.log(2.0)

DEFAULT_MI_TOL = 1e-8

#: Fewest samples (or simulated device symbols) a sampled estimate takes.
MIN_SAMPLES = 10_000

#: Step of the first trapezoidal level; each further level halves it.
_FIRST_STEP = 0.5
#: Levels, the first included, before the quadrature gives up.
_LEVELS = 6
#: Squared radius of the disc of unit-noise nodes the rule keeps.
_RADIUS2 = 42.0

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

#: Largest g max|Gamma| the engines take while the kernel's noise term is negligible.
MAX_SCALED_GAIN = 3.85e153
#: Unit-noise radius |z| `check_gain` allows for: quadrature nodes have |z|^2 <= 42, numpy's
#: normals stay below 12.3 a component, and Gaussian noise passes 40 with probability e^-1600.
_NOISE_RADIUS = 40.0


class PrecisionError(RuntimeError):
    """Quadrature failed to converge within `_LEVELS` levels.

    Carries the best estimate achieved so the caller can decide whether the
    achieved accuracy is still serviceable.
    """

    def __init__(self, message: str, estimate: "MiEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class MrcStatistics:
    """The combiner's coupling g; the engines read `gain`, and `noise_var` must repeat it."""

    gain: float
    noise_var: float

    def __post_init__(self) -> None:
        if not self.noise_var == self.gain >= 0.0:  # g = inf is left to `check_gain`
            raise ValueError(f"noise_var {self.noise_var!r} must equal gain {self.gain!r} >= 0")


def mrc_statistics(sys: SystemParams, ch: ChannelTriple) -> MrcStatistics:
    """g = L P |h2|^2 |h3|^2 / sigma^2 for the given link; inf beyond the float range."""
    try:
        g = sys.spread * sys.power_w * ch.a2**2 * ch.a3**2 / sys.noise_w
    except OverflowError:  # |h2| or |h3| squared beyond the float range
        g = math.inf
    if not math.isfinite(g):
        # A partial product overflowed.  L P / sigma^2 is finite (SystemParams
        # checks it), so in this grouping only a true overflow gives inf, and
        # |h2||h3| = 0 gives g = 0.
        try:
            g = (sys.spread * sys.snr_scale) * (ch.a2 * ch.a3) ** 2
        except OverflowError:
            g = math.inf
    return MrcStatistics(gain=g, noise_var=g)


def check_gain(gain: float, peak: float) -> None:
    """Raise ValueError unless the log-ratio kernel stays finite at gain g for |Gamma| <= peak.

    Its largest intermediate, 2 Re(y conj(g Gamma_i)) - |g Gamma_i|^2 at y =
    g Gamma_m + sqrt(g) z, is at most D (3 D + 2 sqrt(g) |z|) with D = 2 g peak
    (the quadrature moves a collinear set's Gamma_0 to 0), and must stay 1%
    inside the float range; the noise term rules at a small peak.  Divided by
    g, the differences are no larger for g >= 2, and small below, as |Gamma| <= 1.
    """
    d = 2.0 * gain * peak
    if not (gain >= 0.0 and d * (3.0 * d + 2.0 * math.sqrt(gain) * _NOISE_RADIUS)
            <= 3.0 * (2.0 * MAX_SCALED_GAIN)**2):
        raise ValueError(f"gain g = {gain!r} at |Gamma| <= {peak!r} overflows the log-ratio kernel")


def _finite(total: float) -> float:
    """`total`, a sum of log-ratio values, which must be finite."""
    if not math.isfinite(total):
        raise FloatingPointError(f"the log-ratio kernel overflowed (a sum of its values is "
                                 f"{total!r})")
    return total


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in bits with the estimator's standard error."""

    value_bits: float
    std_error_bits: float
    method: str


class _Scratch:
    """Named 1-D buffers that one thread reuses; a buffer holds what it held last.

    Each buffer is an anonymous memory map, unmapped when the last array on
    it goes.  From the heap, the freed buffers would stay in the thread's
    malloc arena, and what the next call found there set the peak memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, n: int, dtype: type = float) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or len(buf) < n:
            nbytes = max(n, 1) * np.dtype(dtype).itemsize
            buf = self._buffers[name] = np.frombuffer(mmap.mmap(-1, nbytes), dtype)
        return buf[:n]


def _log_ratio_bits(yr: np.ndarray, yi: np.ndarray, conditioned: np.ndarray,
                    points: np.ndarray, g: float, out: np.ndarray | None = None,
                    scratch: _Scratch | None = None) -> np.ndarray:
    """Per-observation log2[p(y | Gamma_m) / p(y)] for observations y = yr + j yi.

    y = g Gamma_m + noise of variance g, and `conditioned` holds each m.  The
    Gaussian exponents are taken relative to that symbol's and reduced with
    max-subtraction (`check_gain` bounds their range); the |y|^2 term cancels
    and is never formed.  Observations are taken in blocks of about
    `_KERNEL_BLOCK` matrix entries; each column is reduced on its own, row by
    row, so neither the block size nor a split of the observations over
    several calls changes a bit of the result.  The values go to `out`, which
    may be `yr` itself; the work buffers come from `scratch`.
    """
    n = len(yr)
    if out is None:
        out = np.empty(n)
    if g == 0.0:
        out[:] = 0.0
        return out
    M = len(points)
    scaled = g * points
    # The 2 of 2 Re(y conj(g G_i)) scales the coefficients: exact short of
    # underflow, and one pass fewer.
    sr, si = 2.0 * scaled.real[:, None], 2.0 * scaled.imag[:, None]
    energy = (np.abs(scaled) ** 2)[:, None]
    step = max(min(_KERNEL_BLOCK // M, n), 1)
    cols = np.arange(step)
    # One allocation: two equal buffers would reach glibc's trim threshold
    # (twice the largest chunk freed) and be faulted in again on every call.
    work = (np.empty(2 * M * step) if scratch is None
            else scratch.array("kernel", 2 * M * step))
    for lo in range(0, n, step):
        k = min(step, n - lo)
        u = work[:M * k].reshape(M, k)
        t = work[M * k:2 * M * k].reshape(M, k)
        # u[i, n] = (2 Re(y conj(g G_i)) - |g G_i|^2) / g; the log ratio needs
        # only u_i - u_m, and u_m is gathered from u itself, so u_m - u_m == 0.
        np.multiply(sr, yr[lo:lo + k], out=u)
        u += np.multiply(si, yi[lo:lo + k], out=t)
        u -= energy
        u /= g
        u -= u[conditioned[lo:lo + k], cols[:k]]
        umax = np.maximum(u.max(axis=0), 0.0)
        u -= umax
        np.exp(u, out=u)
        # numpy sums a single column pairwise, wider blocks row by row.
        total = u.sum(axis=0) if k > 1 else np.add.accumulate(u[:, 0])[-1:]
        out[lo:lo + k] = math.log2(M) - (umax / _LN2 + np.log2(total))
    return out


@lru_cache(maxsize=None)  # at most `_LEVELS` levels of three regions
def _trapezoid_nodes(level: int, region: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit noise nodes and weights that trapezoidal level `level` adds.

    The step is h = `_FIRST_STEP` / 2^level, and a node's real part is one
    noise component of variance 1/2.  "line": the points x of h Z, weights
    h e^{-x^2} / sqrt(pi); "plane": the points z of h Z + j h Z, weights
    h^2 e^{-|z|^2} / pi; "half_plane": the plane points with Im z >= 0, for
    an integrand even in Im z, weights doubled where Im z > 0.  Only points
    with |z|^2 <= `_RADIUS2` = R^2 are kept, and a level past the first
    returns only those off the coarser lattice.

    The log-ratio kernel lies in [-|z|^2 / ln 2, log2 M] (the conditioned
    term is in its sum, and u_i - u_m <= |z|^2), so |kernel| <= |z|^2 / ln 2
    outside the disc.  Counting the lattice points within radius r by the
    areas of their cells bounds the sum of w |z|^2 outside the disc by
    (R^2 + 1 + 3 h R^3) e^{-R^2}: the nodes dropped move a value by at most
    3.7e-16 at every level, whatever the points or the gain.
    """
    h = _FIRST_STEP / 2**level
    r2 = _RADIUS2 / (h * h)  # exact: h is a power of two
    n = math.isqrt(int(r2))
    re = np.arange(-n, n + 1)[:, None]
    im = {"line": np.zeros(1, dtype=int), "plane": np.arange(-n, n + 1),
          "half_plane": np.arange(n + 1)}[region][None, :]
    keep = re * re + im * im <= r2
    if level:
        keep &= (re % 2 == 1) | (im % 2 == 1)
    re, im = np.broadcast_to(re, keep.shape)[keep], np.broadcast_to(im, keep.shape)[keep]
    dims = 1 if region == "line" else 2
    weights = h**dims * np.exp(-(h * h) * (re * re + im * im)) / math.pi ** (dims / 2)
    if region == "half_plane":
        weights[im > 0] *= 2.0
    return (h * re if region == "line" else h * (re + 1j * im)), weights


def mi_quadrature(c: Constellation, stats: MrcStatistics,
                  tol: float = DEFAULT_MI_TOL) -> MiEstimate:
    """Deterministic mutual information of the constellation through the combiner.

    The MI is the mean over m of the term conditioned on Gamma_m, and it is
    unchanged by translating, rotating or reflecting the point set; the rule
    uses every exact symmetry it can read from the points (to within
    `_STRUCTURE_TOL`), never from the scheme's name.

    - Line.  With Gamma_0 at the origin and the farthest point turned onto
      the positive real axis, the points are real to rounding (every `mask`
      set, any two points, any collinear set).  The noise orthogonal to the
      line carries no information, so a 1-D rule replaces the 2-D one.  If
      the line is also symmetric about its midpoint (every `mask` set and
      every pair), the term of each point equals the term of its mirror
      image with the noise negated, and the rule's nodes are symmetric: only
      ceil(M/2) terms are evaluated, each but an odd M's middle one counted
      twice.
    - Ring.  An equally spaced ring Gamma_m = Gamma_0 e^{2 pi j m / M} (every
      `mpsk` set) is M-fold rotation-symmetric, so only the Gamma_0 term is
      evaluated.  The ring is first turned by |Gamma_0| / Gamma_0 so that
      Gamma_0 is real; it is then closed under conjugation, the term is even
      in the imaginary noise component, and the rule needs only its nodes
      with non-negative imaginary part.  The integrand, and with it the
      node count and the value, is then the same at every base phase.
    - Other sets average all M terms over the whole plane.

    Halves the trapezoidal step, reusing the sum of the coarser level, until
    two levels differ by at most `tol` bits; raises :class:`PrecisionError`
    carrying the best estimate if `_LEVELS` levels do not get there.
    """
    points = np.asarray(c.points, dtype=complex)
    if stats.gain == 0.0 or np.all(points == points[0]):
        # Output carries no information about the symbol.
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="quadrature")
    check_gain(stats.gain, float(np.abs(points).max()))

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
    coarsen = 2.0 if region == "line" else 4.0  # 2^d: the step halves in d dimensions

    def added(level: int) -> float:
        z, weights = _trapezoid_nodes(level, region)
        noise = math.sqrt(stats.gain) * z
        count = len(terms) * len(z)
        total = 0.0
        for start in range(0, count, block):
            term, node = np.divmod(np.arange(start, min(start + block, count)), len(z))
            m = terms[term]
            y = stats.gain * points[m] + noise[node]
            v = _log_ratio_bits(y.real, y.imag, m, points, stats.gain)
            # (w * v).sum(), not w @ v: numpy's pairwise sum, not a BLAS dot
            # whose bits may depend on the machine.
            total += float((counts[term] * weights[node] * v).sum())
        return _finite(total) / M

    prev = added(0)
    for level in range(1, _LEVELS):
        cur = prev / coarsen + added(level)
        if abs(cur - prev) <= tol:
            return MiEstimate(value_bits=cur, std_error_bits=0.0, method="quadrature")
        prev = cur
    achieved = MiEstimate(value_bits=prev, std_error_bits=0.0, method="quadrature")
    raise PrecisionError(f"quadrature did not reach tol={tol} within {_LEVELS} levels",
                         achieved)


def _normal_blocks(rng: np.random.Generator, n: int, buf: np.ndarray, *scales: float):
    """Yield (span, x) over range(n): x = scales[-1] * (... (scales[0] * z)) for z
    the next len(buf) or fewer standard normals, drawn into `buf`.

    Drawn piece by piece, the stream continues exactly as one call of n.
    """
    for lo in range(0, n, len(buf)):
        x = buf[:min(len(buf), n - lo)]
        rng.standard_normal(out=x)
        for scale in scales:
            x *= scale
        yield slice(lo, lo + len(x)), x


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_mean(samples: int, chunk: int,
                 values: Callable[[int, int, _Scratch], np.ndarray]) -> MiEstimate:
    """Sample mean and standard error of `samples` values drawn in chunks.

    `values(index, size, scratch)` returns the values of one chunk, which
    may live in `scratch`, the buffers of the worker thread running it.
    Chunks run on a pool of threads, one per usable CPU but no more than
    there are chunks (numpy's random fills and ufunc loops release the GIL);
    each chunk is reduced to its sum and sum of squares, and these are added
    in index order.  So a result depends only on what each chunk draws, not
    on the number of threads.
    """
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    workers = threading.local()  # dropped with the pool when the call returns

    def moments(index: int) -> tuple[float, float]:
        if not hasattr(workers, "scratch"):
            workers.scratch = _Scratch()
        vals = values(index, sizes[index], workers.scratch)
        total = float(vals.sum())
        vals *= vals
        return total, float(vals.sum())

    # Imported here: it adds about 10 ms to `import sbcrate` otherwise.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_usable_cpus(), len(sizes))) as pool:
        sums = list(pool.map(moments, range(len(sizes))))
    total = total_sq = 0.0
    for chunk_sum, chunk_sq in sums:
        total += chunk_sum
        total_sq += chunk_sq
    mean = _finite(total) / samples
    var = max(_finite(total_sq) - samples * mean * mean, 0.0) / (samples - 1)
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
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples!r}")
    if stats.gain == 0.0:
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="monte_carlo")
    points = np.asarray(c.points, dtype=complex)
    check_gain(stats.gain, float(np.abs(points).max()))
    scaled = stats.gain * points
    half = math.sqrt(stats.gain / 2.0)

    def values(chunk_index: int, n: int, scratch: _Scratch) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        m = rng.integers(0, len(points), size=n)
        # y = g Gamma_m + noise, all real noise parts drawn before any imaginary one.
        yr = scratch.array("y_real", n)
        buf = scratch.array("draws", min(n, _KERNEL_BLOCK))
        for span, x in _normal_blocks(rng, n, buf, half):
            np.add(scaled.real[m[span]], x, out=yr[span])
        for span, x in _normal_blocks(rng, n, buf, half):
            x += scaled.imag[m[span]]
            _log_ratio_bits(yr[span], x, m[span], points, stats.gain, out=yr[span],
                            scratch=scratch)
        return yr

    return _sample_mean(samples, _MC_CHUNK, values)


def bd_rate(sys: SystemParams, ch: ChannelTriple, c: Constellation) -> MiEstimate:
    """Device rate for one scenario: combiner statistics plus quadrature."""
    return mi_quadrature(c, mrc_statistics(sys, ch))
