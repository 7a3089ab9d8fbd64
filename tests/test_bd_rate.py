import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import dblquad, quad

from sbcrate.bd_rate import (_FIRST_STEP, _KERNEL_BLOCK, _LEVELS, _RADIUS2, DEFAULT_MI_TOL,
                             MAX_SCALED_GAIN, MrcStatistics, PrecisionError, _log_ratio_bits,
                             _trapezoid_nodes, bd_rate, mi_monte_carlo, mi_quadrature,
                             mrc_statistics)
from sbcrate.channel import SystemParams
from sbcrate.constellation import explicit_constellation, mask_constellation, mpsk_constellation
from sbcrate.link_sim import RngSpec, empirical_bd_mi

from .conftest import channel_from_polar


def tensor_mi_oracle(points, g: float, nodes: int, conditioned=None) -> float:
    """Mutual information on one tensor Gauss-Hermite level, in the difference form.

    Independent of the engine's log-ratio kernel: the exponent differences are
    -(|g d|^2 + 2 Re(g d conj w)) / g with d = Gamma_m - Gamma_i and w the
    noise node, so no O(g) terms are formed and subtracted.  The mean runs
    over the `conditioned` symbols m, all of them by default.
    """
    points = np.asarray(points, dtype=complex)
    M = len(points)
    conditioned = range(M) if conditioned is None else conditioned
    x, wq = hermgauss(nodes)
    w_nodes = math.sqrt(g) * (x[:, None] + 1j * x[None, :])
    w2 = (wq[:, None] * wq[None, :]) / math.pi
    diff = points[:, None] - points[None, :]
    acc = 0.0
    for m in conditioned:
        dm = g * diff[m]
        t = -(np.abs(dm)[:, None, None] ** 2
              + 2.0 * np.real(dm[:, None, None] * np.conj(w_nodes)[None, :, :])) / g
        tmax = np.maximum(t.max(axis=0), 0.0)
        lse = tmax / math.log(2.0) + np.log2(np.exp(t - tmax).sum(axis=0))
        acc += float((w2 * lse).sum())
    return math.log2(M) - acc / len(conditioned)


def lattice_mi_oracle(points, g: float, step: float, radius2: float,
                      conditioned=None) -> float:
    """Mutual information on the trapezoidal lattice of `step` inside |z|^2 <= radius2.

    Real points take the nodes z of step Z, weights step e^{-z^2} / sqrt(pi);
    complex points the nodes of step (Z + jZ), weights step^2 e^{-|z|^2} / pi.
    The kernel is the difference form of `tensor_mi_oracle`, over the whole
    line or plane and every `conditioned` symbol (all by default), so it
    shares neither node sets, symmetry reductions nor kernel with the engine.
    """
    real = np.isrealobj(points)
    points = np.asarray(points, dtype=complex)
    n = math.floor(math.sqrt(radius2) / step)
    x = step * np.arange(-n, n + 1)
    z = x.astype(complex) if real else (x[:, None] + 1j * x[None, :]).ravel()
    r2 = z.real ** 2 + z.imag ** 2
    z, r2 = z[r2 <= radius2], r2[r2 <= radius2]
    w = (step / math.sqrt(math.pi)) ** (1 if real else 2) * np.exp(-r2)
    noise = math.sqrt(g) * z
    conditioned = range(len(points)) if conditioned is None else conditioned
    acc = 0.0
    for m in conditioned:
        dm = g * (points[m] - points)[:, None]
        for lo in range(0, len(z), 4096):
            t = -(np.abs(dm) ** 2 + 2.0 * np.real(dm * np.conj(noise[lo:lo + 4096]))) / g
            tmax = np.maximum(t.max(axis=0), 0.0)
            lse = tmax / math.log(2.0) + np.log2(np.exp(t - tmax).sum(axis=0))
            acc += float((w[lo:lo + 4096] * lse).sum())
    return math.log2(len(points)) - acc / len(conditioned)


def level_one_oracle(points, g: float, conditioned=None) -> float:
    """What `mi_quadrature(..., tol=math.inf)` integrates: the second level's whole lattice."""
    return lattice_mi_oracle(points, g, _FIRST_STEP / 2, _RADIUS2, conditioned)


def added(level: int, region: str) -> int:
    """Nodes the engine evaluates at one level: those off the coarser lattice."""
    return len(_trapezoid_nodes(level, region)[0])


def assert_work(kernel_entries, per_node: int, region: str) -> None:
    """Levels ran in turn from the first, each with `per_node` kernel entries per node it adds."""
    assert len(kernel_entries) >= 2
    assert kernel_entries == [[level, per_node * added(level, region)]
                              for level in range(len(kernel_entries))]


def whole_log_ratio_oracle(y, conditioned, points, g: float) -> np.ndarray:
    """The log-ratio kernel over all observations at once, as one M x n matrix."""
    scaled = g * points
    u = (2.0 * (np.outer(scaled.real, y.real) + np.outer(scaled.imag, y.imag))
         - (np.abs(scaled) ** 2)[:, None]) / g
    sc = scaled[conditioned]
    u -= (2.0 * (sc.real * y.real + sc.imag * y.imag) - np.abs(sc) ** 2) / g
    umax = np.maximum(u.max(axis=0), 0.0)
    lse = umax / math.log(2.0) + np.log2(np.exp(u - umax).sum(axis=0))
    return math.log2(len(points)) - lse


def canonical_points(points) -> np.ndarray:
    """The set with Gamma_0 moved to 0 and the farthest point turned onto the positive reals."""
    shifted = np.asarray(points, dtype=complex) - points[0]
    far = shifted[np.argmax(np.abs(shifted))]
    return shifted * (abs(far) / far)


def turned_ring(points) -> np.ndarray:
    """The set turned by |Gamma_0| / Gamma_0, so that Gamma_0 lies on the positive reals."""
    points = np.asarray(points, dtype=complex)
    return points * (abs(points[0]) / points[0])


def adaptive_conditioned_term(points, g: float) -> float:
    """The Gamma_0-conditioned term E[log2 p(y | Gamma_0) / p(y)] by adaptive 2-D integration.

    With y = g Gamma_0 + sqrt(g) (a + j b), (a, b) has density exp(-a^2 - b^2) / pi,
    and the exponents are e_i = -|sqrt(g) (Gamma_0 - Gamma_i) + a + j b|^2.
    """
    d = math.sqrt(g) * (points[0] - np.asarray(points, dtype=complex))
    log_m = math.log(len(d))

    def integrand(b: float, a: float) -> float:
        e = -np.abs(d + complex(a, b)) ** 2
        log_ratio = e[0] - (e.max() + math.log(np.exp(e - e.max()).sum()) - log_m)
        return math.exp(-a * a - b * b) / math.pi * log_ratio / math.log(2.0)

    value, _ = dblquad(integrand, -12.0, 12.0, -12.0, 12.0, epsabs=1e-13, epsrel=1e-13)
    return value


def adaptive_mi_collinear(points, g: float) -> float:
    """Mutual information of real points by adaptive integration, independent of Gauss rules.

    Along the line, u = (g Gamma + n) / sqrt(g) has the mixture density
    p(u) = (1/M) sum_i exp(-(u - d_i)^2) / sqrt(pi), d_i = sqrt(g) Gamma_i,
    and I = h(U) - h(N) with h(N) = log2(pi e) / 2; the orthogonal noise
    carries no information.
    """
    d = np.sort(math.sqrt(g) * np.asarray(points, dtype=float))
    norm = math.log(len(d) * math.sqrt(math.pi))

    def neg_p_log_p(u: float) -> float:
        e = -(u - d) ** 2
        log_p = e.max() + math.log(np.exp(e - e.max()).sum()) - norm
        return -math.exp(log_p) * log_p

    breaks = sorted({*d, *((d[1:] + d[:-1]) / 2)})
    h, _ = quad(neg_p_log_p, d[0] - 12.0, d[-1] + 12.0, points=breaks, limit=2000,
                epsabs=1e-13, epsrel=1e-13)
    return (h - 0.5 * math.log(math.pi * math.e)) / math.log(2.0)


@pytest.fixture
def kernel_entries(monkeypatch):
    """Log-ratio kernel matrix entries (symbols x observations), per quadrature level.

    Each entry is [level, entries]; a level starts when the engine fetches its nodes.
    """
    engine = importlib.import_module("sbcrate.bd_rate")
    rule, kernel = engine._trapezoid_nodes, engine._log_ratio_bits
    levels = []

    def counting_rule(level, region):
        levels.append([level, 0])
        return rule(level, region)

    def counting_kernel(yr, yi, conditioned, points, g):
        levels[-1][1] += len(points) * len(yr)
        return kernel(yr, yi, conditioned, points, g)

    monkeypatch.setattr(engine, "_trapezoid_nodes", counting_rule)
    monkeypatch.setattr(engine, "_log_ratio_bits", counting_kernel)
    return levels


class TestMrcStatistics:
    def test_unit_case(self):
        sys = SystemParams(power_w=1.0, noise_w=1.0, spread=1)
        st_ = mrc_statistics(sys, channel_from_polar(1.0, 1.0, 1.0))
        assert st_.gain == 1.0 and st_.noise_var == 1.0

    def test_linear_in_spread(self):
        ch = channel_from_polar(1.0, 0.5, 2.0)
        one = mrc_statistics(SystemParams(1.0, 1.0, spread=1), ch)
        two = mrc_statistics(SystemParams(1.0, 1.0, spread=2), ch)
        assert two.gain == pytest.approx(2 * one.gain, rel=1e-15)
        assert two.noise_var == pytest.approx(2 * one.noise_var, rel=1e-15)

    def test_default_operating_point(self, default_system, default_channel):
        # Frozen from a direct evaluation of L P |h2|^2 |h3|^2 / sigma^2.
        st_ = mrc_statistics(default_system, default_channel)
        assert st_.gain == pytest.approx(642.5679030907881, rel=1e-9)
        assert st_.gain == st_.noise_var

    def test_a_pair_off_the_receiver_model_is_refused(self):
        # One coupling g is both the gain and the noise variance.
        for gain, noise_var in ((12.0, 3.0), (-1.0, -1.0), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="noise_var"):
                MrcStatistics(gain, noise_var)
        # An infinite g is left to the kernel's range check, which names it.
        with pytest.raises(ValueError, match="gain g = inf"):
            mi_quadrature(mask_constellation(2, 0.0), MrcStatistics(math.inf, math.inf))

    def test_an_overflowed_product_gives_an_infinite_gain(self):
        # spread * power_w * |h2|^2 overflows and |h3| = 0: inf * 0 is nan.
        sys = SystemParams(power_w=1e300, noise_w=1.0, spread=1)
        assert mrc_statistics(sys, channel_from_polar(1.0, 1e10, 0.0)).gain == math.inf


class TestLogRatioKernel:
    @pytest.mark.parametrize("M", [2, 8, 16, 64])
    @pytest.mark.parametrize("per_observation", [False, True], ids=["int", "array"])
    def test_blocks_match_one_whole_array_call(self, M, per_observation):
        # Two full blocks and a partial one.  "int": one symbol index for every
        # observation, as the ring rule conditions each node on Gamma_0.
        n = 2 * (_KERNEL_BLOCK // M) + 77
        rng = np.random.default_rng(M)
        points = np.asarray(mpsk_constellation(M, 0.9, 0.01).points, dtype=complex)
        g = 7.0
        m = rng.integers(0, M, size=n) if per_observation else np.full(n, M // 2)
        y = g * points[m] + math.sqrt(g / 2) * (rng.standard_normal(n)
                                                + 1j * rng.standard_normal(n))
        got = _log_ratio_bits(y.real, y.imag, m, points, g)
        assert np.array_equal(got, whole_log_ratio_oracle(y, m, points, g))

    @pytest.mark.parametrize("M", [3, 8, 16])
    def test_any_split_of_the_observations_gives_the_same_bits(self, M):
        # The samplers feed the kernel block by block.  Pieces of one
        # observation are the hard case: numpy sums a lone column pairwise.
        n = _KERNEL_BLOCK // M + 2000
        rng = np.random.default_rng(100 + M)
        points = np.asarray(mpsk_constellation(M, 0.9, 0.01).points, dtype=complex)
        g = 40.0
        m = rng.integers(0, M, size=n)
        y = g * points[m] + math.sqrt(g / 2) * (rng.standard_normal(n)
                                                + 1j * rng.standard_normal(n))
        whole = _log_ratio_bits(y.real, y.imag, m, points, g)
        cuts = np.concatenate([np.arange(1, 200), rng.integers(200, n, size=20)])
        pieces = [_log_ratio_bits(y.real[a:b], y.imag[a:b], m[a:b], points, g)
                  for a, b in zip(np.r_[0, np.sort(cuts)], np.r_[np.sort(cuts), n])]
        assert np.array_equal(np.concatenate(pieces), whole)


ESTIMATORS = pytest.mark.parametrize("estimate", [
    lambda c, st_: mi_quadrature(c, st_),
    lambda c, st_: mi_monte_carlo(c, st_, samples=10_000, seed=1),
], ids=["quadrature", "monte_carlo"])


class TestKernelRange:
    """A gain that would overflow the kernel is refused; a non-finite value never escapes."""

    RING = mpsk_constellation(8, 1.0, 0.1)

    @ESTIMATORS
    def test_gain_beyond_the_range_is_named(self, estimate):
        g = 0.999 * MAX_SCALED_GAIN  # |Gamma| is 1 to rounding
        assert estimate(self.RING, MrcStatistics(g, g)).value_bits == 3.0
        g = 1e154
        with pytest.raises(ValueError, match=re.escape(f"gain g = {g!r}")):
            estimate(self.RING, MrcStatistics(g, g))

    @ESTIMATORS
    @pytest.mark.parametrize("amplitude", [7e-155, 1e-155])
    def test_small_ring_at_the_largest_gains_is_named(self, estimate, amplitude):
        # The noise sqrt(g) z meets g Gamma in the kernel: at 7e-155 its sums
        # would overflow to nan; at 1e-155, where g |Gamma| = 1e153 is inside
        # MAX_SCALED_GAIN, the noise term alone passes the bound.
        with pytest.raises(ValueError, match=re.escape("gain g = 1e+308")):
            estimate(mpsk_constellation(8, amplitude, 0.1), MrcStatistics(1e308, 1e308))

    @ESTIMATORS
    def test_a_translated_line_stays_in_range(self, estimate):
        # The quadrature moves Gamma_0 of a pair to 0, so the kernel sees |Gamma| = 2.
        pair = mpsk_constellation(2, 1.0, 0.1)
        g = 0.999 * MAX_SCALED_GAIN
        assert estimate(pair, MrcStatistics(g, g)).value_bits == 1.0
        with pytest.raises(ValueError, match="gain g = "):
            estimate(pair, MrcStatistics(2 * g, 2 * g))

    def test_simulated_link_names_the_gain(self):
        sys = SystemParams(power_w=1e153, noise_w=1.0, spread=16)  # g = 1.6e154
        with pytest.raises(ValueError, match="gain g = "):
            empirical_bd_mi(sys, channel_from_polar(1.0, 1.0, 1.0), self.RING, 10_000,
                            RngSpec(1))

    @ESTIMATORS
    def test_a_non_finite_kernel_sum_raises(self, estimate, monkeypatch):
        # `check_gain` keeps the kernel finite; a kernel that still overflowed
        # must raise, not return nan.
        def overflowed(yr, yi, conditioned, points, g, out=None, scratch=None):
            out = np.empty(len(yr)) if out is None else out
            out[:] = math.nan
            return out

        monkeypatch.setattr(importlib.import_module("sbcrate.bd_rate"), "_log_ratio_bits",
                            overflowed)
        with pytest.raises(FloatingPointError, match="overflowed"):
            estimate(self.RING, MrcStatistics(10.0, 10.0))


class TestTruncatedRule:
    """Each rule drops only nodes whose share of any estimate is below rounding."""

    @given(M=st.integers(2, 16), log_g=st.floats(-12.0, 18.0), seed=st.integers(0, 2**16),
           radius=st.floats(0.0, 12.0))
    @settings(max_examples=60, deadline=None)
    def test_log_ratio_lies_between_the_cut_bounds(self, M, log_g, seed, radius):
        # -|z|^2 / ln 2 <= v(z) <= log2 M at a unit-noise node z: the bound the
        # cut rests on.  The lower one holds to the rounding of the exponents.
        # g spans what gains and noise variances from 1e-2 to 1e8 reach as
        # g = gain^2 / noise variance.
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, M) + 1j * rng.uniform(-1.0, 1.0, M)
        g = 10.0**log_g
        z = radius * rng.uniform(0.0, 1.0, 64) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 64))
        m = rng.integers(0, M, size=64)
        y = g * points[m] + math.sqrt(g) * z
        v = _log_ratio_bits(y.real, y.imag, m, points, g)
        scaled = np.abs(g * points)
        exponent_scale = (scaled.max() ** 2 + 2.0 * scaled.max() * np.abs(y)) / g
        assert np.all(v <= math.log2(M))
        assert np.all(v >= -(np.abs(z) ** 2 + 1e-13 * (1.0 + exponent_scale)) / math.log(2.0))

    @pytest.mark.parametrize("region", ["line", "plane", "half_plane"])
    def test_dropped_tails_are_below_rounding(self, region):
        dims = 1 if region == "line" else 2
        seen = np.empty(0, dtype=complex)
        for level in range(_LEVELS):
            h = _FIRST_STEP / 2**level
            z, w = _trapezoid_nodes(level, region)
            # Levels nest: a level adds only points off the coarser lattices,
            # and with theirs they are the lattice of step h inside the disc.
            assert not np.isin(z, seen).any(), level
            seen = np.concatenate([seen, z])
            n = math.floor(math.sqrt(_RADIUS2) / h)
            x = h * np.arange(-n, n + 1)
            lattice = x.astype(complex) if region == "line" else (x[:, None] + 1j * x).ravel()
            lattice = lattice[(lattice.real ** 2 + lattice.imag ** 2 <= _RADIUS2)
                              & (lattice.imag >= 0.0 if region == "half_plane" else True)]
            assert np.array_equal(np.sort(seen), np.sort(lattice)), level
            r2 = z.real ** 2 + z.imag ** 2
            doubled = np.where((region == "half_plane") & (z.imag > 0.0), 2.0, 1.0)
            np.testing.assert_allclose(w, doubled * h**dims * np.exp(-r2) / math.pi ** (dims / 2),
                                       rtol=1e-15, atol=0.0)
        # Outside the disc |v| <= |z|^2 / ln 2, and the lattice points there
        # have sum w |z|^2 <= (R^2 + 1 + 3 h R^3) e^{-R^2} at any step h.
        def bound(h):
            return (_RADIUS2 + 1.0 + 3.0 * h * _RADIUS2 ** 1.5) * math.exp(-_RADIUS2)

        assert bound(_FIRST_STEP) / math.log(2.0) < 1e-15
        for h in (_FIRST_STEP, _FIRST_STEP / 2, _FIRST_STEP / 8):
            x = h * np.arange(-math.floor(10.0 / h), math.floor(10.0 / h) + 1)
            r2 = (x * x if region == "line" else x[:, None] ** 2 + x ** 2).ravel()
            tail = (h / math.sqrt(math.pi)) ** dims * (np.exp(-r2) * r2)[r2 > _RADIUS2].sum()
            assert 0.0 < tail <= bound(h), h


class TestMiQuadrature:
    def test_zero_gain_carries_no_information(self):
        est = mi_quadrature(mask_constellation(4, 0.0), MrcStatistics(0.0, 0.0))
        assert est.value_bits == 0.0 and est.std_error_bits == 0.0
        assert est.method == "quadrature"

    def test_identical_symbols_carry_no_information(self):
        c = explicit_constellation([0.4 + 0.1j] * 3)
        est = mi_quadrature(c, MrcStatistics(10.0, 10.0))
        assert est.value_bits == 0.0

    def test_noiseless_limit_saturates_at_log2_m(self):
        # Effective SNR (g dmin)^2 / sigma_s^2 = 1e4 under the g-coupling.
        for m in (2, 4):
            c = mask_constellation(m, 0.0)
            dmin = 1.0 / (m - 1)
            g = 1e4 / dmin**2
            est = mi_quadrature(c, MrcStatistics(g, g))
            assert abs(est.value_bits - math.log2(m)) < 1e-3

    def test_binary_matches_monte_carlo_oracle(self):
        c = mpsk_constellation(2, 0.9, 0.0)  # BPSK-like pair {+0.9, -0.9}
        stats = MrcStatistics(8.0, 8.0)
        qd = mi_quadrature(c, stats)
        mc = mi_monte_carlo(c, stats, samples=10**7, seed=314159)
        assert abs(qd.value_bits - mc.value_bits) <= 3.0 * mc.std_error_bits

    def test_rotation_invariance(self):
        base = mpsk_constellation(4, 0.8, 0.2)
        stats = MrcStatistics(25.0, 25.0)
        ref = mi_quadrature(base, stats).value_bits
        for psi in (0.7, 2.9, 4.4):
            rot = explicit_constellation([p * complex(math.cos(psi), math.sin(psi))
                                          for p in base.points])
            assert abs(mi_quadrature(rot, stats).value_bits - ref) <= 1e-6

    def test_monotone_in_spread(self, default_channel):
        # g and sigma_s^2 move together; information still grows with L.
        prev = -1.0
        for spread in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=spread)
            est = bd_rate(sys, default_channel, mask_constellation(2, 0.0))
            assert est.value_bits >= prev - 1e-6
            prev = est.value_bits

    @given(n_points=st.integers(2, 8), g=st.floats(0.01, 1e6), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_range_bounds(self, n_points, g, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.7, 0.7, size=n_points) + 1j * rng.uniform(-0.7, 0.7, n_points)
        est = mi_quadrature(explicit_constellation(pts), MrcStatistics(g, g))
        assert -1e-9 <= est.value_bits <= math.log2(n_points) + 1e-9

    @pytest.mark.parametrize("seed", [64, 96, 65])
    def test_matches_tensor_difference_oracle(self, seed):
        # tol=inf stops at the second level, and the oracle sums that level's
        # whole lattice: on the canonical real-axis points of a collinear set
        # (its mirrored terms equal the ones the engine skips), for the
        # Gamma_0 term of an mpsk set turned so that Gamma_0 is real (the
        # whole plane equals the engine's half plane), and for every
        # conditioned term of other sets. The seed adds random sets of the
        # last kind, with a gain and a noise variance drawn apart and mapped
        # to the one coupling of the same MI, g = gain^2 / noise variance.
        cases = []
        for M in (2, 3, 4, 8, 16):
            mask, mpsk = mask_constellation(M, 0.7), mpsk_constellation(M, 0.9, 0.1)
            for g in (0.1, 1.0, 30.0, 3000.0):
                cases.append((mask, MrcStatistics(g, g), canonical_points(mask.points).real, None))
                if M == 2:  # two points are collinear
                    cases.append((mpsk, MrcStatistics(g, g), canonical_points(mpsk.points).real,
                                  None))
                else:
                    cases.append((mpsk, MrcStatistics(g, g), turned_ring(mpsk.points), (0,)))
        c = explicit_constellation([0.9, 0.5j, -0.3 - 0.4j])
        cases.append((c, MrcStatistics(7.0, 7.0), c.points, None))
        c = mpsk_constellation(4, 0.8, 0.3)
        cases.append((c, MrcStatistics(48.0, 48.0), turned_ring(c.points), (0,)))  # 12^2 / 3
        rng = np.random.default_rng(seed)
        for n_points in (3, 5, 8):
            c = explicit_constellation(rng.uniform(-0.7, 0.7, n_points)
                                       + 1j * rng.uniform(-0.7, 0.7, n_points))
            gain, noise_var = 10.0 ** rng.uniform(-1.0, 3.0, size=2)
            g = gain**2 / noise_var
            cases.append((c, MrcStatistics(g, g), c.points, None))
        for c, stats, points, conditioned in cases:
            est = mi_quadrature(c, stats, tol=math.inf)
            ref = level_one_oracle(points, stats.gain, conditioned)
            assert abs(est.value_bits - ref) <= 1e-12, (c.points, stats)

    def test_mask_matches_adaptive_integral(self):
        # The phase is off every axis, where the tensor rule converged slowest.
        for M in (2, 4, 8, 16):
            line = [m / (M - 1) for m in range(M)]
            for g in (0.1, 1.0, 30.0, 200.0, 3000.0):
                est = mi_quadrature(mask_constellation(M, 0.37 * 2 * math.pi), MrcStatistics(g, g))
                ref = adaptive_mi_collinear(line, g)
                assert abs(est.value_bits - ref) <= 1e-9, (M, g)

    @pytest.mark.parametrize("scheme, M", [("mask", 2), ("mask", 4), ("mask", 8),
                                           ("mpsk", 4), ("mpsk", 8), ("mpsk", 16)])
    def test_gain_scan_is_within_tol_of_independent_oracles(self, scheme, M):
        # Two levels can agree by chance far from the true value; a scan over
        # log-spaced gains shows it where a few chosen gains may not.
        if scheme == "mask":
            c, gains = mask_constellation(M, 0.37 * 2 * math.pi), np.logspace(0.0, 3.5, 100)
            line = [m / (M - 1) for m in range(M)]

            def oracle(g):
                return adaptive_mi_collinear(line, g)
        else:
            c, gains = mpsk_constellation(M, 0.9, 0.1), np.logspace(-1.0, 4.0, 12)

            def oracle(g):
                # Steps 0.03 and 0.022 agree to 2e-15 at these gains.
                return lattice_mi_oracle(c.points, g, 0.03, 49.0, conditioned=(0,))
        for g in gains:
            est = mi_quadrature(c, MrcStatistics(g, g))
            assert abs(est.value_bits - oracle(g)) <= DEFAULT_MI_TOL, g

    @pytest.mark.parametrize("M", [3, 8, 16])
    def test_mpsk_symmetry_matches_converged_full_oracle(self, M):
        # Every conditioned term at a converged level, against the engine's one term.
        c = mpsk_constellation(M, 0.9, 0.1)
        for g in (1.0, 200.0):
            ref = tensor_mi_oracle(c.points, g, 216)
            assert abs(mi_quadrature(c, MrcStatistics(g, g)).value_bits - ref) \
                <= 2 * DEFAULT_MI_TOL, (M, g)

    @pytest.mark.parametrize("points, mask", [
        # Two points are always collinear.
        ([(-0.5 + 0.3j) * np.exp(0.4j), (0.5 + 0.3j) * np.exp(0.4j)],
         mask_constellation(2, 0.4)),
        # Three points on a line that misses the origin, Gamma_0 in the middle.
        ([0.4j * np.exp(2.0j), (-0.5 + 0.4j) * np.exp(2.0j), (0.5 + 0.4j) * np.exp(2.0j)],
         mask_constellation(3, 1.1)),
    ], ids=["two_points", "offset_line"])
    def test_collinear_explicit_set_takes_1d_rule(self, kernel_entries, points, mask):
        M = len(points)
        for g in (0.5, 40.0, 2000.0):
            kernel_entries.clear()
            est = mi_quadrature(explicit_constellation(points), MrcStatistics(g, g))
            # Both lines are symmetric about their midpoints: ceil(M/2) terms.
            assert_work(kernel_entries, (M + 1) // 2 * M, "line")
            ref = mi_quadrature(mask, MrcStatistics(g, g))
            assert abs(est.value_bits - ref.value_bits) <= 1e-12, g

    def test_set_off_its_line_keeps_2d_rule(self, kernel_entries):
        rot = np.exp(2.0j)
        points = [0.4j * rot, (-0.5 + 0.4j) * rot, (0.5 + 0.401j) * rot]
        mi_quadrature(explicit_constellation(points), MrcStatistics(40.0, 40.0))
        assert_work(kernel_entries, 3 * 3, "plane")

    def test_rotation_symmetry_is_read_from_the_points(self, kernel_entries):
        stats = MrcStatistics(40.0, 40.0)
        rot = np.exp(0.3j)
        ring = explicit_constellation([p * rot for p in mpsk_constellation(8, 0.9, 0.1).points])
        mi_quadrature(ring, stats)
        assert_work(kernel_entries, 8, "half_plane")
        # Three points off any equally spaced ring keep every conditioned term.
        kernel_entries.clear()
        mi_quadrature(explicit_constellation([0.9 + 0j, 0.5j, -0.3 - 0.4j]), stats)
        assert_work(kernel_entries, 3 * 3, "plane")

    @pytest.mark.parametrize("scheme", ["mask", "mpsk"])
    def test_work_per_level_follows_structure(self, kernel_entries, scheme):
        # Deterministic guard against a silent fall back to all M terms, to
        # the whole plane or to evaluating a coarser level's nodes again: M/2
        # terms of M entries per added node of the mirrored line, M per added
        # half-plane node for the one mpsk term.
        M = 16
        c = mask_constellation(M, 0.3) if scheme == "mask" else mpsk_constellation(M, 0.9, 0.1)
        mi_quadrature(c, MrcStatistics(200.0, 200.0))
        if scheme == "mask":
            assert_work(kernel_entries, M // 2 * M, "line")
        else:
            assert_work(kernel_entries, M, "half_plane")

    def test_line_terms_follow_its_mirror_symmetry(self, kernel_entries):
        stats = MrcStatistics(40.0, 40.0)
        for points, terms in (([0.0, 0.1, 1.0], 3), (mask_constellation(3, 0.0).points, 2)):
            kernel_entries.clear()
            est = mi_quadrature(explicit_constellation(points), stats, tol=math.inf)
            assert_work(kernel_entries, terms * 3, "line")
            assert len(kernel_entries) == 2
            # [0, 0.1, 1] has no mirror and keeps all M terms; an odd mask
            # set evaluates ceil(M/2) and counts its middle term once.
            ref = level_one_oracle(np.real(points), 40.0)
            assert abs(est.value_bits - ref) <= 1e-12, points

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_mpsk_value_is_the_same_at_every_base_phase(self, M):
        for g in (30.0, 200.0):
            vals = [mi_quadrature(mpsk_constellation(M, 0.9, k * 2 * math.pi / M / 7 + 0.01),
                                  MrcStatistics(g, g)).value_bits for k in range(7)]
            assert max(vals) - min(vals) <= 1e-13, (M, g, vals)

    @pytest.mark.parametrize("M, g", [(4, 30.0), (16, 200.0)])
    def test_mpsk_matches_adaptive_conditioned_term(self, M, g):
        c = mpsk_constellation(M, 0.9, 0.1)
        ref = adaptive_conditioned_term(c.points, g)
        assert abs(mi_quadrature(c, MrcStatistics(g, g)).value_bits - ref) <= 1e-9

    @pytest.mark.parametrize("scheme", ["mask", "mpsk"])
    @pytest.mark.parametrize("M", [128, 256])
    def test_high_orders_bounded_and_monotone(self, scheme, M):
        c = mask_constellation(M, 0.0) if scheme == "mask" else mpsk_constellation(M, 0.9, 0.0)
        vals = [mi_quadrature(c, MrcStatistics(g, g)).value_bits for g in (1.0, 1e2, 1e4, 1e6)]
        # Rounding slack only: saturated values land within an ulp of log2 M
        # (mpsk M=128 at g=1e6 gives 6.999999999999999).
        assert all(-1e-12 <= v <= math.log2(M) + 1e-12 for v in vals), vals
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), vals

    @given(scheme=st.sampled_from(["mask", "mpsk"]), M=st.sampled_from([2, 4, 8, 16, 32, 64]),
           log_g=st.lists(st.floats(-6.0, 8.0), min_size=2, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_bounded_and_monotone_at_extreme_gains(self, scheme, M, log_g):
        # Gains from 1e-6 to 1e8, where the kernel subtracts O(g) terms.
        c = mask_constellation(M, 0.0) if scheme == "mask" else mpsk_constellation(M, 0.9, 0.0)
        lo, hi = (mi_quadrature(c, MrcStatistics(10.0**e, 10.0**e)).value_bits
                  for e in sorted(log_g))
        for v in (lo, hi):
            assert -1e-9 <= v <= math.log2(M) + 1e-9
        assert hi >= lo - 2 * DEFAULT_MI_TOL

    def test_precision_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("sbcrate.bd_rate"), "_LEVELS", 2)
        c = mpsk_constellation(4, 0.9, 0.1)
        with pytest.raises(PrecisionError) as info:
            mi_quadrature(c, MrcStatistics(20.0, 20.0), tol=1e-14)
        est = info.value.estimate
        assert est.method == "quadrature"
        # The best estimate is the last level's.
        ref = level_one_oracle(turned_ring(c.points), 20.0, (0,))
        assert abs(est.value_bits - ref) <= 1e-12


class TestMiMonteCarlo:
    def test_zero_gain(self):
        est = mi_monte_carlo(mask_constellation(2, 0.0), MrcStatistics(0.0, 0.0),
                             samples=10_000, seed=1)
        assert est.value_bits == 0.0 and est.std_error_bits == 0.0

    def test_noiseless_limit(self):
        c = mask_constellation(2, 0.0)
        est = mi_monte_carlo(c, MrcStatistics(1e4, 1e4), samples=50_000, seed=2)
        assert abs(est.value_bits - 1.0) < 1e-3

    def test_fixed_seed_is_bit_identical(self):
        c = mpsk_constellation(4, 0.7, 0.0)
        stats = MrcStatistics(5.0, 5.0)
        a = mi_monte_carlo(c, stats, samples=200_000, seed=99)
        b = mi_monte_carlo(c, stats, samples=200_000, seed=99)
        assert a == b

    def test_seed_changes_estimate(self):
        c = mpsk_constellation(4, 0.7, 0.0)
        stats = MrcStatistics(5.0, 5.0)
        a = mi_monte_carlo(c, stats, samples=50_000, seed=1)
        b = mi_monte_carlo(c, stats, samples=50_000, seed=2)
        assert a.value_bits != b.value_bits

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            mi_monte_carlo(mask_constellation(2, 0.0), MrcStatistics(1.0, 1.0),
                           samples=100, seed=0)

    def test_agreement_with_quadrature_random_scenarios(self):
        rng = np.random.default_rng(424242)
        for _ in range(20):
            m = int(rng.choice([2, 4, 8]))
            if rng.uniform() < 0.5:
                c = mask_constellation(m, float(rng.uniform(0, 2 * math.pi)))
            else:
                c = mpsk_constellation(m, float(rng.uniform(0.3, 1.0)),
                                       float(rng.uniform(0, 2 * math.pi / m)))
            g = float(10 ** rng.uniform(-0.5, 2.0))
            stats = MrcStatistics(g, g)
            qd = mi_quadrature(c, stats)
            mc = mi_monte_carlo(c, stats, samples=200_000, seed=int(rng.integers(2**31)))
            # Both estimators carry error: sampling noise plus a quadrature
            # term (the successive-difference stop underestimates by ~2x).
            assert abs(qd.value_bits - mc.value_bits) <= 4.0 * mc.std_error_bits + 1e-7


class TestBdRate:
    def test_mask_rate_unaffected_by_common_phase(self, default_channel):
        sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=8)
        vals = [bd_rate(sys, default_channel, mask_constellation(2, phi)).value_bits
                for phi in (0.0, math.pi / 3, 1.7, 5.5)]
        assert max(vals) - min(vals) <= 1e-6
        assert 0.05 < vals[0] < 1.0  # informative but unsaturated

    def test_mpsk_rate_unaffected_by_base_phase(self, default_channel):
        sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=8)
        m = 4
        eps = 1e-6
        vals = [bd_rate(sys, default_channel,
                        mpsk_constellation(m, 0.9, phi)).value_bits
                for phi in (0.0, 0.3, 2 * math.pi / m - eps)]
        assert max(vals) - min(vals) <= 1e-6

    def test_zero_amplitude_set_has_zero_rate(self, default_system, default_channel):
        c = explicit_constellation([0j, 0j, 0j, 0j])
        assert bd_rate(default_system, default_channel, c).value_bits == 0.0
