"""The quadrature's bits against its level-by-level form.

`level_by_level_quadrature` evaluates each trapezoidal level on its own:
its kernel blocks are `_KERNEL_BLOCK // M` entries of the terms x nodes
matrix in term-major order, gathered by index, and each block's weighted
sum is added in turn.  `mi_quadrature` must give the same bits however it
groups the kernel's work, since the kernel reduces each observation on its
own and each level's sum keeps its elements, their order and its blocks.
No hex value is pinned: the bits depend on numpy's SIMD dispatch.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcrate.bd_rate import (_KERNEL_BLOCK, _STRUCTURE_TOL, DEFAULT_MI_TOL, MiEstimate,
                             MrcStatistics, PrecisionError, _finite, _log_ratio_bits,
                             _trapezoid_nodes, check_gain, mi_quadrature)
from sbcrate.constellation import explicit_constellation, mask_constellation, mpsk_constellation

engine = importlib.import_module("sbcrate.bd_rate")


def level_by_level_quadrature(c, stats: MrcStatistics, tol: float = DEFAULT_MI_TOL):
    """`mi_quadrature` with one kernel call per block of one level, levels in turn."""
    points = np.asarray(c.points, dtype=complex)
    if stats.gain == 0.0 or np.all(points == points[0]):
        return MiEstimate(value_bits=0.0, std_error_bits=0.0, method="quadrature")
    check_gain(stats.gain, float(np.abs(points).max()))

    M = len(points)
    shifted = points - points[0]
    far = shifted[np.argmax(np.abs(shifted))]
    canonical = shifted * (abs(far) / far)
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
    coarsen = 2.0 if region == "line" else 4.0

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
            total += float((counts[term] * weights[node] * v).sum())
        return _finite(total) / M

    prev = added(0)
    for level in range(1, engine._LEVELS):
        cur = prev / coarsen + added(level)
        if abs(cur - prev) <= tol:
            return MiEstimate(value_bits=cur, std_error_bits=0.0, method="quadrature")
        prev = cur
    raise PrecisionError("did not converge",
                         MiEstimate(value_bits=prev, std_error_bits=0.0, method="quadrature"))


def assert_same_bits(c, g: float, tol: float = DEFAULT_MI_TOL) -> None:
    stats = MrcStatistics(g, g)
    got, want = mi_quadrature(c, stats, tol), level_by_level_quadrature(c, stats, tol)
    assert got.value_bits.hex() == want.value_bits.hex(), (c.points, g, tol)
    assert got == want


schemes = st.sampled_from(["mask", "mpsk"])
orders = st.integers(2, 64)
log_gains = st.floats(-6.0, 8.0)
#: Base phase as a fraction of the range the scheme accepts.
phases = st.floats(0.0, 1.0, exclude_max=True)
amplitudes = st.floats(0.05, 1.0)
#: Explicit sets off any line and any equally spaced ring: the whole plane.
plane_sets = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
                      min_size=3, max_size=24).map(
    lambda polar: explicit_constellation([r * complex(math.cos(t), math.sin(t))
                                          for r, t in polar]))


def keyed(scheme: str, M: int, phase: float, amplitude: float):
    if scheme == "mask":
        return mask_constellation(M, 2 * math.pi * phase)
    return mpsk_constellation(M, amplitude, 2 * math.pi / M * phase)


@given(scheme=schemes, M=orders, log_g=log_gains, phase=phases, amplitude=amplitudes)
@settings(max_examples=40, deadline=None)
def test_keyed_sets_match_the_level_by_level_bits(scheme, M, log_g, phase, amplitude):
    assert_same_bits(keyed(scheme, M, phase, amplitude), 10.0**log_g)


@given(c=plane_sets, log_g=st.floats(-6.0, 4.0))
@settings(max_examples=25, deadline=None)
def test_explicit_plane_sets_match_the_level_by_level_bits(c, log_g):
    assert_same_bits(c, 10.0**log_g)


@given(scheme=schemes, M=orders, log_g=log_gains, phase=phases, amplitude=amplitudes)
@settings(max_examples=30, deadline=None)
def test_first_two_levels_alone_match_the_level_by_level_bits(scheme, M, log_g, phase,
                                                              amplitude):
    assert_same_bits(keyed(scheme, M, phase, amplitude), 10.0**log_g, tol=math.inf)


def outcome(quadrature, c, stats: MrcStatistics, tol: float):
    """The estimate a call returns, or the one its PrecisionError carries, and which."""
    try:
        return "converged", quadrature(c, stats, tol)
    except PrecisionError as err:
        return "precision_error", err.estimate


@given(scheme=schemes, M=orders, log_g=log_gains, phase=phases, amplitude=amplitudes)
@settings(max_examples=20, deadline=None)
def test_precision_error_estimate_matches_the_level_by_level_bits(scheme, M, log_g, phase,
                                                                  amplitude):
    c, stats = keyed(scheme, M, phase, amplitude), MrcStatistics(10.0**log_g, 10.0**log_g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_LEVELS", 2)
        got = outcome(mi_quadrature, c, stats, 1e-15)
        want = outcome(level_by_level_quadrature, c, stats, 1e-15)
    assert got[1].value_bits.hex() == want[1].value_bits.hex()
    assert got == want


def test_two_levels_short_of_tol_raise_with_the_same_bits():
    c, stats = mpsk_constellation(4, 0.9, 0.1), MrcStatistics(20.0, 20.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_LEVELS", 2)
        got = outcome(mi_quadrature, c, stats, 1e-14)
        want = outcome(level_by_level_quadrature, c, stats, 1e-14)
    assert got[0] == want[0] == "precision_error"
    assert got[1].value_bits.hex() == want[1].value_bits.hex()
