"""Pinned outputs of the sampled estimators.

Monte Carlo and the simulated link draw every chunk from its own
(seed, chunk) substream and add the chunks in index order, so a fixed seed
gives the same bits however the chunks are computed.  The values below are
written as `float.hex` so that any change in the arithmetic shows.
"""

import importlib
import sys

import pytest

from sbcrate.bd_rate import MrcStatistics, mi_monte_carlo
from sbcrate.channel import SystemParams
from sbcrate.constellation import mask_constellation, mpsk_constellation
from sbcrate.link_sim import RngSpec, empirical_bd_mi

#: Three full Monte Carlo chunks and a partial one.
MC_SAMPLES = 3 * 2**19 + 12345
SIM_SYMBOLS = 20_000

MC_CASES = {
    # (scheme, M, seed, g): (value_bits, std_error_bits)
    ("mask", 2, 1, 3.0): ("0x1.3ee23c10421dcp-1", "0x1.47defe198072bp-11"),
    ("mpsk", 4, 7, 10.0): ("0x1.f457dd6a8fc7ap+0", "0x1.2e2ca97b733d9p-12"),
    ("mpsk", 8, 123, 60.0): ("0x1.7f8f5d9494b19p+1", "0x1.5b81362d83d0ep-14"),
    ("mask", 4, 5, 0.0): ("0x0.0p+0", "0x0.0p+0"),
}

SIM_CASES = {
    # (scheme, M, seed, L): (value_bits, std_error_bits)
    ("mask", 2, 2020, 64): ("0x1.4bf19c20179c7p-1", "0x1.659b4eeaa1937p-8"),
    ("mpsk", 4, 99, 128): ("0x1.d6e48cc902ee0p+0", "0x1.2b6cb8c0104d7p-8"),
}


def constellation(scheme: str, M: int):
    return mask_constellation(M, 0.4) if scheme == "mask" else mpsk_constellation(M, 0.8, 0.3 / M)


def monte_carlo(scheme, M, seed, g):
    return mi_monte_carlo(constellation(scheme, M), MrcStatistics(g, g),
                          samples=MC_SAMPLES, seed=seed)


def simulated(default_channel, scheme, M, seed, L):
    sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=L)
    return empirical_bd_mi(sys, default_channel, constellation(scheme, M), SIM_SYMBOLS,
                           RngSpec(seed))


@pytest.fixture(params=[None, 1, 3], ids=["usable_cpus", "1_worker", "3_workers"])
def workers(request, monkeypatch):
    """Worker threads per sampler: as many as usable CPUs, or forced to a count.

    With more threads than cores, the interpreter also switches threads far
    more often than usual, so chunks interleave as finely as they can.
    """
    if request.param is not None:
        engine = importlib.import_module("sbcrate.bd_rate")
        monkeypatch.setattr(engine, "_usable_cpus", lambda: request.param)
    interval = sys.getswitchinterval()
    if request.param == 3:
        sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("case", list(MC_CASES), ids=lambda c: "-".join(map(str, c)))
def test_monte_carlo_is_pinned(workers, case):
    est = monte_carlo(*case)
    assert (est.value_bits.hex(), est.std_error_bits.hex()) == MC_CASES[case]


@pytest.mark.parametrize("case", list(SIM_CASES), ids=lambda c: "-".join(map(str, c)))
def test_simulated_link_is_pinned(default_channel, workers, case):
    est = simulated(default_channel, *case)
    assert (est.value_bits.hex(), est.std_error_bits.hex()) == SIM_CASES[case]
