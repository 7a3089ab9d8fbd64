"""Peak memory of one sampler worker.

numpy reports its heap buffers to tracemalloc; a worker's scratch buffers
are anonymous memory maps, which tracemalloc does not see, so their sizes
are counted as they are mapped (they stay mapped until the call returns).
A chunk may hold only the arrays its draw order forces; every other array
is the size of a block of about `_KERNEL_BLOCK` samples.
"""

import importlib
import mmap
import tracemalloc
from types import SimpleNamespace

import pytest

from sbcrate.bd_rate import MrcStatistics, mi_monte_carlo
from sbcrate.channel import SystemParams
from sbcrate.constellation import mpsk_constellation
from sbcrate.link_sim import RngSpec, empirical_bd_mi

MiB = 2**20


@pytest.fixture
def peak_bytes(monkeypatch):
    """Peak heap bytes plus mapped scratch bytes of a call, on one worker thread."""
    engine = importlib.import_module("sbcrate.bd_rate")
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    mapped = []

    def counting_map(fileno, length, *args, **kwargs):
        mapped.append(length)
        return mmap.mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(engine, "mmap", SimpleNamespace(mmap=counting_map))

    def measure(run) -> int:
        run()  # imports and lazy set-up are not the sampler's
        mapped.clear()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()

    return measure


def test_simulated_link_worker_holds_symbols_and_real_parts(peak_bytes, default_channel):
    # Two chunks of 8192 device symbols at L = 128: the primary symbols
    # (16 MiB) and the real parts of the received samples (8 MiB) are the only
    # chunk-sized arrays.  Building the received samples whole took 40.4 MiB.
    sys = SystemParams(power_w=5e-4, noise_w=1e-13, spread=128)
    c = mpsk_constellation(4, 0.8, 0.1)
    peak = peak_bytes(lambda: empirical_bd_mi(sys, default_channel, c, 2 * 8192, RngSpec(1)))
    assert peak < 30 * MiB


def test_monte_carlo_worker_holds_indices_and_real_parts(peak_bytes):
    # Chunks of 2^19 samples: the symbol indices (4 MiB) and the real parts of
    # the observations (4 MiB), which then take the values.  Building the
    # observations and the noise whole took 17.3 MiB.
    c = mpsk_constellation(8, 0.8, 0.1)
    peak = peak_bytes(lambda: mi_monte_carlo(c, MrcStatistics(60.0, 60.0), 2**20, 3))
    assert peak < 12 * MiB
