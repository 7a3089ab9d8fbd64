#!/usr/bin/env python3
"""Write the reference table the benchmark checks its outputs against.

    python3 perfbench/make_reference.py      # rewrite perfbench/reference.json

`test_perfbench.py` checks that regenerating the table reproduces it.

The table holds the deterministic mutual information of

- the 40 `quadrature_grid` cells (scheme x order x coupling g), each at one
  fixed base phase: the device rate does not depend on the base phase, so
  one value serves every phase a run draws;
- the `sampled_mi` Monte Carlo scenarios, drawn as acceptance criterion 09
  draws them (order 2/4/8, mask or mpsk with ring U(0.3, 1), g = 10^U(-0.5,
  2.3)) less the near-saturated draws (see SATURATION_MARGIN),
  POOL_PER_STRATUM per (scheme, order) so that every run can cycle through
  the same mix;
- the `sampled_mi` simulator scenarios: criterion 10's channel and binary
  amplitude keying at spreading factors 64 and 128, with the transmit power
  scaled so that g = 10 at both.

It records the drawing seed and the commit the values came from.
"""

from __future__ import annotations

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sbcrate import MrcStatistics, mi_quadrature, mrc_statistics  # noqa: E402
from sbcrate.bd_rate import DEFAULT_MI_TOL  # noqa: E402
from sbcrate.channel import TWO_PI, ChannelTriple, SystemParams  # noqa: E402
from sbcrate.constellation import mask_constellation, mpsk_constellation  # noqa: E402

SEED = 20261017
SCHEMES = ("mask", "mpsk")
GRID_ORDERS = (2, 4, 8, 16)
GRID_GAINS = (0.1, 1.0, 30.0, 200.0, 3000.0)
GRID_RING = 0.9
#: Base phase of the grid references, as a fraction of the base-phase period;
#: away from the axis-aligned phases where the node ladder runs longest.
GRID_PHASE_FRACTION = 0.37
SAMPLED_ORDERS = (2, 4, 8)
POOL_PER_STRATUM = 4
#: Draws whose MI lies within this many bits of log2 M are redrawn.  Near
#: saturation the per-sample log ratio is a rare large deficit, so a run of
#: 2^21 samples may see a handful of such samples or none, and the plug-in
#: standard error then understates the spread: |z| reached 324 at 2e4
#: samples.  No z bound gates those draws without failing correct estimates.
SATURATION_MARGIN = 0.01
SPREADS = (64, 128)
#: Criterion 10's channel as polar (|h1|, |h2|, |h3|, arg h1, arg h2, arg h3).
CRITERION_10_CHANNEL = (1.0, 1.0, 1.0, 0.2, 0.9, 1.7)
CRITERION_10_GAIN = 10.0
CRITERION_10_PHASE = 0.45

#: Regenerated values must match the committed ones to a tenth of the gate's
#: tolerance; scenario parameters must match exactly.
REPRODUCE_TOL = DEFAULT_MI_TOL / 10


def period(scheme: str, order: int) -> float:
    return TWO_PI if scheme == "mask" else TWO_PI / order


def constellation(scheme: str, order: int, ring: float | None, base_phase: float):
    if scheme == "mask":
        return mask_constellation(order, base_phase)
    return mpsk_constellation(order, ring, base_phase)


def criterion_10_link(spread: int) -> tuple[SystemParams, ChannelTriple]:
    a1, a2, a3, t1, t2, t3 = CRITERION_10_CHANNEL
    ch = ChannelTriple(h1=cmath.rect(a1, t1), h2=cmath.rect(a2, t2), h3=cmath.rect(a3, t3))
    power = CRITERION_10_GAIN / (spread * (a2 * a3) ** 2)  # unit noise power
    return SystemParams(power_w=power, noise_w=1.0, spread=spread), ch


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build() -> dict:
    cells = []
    for scheme in SCHEMES:
        for order in GRID_ORDERS:
            ring = GRID_RING if scheme == "mpsk" else None
            phase = GRID_PHASE_FRACTION * period(scheme, order)
            for g in GRID_GAINS:
                est = mi_quadrature(constellation(scheme, order, ring, phase),
                                    MrcStatistics(g, g))
                cells.append({"scheme": scheme, "order": order, "ring": ring, "g": g,
                              "base_phase": phase, "mi_bits": est.value_bits})
    rng = np.random.default_rng(SEED)
    mc = []
    for scheme in SCHEMES:
        for order in SAMPLED_ORDERS:
            kept = 0
            while kept < POOL_PER_STRATUM:
                ring = float(rng.uniform(0.3, 1.0)) if scheme == "mpsk" else None
                phase = float(rng.uniform(0.0, period(scheme, order)))
                g = float(10 ** rng.uniform(-0.5, 2.3))
                est = mi_quadrature(constellation(scheme, order, ring, phase),
                                    MrcStatistics(g, g))
                if math.log2(order) - est.value_bits < SATURATION_MARGIN:
                    continue
                kept += 1
                mc.append({"scheme": scheme, "order": order, "ring": ring, "g": g,
                           "base_phase": phase, "mi_bits": est.value_bits})
    sim = []
    for spread in SPREADS:
        sy, ch = criterion_10_link(spread)
        c = mask_constellation(2, CRITERION_10_PHASE)
        est = mi_quadrature(c, mrc_statistics(sy, ch))
        sim.append({"spread": spread, "power_w": sy.power_w, "noise_w": sy.noise_w,
                    "scheme": "mask", "order": 2, "base_phase": CRITERION_10_PHASE,
                    "mi_bits": est.value_bits})
    return {"seed": SEED, "commit": commit_id(), "mi_tol": DEFAULT_MI_TOL,
            "saturation_margin_bits": SATURATION_MARGIN,
            "quadrature_cells": cells, "mc_scenarios": mc, "sim_scenarios": sim}


def differences(committed: dict, fresh: dict) -> list[str]:
    """Where a regenerated table departs from the committed one."""
    problems = []
    if committed["seed"] != fresh["seed"]:
        problems.append(f"seed {committed['seed']} != {fresh['seed']}")
    for table in ("quadrature_cells", "mc_scenarios", "sim_scenarios"):
        old, new = committed[table], fresh[table]
        if len(old) != len(new):
            problems.append(f"{table}: {len(old)} rows committed, {len(new)} regenerated")
            continue
        for i, (a, b) in enumerate(zip(old, new)):
            inputs_a = {k: v for k, v in a.items() if k != "mi_bits"}
            inputs_b = {k: v for k, v in b.items() if k != "mi_bits"}
            if inputs_a != inputs_b:
                problems.append(f"{table}[{i}]: inputs {inputs_a} != {inputs_b}")
            elif abs(a["mi_bits"] - b["mi_bits"]) > REPRODUCE_TOL:
                problems.append(f"{table}[{i}]: mi_bits {a['mi_bits']!r} != {b['mi_bits']!r}")
    return problems


def load(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
