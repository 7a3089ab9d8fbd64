"""Scenario-driven command line emitting diff-friendly CSV artifacts.

Subcommands: `rate`, `phase-sweep`, `ratio-sweep`, `order-sweep`, `optimize`,
`mi`.  Every run is a pure function of the scenario, which the `# scenario=`
row hashes, and of `mi --samples`, which its `# seed= samples=` row records:
rows are emitted in grid order, floats at full precision, metadata in leading
`#` rows, so identical inputs give byte-identical outputs.  Exit codes: 0 success,
2 a bad flag or `ScenarioError`, 3 `PrecisionError`; other exceptions propagate.

`main` may be called any number of times in one process, as
`scripts/reproduce_figures.py` does: the argument parser is built once, on
the first call, and every call parses its own argv into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys
from pathlib import Path

import numpy as np

from .bd_rate import (MIN_SAMPLES, PrecisionError, bd_rate, mi_monte_carlo, mrc_statistics,
                      mi_quadrature)
from .constellation import equal_power_psk_amplitude, mask_points, mpsk_points
from .phase_opt import optimal_phase, phase_period
from .pt_rate import (_rate_bits, max_pt_rate_ask, max_pt_rate_psk, psk_optimal_offset, pt_rate,
                      pt_rate_no_bd, pt_rate_psk_infinite)
from .scenario import Scenario, ScenarioError, load_scenario, scenario_hash

#: Equal-power ring amplitude in the infinite-order limit of the amplitude grid.
_EQUAL_POWER_LIMIT = math.sqrt(1.0 / 3.0)


def _fmt(x: float) -> str:
    return repr(float(x))


def _meta(scn: Scenario, command: str) -> list[str]:
    return [f"# scenario={scenario_hash(scn)}", f"# command={command}"]


def cmd_rate(scn: Scenario, args) -> list[str]:
    sy, ch = scn.system, scn.channel()
    c = scn.build_constellation()
    with_bd, without = pt_rate(sy, ch, c.points), pt_rate_no_bd(sy, ch)
    bd = bd_rate(sy, ch, c)
    lines = _meta(scn, "rate")
    lines.append("pt_rate_bits,no_bd_rate_bits,gain_bits,bd_rate_bits")
    lines.append(",".join(_fmt(v) for v in
                          (with_bd, without, with_bd - without, bd.value_bits)))
    return lines


def cmd_phase_sweep(scn: Scenario, args) -> list[str]:
    if scn.sweep is None or scn.sweep.variable != "base_phase":
        raise ScenarioError("phase-sweep needs sweep.variable = 'base_phase'")
    sy, ch = scn.system, scn.channel()
    M = scn.order
    limit = phase_period(scn.scheme, M)
    lo = scn.sweep.lo if scn.sweep.lo is not None else 0.0
    hi = scn.sweep.hi if scn.sweep.hi is not None else limit
    if not (0.0 <= lo < hi <= limit):
        raise ScenarioError(f"sweep range [{lo}, {hi}) outside the base-phase "
                            f"domain [0, {limit:g})")
    grid = np.linspace(lo, hi, scn.sweep.steps, endpoint=False)
    no_bd = _fmt(pt_rate_no_bd(sy, ch))
    sol = scn.optimal_phase()
    if scn.scheme == "mask":
        rates = pt_rate(sy, ch, mask_points(M, grid))
        best = max_pt_rate_ask(sy, ch, M)
    else:
        alpha0 = scn.resolved_alpha0()
        rates = pt_rate(sy, ch, mpsk_points(M, alpha0, grid))
        best = max_pt_rate_psk(sy, ch, M, alpha0)
    lines = _meta(scn, "phase-sweep")
    lines.append(f"# scheme={scn.scheme} order={M}")
    lines.append("phase_rad,pt_rate_bits,no_bd_rate_bits")
    # Rows from Python floats: their repr is _fmt's string, at a fraction of the cost.
    lines += [f"{phi!r},{r!r},{no_bd}" for phi, r in zip(grid.tolist(), rates.tolist())]
    lines.append(f"# closed_form_optimum_phase_rad={_fmt(sol.phase_rad)} "
                 f"closed_form_max_rate_bits={_fmt(best)}")
    return lines


def cmd_ratio_sweep(scn: Scenario, args) -> list[str]:
    if scn.sweep is None or scn.sweep.variable != "channel_ratio":
        raise ScenarioError("ratio-sweep needs sweep.variable = 'channel_ratio'")
    if scn.sweep.lo is None or scn.sweep.hi is None:
        raise ScenarioError("ratio-sweep needs sweep.lo and sweep.hi")
    if not (0.0 < scn.sweep.lo < scn.sweep.hi):
        raise ScenarioError("ratio-sweep needs 0 < sweep.lo < sweep.hi")
    if scn.sweep.steps < 2:
        raise ScenarioError("ratio-sweep needs at least 2 grid points")
    rho, a23 = scn.system.snr_scale, scn.channel().a23
    M = scn.order
    alpha0 = equal_power_psk_amplitude(M)  # equal average power per order
    grid = np.linspace(scn.sweep.lo, scn.sweep.hi, scn.sweep.steps)
    points = np.stack([mask_points(M, 0.0), mpsk_points(M, alpha0, psk_optimal_offset(M))])

    def optima(ratios):
        # Both optimal rates, ASK then PSK on the last axis, with |h1| = ratio * |h2||h3|.
        return _rate_bits(rho, np.asarray(ratios)[..., None, None] * a23, a23, points)

    def signs(ask, psk):
        # Rates this close are equal to rounding.  Where the direct path
        # dominates, both rates pass 90 bits while their true difference falls
        # below an ulp, and the computed one is noise: at most 12 ulp for
        # orders 2 to 1024 at ratios 1e13 to 1e30.  64 ulp (about 1e-12 bits)
        # clears that five times over and is far below the differences that
        # the grid meets near a real crossing.
        diff = ask - psk
        return np.where(np.abs(diff) <= 64 * np.spacing(np.maximum(ask, psk)), 0.0,
                        np.sign(diff))

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        asks, psks = optima(grid).T
        diffs = asks - psks
    if not np.all(np.isfinite(diffs)):
        raise ScenarioError(f"ratio-sweep rates overflow at ratio "
                            f"{_fmt(grid[~np.isfinite(diffs)][0])}; lower sweep.hi")
    lines = _meta(scn, "ratio-sweep")
    lines.append(f"# order={M} psk_amplitude={_fmt(alpha0)}")
    lines.append("ratio,rate_ask_opt_bits,rate_psk_opt_bits")
    lines += [f"{r!r},{ask!r},{psk!r}"
              for r, ask, psk in zip(grid.tolist(), asks.tolist(), psks.tolist())]
    sign = signs(asks, psks)
    brackets = [i for i in range(len(grid) - 1)
                if sign[i] != sign[i + 1] and sign[i] != 0]
    crossings = []
    for i in brackets:
        a, b = float(grid[i]), float(grid[i + 1])
        sa = sign[i]
        # A cell ending on a zero reaches a plateau where both rates round
        # alike; zeros and rounding noise inside it are not roots, so shrink
        # toward a until a midpoint shows the far sign.  From there both ends
        # carry real signs, and the exact difference decides.
        plateau = sign[i + 1] == 0.0
        mid = 0.5 * (a + b)
        while a < mid < b:  # bisect until the cell holds no float between its ends
            ask, psk = optima(mid)
            sm = signs(ask, psk) if plateau else np.sign(ask - psk)
            if sm == 0.0 and not plateau:
                a = b = mid
                break
            if sm == sa:
                a = mid
            else:
                b = mid
                plateau = plateau and sm == 0.0
            mid = 0.5 * (a + b)
        crossings.append(0.5 * (a + b))
    r0 = crossings[0] if len(crossings) == 1 else float("nan")
    lines.append(f"# sign_changes={len(crossings)} crossing_ratio_r0="
                 f"{_fmt(r0) if crossings else 'nan'}")
    return lines


def _power_of_two_orders(lo: float, hi: float) -> list[int]:
    orders = []
    m = 2
    while m <= hi:
        if m >= lo:
            orders.append(m)
        m *= 2
    if not orders:
        raise ScenarioError(f"no power-of-two orders inside [{lo}, {hi}]")
    return orders


def cmd_order_sweep(scn: Scenario, args) -> list[str]:
    if scn.sweep is None or scn.sweep.variable != "order":
        raise ScenarioError("order-sweep needs sweep.variable = 'order'")
    lo = scn.sweep.lo if scn.sweep.lo is not None else 2
    hi = scn.sweep.hi if scn.sweep.hi is not None else 256
    orders = _power_of_two_orders(lo, hi)
    sy, ch = scn.system, scn.channel()
    theta0 = scn.theta0()
    lines = _meta(scn, "order-sweep")
    amp_note = _fmt(scn.amplitude) if isinstance(scn.amplitude, float) else "equal-power"
    lines.append(f"# psk_amplitude={amp_note} psk_suboptimal_phase=anti-optimal")
    lines.append("order,rate_ask_opt_bits,rate_psk_opt_bits,rate_psk_subopt_bits")
    for M in orders:
        alpha0 = scn.resolved_alpha0(M)
        ask = max_pt_rate_ask(sy, ch, M)
        psk = max_pt_rate_psk(sy, ch, M, alpha0)
        # Anti-optimal base phase: half a symbol spacing off the optimum.
        opt_phase = optimal_phase("mpsk", M, theta0).phase_rad
        sub_phase = (opt_phase + math.pi / M) % phase_period("mpsk", M)
        sub = pt_rate(sy, ch, mpsk_points(M, alpha0, sub_phase))
        lines.append(f"{M},{_fmt(ask)},{_fmt(psk)},{_fmt(sub)}")
    alpha_inf = scn.amplitude if isinstance(scn.amplitude, float) else _EQUAL_POWER_LIMIT
    lines.append(f"# psk_infinite_rate_bits={_fmt(pt_rate_psk_infinite(sy, ch, alpha_inf))}")
    return lines


def cmd_optimize(scn: Scenario, args) -> list[str]:
    sy, ch = scn.system, scn.channel()
    sol = scn.optimal_phase()
    c = scn.build_constellation(sol.phase_rad)
    floor = scn.min_bd_rate_bits
    # The device rate does not depend on the base phase: one evaluation settles the floor.
    feasible = floor == 0.0 or (floor <= math.log2(scn.order)
                                and bd_rate(sy, ch, c).value_bits >= floor)
    return [f"scheme={scn.scheme} order={scn.order} "
            f"optimal_phase_rad={_fmt(sol.phase_rad)} "
            f"achieved_pt_rate_bits={_fmt(pt_rate(sy, ch, c.points))} "
            f"feasible={str(feasible).lower()} wrap_index={sol.wrap_index}"]


def cmd_mi(scn: Scenario, args) -> list[str]:
    c, stats = scn.build_constellation(), mrc_statistics(scn.system, scn.channel())
    lines = _meta(scn, "mi")
    if args.samples is None:
        est = mi_quadrature(c, stats)
    else:
        est = mi_monte_carlo(c, stats, samples=args.samples, seed=scn.seed)
        lines.append(f"# seed={scn.seed} samples={args.samples}")
    lines.append("value_bits,std_error_bits,method")
    lines.append(f"{_fmt(est.value_bits)},{_fmt(est.std_error_bits)},{est.method}")
    return lines


_COMMANDS = {
    "rate": cmd_rate,
    "phase-sweep": cmd_phase_sweep,
    "ratio-sweep": cmd_ratio_sweep,
    "order-sweep": cmd_order_sweep,
    "optimize": cmd_optimize,
    "mi": cmd_mi,
}


def _sample_count(text: str) -> int:
    """argparse type of a decimal integer >= MIN_SAMPLES; argparse's error names the flag."""
    if not text.isdecimal() or int(text) < MIN_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be an integer >= {MIN_SAMPLES}, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # One parser serves every call: parse_args starts each namespace from the
    # defaults, and the append action copies the --override list it extends.
    parser = argparse.ArgumentParser(
        prog="sbcrate",
        description="Backscatter link rates, phase optimization, and sweeps as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", type=Path, default=None,
                        help="scenario JSON file (built-in defaults if omitted)")
    common.add_argument("--out", type=Path, default=None,
                        help="output path (stdout if omitted)")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="scenario override, e.g. modulation.order=4 (repeatable)")
    # Each subcommand takes the common flags and only the others it reads.
    parsers = {name: sub.add_parser(name, parents=[common]) for name in _COMMANDS}
    parsers["mi"].add_argument("--samples", type=_sample_count,
                               help="Monte Carlo sample count (quadrature if omitted)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario, args.override)
        lines = _COMMANDS[args.command](scn, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=_sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"numerical-precision failure: {exc} "
              f"(achieved {exc.estimate.value_bits!r} bits)", file=_sys.stderr)
        return 3
    text = "\n".join(lines) + "\n"
    if args.out is None:
        _sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
