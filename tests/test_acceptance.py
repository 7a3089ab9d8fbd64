"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.  All
randomness is seeded, so the suite is deterministic.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from sbcrate.bd_rate import MrcStatistics, bd_rate, mi_monte_carlo, mi_quadrature, mrc_statistics
from sbcrate.channel import ChannelTriple, SystemParams
from sbcrate.cli import main as cli_main
from sbcrate.constellation import mask_constellation, mpsk_constellation
from sbcrate.link_sim import RngSpec, combiner_outputs, empirical_bd_mi
from sbcrate.phase_opt import optimal_phase
from sbcrate.pt_rate import (mask_rate_curve, mpsk_rate_curve, pt_rate_ask_infinite,
                             pt_rate_finite, pt_rate_no_bd, pt_rate_psk_infinite)

from .conftest import channel_from_polar
from .grid_oracle import grid_search_phase

TWO_PI = 2.0 * math.pi
SECTION_V_SYS = SystemParams(power_w=0.05, noise_w=1e-13, spread=128)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_channel(rng, lo=-7.0, hi=-3.0) -> ChannelTriple:
    a1 = float(10 ** rng.uniform(lo, hi))
    a23 = float(10 ** rng.uniform(lo, hi))
    t1, t2, t3 = rng.uniform(0.0, TWO_PI, size=3)
    return channel_from_polar(a1, a23, 1.0, t1, t2, t3)


def circular_distance(a: float, b: float, period: float) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


def test_criterion_01_ask_infinite_closed_form_vs_quadrature():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        ch = random_channel(rng)
        phi0 = float(rng.uniform(0.0, TWO_PI))
        closed = pt_rate_ask_infinite(SECTION_V_SYS, ch, phi0)
        rho = SECTION_V_SYS.snr_scale
        h23 = ch.h2 * ch.h3
        rot = complex(math.cos(phi0), math.sin(phi0))
        oracle, _ = quad(lambda a: math.log2(1.0 + rho * abs(ch.h1 + h23 * a * rot) ** 2),
                         0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"closed form vs adaptive quadrature, 200 draws: worst rel err "
                  f"{worst:.3e} (<=1e-8), {elapsed:.1f}s (<10s)")


def test_criterion_02_psk_infinite_closed_form_vs_phase_average():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    n = 10**6
    phases = (np.arange(n) + 0.5) * (TWO_PI / n)
    cosv = np.cos(phases)
    worst = 0.0
    for _ in range(50):
        ch = random_channel(rng)
        alpha0 = float(rng.uniform(0.05, 1.0))
        closed = pt_rate_psk_infinite(SECTION_V_SYS, ch, alpha0)
        rho = SECTION_V_SYS.snr_scale
        snr = rho * (ch.a1**2 + (ch.a23 * alpha0) ** 2
                     + 2.0 * ch.a1 * ch.a23 * alpha0 * cosv)
        oracle = float(np.log1p(snr).mean() / math.log(2.0))
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report(2, ok, f"closed form vs 1e6-point phase average, 50 draws: worst abs err "
                  f"{worst:.3e} bits (<=1e-4), {elapsed:.1f}s (<30s)")


def test_criterion_03_mask_optimal_phase_vs_grid():
    rng = np.random.default_rng(303)
    grid_points = 10_000
    step = TWO_PI / grid_points
    worst_dist, worst_gap = 0.0, 0.0
    for _ in range(100):
        ch = random_channel(rng)
        closed = optimal_phase("mask", 2, ch.theta0).phase_rad
        for m in (2, 4, 8, 16):
            obj = lambda p: mask_rate_curve(SECTION_V_SYS, ch, m, p)
            grid_phi, grid_val = grid_search_phase(obj, 0.0, TWO_PI, grid_points)
            worst_dist = max(worst_dist, circular_distance(closed, grid_phi, TWO_PI))
            closed_val = float(obj(np.array([closed]))[0])
            worst_gap = max(worst_gap, grid_val - closed_val)
    ok = worst_dist <= step and worst_gap <= 1e-10
    report(3, ok, f"amplitude-keyed optimum vs 1e4-point grid, 100 channels x "
                  f"M in {{2,4,8,16}}: worst offset {worst_dist:.2e} rad (<= step "
                  f"{step:.2e}), closed-form shortfall {worst_gap:.2e} (<=1e-10)")


def test_criterion_04_psk_optimal_phase_vs_grid_including_odd_orders():
    # The base-phase dependence of the phase-keyed rate shrinks like
    # (B/2A)^M, so at high orders the curve can be flat at double precision
    # and the grid argmax carries no information.  The argmax proximity is
    # therefore checked whenever the grid can resolve the curve (total
    # variation >= 1e-7 bits); the value condition is enforced always.
    rng = np.random.default_rng(404)
    grid_points = 10_000
    alpha0 = 0.9
    resolvable_floor = 1e-7
    worst_dist, worst_gap = 0.0, 0.0
    flat_cases = 0
    odd_status = {m: "agrees with the grid argmax" for m in (3, 5, 6)}
    for trial in range(100):
        ch = random_channel(rng)
        for m in (2, 4, 8, 16):
            period = TWO_PI / m
            closed = optimal_phase("mpsk", m, ch.theta0).phase_rad
            obj = lambda p: mpsk_rate_curve(SECTION_V_SYS, ch, m, alpha0, p)
            grid = np.linspace(0.0, period, grid_points, endpoint=False)
            vals = obj(grid)
            grid_phi = float(grid[int(np.argmax(vals))])
            closed_val = float(obj(np.array([closed]))[0])
            worst_gap = max(worst_gap, float(vals.max()) - closed_val)
            if float(vals.max() - vals.min()) >= resolvable_floor:
                worst_dist = max(worst_dist, circular_distance(closed, grid_phi, period)
                                 / (period / grid_points))
            else:
                flat_cases += 1
        if trial < 20:  # non-power-of-two audit on a subsample
            for m in (3, 5, 6):
                period = TWO_PI / m
                closed = optimal_phase("mpsk", m, ch.theta0).phase_rad
                obj = lambda p: mpsk_rate_curve(SECTION_V_SYS, ch, m, alpha0, p)
                grid_phi, _ = grid_search_phase(obj, 0.0, period, grid_points)
                vals = obj(np.linspace(0.0, period, grid_points, endpoint=False))
                if float(vals.max() - vals.min()) < resolvable_floor:
                    continue
                if circular_distance(closed, grid_phi, period) > period / grid_points:
                    odd_status[m] = "DISCREPANCY: grid argmax off the closed form"
    for m, status in odd_status.items():
        print(f"[ACCEPTANCE  4]   M={m}: {status}")
    ok = worst_dist <= 1.0 and worst_gap <= 1e-10
    report(4, ok, f"phase-keyed optimum vs grid on [0, 2pi/M), 100 channels x "
                  f"M in {{2,4,8,16}}: worst resolvable offset {worst_dist:.3f} steps "
                  f"(<=1, {flat_cases} flat curves skipped), shortfall {worst_gap:.2e} "
                  f"(<=1e-10); M in {{3,5,6}} recorded above")


def test_criterion_05_mask_gain_signs_at_aligned_phases():
    rng = np.random.default_rng(505)
    all_ok = True
    for _ in range(20):
        a23 = float(10 ** rng.uniform(-5, -3))
        ch = channel_from_polar(2.0 * a23, a23, 1.0, *rng.uniform(0, TWO_PI, size=3))
        sys = SystemParams(power_w=float(10 ** rng.uniform(-2, 0)), noise_w=1e-13,
                           spread=1)
        rp = pt_rate_no_bd(sys, ch)
        theta0 = ch.theta0
        for m in (2, 4, 8):
            anti = pt_rate_finite(sys, ch, mask_constellation(m, (math.pi - theta0) % TWO_PI))
            best = pt_rate_finite(sys, ch, mask_constellation(m, (-theta0) % TWO_PI))
            all_ok &= (anti - rp) < 0.0 and (best - rp) > 0.0
    report(5, all_ok, "amplitude-keyed gain signs with |h1| = 2|h2||h3|: negative at "
                      "the anti-aligned phase, positive at the aligned phase "
                      "(M in {2,4,8}, 20 draws)")


def test_criterion_06_psk_gain_sign_witnesses():
    sys = SystemParams(power_w=1.0, noise_w=1.0, spread=1)
    all_ok = True
    details = []
    for alpha0 in (0.5, 0.9, 1.0):
        a1 = 100.0                       # b = P a1^2 / sigma^2 = 1e4
        ch = channel_from_polar(a1, a1 / alpha0, 1.0)   # theta0 = 0
        rp = pt_rate_no_bd(sys, ch)
        for m in (4, 8):
            gain = pt_rate_finite(sys, ch, mpsk_constellation(m, alpha0, 0.0)) - rp
            all_ok &= gain < 0.0
            details.append(f"M={m},a0={alpha0}: {gain:+.3f}")
        gain2 = pt_rate_finite(sys, ch, mpsk_constellation(2, alpha0, math.pi / 2)) - rp
        all_ok &= gain2 > 0.0
        details.append(f"M=2 quarter-turn,a0={alpha0}: {gain2:+.3f}")
    report(6, all_ok, f"phase-keyed gain witnesses at b=1e4, |h1|=a0|h2||h3|: "
                      f"{'; '.join(details)}")


def test_criterion_07_infinite_psk_always_gains():
    rng = np.random.default_rng(707)
    sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
    min_gain = math.inf
    for _ in range(1000):
        a1 = float(10 ** rng.uniform(-7, -4))
        a23 = float(10 ** rng.uniform(-5, -3))
        alpha0 = float(rng.uniform(0.1, 1.0))
        ch = channel_from_polar(a1, a23, 1.0, *rng.uniform(0, TWO_PI, size=3))
        gain = pt_rate_psk_infinite(sys, ch, alpha0) - pt_rate_no_bd(sys, ch)
        min_gain = min(min_gain, gain)
    ok = min_gain > 0.0
    report(7, ok, f"infinite-order phase keying vs baseline over 1000 draws: "
                  f"smallest gain {min_gain:.3e} bits (>0)")


def test_criterion_08_bd_rate_base_phase_invariance():
    ch = channel_from_polar(1.0, 1.0, 1.0, 0.37, 1.12, 2.45)
    worst = 0.0
    cases = []
    for m, g_target in ((2, 6.0), (4, 22.0)):
        sys = SystemParams(power_w=g_target / 128.0, noise_w=1.0, spread=128)
        vals = [bd_rate(sys, ch, mask_constellation(m, phi)).value_bits
                for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False)]
        drift = max(vals) - min(vals)
        worst = max(worst, drift)
        cases.append(f"ask M={m}: {drift:.1e}")
    for m, g_target in ((2, 8.0), (4, 25.0), (8, 60.0)):
        sys = SystemParams(power_w=g_target / 128.0, noise_w=1.0, spread=128)
        vals = [bd_rate(sys, ch, mpsk_constellation(m, 0.9, phi)).value_bits
                for phi in np.linspace(0.0, TWO_PI / m, 8, endpoint=False)]
        drift = max(vals) - min(vals)
        worst = max(worst, drift)
        cases.append(f"psk M={m}: {drift:.1e}")
    ok = worst <= 1e-6
    report(8, ok, f"device rate drift across 8 base phases (<=1e-6 bits): "
                  f"{'; '.join(cases)}")


def test_criterion_09_mi_engine_cross_validation():
    rng = np.random.default_rng(911)
    worst_z = 0.0
    range_ok = True
    for _ in range(100):
        m = int(rng.choice([2, 4, 8]))
        if rng.uniform() < 0.5:
            c = mask_constellation(m, float(rng.uniform(0.0, TWO_PI)))
        else:
            c = mpsk_constellation(m, float(rng.uniform(0.3, 1.0)),
                                   float(rng.uniform(0.0, TWO_PI / m)))
        g = float(10 ** rng.uniform(-0.5, 2.3))
        stats = MrcStatistics(g, g)
        qd = mi_quadrature(c, stats)
        mc = mi_monte_carlo(c, stats, samples=10**7, seed=int(rng.integers(2**31)))
        se = max(mc.std_error_bits, 2e-8)  # quadrature term floors the scale
        worst_z = max(worst_z, abs(qd.value_bits - mc.value_bits) / se)
        range_ok &= -1e-9 <= qd.value_bits <= math.log2(m) + 1e-9
        range_ok &= -1e-9 <= mc.value_bits <= math.log2(m) + 1e-9
    # Saturation: effective SNR (g dmin)^2 / sigma_s^2 = 1e4.
    sat_ok = True
    for m in (2, 4):
        c = mask_constellation(m, 0.3)
        g = 1e4 * (m - 1) ** 2
        est = mi_quadrature(c, MrcStatistics(g, g))
        sat_ok &= abs(est.value_bits - math.log2(m)) <= 1e-3
    ok = worst_z <= 3.0 and range_ok and sat_ok
    report(9, ok, f"quadrature vs 1e7-sample Monte Carlo on 100 scenarios: worst "
                  f"|z| {worst_z:.2f} (<=3), range bounds {'ok' if range_ok else 'BAD'}, "
                  f"saturation to log2(M) {'ok' if sat_ok else 'BAD'}")


def test_criterion_10_combiner_statistics_and_empirical_mi():
    ch = channel_from_polar(1.0, 1.0, 1.0, 0.2, 0.9, 1.7)
    sys = SystemParams(power_w=10.0 / 64.0, noise_w=1.0, spread=64)   # g = 10
    c = mask_constellation(2, 0.45)
    stats = mrc_statistics(sys, ch)
    outs, idx = [], []
    trials = 10**6
    per_chunk = 12_500
    for chunk in range(trials // per_chunk):
        i, y = combiner_outputs(sys, ch, c, per_chunk, RngSpec(1010, stream=chunk))
        outs.append(y)
        idx.append(i)
    out = np.concatenate(outs)
    idx = np.concatenate(idx)
    mean_ok, var_ok = True, True
    details = []
    for m, point in enumerate(c.points):
        sel = out[idx == m]
        n = len(sel)
        want = stats.gain * point
        se = math.sqrt(stats.gain / (2 * n))  # the noise variance is g
        mean_err = max(abs(sel.mean().real - want.real), abs(sel.mean().imag - want.imag))
        mean_ok &= mean_err <= 5.0 * se
        var = float(np.mean(np.abs(sel - want) ** 2))
        rel = abs(var - stats.gain) / stats.gain
        var_ok &= rel <= 0.02
        details.append(f"symbol {m}: mean err {mean_err / se:.2f} se, var err {rel:.2%}")
    emp = empirical_bd_mi(sys, ch, c, 200_000, RngSpec(2020))
    qd = mi_quadrature(c, stats)
    mi_ok = abs(emp.value_bits - qd.value_bits) <= 3.0 * emp.std_error_bits
    ok = mean_ok and var_ok and mi_ok
    report(10, ok, f"combiner statistic at 1e6 trials: {'; '.join(details)}; "
                   f"empirical vs quadrature rate |z| "
                   f"{abs(emp.value_bits - qd.value_bits) / emp.std_error_bits:.2f} (<=3)")


def _read_csv(path):
    meta, rows, header = [], [], None
    for line in path.read_text().strip().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([x for x in line.split(",")])
    return meta, header, rows


def test_criterion_11_figure_level_behavior(tmp_path):
    start = time.perf_counter()

    # (a) Phase sweeps: maximum at the closed-form optimum, dip below the
    # baseline at the anti-optimal phase.
    sweep_ok = True
    sweep_notes = []
    sweeps = [
        ("mask", 2, []),
        ("mask", 4, []),
        ("mpsk", 2, ["--override", "modulation.amplitude=0.9"]),
        ("mpsk", 4, ["--override", "modulation.amplitude=0.9"]),
    ]
    for scheme, m, extra in sweeps:
        out = tmp_path / f"sweep_{scheme}_{m}.csv"
        code = cli_main(["phase-sweep", "--grid", "2000",
                         "--override", f"modulation.scheme={scheme}",
                         "--override", f"modulation.order={m}",
                         *extra, "--out", str(out)])
        assert code == 0
        meta, header, rows = _read_csv(out)
        phases = np.array([float(r[0]) for r in rows])
        rates = np.array([float(r[1]) for r in rows])
        no_bd = float(rows[0][2])
        opt_line = [x for x in meta if "closed_form_optimum_phase_rad" in x][0]
        closed = float(opt_line.split("closed_form_optimum_phase_rad=")[1].split()[0])
        period = TWO_PI if scheme == "mask" else TWO_PI / m
        step = period / len(rows)
        filt = abs(float(phases[rates.argmax()]) - closed)
        dist = min(filt % period, period - filt % period)
        dips = rates.min() < no_bd
        sweep_ok &= dist <= step and dips
        sweep_notes.append(f"{scheme} M={m}: offset {dist / step:.2f} step, "
                           f"dip {'yes' if dips else 'NO'}")

    # (b) Ratio sweep: exactly one crossing per order, decreasing with order.
    r0 = {}
    ratio_ok = True
    for m in (2, 4, 8):
        out = tmp_path / f"ratio_{m}.csv"
        code = cli_main(["ratio-sweep",
                         "--override", f"modulation.order={m}",
                         "--override",
                         'sweep={"variable":"channel_ratio","lo":0.02,"hi":3.0,"steps":300}',
                         "--out", str(out)])
        assert code == 0
        meta, header, rows = _read_csv(out)
        summary = [x for x in meta if "crossing_ratio_r0" in x][0]
        ratio_ok &= "sign_changes=1" in summary
        r0[m] = float(summary.split("crossing_ratio_r0=")[1])
    ratio_ok &= r0[2] > r0[4] > r0[8] > 0.0

    # (c) Order sweeps: amplitude keying non-decreasing / equal-power phase
    # keying non-increasing with order; fixed-ring optimal and anti-optimal
    # curves converge toward the infinite-order rate.
    out = tmp_path / "order_eqp.csv"
    code = cli_main(["order-sweep",
                     "--override", "modulation.scheme=mpsk",
                     "--override", "modulation.amplitude=equal-power",
                     "--override", 'sweep={"variable":"order","lo":2,"hi":256,"steps":1}',
                     "--out", str(out)])
    assert code == 0
    meta, header, rows = _read_csv(out)
    ask = [float(r[1]) for r in rows]
    psk = [float(r[2]) for r in rows]
    order_ok = all(b >= a - 1e-12 for a, b in zip(ask, ask[1:]))
    order_ok &= all(b <= a + 1e-12 for a, b in zip(psk, psk[1:]))

    out = tmp_path / "order_fixed.csv"
    code = cli_main(["order-sweep",
                     "--override", "modulation.scheme=mpsk",
                     "--override", "modulation.amplitude=0.9",
                     "--override", 'sweep={"variable":"order","lo":2,"hi":256,"steps":1}',
                     "--out", str(out)])
    assert code == 0
    meta, header, rows = _read_csv(out)
    opt = [float(r[2]) for r in rows]
    sub = [float(r[3]) for r in rows]
    inf_line = [x for x in meta if "psk_infinite_rate_bits" in x][0]
    psk_inf = float(inf_line.split("psk_infinite_rate_bits=")[1])
    gap_first, gap_last = abs(opt[0] - sub[0]), abs(opt[-1] - sub[-1])
    conv_ok = gap_last <= 0.10 * gap_first
    conv_ok &= abs(opt[-1] - psk_inf) <= 1e-6 and abs(sub[-1] - psk_inf) <= 1e-6

    elapsed = time.perf_counter() - start
    ok = sweep_ok and ratio_ok and order_ok and conv_ok and elapsed < 300.0
    report(11, ok, f"figure-level behavior: sweeps [{'; '.join(sweep_notes)}]; "
                   f"crossings r0 = {r0[2]:.3f} > {r0[4]:.3f} > {r0[8]:.3f}; "
                   f"order monotonicity {'ok' if order_ok else 'BAD'}; "
                   f"convergence gap {gap_last:.2e} <= 10% of {gap_first:.2e}; "
                   f"{elapsed:.0f}s (<300s)")
