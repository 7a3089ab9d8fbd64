import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sbcrate
from sbcrate.channel import path_loss
from sbcrate.constellation import equal_power_psk_amplitude
from sbcrate.cli import _COMMANDS, build_parser, main
from sbcrate.scenario import DEFAULT_SCENARIO, apply_overrides, load_scenario

from .conftest import psk_infinite_50_digits


def run_cli(tmp_path, *argv: str, name: str = "out.csv") -> tuple[int, str]:
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def parse_csv(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Split emitted text into metadata comments, header columns, and rows."""
    meta, rows, header = [], [], None
    for line in text.strip().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, rows, header


def write_scenario_file(tmp_path, overrides: list[str], name: str = "scn.json") -> Path:
    raw = apply_overrides(DEFAULT_SCENARIO, overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestRateCommand:
    def test_default_scenario_gains(self, tmp_path):
        code, text = run_cli(tmp_path, "rate")
        assert code == 0
        meta, rows, header = parse_csv(text)
        assert header == ["pt_rate_bits", "no_bd_rate_bits", "gain_bits", "bd_rate_bits"]
        assert len(rows) == 1
        pt, no_bd, gain, bd = map(float, rows[0])
        assert gain == pytest.approx(pt - no_bd, abs=1e-12)
        assert gain > 0  # optimal phase on the default operating point
        assert 0.0 <= bd <= 1.0

    def test_zero_ring_amplitude_equals_baseline(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.0",
        ])
        code, text = run_cli(tmp_path, "rate", "--scenario", str(scn))
        assert code == 0
        _, rows, _ = parse_csv(text)
        pt, no_bd, gain, bd = map(float, rows[0])
        assert pt == pytest.approx(no_bd, rel=1e-14)
        assert bd == 0.0

    def test_dead_backscatter_with_optimal_phase_exits_2(self, tmp_path):
        # The closed-form phase needs a live backscatter path to align to.
        scn = write_scenario_file(tmp_path, ["fading.l2=[0.0,0.0]"])
        code, _ = run_cli(tmp_path, "rate", "--scenario", str(scn))
        assert code == 2

    def test_fixed_phase_rate_runs_without_backscatter_alignment(self, tmp_path):
        scn = write_scenario_file(tmp_path, ["modulation.base_phase=0.5"])
        code, text = run_cli(tmp_path, "rate", "--scenario", str(scn))
        assert code == 0

    @pytest.mark.parametrize("command, column", [("rate", 3), ("mi", 0)])
    def test_dead_backscatter_at_a_fixed_phase_runs(self, tmp_path, command, column):
        # No optimum is needed, and a dead backscatter path carries no device rate.
        code, text = run_cli(tmp_path, command, "--override", "fading.l2=[0,0]",
                             "--override", "modulation.base_phase=0.5")
        assert code == 0
        assert float(parse_csv(text)[1][0][column]) == 0.0

    @pytest.mark.parametrize("primed", [False, True], ids=["l2", "l2_prime"])
    @pytest.mark.parametrize("command, extra", [
        ("rate", []),
        ("mi", []),
        ("optimize", ["modulation.base_phase=0.5"]),
        ("phase-sweep", ["modulation.base_phase=0.5"]),
        # The anti-optimal column needs the optimum at every order.
        ("order-sweep", ["modulation.base_phase=0.5",
                         'sweep={"variable":"order","lo":2,"hi":4,"steps":1}']),
    ], ids=["rate", "mi", "optimize", "phase-sweep", "order-sweep"])
    def test_dead_link_is_named_where_the_optimum_is_needed(self, capsys, command, extra,
                                                            primed):
        key = "l2_prime" if primed else "l2"
        overrides = [f"fading.{key}=[0.0,0.0]", f"fading.use_prime={json.dumps(primed)}",
                     *extra]
        code = main([command, *(a for o in overrides for a in ("--override", o))])
        assert code == 2
        assert capsys.readouterr().err == (f"scenario error: fading.{key} gives h2 = 0, which "
                                           f"leaves the optimal phase undefined\n")

    @pytest.mark.parametrize("command", ["rate", "phase-sweep", "ratio-sweep", "order-sweep",
                                         "optimize", "mi"])
    def test_infinite_snr_exits_2_before_any_command_runs(self, capsys, command):
        code = main([command, "--override", "system.power_w=1e300"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("scenario error: invalid system: ")

    @pytest.mark.parametrize("primed", [False, True], ids=["l3", "l3_prime"])
    def test_overflowing_channel_names_pathloss_and_its_fading_sample(self, capsys, primed):
        # Each factor is finite; their product sqrt(mu_3) * l3 is not.
        key = "l3_prime" if primed else "l3"
        overrides = [f"fading.{key}=[1e308,0]", f"fading.use_prime={json.dumps(primed)}",
                     "pathloss.gain_bd_db=100"]
        code = main(["rate", *(a for o in overrides for a in ("--override", o))])
        assert code == 2
        assert capsys.readouterr().err == (
            f"scenario error: invalid pathloss and fading.{key}: sqrt(mu) * fading sample "
            f"must have finite real and imaginary parts, got (inf+0j)\n")

    RING_8 = ["--override", "modulation.scheme=mpsk", "--override", "modulation.order=8"]

    @pytest.mark.parametrize("argv", [["rate"], ["mi"], ["mi", "--samples", "100000"]],
                             ids=["rate", "mi", "mi-mc"])
    def test_coupling_beyond_the_kernel_range_exits_2_naming_system(self, capsys, argv):
        # g |Gamma| = 7.7e155: the kernel's exponents would overflow to nan.
        code = main([*argv, *self.RING_8, "--override", "system.power_w=1e152"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("scenario error: invalid system: gain g = 1.28")

    @pytest.mark.parametrize("argv", [["rate"], ["mi"], ["mi", "--samples", "100000"]],
                             ids=["rate", "mi", "mi-mc"])
    def test_noise_term_beyond_the_kernel_range_exits_2_naming_system(self, capsys, argv):
        # g |Gamma| = 4.8e153 on a ring of amplitude 1e-154, but g = 4.8e307:
        # with the noise sqrt(g) z the kernel's sums overflow to nan.
        code = main([*argv, *self.RING_8, "--override", "modulation.amplitude=1e-154",
                     "--override", "system.noise_dbm=-2970", "--override", "system.power_w=1",
                     "--override", "fading.l2=[100000.0,0.0]",
                     "--override", "fading.l3=[1000.0,0.0]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("scenario error: invalid system: gain g = 4.8")

    # spread * power_w * |h2|^2 overflows; g is L P / sigma^2 (|h2||h3|)^2 all the same.
    HUGE_H2 = ["--override", "modulation.base_phase=0.1", "--override", "system.noise_dbm=30",
               "--override", "system.spread=1", "--override", "system.power_w=1e300",
               "--override", "fading.l2=[1e100,0.0]"]

    def test_an_overflowed_coupling_exits_2_naming_system(self, capsys):
        code = main(["mi", *self.HUGE_H2, "--override", "fading.l3=[1,0]"])
        assert code == 2
        assert capsys.readouterr().err.startswith("scenario error: invalid system: gain g = inf")

    def test_an_overflowed_partial_product_times_a_dead_link_gives_rate_0(self, tmp_path):
        # h3 = 0: the device is never heard, whatever |h2|.
        code, text = run_cli(tmp_path, "mi", *self.HUGE_H2, "--override", "fading.l3=[0,0]")
        assert code == 0
        _, rows, header = parse_csv(text)
        assert float(rows[0][header.index("value_bits")]) == 0.0

    @pytest.mark.parametrize("argv, column", [
        (["rate"], "bd_rate_bits"), (["mi"], "value_bits"),
        (["mi", "--samples", "100000"], "value_bits")], ids=["rate", "mi", "mi-mc"])
    def test_largest_coupling_in_range_gives_the_full_rate(self, tmp_path, argv, column):
        # g |Gamma| = 3.84e153, just inside the kernel's range.
        code, text = run_cli(tmp_path, *argv, *self.RING_8, "--override", "system.power_w=5e149")
        assert code == 0
        _, rows, header = parse_csv(text)
        assert float(rows[0][header.index(column)]) == 3.0

    @pytest.mark.parametrize("override, message", [
        pytest.param(o, m, id=o.partition("=")[0]) for o, m in [
            ("system.turbo=9", "unknown key 'system.turbo'"),
            # A JSON null where a number belongs; the message is not wrapped twice.
            ("pathloss.d1_m=null", "pathloss.d1_m must be a number, got None"),
            ("system.power_w=null", "system.power_w must be a number, got None"),
            ("sweep.lo=null", "sweep.lo must be a number, got None"),
            # Booleans are not numbers, and every number must be finite.
            ("modulation.min_bd_rate_bits=NaN",
             "modulation.min_bd_rate_bits must be finite, got nan"),
            ("modulation.base_phase=true", "modulation.base_phase must be a number, got True"),
            ('modulation={"scheme":"mpsk","order":4,"amplitude":true}',
             "modulation.amplitude must be a number, got True"),
            ("fading.l1=[true,0]", "fading.l1[0] must be a number, got True"),
            ("sweep.hi=Infinity", "sweep.hi must be finite, got inf"),
            ("sweep.steps=true", "sweep.steps must be an integer >= 1, got True"),
            (f"pathloss.d2_m={10**400}", f"pathloss.d2_m must be finite, got {10**400}"),
            ("pathloss.gain_pt_db=5000", "pathloss.gain_pt_db = 5000 overflows in linear units"),
            ("modulation.scheme=qam", "modulation.scheme must be 'mask' or 'mpsk', got 'qam'"),
            ("modulation.order=1", "modulation.order must be an integer >= 2, got 1"),
            ("seed=1.5", "seed must be a non-negative integer, got 1.5"),
        ]] + [
        # A section that is not an object is named, not iterated or indexed.
        pytest.param(o, m, id=o) for o, m in [
            ("pathloss=3", "scenario.pathloss must be an object, got 3"),
            ("fading=null", "scenario.fading must be an object, got None"),
            ("system=[1,2]", "scenario.system must be an object, got [1, 2]"),
            ('modulation="mask"', "scenario.modulation must be an object, got 'mask'"),
            ("sweep=5", "scenario.sweep must be an object, got 5"),
            # Link gains beyond the float range: d**exponent divides by zero,
            # overflows, or the gain product is infinite.
            ("pathloss.d3_m=1e-100",
             "invalid pathloss: the power gain of link 3 is beyond the float range"),
            ("pathloss.d1_m=1e300",
             "invalid pathloss: the power gain of link 1 is beyond the float range"),
            ("pathloss.exponent=300",
             "invalid pathloss: the power gain of link 1 is beyond the float range"),
            ("pathloss.gain_pt_db=3080",
             "invalid pathloss: the power gain of link 1 is beyond the float range"),
            # P / sigma^2 = inf: no rate of the scenario is finite.
            ("system.power_w=1e300", "invalid system: spread * power_w / noise_w must be "
                                     "finite, got 128 * 1e+300 / 1e-13"),
            # A dead link leaves the optimal phase undefined; its sample is named.
            ("fading.l1=[0,0]", "fading.l1 gives h1 = 0, which leaves the optimal phase "
                                "undefined"),
            # |h2|^2 beyond the float range, so the coupling g is too.
            ("fading.l2=[1e200,0]", "invalid system: gain g = inf at |Gamma| <= 1.0 overflows "
                                    "the log-ratio kernel"),
            ("sweep.steps=0", "sweep.steps must be an integer >= 1, got 0"),
            # Orders are bounded before anything of their size is allocated.
            ("modulation.order=1025", "modulation.order = 1025 exceeds the largest order, 1024"),
            ('sweep={"variable":"order","lo":2,"hi":1e300,"steps":1}',
             "sweep.hi = 1e+300 exceeds the largest order, 1024"),
        ]] + [
        pytest.param(f"system.spread={10**400}",
                     f"invalid system: spread * power_w / noise_w must be finite, got "
                     f"{10**400} * 0.05 / 1e-13", id="system.spread=10**400"),
        ])
    def test_malformed_scenario_names_key_and_exits_2(self, tmp_path, capsys, override,
                                                      message):
        scn = write_scenario_file(tmp_path, [override])
        code = main(["rate", "--scenario", str(scn)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"scenario error: {message}\n"

    def test_non_object_file_with_overrides_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "list.json"
        scn.write_text("[1]")
        code = main(["rate", "--scenario", str(scn), "--override", "seed=1"])
        assert code == 2
        assert capsys.readouterr().err == "scenario error: scenario must be a JSON object\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["rate", "--scenario", str(tmp_path / "absent.json")])
        assert code == 2


class TestPhaseSweep:
    def test_sweep_rows_and_optimum_comment(self, tmp_path):
        code, text = run_cli(tmp_path, "phase-sweep", "--override", "sweep.steps=64")
        assert code == 0
        meta, rows, header = parse_csv(text)
        assert header == ["phase_rad", "pt_rate_bits", "no_bd_rate_bits"]
        assert len(rows) == 64
        assert any("closed_form_optimum_phase_rad" in m for m in meta)
        rates = [float(r[1]) for r in rows]
        no_bd = float(rows[0][2])
        assert min(rates) < no_bd < max(rates)  # dips below the baseline

    def test_degenerate_single_step_matches_rate_command(self, tmp_path):
        # One grid point at the scenario's fixed base phase reproduces `rate`.
        scn = write_scenario_file(tmp_path, [
            "modulation.base_phase=1.25",
            'sweep={"variable":"base_phase","lo":1.25,"hi":1.2500001,"steps":1}',
        ])
        code, sweep_text = run_cli(tmp_path, "phase-sweep", "--scenario", str(scn))
        assert code == 0
        _, sweep_rows, _ = parse_csv(sweep_text)
        code, rate_text = run_cli(tmp_path, "rate", "--scenario", str(scn), name="r.csv")
        assert code == 0
        _, rate_rows, _ = parse_csv(rate_text)
        assert len(sweep_rows) == 1
        assert float(sweep_rows[0][1]) == pytest.approx(float(rate_rows[0][0]), rel=1e-14)

    def test_mpsk_sweep_stays_inside_fundamental_domain(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.9",
        ])
        code, text = run_cli(tmp_path, "phase-sweep", "--scenario", str(scn),
                             "--override", "sweep.steps=32")
        assert code == 0
        _, rows, _ = parse_csv(text)
        phases = [float(r[0]) for r in rows]
        assert max(phases) < 2 * math.pi / 4

    def test_wrong_sweep_variable_exits_2(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"order","lo":2,"hi":16,"steps":1}',
        ])
        code, _ = run_cli(tmp_path, "phase-sweep", "--scenario", str(scn))
        assert code == 2


class TestRatioSweep:
    def test_crossing_found_and_columns(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"channel_ratio","lo":0.05,"hi":1.5,"steps":60}',
        ])
        code, text = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
        assert code == 0
        meta, rows, header = parse_csv(text)
        assert header == ["ratio", "rate_ask_opt_bits", "rate_psk_opt_bits"]
        assert len(rows) == 60
        summary = [m for m in meta if "crossing_ratio_r0" in m]
        assert len(summary) == 1 and "sign_changes=1" in summary[0]
        r0 = float(summary[0].split("crossing_ratio_r0=")[1])
        assert 0.05 < r0 < 1.5
        # PSK wins below the crossing, ASK above.
        below = [r for r in rows if float(r[0]) < r0 * 0.95]
        above = [r for r in rows if float(r[0]) > r0 * 1.05]
        assert all(float(r[2]) > float(r[1]) for r in below)
        assert all(float(r[1]) > float(r[2]) for r in above)

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_crossing_ratio_matches_a_50_digit_root(self, tmp_path, M):
        # An oracle that shares neither the grid, the bisection nor the rate
        # kernel: mpmath's root of the ASK - PSK optimal-rate difference at 50
        # digits, from the same double rho, |h2||h3| and ring amplitude.  The
        # figure sweep's r0 lands within a relative 1.2e-15 of it.
        overrides = [f"modulation.order={M}",
                     'sweep={"variable":"channel_ratio","lo":0.02,"hi":3.0,"steps":400}']
        code, text = run_cli(tmp_path, "ratio-sweep",
                             *(arg for o in overrides for arg in ("--override", o)))
        assert code == 0
        r0 = float(text.split("crossing_ratio_r0=")[1])
        scn = load_scenario(None, overrides)
        with mpmath.workdps(50):
            snr = mpmath.mpf(scn.system.snr_scale) * mpmath.mpf(scn.channel().a23) ** 2
            alpha = mpmath.mpf(equal_power_psk_amplitude(M))

            def ask_minus_psk(r):
                # |h1| = r |h2||h3|: the grid aligned with h1, the ring at the
                # even-order optimum pi/M from it.
                ask = mpmath.fsum(mpmath.log(1 + snr * (r + mpmath.mpf(m) / (M - 1)) ** 2)
                                  for m in range(M))
                psk = mpmath.fsum(mpmath.log(1 + snr * (r * r + alpha * alpha + 2 * r * alpha
                                                        * mpmath.cos(mpmath.pi * (2 * m + 1) / M)))
                                  for m in range(M))
                return ask - psk

            root = mpmath.findroot(ask_minus_psk, (mpmath.mpf("0.02"), mpmath.mpf(3)),
                                   solver="anderson")
            assert abs(r0 - root) <= 1e-13 * root, (r0, root)

    def test_bisection_reaches_float_resolution_in_a_wide_cell(self, tmp_path):
        # Above about 2e14 both optimal rates round alike: a cell reaching
        # 1e30 ends on that plateau, whose exact zeros are not crossings.
        r0 = []
        for hi, steps in ((1.5, 60), (1e12, 2), (1e30, 60), (1e30, 2)):
            scn = write_scenario_file(tmp_path, [
                f'sweep={{"variable":"channel_ratio","lo":0.05,"hi":{hi},"steps":{steps}}}',
            ])
            code, text = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
            assert code == 0 and "sign_changes=1" in text
            r0.append(float(text.split("crossing_ratio_r0=")[1]))
        assert r0[1:] == pytest.approx([r0[0]] * 3, abs=1e-15)

    def test_rounding_noise_on_the_plateau_is_no_crossing(self, tmp_path):
        # Up to 1e15 the grid meets rate differences of a few ulp of ~90 bits
        # next to exact zeros; only the crossing near 0.371 is real.
        r0 = []
        for hi, steps in ((1.5, 60), (1e15, 2), (1e15, 7), (1e15, 100), (1e15, 400)):
            scn = write_scenario_file(tmp_path, [
                f'sweep={{"variable":"channel_ratio","lo":0.05,"hi":{hi},"steps":{steps}}}',
            ])
            code, text = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
            assert code == 0 and "sign_changes=1 " in text, (hi, steps)
            r0.append(float(text.split("crossing_ratio_r0=")[1]))
        assert r0[1:] == pytest.approx([r0[0]] * 4, abs=1e-15)

    def test_overflowing_rates_exit_2_and_name_the_ratio(self, tmp_path, capsys):
        # inf - inf is NaN, which must not count as a sign change.
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"channel_ratio","lo":0.02,"hi":1e308,"steps":5}',
        ])
        code, text = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == ("scenario error: ratio-sweep rates overflow at "
                                           "ratio 2.5e+307; lower sweep.hi\n")

    @pytest.mark.parametrize("roots", [(0.43, 1.17), (0.43, 1.17, 2.31)])
    def test_several_crossings_give_their_count_and_no_ratio(self, tmp_path, monkeypatch,
                                                             roots):
        # A stand-in kernel whose ASK - PSK difference is prod(ratio - root):
        # ASK points have a nonzero mean, the PSK ring a zero one.
        def rate_bits(rho, h1, h23, gammas):
            ratio = np.real(h1 / h23).mean(axis=-1)
            is_ask = np.abs(np.mean(gammas, axis=-1)) > 1e-9
            diff = np.prod([ratio - r for r in roots], axis=0)
            return 5.0 + np.where(is_ask, diff, 0.0)

        monkeypatch.setattr("sbcrate.cli._rate_bits", rate_bits)
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"channel_ratio","lo":0.05,"hi":3.0,"steps":60}',
        ])
        code, text = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
        assert code == 0
        meta, rows, _ = parse_csv(text)
        assert len(rows) == 60
        assert meta[-1] == f"# sign_changes={len(roots)} crossing_ratio_r0=nan"

    def test_range_validation(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"channel_ratio","lo":-1.0,"hi":1.0,"steps":10}',
        ])
        code, _ = run_cli(tmp_path, "ratio-sweep", "--scenario", str(scn))
        assert code == 2


class TestOrderSweep:
    def test_powers_of_two_and_infinite_limit_comment(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "modulation.amplitude=0.9",
            'sweep={"variable":"order","lo":2,"hi":32,"steps":1}',
        ])
        code, text = run_cli(tmp_path, "order-sweep", "--scenario", str(scn))
        assert code == 0
        meta, rows, header = parse_csv(text)
        assert header == ["order", "rate_ask_opt_bits", "rate_psk_opt_bits",
                          "rate_psk_subopt_bits"]
        assert [int(r[0]) for r in rows] == [2, 4, 8, 16, 32]
        assert any("psk_infinite_rate_bits" in m for m in meta)
        # Optimal-phase column dominates the anti-optimal one.
        assert all(float(r[2]) >= float(r[3]) - 1e-12 for r in rows)

    def test_single_point_grid_matches_rate_values(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            'sweep={"variable":"order","lo":2,"hi":2,"steps":1}',
        ])
        code, text = run_cli(tmp_path, "order-sweep", "--scenario", str(scn))
        assert code == 0
        _, rows, _ = parse_csv(text)
        assert len(rows) == 1 and int(rows[0][0]) == 2
        # The amplitude-keyed column at the optimum equals the rate command's
        # pt_rate on the same (optimal-phase) scenario.
        code, rate_text = run_cli(tmp_path, "rate", "--scenario", str(scn), name="r.csv")
        _, rate_rows, _ = parse_csv(rate_text)
        assert float(rows[0][1]) == pytest.approx(float(rate_rows[0][0]), rel=1e-13)

    def test_near_cancelling_paths_give_the_infinite_rate(self, tmp_path):
        # |h1| = 0.9 |h2 h3| under a -260 dBm noise floor: d1 and d2 of the
        # continuous-phase average (about 8e16) round to the same float.
        ch = load_scenario(None).channel()
        l1 = [x * 0.9 * ch.a23 / ch.a1 for x in DEFAULT_SCENARIO["fading"]["l1"]]
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "modulation.amplitude=0.9",
            f"fading.l1={json.dumps(l1)}", "system.noise_dbm=-260",
            'sweep={"variable":"order","lo":2,"hi":4,"steps":1}',
        ])
        code, text = run_cli(tmp_path, "order-sweep", "--scenario", str(scn))
        assert code == 0
        meta, rows, _ = parse_csv(text)
        near = load_scenario(scn)
        # d1 - d2 = 1, so the rate is log2((d1 + sqrt(d1 + d2)) / 2) with d1 ~ d2.
        d1 = 1.0 + 2.0 * near.system.snr_scale * near.channel().a1 ** 2
        inf = float(meta[-1].split("psk_infinite_rate_bits=")[1])
        assert inf == pytest.approx(math.log2(0.5 * (d1 + math.sqrt(2.0 * d1))), rel=1e-12)
        # Each finite-order optimum beats the phase average, which is the limit.
        assert all(float(r[2]) >= inf for r in rows)

    @pytest.mark.parametrize("l1", [None, "[3.5e7,0]"], ids=["d1_3.6e292", "d1_1.2e308"])
    def test_infinite_rate_is_finite_beside_finite_rates(self, tmp_path, l1):
        # d1 of the continuous-phase average is past the root of the float
        # range (rates of about 972 bits), or past half of it (1023 bits).
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "system.power_w=1e290", "fading.l3=[1e-160,0]",
            'sweep={"variable":"order","lo":2,"hi":8,"steps":1}',
        ] + ([f"fading.l1={l1}"] if l1 else []))
        code, text = run_cli(tmp_path, "order-sweep", "--scenario", str(scn))
        assert code == 0
        meta, rows, _ = parse_csv(text)
        inf = float(meta[-1].split("psk_infinite_rate_bits=")[1])
        sc = load_scenario(scn)
        # sqrt(1/3): the equal-power ring's amplitude as the order grows.
        exact = psk_infinite_50_digits(sc.system, sc.channel(), math.sqrt(1.0 / 3.0))
        assert abs(inf - exact) <= 2 * math.ulp(exact)
        assert all(abs(float(r[2]) - inf) <= 1e-9 for r in rows)


def optimize_report(tmp_path, overrides: list[str]) -> dict[str, str]:
    scn = write_scenario_file(tmp_path, overrides, name="opt.json")
    code, text = run_cli(tmp_path, "optimize", "--scenario", str(scn), name="opt.txt")
    assert code == 0
    return dict(item.split("=") for item in text.split())


def rate_row(tmp_path, overrides: list[str]) -> list[float]:
    scn = write_scenario_file(tmp_path, overrides, name="rate.json")
    code, text = run_cli(tmp_path, "rate", "--scenario", str(scn), name="rate.csv")
    assert code == 0
    return [float(x) for x in parse_csv(text)[1][0]]


class TestOptimize:
    def test_one_line_report(self, tmp_path):
        code, text = run_cli(tmp_path, "optimize", name="report.txt")
        assert code == 0
        line = text.strip()
        assert line.count("\n") == 0
        assert "optimal_phase_rad=" in line and "feasible=" in line
        phase = float(line.split("optimal_phase_rad=")[1].split()[0])
        # theta0 of the default fading triple, negated mod 2pi.
        assert phase == pytest.approx(2.6652960234415106, abs=1e-9)

    def test_quaternary_ring_quarter_offset(self, tmp_path):
        scn = write_scenario_file(tmp_path, [
            "modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.9",
        ])
        code, text = run_cli(tmp_path, "optimize", "--scenario", str(scn), name="o.txt")
        assert code == 0
        phase = float(text.split("optimal_phase_rad=")[1].split()[0])
        theta0 = 3.6178892837380756
        want = (math.pi / 4 - theta0) % (math.pi / 2)
        assert phase == pytest.approx(want, abs=1e-9)

    def test_zero_floor_is_feasible(self, tmp_path):
        assert optimize_report(tmp_path, [])["feasible"] == "true"

    def test_floor_above_entropy_is_infeasible_at_the_same_optimum(self, tmp_path):
        free = optimize_report(tmp_path, [])
        capped = optimize_report(tmp_path, ["modulation.min_bd_rate_bits=1.5"])
        assert capped["feasible"] == "false"
        # The floor never moves the phase choice.
        assert capped["optimal_phase_rad"] == free["optimal_phase_rad"]
        assert capped["achieved_pt_rate_bits"] == free["achieved_pt_rate_bits"]

    def test_a_given_base_phase_does_not_change_the_report(self, tmp_path):
        assert optimize_report(tmp_path, ["modulation.base_phase=0.5"]) == \
            optimize_report(tmp_path, [])

    def test_floor_straddles_the_device_rate(self, tmp_path):
        weak = ["system.power_w=5e-4", "system.spread=8"]
        scn = write_scenario_file(tmp_path, weak, name="weak.json")
        code, text = run_cli(tmp_path, "mi", "--scenario", str(scn), name="mi.csv")
        assert code == 0
        mi = float(parse_csv(text)[1][0][0])
        assert 0.0 < mi < 1.0
        below = optimize_report(tmp_path, [*weak, f"modulation.min_bd_rate_bits={mi * 0.9!r}"])
        above = optimize_report(tmp_path, [*weak, f"modulation.min_bd_rate_bits={mi * 1.1!r}"])
        assert below["feasible"] == "true"
        assert above["feasible"] == "false"

    @pytest.mark.parametrize("overrides", [
        ["modulation.order=4"],
        ["modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.9"],
    ], ids=["mask", "mpsk"])
    def test_achieved_rate_is_the_rate_at_the_optimum(self, tmp_path, overrides):
        report = optimize_report(tmp_path, overrides)
        pt = rate_row(tmp_path, overrides)[0]
        assert float(report["achieved_pt_rate_bits"]) == pt

    def test_silent_ring_achieves_the_baseline(self, tmp_path):
        silent = ["modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.0"]
        report = optimize_report(tmp_path, silent)
        assert report["feasible"] == "true"
        assert float(report["achieved_pt_rate_bits"]) == pytest.approx(
            rate_row(tmp_path, silent)[1], rel=1e-14)


class TestMi:
    def test_quadrature_row(self, tmp_path):
        code, text = run_cli(tmp_path, "mi")
        assert code == 0
        _, rows, header = parse_csv(text)
        assert header == ["value_bits", "std_error_bits", "method"]
        assert rows[0][2] == "quadrature"
        assert float(rows[0][1]) == 0.0

    def test_monte_carlo_row_respects_seed_flag(self, tmp_path):
        # Monte Carlo draws from the scenario's seed, which the scenario hash records.
        scn = write_scenario_file(tmp_path, ["system.spread=1", "system.power_w=0.0005"])
        a, b, c = (run_cli(tmp_path, "mi", "--scenario", str(scn), "--samples", "20000",
                           "--override", f"seed={seed}", name=f"{i}.csv")
                   for i, seed in enumerate((7, 7, 8)))
        assert a[0] == b[0] == c[0] == 0
        assert a[1] == b[1]
        (a_meta, a_rows, _), (c_meta, c_rows, _) = parse_csv(a[1]), parse_csv(c[1])
        assert a_meta[0] != c_meta[0] and a_rows != c_rows

    def test_monte_carlo_output_records_its_seed_and_samples(self, tmp_path):
        args = ["mi", "--samples", "20000", "--override", "system.power_w=1e-9"]
        _, given = run_cli(tmp_path, *args, "--override", "seed=1", name="g.csv")
        _, default = run_cli(tmp_path, *args, name="d.csv")
        _, quadrature = run_cli(tmp_path, "mi", "--override", "system.power_w=1e-9", name="q.csv")
        assert parse_csv(given)[0][2] == "# seed=1 samples=20000"
        assert parse_csv(default)[0][2] == f"# seed={DEFAULT_SCENARIO['seed']} samples=20000"
        assert parse_csv(default)[0][1] == parse_csv(given)[0][1] == "# command=mi"
        assert parse_csv(default)[0][0] != parse_csv(given)[0][0]
        # Quadrature draws nothing and records no seed.
        assert parse_csv(quadrature)[0] == parse_csv(default)[0][:2]


class TestExitCodes:
    def test_precision_failure_exits_3(self, monkeypatch, capsys):
        from sbcrate.bd_rate import MiEstimate, PrecisionError

        def explode(*args, **kwargs):
            raise PrecisionError("forced", MiEstimate(0.5, 0.0, "quadrature"))

        monkeypatch.setattr("sbcrate.cli.mi_quadrature", explode)
        code = main(["mi"])
        assert code == 3
        assert "precision" in capsys.readouterr().err

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_engine_value_error_is_not_a_scenario_error(self, monkeypatch, capsys):
        def fault(*args, **kwargs):
            raise ValueError("engine fault")

        monkeypatch.setattr("sbcrate.cli.mi_quadrature", fault)
        with pytest.raises(ValueError, match="engine fault"):
            main(["mi"])
        assert "scenario error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        *((c, "--seed") for c in ("rate", "phase-sweep", "ratio-sweep", "order-sweep",
                                  "optimize")),
        *((c, "--grid") for c in ("rate", "phase-sweep", "ratio-sweep", "order-sweep",
                                  "optimize", "mi")),
        ("mi", "--seed"), ("mi", "--method"),
    ])
    def test_flag_a_subcommand_does_not_read_is_an_argparse_error(self, tmp_path, capsys,
                                                                  command, flag):
        with pytest.raises(SystemExit) as info:
            run_cli(tmp_path, command, flag, "3")
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag, value, floor", [
        ("--samples", "0", 10_000), ("--samples", "9999", 10_000),
    ])
    def test_sampling_flag_below_its_floor_names_the_flag(self, tmp_path, capsys, flag, value,
                                                          floor):
        with pytest.raises(SystemExit) as info:
            run_cli(tmp_path, "mi", flag, value)
        assert info.value.code == 2
        assert (f"argument {flag}: must be an integer >= {floor}, got {value!r}"
                in capsys.readouterr().err)

    # sweep.steps sets the step count; a --grid value, below one or not, is refused by name.
    @pytest.mark.parametrize("command", ["phase-sweep", "ratio-sweep"])
    @pytest.mark.parametrize("grid", ["0", "-3", "2.5"])
    def test_grid_below_one_is_an_argparse_error_naming_the_flag(self, tmp_path, capsys,
                                                                 command, grid):
        with pytest.raises(SystemExit) as info:
            run_cli(tmp_path, command, "--grid", grid)
        assert info.value.code == 2
        assert f"unrecognized arguments: --grid {grid}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestParser:
    def test_each_subcommand_takes_the_common_flags_and_mi_its_sample_count(self):
        # The (subcommand, flag) pairs, help aside: 6 subcommands x 3 common flags + 1.
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        pairs = {(name, flag) for name, parser in subparsers.choices.items()
                 for action in parser._actions if not isinstance(action, argparse._HelpAction)
                 for flag in action.option_strings}
        common = {(name, flag) for name in _COMMANDS
                  for flag in ("--scenario", "--out", "--override")}
        assert pairs == common | {("mi", "--samples")}
        assert len(pairs) == 19


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        args = ["phase-sweep", "--override", "sweep.steps=50",
                "--override", "modulation.order=4"]
        _, first = run_cli(tmp_path, *args, name="first.csv")
        _, second = run_cli(tmp_path, *args, name="second.csv")
        assert first == second

    def test_repeated_calls_in_one_process_match_fresh_processes(self, capsys):
        # main builds its parser once; nothing an earlier call parsed, failed
        # on or overrode may reach a later one.
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert main(["rate", "--override", "system.turbo=9"]) == 2
        capsys.readouterr()
        overridden = ["phase-sweep", "--override", "sweep.steps=50",
                      "--override", "modulation.order=4"]
        plain = ["phase-sweep", "--override", "sweep.steps=50"]
        texts = []
        for argv in (overridden, plain):
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        env = {**os.environ, "PYTHONPATH": str(Path(sbcrate.__file__).parents[1])}
        fresh = [subprocess.run([sys.executable, "-m", "sbcrate.cli", *argv], env=env,
                                capture_output=True, text=True, check=True).stdout
                 for argv in (overridden, plain)]
        assert texts == fresh
        assert "# scheme=mask order=4" in texts[0]
        assert "# scheme=mask order=2" in texts[1]

    @pytest.mark.parametrize("argv", [
        ["rate"], ["phase-sweep", "--override", "sweep.steps=8"], ["optimize"], ["mi"],
        ["ratio-sweep", "--override",
         'sweep={"variable":"channel_ratio","lo":0.1,"hi":1.0,"steps":4}'],
        ["order-sweep", "--override", 'sweep={"variable":"order","lo":2,"hi":8,"steps":1}'],
    ], ids=lambda argv: argv[0])
    def test_link_gains_are_computed_once_per_command(self, monkeypatch, capsys, argv):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return path_loss(*args, **kwargs)

        monkeypatch.setattr("sbcrate.scenario.path_loss", counted)
        assert main(argv) == 0
        assert len(calls) == 3  # once per link

    def test_metadata_carries_scenario_hash(self, tmp_path):
        _, text = run_cli(tmp_path, "rate")
        meta, _, _ = parse_csv(text)
        assert any(m.startswith("# scenario=") for m in meta)
