import json
import math
from pathlib import Path

import pytest

from sbcrate.cli import main
from sbcrate.scenario import DEFAULT_SCENARIO, apply_overrides


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

    @pytest.mark.parametrize("override", [
        "system.turbo=9",
        # A JSON null where a number belongs.
        "pathloss.d1_m=null",
        "system.power_w=null",
        "sweep.lo=null",
    ], ids=lambda o: o.partition("=")[0])
    def test_malformed_scenario_names_key_and_exits_2(self, tmp_path, capsys, override):
        scn = write_scenario_file(tmp_path, [override])
        code = main(["rate", "--scenario", str(scn)])
        captured = capsys.readouterr()
        assert code == 2
        assert override.partition("=")[0] in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["rate", "--scenario", str(tmp_path / "absent.json")])
        assert code == 2


class TestPhaseSweep:
    def test_sweep_rows_and_optimum_comment(self, tmp_path):
        code, text = run_cli(tmp_path, "phase-sweep", "--grid", "64")
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
        code, text = run_cli(tmp_path, "phase-sweep", "--scenario", str(scn), "--grid", "32")
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


class TestMi:
    def test_quadrature_row(self, tmp_path):
        code, text = run_cli(tmp_path, "mi")
        assert code == 0
        _, rows, header = parse_csv(text)
        assert header == ["value_bits", "std_error_bits", "method"]
        assert rows[0][2] == "quadrature"
        assert float(rows[0][1]) == 0.0

    def test_monte_carlo_row_respects_seed_flag(self, tmp_path):
        scn = write_scenario_file(tmp_path, ["system.spread=1", "system.power_w=0.0005"])
        code_a, a = run_cli(tmp_path, "mi", "--scenario", str(scn), "--method",
                            "monte-carlo", "--samples", "20000", "--seed", "7", name="a.csv")
        code_b, b = run_cli(tmp_path, "mi", "--scenario", str(scn), "--method",
                            "monte-carlo", "--samples", "20000", "--seed", "7", name="b.csv")
        code_c, c = run_cli(tmp_path, "mi", "--scenario", str(scn), "--method",
                            "monte-carlo", "--samples", "20000", "--seed", "8", name="c.csv")
        assert code_a == code_b == code_c == 0
        assert a == b != c


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


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        args = ["phase-sweep", "--grid", "50",
                "--override", "modulation.order=4"]
        _, first = run_cli(tmp_path, *args, name="first.csv")
        _, second = run_cli(tmp_path, *args, name="second.csv")
        assert first == second

    def test_metadata_carries_scenario_hash(self, tmp_path):
        _, text = run_cli(tmp_path, "rate")
        meta, _, _ = parse_csv(text)
        assert any(m.startswith("# scenario=") for m in meta)
