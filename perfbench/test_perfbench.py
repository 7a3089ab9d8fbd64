"""The benchmark's own tests, at smoke size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, installed_wrappers  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE = {"sampled_mi": {"mc_samples": 1 << 17, "sim_symbols": 10_000}}
SECONDS = 0.2


def smoke(name: str, trace: bool, reference: dict | None = None) -> dict:
    return run.run_workload(name, seed=7, seconds=SECONDS, trace=trace, setup_reps=1,
                            reference=reference, **SMOKE.get(name, {}))


@pytest.fixture(scope="module")
def records() -> dict[tuple[str, bool], dict]:
    return {(name, trace): smoke(name, trace)
            for name in workloads.WORKLOADS for trace in (False, True)}


def test_every_named_metric_is_emitted_with_its_unit(records):
    for (name, trace), record in records.items():
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: m["unit"] for k, m in record["metrics"].items()}
        assert got == want, (name, trace)
        assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
        assert record["correct"] and record["failed"] == 0, record["failures"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_traced_self_time_fits_in_wall_time(records):
    for (name, trace), record in records.items():
        if not trace:
            continue
        m = record["metrics"]
        total = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert 0.0 < total <= m["trace.wall_s"]["value"], name


def test_bypass_predictions(records):
    def traced(name, metric):
        return records[(name, True)]["metrics"][metric]["value"]

    assert traced("quadrature_grid", "pt_rate.calls") == 0
    assert traced("sampled_mi", "pt_rate.calls") == 0
    assert traced("figures", "bd_rate.mc_samples") == 0
    assert traced("quadrature_grid", "bd_rate.mc_samples") == 0
    assert traced("figures", "pt_rate.points") > 0
    assert traced("figures", "cli.bytes_written") > 0
    assert traced("quadrature_grid", "bd_rate.quad_calls") > 0
    assert traced("sampled_mi", "link_sim.pt_samples") > 0


def test_untraced_run_leaves_sbcrate_unwrapped(records):
    assert records  # both traced and untraced runs have finished
    assert installed_wrappers() == []


def test_tracer_wraps_the_names_callers_import_and_restores_them():
    import importlib
    cli = importlib.import_module("sbcrate.cli")
    original = cli.max_pt_rate_ask
    with Tracer():
        wrapped = installed_wrappers()
        assert "sbcrate.cli.max_pt_rate_ask" in wrapped
        assert "sbcrate.pt_rate.max_pt_rate_ask" in wrapped
        assert "sbcrate.cli.load_scenario" in wrapped
        assert cli.max_pt_rate_ask is not original
    assert cli.max_pt_rate_ask is original
    assert installed_wrappers() == []


@pytest.mark.parametrize("name", ["quadrature_grid", "sampled_mi"])
def test_corrupted_reference_fails_ops(name):
    reference = make_reference.load()
    for table in ("quadrature_cells", "mc_scenarios", "sim_scenarios"):
        for row in reference[table]:
            row["mi_bits"] += 0.05
    record = smoke(name, trace=False, reference=reference)
    assert record["failed_frac"] > 0
    assert not record["correct"]


def test_quadrature_gate_admits_twice_the_ladder_tolerance_and_no_more():
    from sbcrate.bd_rate import DEFAULT_MI_TOL, MiEstimate

    def check(value):
        return workloads.check_quadrature(MiEstimate(value, 0.0, "quadrature"), 0.5, 2)

    assert check(0.5 + 1.5 * DEFAULT_MI_TOL) is None
    assert check(0.5 - 2.5 * DEFAULT_MI_TOL) is not None
    assert check(1.0 + 1e-12) is not None


def test_corrupted_golden_output_fails_the_first_figure_set(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, golden)
    path = golden / "rate_ask_M2.csv"
    path.write_text(path.read_text().replace("4.816527012406212,", "4.816527012407212,"))
    work = tmp_path / "work"
    work.mkdir()
    op = next(workloads.Figures(1, work, golden).rounds())[0]
    assert op.check(op.call()) is not None
    op = next(workloads.Figures(1, work).rounds())[0]
    assert op.check(op.call()) is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(xs)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_regenerating_the_reference_reproduces_it():
    assert make_reference.differences(make_reference.load(), make_reference.build()) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
