"""Golden outputs: the figure set of scripts/reproduce_figures.py against out/.

Every file the script writes is regenerated through the CLI into a temporary
directory and compared with the committed copy.  Layout, keys, text fields
and scenario hashes must match exactly; numeric fields must match within
1e-12 (rates, phases, ratios) or 1e-9 (mutual-information fields).  A second
run must reproduce the first byte for byte.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from sbcrate.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "out"
SCRIPT = ROOT / "scripts" / "reproduce_figures.py"

RATE_TOL = 1e-12
MI_TOL = 1e-9
MI_FIELDS = frozenset({"value_bits", "std_error_bits", "bd_rate_bits"})


def figure_set(outdir: Path) -> list[tuple[str, list[str]]]:
    """(file name, argv) of every file the script writes, in order, without running it."""
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls: list[tuple[str, list[str]]] = []
    script.run = lambda name, *argv: calls.append((name, list(argv)))
    script.OUT = outdir
    script.main_script()
    return calls


def run_figure_set(outdir: Path) -> dict[str, str]:
    texts = {}
    for name, argv in figure_set(outdir):
        assert main([*argv, "--out", str(outdir / name)]) == 0, name
        texts[name] = (outdir / name).read_text()
    return texts


def tokens(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """Each line as (kind, [(key, value), ...]); CSV rows are keyed by the header."""
    lines, header = [], None
    for line in text.splitlines():
        if line.startswith("#") or "=" in line:
            lines.append(("kv", [tuple(tok.partition("=")[::2])
                                 for tok in line.lstrip("# ").split()]))
        elif header is None:
            header = line.split(",")
            lines.append(("header", [(h, h) for h in header]))
        else:
            lines.append(("row", list(zip(header, line.split(",")))))
    return lines


def number(key: str, value: str) -> float | None:
    if key == "scenario":  # a hex digest, compared as text even when it parses
        return None
    try:
        return float(value)
    except ValueError:
        return None


def differences(name: str, got: str, want: str) -> list[str]:
    a, b = tokens(got), tokens(want)
    if len(a) != len(b):
        return [f"{name}: {len(a)} lines, golden has {len(b)}"]
    found = []
    for i, ((kind_a, pa), (kind_b, pb)) in enumerate(zip(a, b), start=1):
        if kind_a != kind_b or [k for k, _ in pa] != [k for k, _ in pb]:
            found.append(f"{name} line {i}: layout differs")
            continue
        for (key, va), (_, vb) in zip(pa, pb):
            xa, xb = number(key, va), number(key, vb)
            if kind_a == "header" or xa is None or xb is None:
                if va != vb:
                    found.append(f"{name} line {i}: {key}={va!r}, golden {vb!r}")
                continue
            tol = MI_TOL if key in MI_FIELDS else RATE_TOL
            if not (abs(xa - xb) <= tol or (math.isnan(xa) and math.isnan(xb))):
                found.append(f"{name} line {i}: {key}={va}, golden {vb} (tol {tol:g})")
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple[dict[str, str], dict[str, str]]:
    base = tmp_path_factory.mktemp("golden")
    return run_figure_set(base / "first"), run_figure_set(base / "second")


def test_figure_set_covers_every_golden_file(runs):
    first, _ = runs
    assert sorted(first) == sorted(p.name for p in GOLDEN.iterdir())


def test_figure_set_matches_golden_outputs(runs):
    first, _ = runs
    found = [d for name, text in first.items()
             for d in differences(name, text, (GOLDEN / name).read_text())]
    assert found == []


def test_repeated_runs_are_byte_identical(runs):
    first, second = runs
    assert first == second
