"""The benchmark's workloads: inputs drawn from a seed, one op at a time, and the
check each op's output must pass.

A workload yields rounds, lists of ops that together hold the workload's
fixed mix; a run always finishes the round it is in, so every run measures
the same mix whatever its length.  Each op calls the public API of sbcrate
through module attributes looked up at call time, so wrappers installed by
`tracing.Tracer` see every call.

Run as a script, this module is the set-up probe that `run.py` times in a
fresh interpreter: it imports sbcrate, loads the default scenario and
completes the workload's first op.

    python3 perfbench/workloads.py <workload> <seed>
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import itertools
import math
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import make_reference as ref  # noqa: E402
from sbcrate.bd_rate import DEFAULT_MI_TOL, MrcStatistics  # noqa: E402
from sbcrate.channel import TWO_PI  # noqa: E402
from sbcrate.link_sim import RngSpec  # noqa: E402
from sbcrate.scenario import DEFAULT_SCENARIO  # noqa: E402

WORKLOADS = ("figures", "quadrature_grid", "sampled_mi")
WORK_ROOT = HERE / ".work"
GOLDEN = ROOT / "out"
FIGURES_SCRIPT = ROOT / "scripts" / "reproduce_figures.py"

#: Golden-output bounds: rates, phases and ratios to 1e-12, mutual information to 1e-9.
GOLDEN_TOL = 1e-12
GOLDEN_MI_TOL = 1e-9
MI_FIELDS = frozenset({"value_bits", "std_error_bits", "bd_rate_bits"})

MC_SAMPLES = 1 << 21
SIM_SYMBOLS = 50_000
#: Two-sided normal tail beyond 5 standard errors is 5.7e-7, so a correct
#: estimator fails an op with probability below 1e-6.
Z_MAX = 5.0
#: Floor on the standard error, as in acceptance criterion 09: the quadrature
#: reference is itself only good to about twice its tolerance.
SE_FLOOR = 2e-8
#: The quadrature_grid gate: a value must lie within this of its cell's
#: reference, the accuracy acceptance criterion 09 grants quadrature.
#: DEFAULT_MI_TOL bounds only the step between the last two node levels, not
#: the distance from the true value.  Over 4001 base phases of the mask, M=2,
#: g=30 cell, 8 results lie 1.02e-8 from it (near the axis-aligned phases,
#: where the ladder runs to 324 nodes); every other cell stays within 3.7e-9.
#: Results beyond DEFAULT_MI_TOL are counted in the run's record.
QUAD_GATE = 2 * DEFAULT_MI_TOL
#: Successive base phases of one grid cell step by the golden ratio of the
#: period, so every run samples the phase period evenly (the node ladder,
#: and so the cost of a cell, depends on the phase).
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
SHIPPED_AMPLITUDE = {k: abs(complex(*DEFAULT_SCENARIO["fading"][k])) for k in ("l2", "l3")}


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # returns a failure message, or None


def _sbcrate(module: str):
    return importlib.import_module(f"sbcrate.{module}")


# ---------------------------------------------------------------------------
# figures: the figure set of scripts/reproduce_figures.py through sbcrate.cli.main
# ---------------------------------------------------------------------------

def figure_set(workdir: Path) -> list[tuple[str, list[str]]]:
    """(file name, argv) of every file scripts/reproduce_figures.py writes, in order."""
    spec = importlib.util.spec_from_file_location("reproduce_figures", FIGURES_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls: list[tuple[str, list[str]]] = []
    script.run = lambda name, *argv: calls.append((name, list(argv)))
    script.OUT = Path(workdir)
    script.main_script()
    return calls


def parse_output(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """Lines of a CLI output as (kind, [(key, value), ...]).

    kind is "kv" for `#` metadata and `key=value` report lines, "header" for
    the CSV header (fields as (name, name)) and "row" for data rows keyed by
    the header.
    """
    lines, header = [], None
    for line in text.splitlines():
        if line.startswith("#") or "=" in line:
            pairs = [tuple(tok.partition("=")[::2]) for tok in line.lstrip("# ").split()]
            lines.append(("kv", pairs))
        elif header is None:
            header = line.split(",")
            lines.append(("header", [(h, h) for h in header]))
        else:
            lines.append(("row", list(zip(header, line.split(",")))))
    return lines


def _number(key: str, value: str) -> float | None:
    if key == "scenario":  # a hex digest, even when it happens to parse
        return None
    try:
        return float(value)
    except ValueError:
        return None


def compare_golden(name: str, text: str, golden: str) -> str | None:
    """Match against a committed output: text exactly, numbers within the golden bounds."""
    got, want = parse_output(text), parse_output(golden)
    if len(got) != len(want):
        return f"{name}: {len(got)} lines, golden has {len(want)}"
    for i, ((kind_a, a), (kind_b, b)) in enumerate(zip(got, want)):
        if kind_a != kind_b or [k for k, _ in a] != [k for k, _ in b]:
            return f"{name} line {i + 1}: layout differs from the golden file"
        for (key, va), (_, vb) in zip(a, b):
            xa, xb = _number(key, va), _number(key, vb)
            if xa is None or xb is None or kind_a == "header":
                if va != vb:
                    return f"{name} line {i + 1}: {key}={va!r}, golden {vb!r}"
                continue
            tol = GOLDEN_MI_TOL if key in MI_FIELDS else GOLDEN_TOL
            if not (abs(xa - xb) <= tol or (math.isnan(xa) and math.isnan(xb))):
                return f"{name} line {i + 1}: {key}={va}, golden {vb} (tol {tol:g})"
    return None


def check_sane(name: str, text: str) -> str | None:
    """Finite values throughout; a phase sweep never beats its closed-form maximum."""
    lines = parse_output(text)
    fields = dict(pair for kind, pairs in lines if kind == "kv" for pair in pairs)
    for kind, pairs in lines:
        for key, value in pairs:
            x = _number(key, value)
            if kind == "header" or x is None or key == "crossing_ratio_r0":
                continue
            if not math.isfinite(x):
                return f"{name}: {key}={value} is not finite"
    if "crossing_ratio_r0" in fields:
        single = fields.get("sign_changes") == "1"
        if math.isfinite(float(fields["crossing_ratio_r0"])) != single:
            return (f"{name}: crossing_ratio_r0={fields['crossing_ratio_r0']} with "
                    f"sign_changes={fields.get('sign_changes')}")
    if "closed_form_max_rate_bits" in fields:
        best = float(fields["closed_form_max_rate_bits"])
        top = max(float(v) for kind, pairs in lines if kind == "row"
                  for key, v in pairs if key == "pt_rate_bits")
        if top > best + GOLDEN_TOL:
            return f"{name}: sweep maximum {top!r} above closed form {best!r}"
    return None


class Figures:
    """Op 0 is the shipped figure set; later ops redraw the fading triple."""

    name = "figures"

    def __init__(self, seed: int, workdir: Path, golden: Path = GOLDEN):
        self.rng = np.random.default_rng(seed)
        self.golden = Path(golden)
        self.figures = figure_set(Path(workdir))

    def rounds(self) -> Iterator[list[Op]]:
        yield [self._op([], lambda name, text:
                        compare_golden(name, text, (self.golden / name).read_text()))]
        while True:
            yield [self._op(self._fading(), check_sane)]

    def _fading(self) -> list[str]:
        # Every phase and |l1| are drawn.  |l2| and |l3| keep their shipped
        # values, so the device coupling g stays at the shipped operating
        # point: otherwise a few draws send the device-rate quadrature up its
        # node ladder, and the MI engine, not the primary-rate path this
        # workload is for, would set its tail.
        args = []
        for link, r in (("l1", self.rng.uniform(0.25, 1.25)),
                        ("l2", SHIPPED_AMPLITUDE["l2"]), ("l3", SHIPPED_AMPLITUDE["l3"])):
            t = self.rng.uniform(0.0, TWO_PI)
            args += ["--override", f"fading.{link}=[{r * math.cos(t)!r},{r * math.sin(t)!r}]"]
        return args

    def _op(self, overrides: list[str], check_file) -> Op:
        cli = _sbcrate("cli")

        def call() -> dict[str, str]:
            # Without --out the CLI writes to stdout, here a fresh buffer per
            # file: writing to disk made the op's time depend on the file
            # system, not on sbcrate (see README.md).
            texts = {}
            for name, argv in self.figures:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main([*argv, *overrides])
                if code != 0:
                    raise RuntimeError(f"{name}: exit code {code}")
                texts[name] = buffer.getvalue()
            return texts

        def check(texts: dict[str, str]) -> str | None:
            errors = (check_file(name, text) for name, text in texts.items())
            return next((e for e in errors if e), None)

        return Op("figure_set", call, check)


# ---------------------------------------------------------------------------
# quadrature_grid: mi_quadrature over the 40 reference cells
# ---------------------------------------------------------------------------

def check_quadrature(est, mi_ref: float, order: int) -> str | None:
    v = est.value_bits
    if not 0.0 <= v <= math.log2(order):
        return f"quadrature {v!r} outside [0, log2 {order}]"
    if abs(v - mi_ref) > QUAD_GATE:
        return f"quadrature {v!r} differs from reference {mi_ref!r} by {abs(v - mi_ref):.3g}"
    return None


class QuadratureGrid:
    """One op is one cell; a round is all 40 cells in a seeded order."""

    name = "quadrature_grid"

    def __init__(self, seed: int, reference: dict):
        self.cells = reference["quadrature_cells"]
        self.rng = np.random.default_rng(seed)
        self.start = self.rng.random(len(self.cells))
        self.max_deviation = 0.0
        self.beyond_tol = 0

    def notes(self) -> dict:
        """How far the results strayed from the references, gate or not."""
        return {"max_abs_deviation_bits": self.max_deviation,
                "ops_beyond_default_mi_tol": self.beyond_tol}

    def _check(self, est, cell: dict) -> str | None:
        deviation = abs(est.value_bits - cell["mi_bits"])
        self.max_deviation = max(self.max_deviation, deviation)
        self.beyond_tol += deviation > DEFAULT_MI_TOL
        return check_quadrature(est, cell["mi_bits"], cell["order"])

    def rounds(self) -> Iterator[list[Op]]:
        for k in itertools.count():
            yield [self._op(int(i), k) for i in self.rng.permutation(len(self.cells))]

    def _op(self, i: int, k: int) -> Op:
        cell = self.cells[i]
        scheme, order, g = cell["scheme"], cell["order"], cell["g"]
        phase = ((self.start[i] + k * GOLDEN_RATIO) % 1.0) * ref.period(scheme, order)
        c = ref.constellation(scheme, order, cell["ring"], phase)
        stats = MrcStatistics(g, g)
        bd = _sbcrate("bd_rate")
        return Op(f"{scheme}_M{order}_g{g:g}", lambda: bd.mi_quadrature(c, stats),
                  lambda est: self._check(est, cell))


# ---------------------------------------------------------------------------
# sampled_mi: Monte Carlo and simulated-link estimates of the same quantity
# ---------------------------------------------------------------------------

def check_sampled(est, mi_ref: float, order: int) -> str | None:
    v = est.value_bits
    if not 0.0 <= v <= math.log2(order):
        return f"estimate {v!r} outside [0, log2 {order}]"
    z = abs(v - mi_ref) / max(est.std_error_bits, SE_FLOOR)
    if z > Z_MAX:
        return f"estimate {v!r} vs reference {mi_ref!r}: |z| = {z:.2f} > {Z_MAX}"
    return None


class SampledMi:
    """A round is Monte Carlo, simulator at L=64, Monte Carlo, simulator at L=128.

    The Monte Carlo ops take the (scheme, order) strata in seeded order, each
    stratum once per three rounds, a scenario drawn from its pool and a fresh
    seed; every simulator op gets a fresh seed.
    """

    name = "sampled_mi"

    def __init__(self, seed: int, reference: dict, mc_samples: int = MC_SAMPLES,
                 sim_symbols: int = SIM_SYMBOLS):
        self.rng = np.random.default_rng(seed)
        self.mc_samples, self.sim_symbols = mc_samples, sim_symbols
        self.strata: dict[tuple[str, int], list[dict]] = {}
        for entry in reference["mc_scenarios"]:
            self.strata.setdefault((entry["scheme"], entry["order"]), []).append(entry)
        self.sims = reference["sim_scenarios"]

    def rounds(self) -> Iterator[list[Op]]:
        keys = list(self.strata)
        queue: list[tuple[str, int]] = []
        while True:
            if not queue:
                queue = [keys[i] for i in self.rng.permutation(len(keys))]
            yield [self._mc(queue.pop()), self._sim(self.sims[0]),
                   self._mc(queue.pop()), self._sim(self.sims[1])]

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def _mc(self, stratum: tuple[str, int]) -> Op:
        pool = self.strata[stratum]
        entry = pool[int(self.rng.integers(len(pool)))]
        c = ref.constellation(entry["scheme"], entry["order"], entry["ring"],
                              entry["base_phase"])
        stats = MrcStatistics(entry["g"], entry["g"])
        seed, samples = self._seed(), self.mc_samples
        bd = _sbcrate("bd_rate")
        return Op(f"mc_{entry['scheme']}_M{entry['order']}",
                  lambda: bd.mi_monte_carlo(c, stats, samples=samples, seed=seed),
                  lambda est: check_sampled(est, entry["mi_bits"], entry["order"]))

    def _sim(self, entry: dict) -> Op:
        sy, ch = ref.criterion_10_link(entry["spread"])
        c = ref.constellation(entry["scheme"], entry["order"], None, entry["base_phase"])
        rng, symbols = RngSpec(self._seed()), self.sim_symbols
        ls = _sbcrate("link_sim")
        return Op(f"sim_L{entry['spread']}",
                  lambda: ls.empirical_bd_mi(sy, ch, c, symbols, rng),
                  lambda est: check_sampled(est, entry["mi_bits"], entry["order"]))


def make(name: str, seed: int, workdir: Path, reference: dict | None = None, **sizes):
    """The named workload; `reference` defaults to the committed table."""
    if name == "figures":
        return Figures(seed, workdir)
    reference = reference if reference is not None else ref.load()
    if name == "quadrature_grid":
        return QuadratureGrid(seed, reference)
    if name == "sampled_mi":
        return SampledMi(seed, reference, **sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def setup_probe(name: str, seed: int) -> int:
    """Import, default scenario and the workload's first op, checked; exit status."""
    import sbcrate
    sbcrate.load_scenario(None)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        op = next(make(name, seed, Path(tmp)).rounds())[0]
        err = op.check(op.call())
    if err:
        print(err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(setup_probe(sys.argv[1], int(sys.argv[2])))
