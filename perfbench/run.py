#!/usr/bin/env python3
"""sbcrate benchmark: one closed-loop client, one process, three workloads.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1 --out r.json

Each op runs to completion before the next starts; its output is checked
outside the timed span.  With --trace 0 the run first times SETUP_REPS
fresh-interpreter set-ups, then measures the end-to-end metrics for
--seconds.  With --trace 1 it measures half the time untraced and half with
per-layer spans installed, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "sbcrate" / "__init__.py", ROOT / "scripts" / "reproduce_figures.py",
            ROOT / "out")

SETUP_REPS = 7
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Failure messages kept in a result record.
KEEP_FAILURES = 5
#: Seconds between two speed probes in a measuring window.
PROBE_EVERY_S = 1.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(message)


@dataclass
class Window:
    """The timed ops of one measuring window."""

    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    completed: int = 0
    wall_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        busy = math.fsum(self.latencies)
        return self.completed / busy if busy > 0 else 0.0


def run_op(op, tally: Tally, window: Window | None = None):
    """Run and check one op; only the call itself is timed."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
    else:
        error = None
    elapsed = time.perf_counter() - start
    if window is not None:
        window.latencies.append(elapsed)
        window.kinds.append(op.kind)
        window.completed += error is None
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
        error = error and f"{op.kind}: {error}"
    if error:
        tally.fail(error)
    return result


def speed_probe_ms() -> float:
    """Time of a fixed pure-Python loop: the speed the host gives this process.

    On a shared 2-vCPU VM this time has been seen to switch between about
    6.3 and 8.9 ms within seconds, and every op's latency moved with it;
    the load average does not show such spells.
    """
    start = time.perf_counter()
    sum(range(300_000))
    return 1e3 * (time.perf_counter() - start)


def measure(rounds, seconds: float, tally: Tally, repeat=None) -> Window:
    """Run whole rounds until `seconds` have passed.

    `repeat` is (op, earlier result): when that op comes round again its
    result must be bit-identical to the earlier one.  Between rounds, at
    most once per PROBE_EVERY_S, the host's speed is probed (untimed).
    """
    window = Window()
    start = probed = time.perf_counter()
    window.probes_ms.append(speed_probe_ms())
    for ops in rounds:
        for op in ops:
            result = run_op(op, tally, window)
            if repeat is not None and op is repeat[0]:
                if result is not None and repr(result) != repr(repeat[1]):
                    tally.fail(f"{op.kind}: same-seed repeat is not bit-identical")
                repeat = None
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - probed >= PROBE_EVERY_S:
            window.probes_ms.append(speed_probe_ms())
            probed = time.perf_counter()
    window.wall_s = time.perf_counter() - start
    return window


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it, or the maximum if there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def time_setup(name: str, seed: int, tally: Tally) -> float:
    """Wall time of one fresh interpreter doing import, default scenario, first op."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    tally.attempted += 1
    if proc.returncode != 0:
        tally.fail(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, busy) clock ticks of all CPUs from /proc/stat, or None off Linux."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return steal, user + nice + system + irq + softirq + steal


def steal_share(start, end) -> float | None:
    """Share of the machine's busy time the hypervisor gave to other guests."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def machine_facts() -> dict:
    import numpy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else commit
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS, reference: dict | None = None,
                 **sizes) -> dict:
    """Measure one workload; returns the full result record."""
    import workloads
    from tracing import Tracer

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "facts": machine_facts(), "loadavg_start": os.getloadavg()}
    ticks = cpu_ticks()
    tally = Tally()
    setups = [time_setup(name, seed, tally) for _ in range(0 if trace else setup_reps)]
    workloads.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_ROOT) as tmp:
        wl = workloads.make(name, seed, Path(tmp), reference, **sizes)
        rounds = wl.rounds()
        first = next(rounds)
        warm = run_op(first[0], tally)  # fills caches; its result is the repeat reference
        stream = itertools.chain([first], rounds)
        repeat = (first[0], warm)
        if not trace:
            window = measure(stream, seconds, tally, repeat)
            value, pct, beyond = tail(window.latencies)
            metrics = {
                "ops_per_s": (window.ops_per_s, "1/s"),
                "latency_p50_ms": (1e3 * statistics.median(window.latencies), "ms"),
                "latency_tail_ms": (1e3 * value, "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            record["latency_tail"] = {"percentile": pct, "samples": len(window.latencies),
                                      "beyond": beyond}
            record["setup_runs_s"] = setups
        else:
            plain = measure(stream, seconds / 2, tally, repeat)
            tracer = Tracer()
            cpu0 = cpu_seconds()
            with tracer:
                traced = measure(stream, seconds / 2, tally)
            cpu = cpu_seconds() - cpu0
            metrics = tracer.metrics(traced.wall_s)
            metrics["process.cpu_s"] = (cpu, "s")
            metrics["process.cpu_util"] = (cpu / traced.wall_s, "ratio")
            metrics["trace.ops"] = (len(traced.latencies), "count")
            metrics["trace.wall_s"] = (traced.wall_s, "s")
            metrics["trace.overhead_frac"] = (1.0 - traced.ops_per_s / plain.ops_per_s, "ratio")
            window = traced
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(window.kinds, window.latencies):
        by_kind.setdefault(kind, []).append(latency)
    record.update(
        kinds={k: {"ops": len(v), "median_ms": 1e3 * statistics.median(v)}
               for k, v in sorted(by_kind.items())},
        loadavg_end=os.getloadavg(), steal_share=steal_share(ticks, cpu_ticks()),
        correct=tally.failed == 0,
        attempted=tally.attempted, failed=tally.failed,
        failed_frac=tally.failed / tally.attempted, failures=tally.failures,
        timed_ops=len(window.latencies),
        speed_probe_ms=dict(zip(("q1", "median", "q3"), quartiles(window.probes_ms)),
                            probes=len(window.probes_ms)),
        notes=wl.notes() if hasattr(wl, "notes") else {},
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return record


def summary(record: dict) -> dict:
    return {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}


def print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={record['trace']}  timed ops={record['timed_ops']}")
    for name, m in record["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            t = record["latency_tail"]
            note = f"  (p{t['percentile']:.2f} of {t['samples']} ops, {t['beyond']} beyond)"
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<28} {record['failed_frac']:>16.6g} ratio"
          f"  ({record['failed']} of {record['attempted']})")
    if record["notes"]:
        print(f"  notes {json.dumps(record['notes'])}")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    facts = dict(record["facts"], seed=record["seed"], loadavg_start=record["loadavg_start"],
                 loadavg_end=record["loadavg_end"], steal_share=record["steal_share"],
                 speed_probe_ms=record["speed_probe_ms"])
    print(f"  facts {json.dumps(facts)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sbcrate benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("figures", "quadrature_grid", "sampled_mi", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result records here as JSON")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"benchmark needs the sbcrate sources; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for record in records:
        print_table(record)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if len(records) == 1:
        result = summary(records[0])
    else:
        result = {"correct": all(r["correct"] for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "metrics": {f"{r['workload']}.{k}": v for r in records
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
