"""Per-layer spans around calls into sbcrate, installed at run time.

A layer is one module of the package.  `Tracer.install` replaces every
public function of each layer, under every name an sbcrate module binds it
to (so `sbcrate.cli.max_pt_rate_ask` is wrapped as well as
`sbcrate.pt_rate.max_pt_rate_ask`), and the `__init__` and public methods of
each layer's public classes, with a wrapper that times the call.  Nothing
under `src/` changes; `uninstall` puts every original back.

A span's self time is its duration minus the time of the spans it caused,
so the layers' self times never add up to more than the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import io
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("scenario", "cli", "channel", "constellation", "pt_rate", "phase_opt",
          "bd_rate", "link_sim")

#: Attribute set on every wrapper, so a test can tell wrapped from original.
MARK = "__perfbench_layer__"


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _phases(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1


def _bytes_out(args: tuple, kwargs: dict) -> int:
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" not in argv:
        # The figures workload gives every call a fresh buffer as stdout.
        out = sys.stdout
        return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0
    path = Path(argv[argv.index("--out") + 1])
    return path.stat().st_size if path.exists() else 0


#: Work done by one call of a counted function: (layer, function) -> (counter, units).
#: Each counter also accumulates the inclusive time of the calls that feed it.
WORK = {
    ("pt_rate", "pt_rate_finite"): ("pt_rate.points", lambda a, k: _arg(a, k, 2, "c").order),
    ("pt_rate", "pt_rate_finite_expanded"):
        ("pt_rate.points", lambda a, k: _arg(a, k, 2, "c").order),
    ("pt_rate", "max_pt_rate_ask"): ("pt_rate.points", lambda a, k: _arg(a, k, 2, "M")),
    ("pt_rate", "max_pt_rate_psk"): ("pt_rate.points", lambda a, k: _arg(a, k, 2, "M")),
    ("pt_rate", "mask_rate_curve"):
        ("pt_rate.points", lambda a, k: _arg(a, k, 2, "M") * _phases(_arg(a, k, 3, "phases"))),
    ("pt_rate", "mpsk_rate_curve"):
        ("pt_rate.points", lambda a, k: _arg(a, k, 2, "M") * _phases(_arg(a, k, 4, "phases"))),
    ("cli", "main"): ("cli.bytes_written", _bytes_out),
    ("bd_rate", "mi_quadrature"): ("bd_rate.quad_calls", lambda a, k: 1),
    ("bd_rate", "mi_monte_carlo"): ("bd_rate.mc_samples", lambda a, k: _arg(a, k, 2, "samples")),
    ("link_sim", "empirical_bd_mi"):
        ("link_sim.pt_samples",
         lambda a, k: _arg(a, k, 3, "n_bd_symbols") * _arg(a, k, 0, "sys").spread),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


def _layer_module(layer: str):
    # Not attribute access on the package: `sbcrate.bd_rate` is the function.
    return importlib.import_module(f"sbcrate.{layer}")


def _own_public(module, predicate):
    return [(name, obj) for name, obj in vars(module).items()
            if predicate(obj) and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__]


def _sbcrate_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sbcrate" or name.startswith("sbcrate."))]


def installed_wrappers() -> list[str]:
    """Names in sbcrate currently bound to a tracing wrapper."""
    found = []
    for module in _sbcrate_modules():
        for name, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__.startswith("sbcrate"):
                for attr, member in vars(obj).items():
                    if hasattr(getattr(member, "__func__", member), MARK):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


class Tracer:
    """Span statistics per layer plus the work counters of `WORK`."""

    def __init__(self) -> None:
        self.layers = {layer: LayerStats() for layer in LAYERS}
        self.work: dict[str, float] = defaultdict(float)
        self.work_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, work=None):
        stack, stats, clock = self._stack, self.layers[layer], time.perf_counter
        counter, units = work if work else (None, None)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                tracer.work[counter] += units(args, kwargs)
                tracer.work_s[counter] += duration
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, layer)
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        replace = {}
        for layer in LAYERS:
            module = _layer_module(layer)
            for name, fn in _own_public(module, inspect.isfunction):
                replace[id(fn)] = self._wrap(fn, layer, WORK.get((layer, name)))
            for _, cls in _own_public(module, inspect.isclass):
                for attr, member in list(vars(cls).items()):
                    if attr != "__init__" and attr.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        self._set(cls, attr, self._wrap(member, layer))
                    elif isinstance(member, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(member.__func__, layer)))
        for module in _sbcrate_modules():
            for name, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._set(module, name, replace[id(obj)])
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit) for a traced window of wall_s seconds."""
        out: dict[str, tuple[float, str]] = {}
        for layer, st in self.layers.items():
            out[f"{layer}.calls"] = (st.calls, "count")
            out[f"{layer}.self_s"] = (st.self_s, "s")
            out[f"{layer}.self_frac"] = (st.self_s / wall_s if wall_s > 0 else 0.0, "ratio")
            out[f"{layer}.failed"] = (st.failed, "count")

        def per(counter: str, scale: float) -> float:
            n = self.work[counter]
            return self.work_s[counter] * scale / n if n else 0.0

        out["pt_rate.points"] = (self.work["pt_rate.points"], "count")
        out["pt_rate.ns_per_point"] = (per("pt_rate.points", 1e9), "ns")
        out["cli.bytes_written"] = (self.work["cli.bytes_written"], "B")
        out["bd_rate.quad_calls"] = (self.work["bd_rate.quad_calls"], "count")
        out["bd_rate.quad_ms_per_call"] = (per("bd_rate.quad_calls", 1e3), "ms")
        out["bd_rate.mc_samples"] = (self.work["bd_rate.mc_samples"], "count")
        out["bd_rate.mc_ns_per_sample"] = (per("bd_rate.mc_samples", 1e9), "ns")
        out["link_sim.pt_samples"] = (self.work["link_sim.pt_samples"], "count")
        out["link_sim.ns_per_pt_sample"] = (per("link_sim.pt_samples", 1e9), "ns")
        return out
