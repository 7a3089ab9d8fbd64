"""Self-describing scenario files driving the command-line experiments.

A scenario is a JSON document with nested sections for the path-loss model,
small-scale fading samples, system parameters, modulation, and an optional
sweep descriptor.  Decibel quantities carry an explicit `_db`/`_dbm` suffix
and are converted at load; the in-memory form is always linear, so the core
modules never see units.  Unknown keys are rejected with the offending key
named.  Writing a scenario and reading it back reproduces the in-memory
value exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .bd_rate import check_gain, mrc_statistics
from .channel import ChannelTriple, PathLossModel, SystemParams, make_channel, path_loss
from .constellation import (Constellation, equal_power_psk_amplitude, explicit_constellation,
                            mask_constellation, mpsk_constellation)
from .phase_opt import PhaseSolution, optimal_phase, phase_period


class ScenarioError(ValueError):
    """A scenario file or override is malformed or violates a precondition."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


#: Section V operating point: carrier wavelength 0.33 m, exponent 3.5,
#: 6 dB antenna gains, 200 m / 200 m / 0.36 m link distances, 0.05 W transmit
#: power, -100 dBm noise, ring amplitude 0.9, and both fixed fading triples.
DEFAULT_SCENARIO: dict = {
    "pathloss": {
        "wavelength_m": 0.33,
        "gain_pt_db": 6.0,
        "gain_rx_db": 6.0,
        "gain_bd_db": 6.0,
        "exponent": 3.5,
        "d1_m": 200.0,
        "d2_m": 200.0,
        "d3_m": 0.36,
    },
    "fading": {
        "l1": [0.3421, -0.4988],
        "l2": [-0.0139, -0.4378],
        "l3": [-0.5246, -1.0546],
        "l1_prime": [0.2651, 0.0031],
        "l2_prime": [-1.2621, 0.0425],
        "l3_prime": [-0.3110, -0.7787],
        "use_prime": False,
    },
    "system": {
        "power_w": 0.05,
        "noise_dbm": -100.0,
        "spread": 128,
    },
    "modulation": {
        "scheme": "mask",
        "order": 2,
        "base_phase": "optimal",
        "min_bd_rate_bits": 0.0,
    },
    "sweep": {
        "variable": "base_phase",
        "steps": 721,
    },
    "seed": 20260808,
}


#: The largest modulation order a scenario may name, as modulation.order or
#: as the order sweep's sweep.hi.  The device-rate engines take time about
#: quadratic in the order and the rate curves memory linear in it.
MAX_ORDER = 1024


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    steps: int
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.variable not in ("base_phase", "channel_ratio", "order"):
            raise ScenarioError(f"sweep.variable must be one of base_phase, "
                                f"channel_ratio, order; got {self.variable!r}")
        if isinstance(self.steps, bool) or not (isinstance(self.steps, int) and self.steps >= 1):
            raise ScenarioError(f"sweep.steps must be an integer >= 1, got {self.steps!r}")
        if self.variable == "order" and self.hi is not None and self.hi > MAX_ORDER:
            raise ScenarioError(f"sweep.hi = {self.hi!r} exceeds the largest order, {MAX_ORDER}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: all referenced module preconditions hold."""

    pathloss: PathLossModel
    fading: tuple[complex, complex, complex]              # l1, l2, l3
    fading_prime: tuple[complex, complex, complex] | None  # their primed twins, if given
    use_prime: bool                                       # parsing checks the twins exist
    system: SystemParams
    scheme: str
    order: int
    amplitude: float | str | None  # a number, "equal-power", or None when not given
    base_phase: float | None       # None selects the closed-form optimum
    min_bd_rate_bits: float
    sweep: SweepSpec | None
    seed: int
    _channel: ChannelTriple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The link gains, and the coupling the device-rate kernel takes, are
        # computed, and so checked, once per scenario.
        samples = self.fading_prime if self.use_prime else self.fading
        channel = ChannelTriple(*(
            _model(make_channel, f"pathloss and fading.{key}", fading=sample,
                   mu=_model(path_loss, "pathloss", model=self.pathloss, which_link=link))
            for link, (key, sample) in enumerate(zip(self._fading_keys(), samples), start=1)))
        _model(check_gain, "system", gain=mrc_statistics(self.system, channel).gain,
               peak=1.0 if self.scheme == "mask" else self.resolved_alpha0())
        object.__setattr__(self, "_channel", channel)

    def _fading_keys(self) -> tuple[str, str, str]:
        """The `fading` keys of the samples in use."""
        return _PRIMED if self.use_prime else _LINKS

    def channel(self) -> ChannelTriple:
        return self._channel

    def resolved_alpha0(self, order: int | None = None) -> float:
        """Ring amplitude for phase keying at the given (or scenario) order."""
        if isinstance(self.amplitude, float):
            return self.amplitude
        return equal_power_psk_amplitude(order or self.order)

    def theta0(self) -> float:
        """The composite channel phase, which every closed-form optimum needs."""
        ch = self._channel
        for i, (key, h) in enumerate(zip(self._fading_keys(), (ch.h1, ch.h2, ch.h3)), start=1):
            if h == 0:
                raise ScenarioError(f"fading.{key} gives h{i} = 0, which leaves the optimal "
                                    f"phase undefined")
        return ch.theta0

    def optimal_phase(self) -> PhaseSolution:
        """The closed-form rate-maximizing base phase for this scheme and order."""
        return optimal_phase(self.scheme, self.order, self.theta0())

    def build_constellation(self, phase: float | None = None) -> Constellation:
        """The scenario's symbols at `phase`, by default its base phase or else the optimum."""
        if self.scheme == "mpsk" and self.resolved_alpha0() == 0.0:
            # Zero ring amplitude: a silent device, phase immaterial.
            return explicit_constellation([0j] * self.order)
        if phase is None:
            phase = self.optimal_phase().phase_rad if self.base_phase is None else self.base_phase
        if self.scheme == "mask":
            return mask_constellation(self.order, phase)
        return mpsk_constellation(self.order, self.resolved_alpha0(), phase)


#: Path-loss keys, in file order; the `gain_*` keys also accept a `_db` form.
_PATHLOSS_KEYS = tuple(f.name for f in fields(PathLossModel))
#: Fading-sample keys, each with an optional primed twin.
_LINKS = ("l1", "l2", "l3")
_PRIMED = tuple(f"{k}_prime" for k in _LINKS)


def _section(raw: dict, name: str, keys) -> dict:
    """`raw[name]`, checked to be an object holding only the given keys."""
    section = raw[name]
    if not isinstance(section, dict):
        raise ScenarioError(f"scenario.{name} must be an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ScenarioError(f"unknown key '{name}.{key}'")
    return section


def _required(section: dict, name: str):
    """The value at `name` ("<section>.<key>"), which must be present."""
    key = name.partition(".")[2]
    if key not in section:
        raise ScenarioError(f"missing key '{name}'")
    return section[key]


def _model(build, where: str, **values):
    """`build(**values)`, the builder's own ValueError reported as an invalid `where`."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ScenarioError(f"invalid {where}: {exc}") from None


def _number(value, name: str) -> float:
    """A scenario value as a finite float; anything else raises, naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{name} must be finite, got {value!r}")
    return number


def _pick_linear(section: dict, name: str, log_name: str, to_linear, where: str) -> float:
    """The linear value of `name`, or of its logarithmic alternative `log_name`."""
    lin, log = section.get(name), section.get(log_name)
    if lin is not None and log is not None:
        raise ScenarioError(f"{where}.{name} and {where}.{log_name} are mutually exclusive")
    if log is not None:
        try:
            return to_linear(_number(log, f"{where}.{log_name}"))
        except OverflowError:
            raise ScenarioError(f"{where}.{log_name} = {log!r} overflows in linear units") from None
    if lin is None:
        raise ScenarioError(f"missing key {where}.{name} (or {where}.{log_name})")
    return _number(lin, f"{where}.{name}")


def _parse_complex(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where} must be a [re, im] pair, got {value!r}")
    return complex(_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))


def parse_scenario(raw: dict) -> Scenario:
    """Validate a raw scenario dictionary into a :class:`Scenario`."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in raw:
        if key not in ("pathloss", "fading", "system", "modulation", "sweep", "seed"):
            raise ScenarioError(f"unknown key 'scenario.{key}'")
    for required in ("pathloss", "fading", "system", "modulation"):
        if required not in raw:
            raise ScenarioError(f"missing section 'scenario.{required}'")

    gains = [k for k in _PATHLOSS_KEYS if k.startswith("gain_")]
    pl = _section(raw, "pathloss", {*_PATHLOSS_KEYS, *(f"{k}_db" for k in gains)})
    model = _model(PathLossModel, "pathloss", **{
        k: (_pick_linear(pl, k, f"{k}_db", db_to_linear, "pathloss") if k in gains
            else _number(_required(pl, f"pathloss.{k}"), f"pathloss.{k}"))
        for k in _PATHLOSS_KEYS})

    fd = _section(raw, "fading", {*_LINKS, *_PRIMED, "use_prime"})
    fading = tuple(_parse_complex(_required(fd, f"fading.{k}"), f"fading.{k}") for k in _LINKS)
    primes = [fd.get(k) for k in _PRIMED]
    if any(p is not None for p in primes) and not all(p is not None for p in primes):
        raise ScenarioError("fading primed samples must be given for all three links or none")
    fading_prime = (tuple(_parse_complex(p, f"fading.{k}") for k, p in zip(_PRIMED, primes))
                    if primes[0] is not None else None)
    use_prime = fd.get("use_prime", False)
    if not isinstance(use_prime, bool):
        raise ScenarioError(f"fading.use_prime must be a boolean, got {use_prime!r}")
    if use_prime and fading_prime is None:
        raise ScenarioError("fading.use_prime is set but no primed samples given")

    sy = _section(raw, "system", {"power_w", "noise_w", "noise_dbm", "spread"})
    noise_w = _pick_linear(sy, "noise_w", "noise_dbm", dbm_to_watt, "system")
    spread = sy.get("spread", 128)
    if not isinstance(spread, int) or isinstance(spread, bool):
        raise ScenarioError(f"system.spread must be an integer, got {spread!r}")
    system = _model(SystemParams, "system", noise_w=noise_w, spread=spread,
                    power_w=_number(_required(sy, "system.power_w"), "system.power_w"))

    mo = _section(raw, "modulation",
                  {"scheme", "order", "amplitude", "base_phase", "min_bd_rate_bits"})
    scheme = mo.get("scheme")
    if scheme not in ("mask", "mpsk"):
        raise ScenarioError(f"modulation.scheme must be 'mask' or 'mpsk', got {scheme!r}")
    order = mo.get("order")
    if not (isinstance(order, int) and not isinstance(order, bool) and order >= 2):
        raise ScenarioError(f"modulation.order must be an integer >= 2, got {order!r}")
    if order > MAX_ORDER:
        raise ScenarioError(f"modulation.order = {order!r} exceeds the largest order, {MAX_ORDER}")
    amplitude = mo.get("amplitude")
    if amplitude is not None and amplitude != "equal-power":
        amplitude = _number(amplitude, "modulation.amplitude")
        # Zero is allowed as the degenerate silent-device case.
        if not (0.0 <= amplitude <= 1.0):
            raise ScenarioError(f"modulation.amplitude must lie in [0, 1], got {amplitude!r}")
    if scheme == "mask" and amplitude is not None:
        raise ScenarioError("modulation.amplitude applies only to the mpsk scheme")
    base_phase = mo.get("base_phase", "optimal")
    if base_phase == "optimal":
        base_phase = None
    else:
        base_phase = _number(base_phase, "modulation.base_phase")
        limit = phase_period(scheme, order)
        if not (0.0 <= base_phase < limit):
            raise ScenarioError(f"modulation.base_phase {base_phase!r} outside [0, {limit:g}) "
                                f"for scheme {scheme!r} order {order}")
    min_bd = _number(mo.get("min_bd_rate_bits", 0.0), "modulation.min_bd_rate_bits")
    if min_bd < 0:
        raise ScenarioError(f"modulation.min_bd_rate_bits must be >= 0, got {min_bd!r}")

    sweep = None
    if raw.get("sweep") is not None:
        sw = _section(raw, "sweep", {f.name for f in fields(SweepSpec)})
        # SweepSpec names its own faults.
        sweep = SweepSpec(variable=_required(sw, "sweep.variable"),
                          steps=_required(sw, "sweep.steps"),
                          lo=(_number(sw["lo"], "sweep.lo") if "lo" in sw else None),
                          hi=(_number(sw["hi"], "sweep.hi") if "hi" in sw else None))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")

    return Scenario(pathloss=model, fading=fading, fading_prime=fading_prime,
                    use_prime=use_prime, system=system, scheme=scheme, order=order,
                    amplitude=amplitude, base_phase=base_phase, min_bd_rate_bits=min_bd,
                    sweep=sweep, seed=seed)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply repeatable `section.key=value` overrides to a raw scenario dict.

    Values parse as JSON fragments where possible (numbers, booleans, lists)
    and fall back to bare strings, so `modulation.base_phase=optimal` works
    without quoting.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r} must look like section.key=value")
        path, _, text = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ScenarioError(f"override {item!r} has an empty key component")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ScenarioError(f"override {item!r} descends through a non-section key")
        node[keys[-1]] = value
    return out


def load_scenario(path: str | Path | None, overrides: list[str] | None = None) -> Scenario:
    """Read a scenario file (or the built-in default) and apply overrides."""
    if path is None:
        raw = DEFAULT_SCENARIO
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ScenarioError(f"scenario file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    if overrides:
        raw = apply_overrides(raw, overrides)
    return parse_scenario(raw)


def scenario_to_dict(scn: Scenario) -> dict:
    """Canonical raw form: linear units, explicit optional fields."""
    out: dict = {
        "pathloss": asdict(scn.pathloss),
        "fading": {k: [z.real, z.imag] for k, z in zip(_LINKS, scn.fading)},
        "system": asdict(scn.system),
        "modulation": {
            "scheme": scn.scheme,
            "order": scn.order,
            "base_phase": "optimal" if scn.base_phase is None else scn.base_phase,
            "min_bd_rate_bits": scn.min_bd_rate_bits,
        },
        "seed": scn.seed,
    }
    if scn.fading_prime is not None:
        out["fading"].update({k: [z.real, z.imag] for k, z in zip(_PRIMED, scn.fading_prime)})
    out["fading"]["use_prime"] = scn.use_prime
    if scn.scheme == "mpsk":
        out["modulation"]["amplitude"] = scn.amplitude
    if scn.sweep is not None:
        out["sweep"] = {k: v for k, v in asdict(scn.sweep).items() if v is not None}
    return out


def scenario_hash(scn: Scenario) -> str:
    """Short stable digest identifying a scenario in emitted artifacts."""
    canon = json.dumps(scenario_to_dict(scn), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
