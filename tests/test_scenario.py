import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcrate.phase_opt import phase_period
from sbcrate.scenario import (DEFAULT_SCENARIO, Scenario, ScenarioError, apply_overrides,
                              db_to_linear, dbm_to_watt, load_scenario, parse_scenario,
                              scenario_hash, scenario_to_dict)


def write_scenario(scn: Scenario, path: Path) -> None:
    """The canonical form of `scn` as a scenario file, as `load_scenario` reads it."""
    path.write_text(json.dumps(scenario_to_dict(scn), indent=2) + "\n")


@pytest.fixture
def default_parsed() -> Scenario:
    return parse_scenario(DEFAULT_SCENARIO)


class TestParsing:
    def test_default_scenario_converts_units(self, default_parsed):
        scn = default_parsed
        assert scn.pathloss.gain_pt == pytest.approx(10 ** 0.6)
        assert scn.system.noise_w == pytest.approx(1e-13)
        assert scn.system.power_w == 0.05
        assert scn.scheme == "mask" and scn.order == 2
        assert scn.base_phase is None  # the closed-form optimum

    def test_default_scenario_fading_samples(self, default_parsed):
        assert default_parsed.fading[0] == 0.3421 - 0.4988j
        assert default_parsed.fading_prime[0] == 0.2651 + 0.0031j
        assert not default_parsed.use_prime

    def test_prime_triple_selects_other_channel(self, default_parsed):
        raw = apply_overrides(DEFAULT_SCENARIO, ["fading.use_prime=true"])
        scn = parse_scenario(raw)
        assert scn.channel().h1 != default_parsed.channel().h1

    def test_unknown_key_named_in_error(self):
        raw = apply_overrides(DEFAULT_SCENARIO, ["modulation.bogus=3"])
        with pytest.raises(ScenarioError, match="modulation.bogus"):
            parse_scenario(raw)

    def test_unknown_top_level_section_rejected(self):
        raw = dict(DEFAULT_SCENARIO)
        raw["extra"] = {}
        with pytest.raises(ScenarioError, match="extra"):
            parse_scenario(raw)

    def test_missing_section_rejected(self):
        raw = {k: v for k, v in DEFAULT_SCENARIO.items() if k != "system"}
        with pytest.raises(ScenarioError, match="system"):
            parse_scenario(raw)

    def test_db_and_linear_gains_are_exclusive(self):
        raw = apply_overrides(DEFAULT_SCENARIO, ["pathloss.gain_pt=4.0"])
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            parse_scenario(raw)

    def test_mask_amplitude_rejected(self):
        raw = apply_overrides(DEFAULT_SCENARIO, ["modulation.amplitude=0.9"])
        with pytest.raises(ScenarioError, match="amplitude"):
            parse_scenario(raw)

    def test_mpsk_base_phase_range_checked(self):
        raw = apply_overrides(DEFAULT_SCENARIO, [
            "modulation.scheme=mpsk", "modulation.order=4",
            "modulation.amplitude=0.9", "modulation.base_phase=2.0",
        ])
        with pytest.raises(ScenarioError, match="base_phase"):
            parse_scenario(raw)

    def test_equal_power_amplitude_flag(self):
        raw = apply_overrides(DEFAULT_SCENARIO, [
            "modulation.scheme=mpsk", "modulation.amplitude=equal-power",
        ])
        scn = parse_scenario(raw)
        assert scn.amplitude == "equal-power"
        assert scn.resolved_alpha0(2) == pytest.approx(math.sqrt(0.5))
        assert scn.resolved_alpha0(3) == pytest.approx(math.sqrt(5 / 12))

    def test_fading_pair_format_enforced(self):
        raw = apply_overrides(DEFAULT_SCENARIO, ["fading.l1=[1.0]"])
        with pytest.raises(ScenarioError, match="fading.l1"):
            parse_scenario(raw)

    def test_seed_must_be_non_negative_integer(self):
        raw = apply_overrides(DEFAULT_SCENARIO, ["seed=-3"])
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(raw)


class TestOverrides:
    def test_json_values_and_bare_strings(self):
        raw = apply_overrides(DEFAULT_SCENARIO, [
            "modulation.order=8",
            "modulation.base_phase=optimal",
            "system.spread=256",
        ])
        scn = parse_scenario(raw)
        assert scn.order == 8 and scn.base_phase is None and scn.system.spread == 256

    def test_whole_section_replacement(self):
        raw = apply_overrides(DEFAULT_SCENARIO, [
            'sweep={"variable":"channel_ratio","lo":0.1,"hi":2.0,"steps":10}',
        ])
        scn = parse_scenario(raw)
        assert scn.sweep.variable == "channel_ratio"
        assert scn.sweep.lo == 0.1 and scn.sweep.steps == 10

    def test_malformed_override_rejected(self):
        with pytest.raises(ScenarioError, match="override"):
            apply_overrides(DEFAULT_SCENARIO, ["no_equals_sign"])

    def test_original_dict_is_not_mutated(self):
        before = json.dumps(DEFAULT_SCENARIO, sort_keys=True)
        apply_overrides(DEFAULT_SCENARIO, ["modulation.order=64"])
        assert json.dumps(DEFAULT_SCENARIO, sort_keys=True) == before


_PAIRS = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)


@st.composite
def raw_scenarios(draw) -> dict:
    """Raw scenarios over scheme, order, amplitude, base phase, primes and sweep."""
    raw = json.loads(json.dumps(DEFAULT_SCENARIO))
    scheme = draw(st.sampled_from(["mask", "mpsk"]))
    order = draw(st.integers(2, 256))
    mo = raw["modulation"] = {"scheme": scheme, "order": order,
                              "min_bd_rate_bits": draw(st.floats(0.0, 8.0))}
    if scheme == "mpsk":
        amplitude = draw(st.one_of(st.none(), st.just("equal-power"), st.sampled_from([0, 1]),
                                   st.floats(0.0, 1.0)))
        if amplitude is not None:
            mo["amplitude"] = amplitude
    mo["base_phase"] = draw(st.one_of(
        st.just("optimal"),
        st.floats(0.0, phase_period(scheme, order), exclude_max=True)))
    fd = raw["fading"] = {k: draw(_PAIRS) for k in ("l1", "l2", "l3")}
    if draw(st.booleans()):
        fd.update({k: draw(_PAIRS) for k in ("l1_prime", "l2_prime", "l3_prime")})
        fd["use_prime"] = draw(st.booleans())
    if draw(st.booleans()):
        del raw["sweep"]
    else:
        sweep = raw["sweep"] = {
            "variable": draw(st.sampled_from(["base_phase", "channel_ratio", "order"])),
            "steps": draw(st.integers(1, 1000))}
        for bound in ("lo", "hi"):
            if draw(st.booleans()):
                sweep[bound] = draw(st.floats(0.0, 1e6))
    raw["seed"] = draw(st.integers(0, 2**63))
    return raw


class TestRoundTrip:
    def test_write_then_read_is_exact(self, default_parsed, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario(default_parsed, path)
        again = load_scenario(path)
        assert again == default_parsed

    def test_round_trip_with_sweep_and_mpsk(self, tmp_path):
        raw = apply_overrides(DEFAULT_SCENARIO, [
            "modulation.scheme=mpsk", "modulation.order=8",
            "modulation.amplitude=0.37", "modulation.base_phase=0.11",
            'sweep={"variable":"channel_ratio","lo":0.25,"hi":1.75,"steps":33}',
        ])
        scn = parse_scenario(raw)
        path = tmp_path / "s.json"
        write_scenario(scn, path)
        assert load_scenario(path) == scn

    def test_hash_is_stable_and_sensitive(self, default_parsed):
        h1 = scenario_hash(default_parsed)
        assert h1 == scenario_hash(parse_scenario(DEFAULT_SCENARIO))
        other = parse_scenario(apply_overrides(DEFAULT_SCENARIO, ["modulation.order=4"]))
        assert scenario_hash(other) != h1

    @pytest.mark.parametrize("overrides, digest", [
        ([], "c00c3691acf0"),
        (["modulation.base_phase=1.25"], "32063a3bb6ee"),
        (["modulation.scheme=mpsk"], "5baa0be53e51"),
        (["modulation.scheme=mpsk", "modulation.amplitude=null"], "5baa0be53e51"),
        (["modulation.scheme=mpsk", "modulation.amplitude=equal-power"], "acc6afaf9392"),
        (["modulation.scheme=mpsk", "modulation.amplitude=0"], "17687605297e"),
        (["modulation.scheme=mpsk", "modulation.order=4", "modulation.amplitude=0.9",
          "modulation.base_phase=0.3"], "9ac3813ee4b9"),
        (["fading.use_prime=true"], "5dcb7669ac79"),
        (['pathloss={"wavelength_m":0.3,"gain_pt":2,"gain_rx_db":3,"gain_bd":1.5,'
          '"exponent":3,"d1_m":10,"d2_m":20,"d3_m":1}'], "b51760f19d14"),
    ])
    def test_hash_values_are_pinned(self, overrides, digest):
        # Digests label every emitted artifact, so the canonical form must not
        # drift; an mpsk scenario without an amplitude serialises it as null.
        scn = parse_scenario(apply_overrides(DEFAULT_SCENARIO, overrides))
        assert scenario_hash(scn) == digest

    def test_canonical_dict_reparses(self, default_parsed):
        assert parse_scenario(scenario_to_dict(default_parsed)) == default_parsed

    @given(raw=raw_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_round_trips(self, raw, tmp_path_factory):
        scn = parse_scenario(raw)
        canon = scenario_to_dict(scn)
        again = parse_scenario(canon)
        assert again == scn
        assert scenario_hash(again) == scenario_hash(scn)
        assert scenario_to_dict(again) == canon
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        write_scenario(scn, path)
        assert load_scenario(path) == scn



class TestLoad:
    def test_shipped_default_file_matches_builtin(self, default_parsed):
        # The default scenario exists twice, as scenarios/default.json and as
        # DEFAULT_SCENARIO; both must be the same scenario, down to its hash.
        from pathlib import Path
        shipped = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "default.json")
        assert shipped == default_parsed == load_scenario(None)
        assert scenario_hash(shipped) == scenario_hash(load_scenario(None)) == "c00c3691acf0"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_none_gives_default(self, default_parsed):
        assert load_scenario(None) == default_parsed


def test_unit_conversions():
    assert db_to_linear(6.0) == pytest.approx(10 ** 0.6)
    assert dbm_to_watt(-100.0) == pytest.approx(1e-13)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)
