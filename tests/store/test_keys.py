"""Content hashing: stable, discriminating, and honest about opacity."""

import pytest

from repro.exec.spec import FlowSpec
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.robustness.faults import FaultPlan, with_faults
from repro.simulator.connection import ConnectionConfig
from repro.store import UnhashableSpecError, canonical_json, flow_key
from repro.store import keys as keys_module


def _spec(**overrides) -> FlowSpec:
    base = dict(scenario=hsr_scenario(CHINA_MOBILE), duration=10.0, seed=7)
    base.update(overrides)
    return FlowSpec(**base)


class TestFlowKey:
    def test_stable_across_equal_specs(self):
        assert flow_key(_spec()) == flow_key(_spec())

    def test_is_hex_sha256(self):
        key = flow_key(_spec())
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 8},
            {"duration": 11.0},
            {"cc": "newreno"},
            {"channel_seed": 99},
            {"scenario": hsr_scenario(CHINA_TELECOM)},
            {"flow_id": "other"},
        ],
    )
    def test_discriminates_spec_fields(self, changes):
        assert flow_key(_spec()) != flow_key(_spec(**changes))

    def test_telemetry_flag_excluded(self):
        # Collecting counters never changes simulated bytes, so it is no
        # part of a spec and no part of its key: this is the key specs
        # had when a telemetry flag rode on them and was excluded.  A
        # change here orphans every stored entry; bump the schema salt
        # on purpose and re-pin, never silently.
        assert flow_key(_spec()) == (
            "d93de798ed12ffec97d48c2ae225a80a4f9f32df18e68fefde9d45e97cb96ebc"
        )

    def test_explicit_config_spec_hashable(self):
        spec = FlowSpec(config=ConnectionConfig(duration=5.0), seed=3)
        assert flow_key(spec) == flow_key(
            FlowSpec(config=ConnectionConfig(duration=5.0), seed=3)
        )

    def test_fault_plan_scenario_hashable(self):
        # with_faults rides FaultPlan.apply on Scenario.channel_hook as
        # a bound method — content-addressable through its instance.
        plan = FaultPlan.aggressive(0.3)
        faulted = with_faults(hsr_scenario(CHINA_MOBILE), plan)
        spec = _spec(scenario=faulted)
        assert flow_key(spec) == flow_key(_spec(scenario=with_faults(
            hsr_scenario(CHINA_MOBILE), FaultPlan.aggressive(0.3))))
        assert flow_key(spec) != flow_key(_spec())

    def test_opaque_hook_raises(self):
        hooked = hsr_scenario(CHINA_MOBILE).with_channel_hook(
            lambda built, seed: built
        )
        with pytest.raises(UnhashableSpecError) as excinfo:
            flow_key(_spec(scenario=hooked))
        assert "channel_hook" in str(excinfo.value)

    def test_salted_with_engine_schema_version(self, monkeypatch):
        before = flow_key(_spec())
        monkeypatch.setattr(keys_module, "ENGINE_SCHEMA_VERSION", 999)
        assert flow_key(_spec()) != before

    def test_salted_with_cc_registry_version(self, monkeypatch):
        import repro.cc as cc_package

        before = flow_key(_spec())
        monkeypatch.setattr(cc_package, "CC_REGISTRY_VERSION", 999)
        assert flow_key(_spec()) != before


class TestParentKey:
    """Satellite regression: retries resolve to the original flow's key."""

    def test_for_attempt_records_parent(self):
        spec = _spec()
        retry = spec.for_attempt(12345)
        assert retry.parent_key == flow_key(spec)
        assert retry.seed != spec.seed

    def test_retry_key_equals_original_key(self):
        spec = _spec()
        assert flow_key(spec.for_attempt(12345)) == flow_key(spec)

    def test_chained_retries_keep_original_key(self):
        spec = _spec()
        second = spec.for_attempt(1).for_attempt(2)
        assert second.parent_key == flow_key(spec)
        assert flow_key(second) == flow_key(spec)

    def test_parent_key_not_part_of_hash_material(self):
        # A spec that merely *carries* a parent key hashes as that key;
        # the field never feeds the sha256 material itself.
        spec = _spec()
        tagged = spec.with_(parent_key="ab" * 32)
        assert flow_key(tagged) == "ab" * 32


class TestCanonicalJson:
    def test_dict_ordering_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_floats_round_trip_via_repr(self):
        assert '"__float__":"0.1"' in canonical_json(0.1)
        assert canonical_json(0.1) != canonical_json(0.1000000000000001)

    def test_opaque_callable_named_in_error(self):
        with pytest.raises(UnhashableSpecError) as excinfo:
            canonical_json({"hook": lambda: None})
        assert "hook" in str(excinfo.value)
