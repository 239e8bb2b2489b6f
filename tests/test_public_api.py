"""Snapshot tests for the package's public surface.

Guards the advertised API two ways:

* **Resolution** — every ``__all__`` name on every subpackage resolves
  to a real attribute (no stale exports).
* **Snapshot** — the exported-name sets of the consolidated surfaces
  (``repro``, ``repro.context``, ``repro.exec``, ``repro.simulator``,
  ``repro.robustness``, ``repro.telemetry``, ``repro.store``,
  ``repro.scenarios``) are pinned verbatim.  Adding or removing a public name is an API change and must
  update the snapshot here — the diff *is* the review artefact.
"""

import importlib

import pytest

import repro

#: the pinned public surface; sorted, exactly as ``__all__`` declares it
API_SNAPSHOT = {
    "repro": [
        "CCInfo",
        "CampaignReport",
        "CampaignTelemetry",
        "ConnectionConfig",
        "ExecutionResult",
        "Executor",
        "FaultPlan",
        "FlowOutcome",
        "FlowResult",
        "FlowSpec",
        "HookSpec",
        "LinkParams",
        "ModelOptions",
        "RemoteStore",
        "ResultStore",
        "RetryPolicy",
        "RunContext",
        "Scenario",
        "ScenarioDocument",
        "StoreServer",
        "SupervisorPolicy",
        "SyntheticDataset",
        "ThroughputPrediction",
        "Watchdog",
        "__version__",
        "cc_infos",
        "cc_names",
        "compare_models",
        "compile_scenario",
        "current_run_context",
        "describe_cc",
        "deviation_rate",
        "driving_scenario",
        "enhanced_throughput",
        "flow_key",
        "generate_dataset",
        "generate_stationary_reference",
        "hsr_scenario",
        "interrupt_signal",
        "make_sender",
        "mptcp_gain",
        "open_store",
        "padhye_approx_throughput",
        "padhye_full_throughput",
        "padhye_paper_form",
        "register_cc",
        "run_context",
        "run_flow",
        "scenario_names",
        "simulate_spec",
        "stationary_scenario",
        "summarise",
    ],
    "repro.context": [
        "RunContext",
        "current_run_context",
        "run_context",
    ],
    "repro.exec": [
        "ChaosPlan",
        "ExecutionResult",
        "Executor",
        "FlowOutcome",
        "FlowSpec",
        "ProcessPoolBackend",
        "ResolvedFlow",
        "SerialBackend",
        "SupervisedBackend",
        "SupervisorPolicy",
        "clear_interrupt",
        "interrupt_signal",
        "simulate_spec",
    ],
    "repro.cc": [
        "BbrParams",
        "CCInfo",
        "CC_FAMILIES",
        "CC_REGISTRY_VERSION",
        "CompoundParams",
        "CubicParams",
        "RelentlessParams",
        "cc_infos",
        "cc_names",
        "describe_cc",
        "get_cc",
        "make_sender",
        "register_cc",
        "unregister_cc",
    ],
    "repro.simulator": [
        "AckRecord",
        "AckSegment",
        "BaseSender",
        "BbrSender",
        "BernoulliLoss",
        "BottleneckLink",
        "CompositeLoss",
        "CompoundSender",
        "ConnectionConfig",
        "CubicSender",
        "CwndSample",
        "DataPacketRecord",
        "EventHandle",
        "FlowHarness",
        "FlowLog",
        "FlowResult",
        "GilbertElliottLoss",
        "HandoffLoss",
        "Link",
        "LossModel",
        "MAX_BACKOFF_FACTOR",
        "MptcpResult",
        "NewRenoSender",
        "NoLoss",
        "PacketPool",
        "Receiver",
        "RecoveryPhaseRecord",
        "RelentlessSender",
        "RenoSender",
        "RoundCorrelatedLoss",
        "RtoEstimator",
        "Segment",
        "Simulator",
        "TimeoutRecord",
        "TraceDrivenLoss",
        "cc_names",
        "get_cc",
        "make_sender",
        "register_cc",
        "run_backup",
        "run_duplex",
        "run_flow",
        "unregister_cc",
    ],
    "repro.robustness": [
        "CampaignReport",
        "DEFAULT_EVENT_BUDGET",
        "DEFAULT_WALL_CLOCK_S",
        "FAILURE_CLASSES",
        "FaultPlan",
        "FlowFailure",
        "QuarantineRecord",
        "RetryPolicy",
        "ValidationResult",
        "Watchdog",
        "check_trace",
        "validate_trace",
        "with_faults",
    ],
    "repro.telemetry": [
        "COUNTER_NAMES",
        "CampaignTelemetry",
        "FlowTelemetrySummary",
        "ProgressReporter",
        "TimelineEvent",
        "summarise",
        "timeline",
    ],
    "repro.store": [
        "CorruptEntryError",
        "ENGINE_SCHEMA_VERSION",
        "RemoteStore",
        "ResultStore",
        "SCHEMA_VERSION",
        "StoreCircuitBreaker",
        "StoreServer",
        "StoreStats",
        "UnhashableSpecError",
        "canonical_json",
        "decode_entry",
        "decode_outcome",
        "encode_entry",
        "encode_outcome",
        "flow_key",
        "open_store",
        "store_scope",
    ],
    "repro.scenarios": [
        "CellsSpec",
        "ExtraLossSpec",
        "MobilitySpec",
        "ProviderSpec",
        "ScenarioDocument",
        "SchemaError",
        "SourceInfo",
        "compile_document",
        "compile_scenario",
        "document_from_scenario",
        "document_to_dict",
        "document_to_json",
        "document_to_yaml",
        "get_scenario_document",
        "library_dir",
        "library_paths",
        "load_document_file",
        "load_document_text",
        "load_mapping",
        "parse_document",
        "register_document",
        "resolve_scenario_ref",
        "roundtrip_check",
        "scenario_names",
        "unregister_document",
    ],
}


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_headline_exports(self):
        assert callable(repro.enhanced_throughput)
        assert callable(repro.padhye_paper_form)
        assert callable(repro.deviation_rate)
        assert callable(repro.mptcp_gain)
        assert repro.LinkParams is not None

    def test_consolidated_exports(self):
        """The one-import working set: models, flows, campaigns, telemetry."""
        assert callable(repro.run_flow)
        assert callable(repro.generate_dataset)
        assert repro.FlowSpec is not None
        assert repro.Executor is not None
        assert repro.Scenario is not None
        assert repro.FaultPlan is not None
        assert repro.Watchdog is not None
        assert callable(repro.summarise)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module_name", sorted(API_SNAPSHOT))
class TestApiSnapshot:
    """The exported surface is pinned name-for-name."""

    def test_all_matches_snapshot(self, module_name):
        module = importlib.import_module(module_name)
        exported = sorted(module.__all__)
        pinned = sorted(API_SNAPSHOT[module_name])
        added = sorted(set(exported) - set(pinned))
        removed = sorted(set(pinned) - set(exported))
        assert exported == pinned, (
            f"{module_name} public API changed: added {added}, removed "
            f"{removed}; update API_SNAPSHOT in this test if intentional"
        )

    def test_all_is_sorted(self, module_name):
        module = importlib.import_module(module_name)
        assert list(module.__all__) == sorted(module.__all__), (
            f"{module_name}.__all__ must stay sorted for reviewable diffs"
        )


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.cc",
        "repro.context",
        "repro.core",
        "repro.exec",
        "repro.simulator",
        "repro.hsr",
        "repro.scenarios",
        "repro.telemetry",
        "repro.traces",
        "repro.experiments",
        "repro.robustness",
        "repro.store",
        "repro.util",
    ],
)
class TestSubpackages:
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"

    def test_all_has_no_duplicates(self, module_name):
        module = importlib.import_module(module_name)
        names = list(module.__all__)
        assert len(names) == len(set(names)), f"{module_name}.__all__ has duplicates"

    def test_docstring_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40


class TestEndToEndSurface:
    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart must keep working verbatim."""
        from repro import LinkParams, ModelOptions, enhanced_throughput, padhye_paper_form

        hsr = LinkParams(
            rtt=0.12, timeout=0.8, data_loss=0.0075, ack_loss=0.0066,
            recovery_loss=0.27, wmax=64.0, b=2,
        )
        enhanced = enhanced_throughput(hsr)
        baseline = padhye_paper_form(hsr)
        bursty = enhanced_throughput(hsr, ModelOptions(ack_burst_override=0.10))
        assert 0.0 < bursty.throughput < enhanced.throughput < baseline.throughput

    def test_simulator_snippet_from_readme(self):
        from repro.hsr import CHINA_TELECOM, hsr_scenario
        from repro.simulator import run_flow

        scenario = hsr_scenario(CHINA_TELECOM)
        built = scenario.build(duration=20.0, seed=7)
        result = run_flow(built.config, built.data_loss, built.ack_loss, seed=7)
        assert result.throughput > 0.0

    def test_instrumented_flow_from_top_level(self):
        """The consolidated surface runs a flow and counts it end to end."""
        from repro import ConnectionConfig, run_flow, summarise

        summary = summarise(run_flow(ConnectionConfig(duration=5.0)))
        assert summary.get("packets_sent") > 0
        assert summary.get("events_fired") > 0
