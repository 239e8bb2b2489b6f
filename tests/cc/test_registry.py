"""Tests for the public repro.cc registry: CCInfo, describe_cc, params."""

import dataclasses

import pytest

from repro.cc import (
    BbrParams,
    CC_FAMILIES,
    CC_REGISTRY_VERSION,
    CCInfo,
    CompoundParams,
    CubicParams,
    RelentlessParams,
    cc_infos,
    cc_names,
    describe_cc,
    get_cc,
    make_sender,
    register_cc,
    unregister_cc,
)
from repro.util.errors import ConfigurationError


class TestRegistryVersion:
    def test_bumped_for_the_zoo(self):
        # The zoo changed what a cc name can mean; cached flow results
        # keyed under version 1 must not be served.
        assert CC_REGISTRY_VERSION == 2


class TestCcInfos:
    def test_registration_order_not_alphabetical(self):
        names = [info.name for info in cc_infos()]
        assert names[:2] == ["reno", "newreno"]  # the paper's variants first
        assert set(names) == set(cc_names())

    def test_cc_names_stays_sorted(self):
        assert list(cc_names()) == sorted(cc_names())

    def test_every_builtin_has_metadata(self):
        for info in cc_infos():
            assert info.family in CC_FAMILIES
            assert info.summary
            assert info.docs
            assert callable(info.factory)

    def test_families_cover_the_zoo(self):
        families = {info.name: info.family for info in cc_infos()}
        assert families["reno"] == "loss-based"
        assert families["cubic"] == "loss-based"
        assert families["compound"] == "delay-based"
        assert families["bbr"] == "rate-based"

    def test_params_types_attached(self):
        assert describe_cc("cubic").params_type is CubicParams
        assert describe_cc("bbr").params_type is BbrParams
        assert describe_cc("compound").params_type is CompoundParams
        assert describe_cc("relentless").params_type is RelentlessParams
        assert describe_cc("reno").params_type is None


class TestDescribeCc:
    def test_returns_the_registered_record(self):
        info = describe_cc("cubic")
        assert isinstance(info, CCInfo)
        assert info.name == "cubic"
        assert get_cc("cubic") is info.factory

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="newreno"):
            describe_cc("vegas")


class TestRegisterWithInfo:
    def test_ccinfo_form_round_trips(self):
        info = CCInfo(
            name="test-info",
            factory=object,
            family="rate-based",
            summary="registration test",
        )
        registered = register_cc(info)
        try:
            assert registered is info
            assert describe_cc("test-info") is info
            assert cc_infos()[-1] is info
        finally:
            unregister_cc("test-info")

    def test_legacy_two_arg_form_synthesises_info(self):
        register_cc("test-legacy", object)
        try:
            info = describe_cc("test-legacy")
            assert info.factory is object
            assert info.family == "loss-based"  # the default
        finally:
            unregister_cc("test-legacy")

    def test_info_validation(self):
        with pytest.raises(ConfigurationError, match="family"):
            CCInfo(name="x", factory=object, family="psychic")
        with pytest.raises(ConfigurationError, match="not callable"):
            CCInfo(name="x", factory=42)
        with pytest.raises(ConfigurationError):
            CCInfo(name="", factory=object)

    def test_factory_error_names_the_protocol(self):
        # The constructor-protocol contract lives on BaseSender; the
        # registry's error must point readers there.
        with pytest.raises(ConfigurationError, match="BaseSender"):
            CCInfo(name="x", factory=7)


class TestParamsValidation:
    def test_frozen_and_keyword_only(self):
        params = CubicParams(beta=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.beta = 0.9
        with pytest.raises(TypeError):
            CubicParams(0.4)  # positional forbidden

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CubicParams(beta=1.5),
            lambda: CubicParams(c=-1.0),
            lambda: BbrParams(startup_gain=0.5),
            lambda: BbrParams(pacing_quantum=0),
            lambda: CompoundParams(alpha=-0.1),
            lambda: CompoundParams(k=1.5),
            lambda: RelentlessParams(decrement=-2.0),
        ],
    )
    def test_bad_knobs_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            factory()


class TestMakeSenderParams:
    def test_params_threaded_as_kwargs(self):
        seen = {}

        def factory(simulator, data_link, log, **kwargs):
            seen.update(kwargs)
            return "sender"

        register_cc(
            CCInfo(
                name="test-params",
                factory=factory,
                params_type=CubicParams,
            )
        )
        try:
            make_sender(
                "test-params", "sim", "link", "log",
                cc_params=CubicParams(beta=0.6),
            )
            assert seen["beta"] == 0.6
            assert seen["c"] == 0.4
        finally:
            unregister_cc("test-params")

    def test_wrong_params_type_rejected(self):
        with pytest.raises(ConfigurationError, match="CubicParams"):
            make_sender(
                "cubic", "sim", "link", "log", cc_params=BbrParams()
            )

    def test_params_on_paramless_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="no cc_params"):
            make_sender(
                "reno", "sim", "link", "log", cc_params=CubicParams()
            )
