"""Unit tests for the congestion-control registry's core functions.

The metadata, params and CLI tests live in ``tests/cc/``.
"""

import pytest

from repro.cc import (
    cc_names,
    get_cc,
    make_sender,
    register_cc,
    unregister_cc,
)
from repro.simulator.newreno import NewRenoSender
from repro.simulator.reno import RenoSender
from repro.util.errors import ConfigurationError


class TestBuiltins:
    def test_paper_variants_registered(self):
        assert "reno" in cc_names()
        assert "newreno" in cc_names()
        assert get_cc("reno") is RenoSender
        assert get_cc("newreno") is NewRenoSender

    def test_zoo_variants_registered(self):
        for name in ("cubic", "bbr", "compound", "relentless"):
            assert name in cc_names()

    def test_names_sorted(self):
        assert list(cc_names()) == sorted(cc_names())


class TestRegistration:
    def test_register_and_unregister(self):
        sentinel = object

        register_cc("test-variant", sentinel)
        try:
            assert get_cc("test-variant") is sentinel
            assert "test-variant" in cc_names()
        finally:
            unregister_cc("test-variant")
        assert "test-variant" not in cc_names()

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_cc("reno", RenoSender)

    def test_replace_allows_override(self):
        register_cc("reno", RenoSender, replace=True)
        assert get_cc("reno") is RenoSender

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_cc("", RenoSender)

    def test_non_callable_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="not callable"):
            register_cc("broken", 42)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="newreno"):
            get_cc("vegas")

    def test_unregister_missing_is_noop(self):
        unregister_cc("never-registered")


class TestMakeSender:
    def test_passes_kwargs_to_factory(self):
        seen = {}

        def factory(simulator, data_link, log, **kwargs):
            seen.update(kwargs, simulator=simulator)
            return "sender"

        register_cc("probe", factory)
        try:
            result = make_sender("probe", "sim", "link", "log", wmax=16.0)
            assert result == "sender"
            assert seen == {"simulator": "sim", "wmax": 16.0}
        finally:
            unregister_cc("probe")
