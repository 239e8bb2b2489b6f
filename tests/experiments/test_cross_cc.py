"""Tests for the cross_cc experiment (the CC-zoo campaign sweep)."""

import pytest

from repro.cc import cc_names
from repro.experiments.cross_cc import resolve_cc_selection, run
from repro.experiments.registry import run_experiment
from repro.context import run_context
from repro.store import ResultStore
from repro.util.errors import ConfigurationError


class TestSelection:
    def test_all_expands_to_registry_in_registration_order(self):
        selection = resolve_cc_selection("all")
        assert set(selection) == set(cc_names())
        assert selection[0] == "reno"

    def test_none_and_empty_mean_all(self):
        assert resolve_cc_selection(None) == resolve_cc_selection("all")
        assert resolve_cc_selection("  ") == resolve_cc_selection("all")

    def test_comma_separated_list(self):
        assert resolve_cc_selection("cubic, bbr") == ("cubic", "bbr")

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError, match="newreno"):
            resolve_cc_selection("cubic,vegas")


class TestExperiment:
    def test_small_sweep_produces_per_cc_rows(self):
        result = run(scale=0.05, seed=77, cc="reno,bbr")
        assert [row["cc"] for row in result.rows] == ["reno", "bbr"]
        for row in result.rows:
            assert row["flows"] >= 4  # one per Table-I cell
            assert row["mean_tput_pps"] > 0.0
            assert row["family"] in ("loss-based", "delay-based", "rate-based")
        assert result.headline["sim_bbr_pps"] > 0.0
        assert result.headline["best_cc_pps"] >= result.headline["worst_cc_pps"]

    def test_registry_threads_cc_kwarg(self):
        result = run_experiment("cross_cc", scale=0.05, seed=77, cc="reno")
        assert [row["cc"] for row in result.rows] == ["reno"]

    def test_warm_store_rerun_identical_with_zero_simulated(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        with run_context(store=store):
            cold = run(scale=0.05, seed=78, cc="cubic")
        cold_err = capsys.readouterr().err
        assert "flows simulated=4" in cold_err
        with run_context(store=store):
            warm = run(scale=0.05, seed=78, cc="cubic")
        warm_err = capsys.readouterr().err
        assert "store hits=4 flows simulated=0" in warm_err
        assert warm == cold  # the result itself is byte-identical
