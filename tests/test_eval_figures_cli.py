"""Tests for the figure-reproduction entry points and their CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.eval import figures
from repro.eval.runner import ExperimentScale
from repro.runtime import CallableItem, ProcessExecutor, WorkPlan

TINY = ExperimentScale(num_nodes=120, epochs=8, mcmc_iterations=15, seed=0)


class TestFigureFunctions:
    def test_figure7_structure(self, capsys):
        result = figures.figure7(scale=TINY, datasets=("facebook",), verbose=True)
        captured = capsys.readouterr().out
        assert "Workload CDF" in captured
        stats = result["facebook"]
        assert stats["max_with_trimming"] <= stats["max_without_trimming"]
        assert 0.0 <= max(stats["cdf_with_trimming"].values()) <= 1.0

    def test_figure8_structure(self, capsys):
        result = figures.figure8(scale=TINY, datasets=("lastfm",), verbose=True)
        assert "lastfm/supervised" in result and "lastfm/unsupervised" in result
        for values in result.values():
            assert values["rounds_with_trimming"] <= values["rounds_without_trimming"]
            assert 0.0 <= values["rounds_saving_percent"] <= 100.0

    def test_figure5_sweep_keys(self):
        result = figures.figure5(
            scale=TINY, datasets=("facebook",), epsilons=(1.0, 4.0), verbose=False
        )
        assert set(result) == {"supervised", "unsupervised"}
        assert set(result["supervised"]["facebook"]) == {1.0, 4.0}

    def test_figures_registry_is_complete(self):
        assert set(figures.FIGURES) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "headline",
            "robustness", "maintenance",
        }

    def test_scale_from_name(self):
        assert figures._scale_from_name("small").num_nodes == 300
        assert figures._scale_from_name("paper").num_nodes is None
        with pytest.raises(KeyError):
            figures._scale_from_name("huge")


class TestFigureCLI:
    def test_main_runs_a_cheap_figure(self, capsys, monkeypatch):
        # Patch the registry entry so the CLI path is exercised without a full
        # training run; the real figure functions are covered above.
        calls = {}

        def fake_figure(scale, executor=None):
            calls["scale"] = scale
            calls["executor"] = executor
            if executor is not None:  # prove the CLI-built pool is live right now
                plan = WorkPlan([CallableItem(target="math:sqrt", args=(9.0,))])
                calls["pool_value"] = plan.values(executor.execute(plan).records)
            return {"facebook": {"max_with_trimming": 3.0}}

        monkeypatch.setitem(figures.FIGURES, "fig7", fake_figure)
        exit_code = figures.main(["fig7", "--scale", "small"])
        assert exit_code == 0
        assert calls["scale"].num_nodes == 300
        assert calls["executor"] is None  # --executor serial is the default

        # --workers implies the process pool, built by the CLI itself over one
        # spill directory for the whole invocation.
        assert figures.main(["fig7", "--workers", "2"]) == 0
        assert isinstance(calls["executor"], ProcessExecutor)
        assert calls["executor"].max_workers == 2
        assert calls["pool_value"] == [3.0]
        capsys.readouterr()  # drain output; JSON parsing is covered below

    def test_json_dump_parses(self, capsys, monkeypatch):
        monkeypatch.setitem(
            figures.FIGURES,
            "fig8",
            lambda scale, executor=None: {"x": np.float64(1.5), "y": np.array([1, 2])},
        )
        figures.main(["fig8", "--json"])
        output = capsys.readouterr().out
        start = output.index("{")
        payload = json.loads(output[start:])
        assert payload == {"fig8": {"x": 1.5, "y": [1, 2]}}
