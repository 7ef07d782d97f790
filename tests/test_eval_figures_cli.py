"""Tests for the figure-reproduction entry points and their CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.engine import ArtifactStore
from repro.eval import figures
from repro.eval.runner import ExperimentScale

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

        def fake_figure(scale, store):
            calls["scale"] = scale
            return {"facebook": {"max_with_trimming": 3.0}}

        monkeypatch.setitem(figures.FIGURES, "fig7", fake_figure)
        exit_code = figures.main(["fig7", "--scale", "small"])
        assert exit_code == 0
        assert calls["scale"].num_nodes == 300
        capsys.readouterr()  # drain output; JSON parsing is covered below

    def test_one_invocation_runs_every_figure_on_one_store(self, capsys, monkeypatch):
        stores = {}
        for name in figures.FIGURES:

            def fake_figure(scale, _name=name, **kwargs):
                stores[_name] = kwargs.get("store")
                return {}

            monkeypatch.setitem(figures.FIGURES, name, fake_figure)
        assert figures.main(["all"]) == 0
        capsys.readouterr()
        # The churn run keeps its own stores; every other figure shares one.
        assert stores.pop("maintenance") is None
        shared = {id(store) for store in stores.values()}
        assert len(shared) == 1 and isinstance(stores["fig3"], ArtifactStore)

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--executor", "process"]])
    def test_scheduling_flags_are_gone(self, flag, capsys):
        # A plan is one loop on one store: the CLI has nothing to schedule.
        with pytest.raises(SystemExit):
            figures.main(["fig7", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_dump_parses(self, capsys, monkeypatch):
        monkeypatch.setitem(
            figures.FIGURES,
            "fig8",
            lambda scale, store: {"x": np.float64(1.5), "y": np.array([1, 2])},
        )
        figures.main(["fig8", "--json"])
        output = capsys.readouterr().out
        start = output.index("{")
        payload = json.loads(output[start:])
        assert payload == {"fig8": {"x": 1.5, "y": [1, 2]}}

    def test_trace_writes_one_main_track_and_a_summary(self, capsys, monkeypatch, tmp_path):
        def traced_figure(scale, store):
            with obs.span("figure.body", rows=2):
                obs.add_counter("figure.cells", 3.0)
            return {"cells": 3}

        monkeypatch.setitem(figures.FIGURES, "fig7", traced_figure)
        path = tmp_path / "trace.json"
        assert figures.main(["fig7", "--trace", str(path)]) == 0
        assert obs.current_tracer() is None  # the CLI's tracer is uninstalled
        events = json.loads(path.read_text())["traceEvents"]
        tracks = [event for event in events if event["name"] == "thread_name"]
        assert [track["args"]["name"] for track in tracks] == ["main"]
        spans = [event for event in events if event["ph"] == "X"]
        assert [(span["name"], span["tid"]) for span in spans] == [
            ("figure.body", tracks[0]["tid"])
        ]
        assert spans[0]["args"]["rows"] == 2
        table = capsys.readouterr().out.split("trace written to", 1)[1]
        assert "figure.body" in table
        assert "figure.cells" in table
