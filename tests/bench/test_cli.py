"""The `python -m repro.bench` experiment CLI."""

import importlib

import pytest

from repro.bench.__main__ import _runners, main
from repro.bench.registry import ARTIFACTS


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "table1" in out


def test_unknown_experiment(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_runs_fast_experiments(capsys, tmp_path, monkeypatch):
    import repro.bench.__main__ as cli

    monkeypatch.setattr(cli, "results_dir", lambda: tmp_path)
    assert main(["table1", "power"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "power and area" in out
    assert list(tmp_path.glob("*.txt"))


def test_every_registered_artifact_bench_is_a_runner():
    """``all`` regenerates every committed ``BENCH_*.json``: each
    registered module's ``run_<module>`` is the runner of that name."""
    runners = _runners()
    for module in ARTIFACTS.values():
        name = module.rsplit(".", 1)[1]
        assert runners.get(name) is getattr(
            importlib.import_module(module), f"run_{name}"), name
