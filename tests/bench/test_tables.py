"""Results-table harness tests."""

import json

import pytest

from repro.bench.tables import Table


def test_render_alignment():
    t = Table("demo", ["name", "value"])
    t.add_row(name="alpha", value=1.5)
    t.add_row(name="b", value=None)
    out = t.render()
    assert "== demo ==" in out
    lines = out.splitlines()
    assert len({len(line) for line in lines[1:]}) <= 2  # aligned widths
    assert "-" in lines[-1] or "alpha" in out


def test_unknown_column_rejected():
    t = Table("demo", ["a"])
    with pytest.raises(KeyError):
        t.add_row(b=1)


def test_float_formatting():
    t = Table("demo", ["v"])
    assert t._fmt(1234567.0) == "1.23e+06"
    assert t._fmt(3.14159) == "3.142"
    assert t._fmt(None) == "-"
    assert t._fmt(float("nan")) == "-"
    assert t._fmt(7) == "7"


def test_save_round_trip(tmp_path):
    t = Table("My Title", ["a", "b"], note="a note")
    t.add_row(a=1, b="x")
    path = t.save(tmp_path)
    assert path.exists()
    data = json.loads((tmp_path / "my_title.json").read_text())
    assert data["rows"] == [{"a": 1, "b": "x"}]
