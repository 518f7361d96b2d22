"""Plain-text result tables for the benchmark harness."""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Callable, Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


class Table:
    """A titled, column-aligned results table.

    >>> t = Table("demo", ["a", "b"])
    >>> t.add_row(a=1, b="x")
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, columns: Sequence[str],
                 note: str = "") -> None:
        self.title = title
        self.columns = list(columns)
        self.note = note
        self.rows: List[Dict[str, Cell]] = []

    def add_row(self, **cells: Cell) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(cells)

    @staticmethod
    def _fmt(value: Cell) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value != value:  # NaN
                return "-"
            if abs(value) >= 1000 or (0 < abs(value) < 0.01):
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        header = self.columns
        body = [[self._fmt(row.get(col)) for col in header]
                for row in self.rows]
        widths = [max(len(header[i]), *(len(r[i]) for r in body))
                  if body else len(header[i]) for i in range(len(header))]
        lines = [f"== {self.title} =="]
        if self.note:
            lines.append(self.note)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"title": self.title, "columns": self.columns, "rows": self.rows},
            indent=2, default=str)

    @staticmethod
    def _slug(title: str) -> str:
        keep = [c if c.isalnum() or c in "._-" else "_"
                for c in title.lower().replace(" ", "_")]
        slug = "".join(keep)
        while "__" in slug:
            slug = slug.replace("__", "_")
        return slug.strip("_")[:80]

    def save(self, directory: Union[str, pathlib.Path],
             stem: Optional[str] = None) -> pathlib.Path:
        """Write both .txt and .json under ``directory``; returns txt path."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stem = stem or self._slug(self.title)
        txt = directory / f"{stem}.txt"
        txt.write_text(self.render() + "\n")
        (directory / f"{stem}.json").write_text(self.to_json() + "\n")
        return txt


def write_payload(payload: dict, name: str,
                  out_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Write a benchmark's JSON payload as ``out_dir / name`` (default:
    ``results/``); returns the path."""
    out_dir = pathlib.Path(out_dir) if out_dir is not None else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def run_cli(parser: argparse.ArgumentParser, argv: Optional[List[str]],
            run: Callable[..., Table], result_name: str) -> int:
    """What every benchmark CLI ends with: the ``--out-dir`` flag, then
    ``run(**flags)`` (each flag's dest is a parameter of ``run``), its
    table printed, and where the payload went."""
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help=f"directory for {result_name} "
                             "(default: results/)")
    args = parser.parse_args(argv)
    print(run(**vars(args)).render())
    out_dir = args.out_dir if args.out_dir is not None else results_dir()
    print(f"[saved to {out_dir / result_name}]")
    return 0


def results_dir() -> pathlib.Path:
    """Default output directory for benchmark artifacts."""
    path = pathlib.Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path
