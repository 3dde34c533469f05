"""Plain-text tables and series for benchmark output.

Benchmarks regenerate the paper's tables and figures as text; these
helpers keep the formatting uniform and the harness code short.  Every
experiment returns one :class:`Table`: its rows are plain dicts of
JSON-ready values, and its columns say how to print them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Table", "format_table", "format_bytes", "format_seconds", "format_bars", "format_stack",
    "banner",
]

#: Turns one cell's value into its printed text.
Formatter = Callable[[Any], str]


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def format_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024 or unit == "TB":
            return f"{n:,.2f} {unit}" if unit != "B" else f"{n:,.0f} B"
        n /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    if s >= 100:
        return f"{s:,.0f} s"
    if s >= 1:
        return f"{s:.2f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f} ms"
    return f"{s * 1e6:.1f} µs"


def format_stack(degrees: Sequence[int]) -> str:
    """A degree stack as the paper writes it: ``8x4x2``."""
    return "x".join(map(str, degrees))


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], *, title: str = ""
) -> str:
    """ASCII table with right-aligned numeric-ish columns."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(banner(title))
    lines.append(fmt_row(headers))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(r) for r in str_rows)
    return "\n".join(lines)


def format_bars(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 46,
    fmt=None,
) -> str:
    """Horizontal ASCII bar chart (the text rendering of a paper figure).

    Bars scale to the maximum value; ``fmt`` formats the value suffix
    (defaults to 3-significant-figure floats).
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        return "(no data)"
    top = max(values)
    fmt = fmt or (lambda v: f"{v:.3g}")
    label_w = max(len(str(l)) for l in labels)
    lines = []
    for label, v in zip(labels, values):
        n = int(round(width * (v / top))) if top > 0 else 0
        lines.append(f"{str(label):>{label_w}} |{'█' * n:<{width}}| {fmt(v)}")
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.4g}"
    return str(value)


@dataclass
class Table:
    """One experiment's result: titled rows under declared columns.

    ``columns`` are ``(key, header, formatter)``; a row may carry keys no
    column prints (values a caller reads but the paper's table omits).
    ``bars`` is an optional ``(label key, value key, formatter)`` chart
    printed under the table, and ``note`` one line after that.
    """

    title: str
    columns: Sequence[Tuple[str, str, Formatter]]
    rows: List[Dict[str, Any]]
    bars: Optional[Tuple[str, str, Formatter]] = None
    note: str = ""

    def table(self) -> str:
        text = format_table(
            [header for _, header, _ in self.columns],
            [[fmt(row[key]) for key, _, fmt in self.columns] for row in self.rows],
            title=self.title,
        )
        if self.bars:
            label, value, fmt = self.bars
            text += "\n\n" + format_bars(self.column(label), self.column(value), fmt=fmt)
        if self.note:
            text += "\n" + self.note
        return text

    def row(self, **match) -> Dict[str, Any]:
        """The one row whose values equal ``match``; ``LookupError`` unless
        exactly one row matches."""
        found = [r for r in self.rows if all(r.get(k) == v for k, v in match.items())]
        if len(found) != 1:
            raise LookupError(f"{len(found)} rows of {self.title!r} match {match}")
        return found[0]

    def column(self, key: str) -> List[Any]:
        return [row[key] for row in self.rows]
