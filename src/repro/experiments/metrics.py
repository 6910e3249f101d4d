"""Small measurement containers: CDFs and labelled series."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


class Cdf:
    """An empirical cumulative distribution over float samples."""

    def __init__(self, samples: Iterable[float]):
        self._sorted = sorted(samples)
        if not self._sorted:
            raise ValueError("a CDF needs at least one sample")

    @property
    def samples(self) -> List[float]:
        """The samples, ascending."""
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self._sorted)

    def fraction_below(self, value: float) -> float:
        """P(X <= value)."""
        return bisect.bisect_right(self._sorted, value) / len(self._sorted)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), by nearest-rank.

        The endpoints are exact: ``q=0.0`` is the minimum and ``q=1.0``
        the maximum, independent of sample count — the nearest-rank
        rounding below is never trusted with them.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self._sorted[0]
        if q == 1.0:
            return self._sorted[-1]
        rank = max(0, min(len(self._sorted) - 1,
                          int(q * len(self._sorted) + 0.5) - 1))
        return self._sorted[rank]

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.quantile(0.5)


@dataclass
class Series:
    """One labelled line of (x, y) points, as the figures plot them."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append a point."""
        self.points.append((x, y))

    def xs(self) -> List[float]:
        """The x coordinates in order."""
        return [x for x, _y in self.points]

    def ys(self) -> List[float]:
        """The y coordinates in order."""
        return [y for _x, y in self.points]


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A plain-text table (what the benchmark harness prints)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells
        else len(headers[col])
        for col in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(value.rjust(widths[col]) for col, value in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def render_chart(series_list: Sequence["Series"], *, width: int = 60,
                 height: int = 16, x_label: str = "x",
                 y_label: str = "y") -> str:
    """An ASCII scatter chart of several series, one marker per series.

    Rough but genuinely useful for eyeballing the evaluation shapes in a
    terminal — the benchmark harness appends one below each table.
    """
    markers = "ox+*#@%&"
    points = [(x, y) for series in series_list for x, y in series.points]
    if not points:
        return "(no data)"
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(series_list):
        marker = markers[index % len(markers)]
        for x, y in series.points:
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][column] = marker
    lines = [f"{y_label} [{y_low:g} .. {y_high:g}]"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} [{x_low:g} .. {x_high:g}]")
    legend = "  ".join(
        f"{markers[index % len(markers)]}={series.label}"
        for index, series in enumerate(series_list))
    lines.append(" " + legend)
    return "\n".join(lines)


def render_series(series_list: Sequence[Series], x_label: str, y_label: str,
                  max_rows: int = 0) -> str:
    """Print several series as aligned columns, one block per series.

    ``max_rows`` > 0 downsamples long series evenly (always keeping the
    first and last point) so timelines stay readable.
    """
    blocks = []
    for series in series_list:
        points = series.points
        if max_rows and len(points) > max_rows:
            step = (len(points) - 1) / (max_rows - 1)
            indices = sorted({round(i * step) for i in range(max_rows)})
            points = [points[index] for index in indices]
        rows = [(f"{x:g}", f"{y:g}") for x, y in points]
        blocks.append(series.label + "\n" + render_table(
            [x_label, y_label], rows))
    return "\n\n".join(blocks)
