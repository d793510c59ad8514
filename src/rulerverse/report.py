"""Aggregate tables, agreement exports, and dependency-free radar charts.

Pure transformation of completed run artifacts.  Every cell carries its sample
count, all floats are rounded only at serialization time, and SVG bytes are a
deterministic function of the input, so hashing them is a valid regression
test.
"""
from __future__ import annotations

import csv
import io
import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import RULER_SCALE, to_percentage
from .errors import ChartError, CorpusFormatError, EmptyRun, OutOfRange
from .metrics import AgreementReport, ClassificationReport
from .ruler import Criterion, RubricScorecard
from .verse import CATEGORIES, VerseGrade, VerseQuestion, aggregate_categories

log = logging.getLogger(__name__)

# reporting order for the rubric block matches the aggregate tables:
# honorifics, syntax, lexical, content
RULER_COLUMNS = (
    Criterion.HONORIFICS,
    Criterion.SYNTAX_GRAMMAR,
    Criterion.LEXICAL_CHOICE,
    Criterion.CONTENT_ACCURACY,
)


@dataclass(frozen=True)
class Cell:
    value: float | None
    n: int


@dataclass
class AggregateTable:
    systems: list[str]
    ruler: dict[str, dict[Criterion, Cell]]
    verse_categories: dict[str, dict[str, Cell]]
    verse_mean: dict[str, Cell]
    mapping: str = "minmax"
    extra_columns: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)


def _mean_cell(values: Sequence[float]) -> Cell:
    if not values:
        return Cell(value=None, n=0)
    return Cell(value=sum(values) / len(values), n=len(values))


def aggregate_table(
    scorecards: Sequence[RubricScorecard],
    grades: Sequence[VerseGrade],
    questions: Sequence[VerseQuestion],
    mapping: str = "minmax",
) -> AggregateTable:
    """Mean percentages per system: four rubric columns, nine question
    categories, and a Mean column over the category cells that have data."""
    if not scorecards and not grades:
        raise EmptyRun("no scorecards and no grades to aggregate")

    systems = sorted(
        {c.system_id for c in scorecards} | {g.system_id for g in grades}
    )

    ruler_cells: dict[str, dict[Criterion, Cell]] = {}
    for system in systems:
        cards = [c for c in scorecards if c.system_id == system]
        ruler_cells[system] = {
            criterion: _mean_cell(
                [to_percentage(c.scores[criterion], RULER_SCALE, mapping) for c in cards]
            )
            for criterion in RULER_COLUMNS
        }

    verse_cells: dict[str, dict[str, Cell]] = {}
    verse_mean: dict[str, Cell] = {}
    for system in systems:
        system_grades = [g for g in grades if g.system_id == system]
        if not system_grades:
            verse_cells[system] = {c: Cell(None, 0) for c in CATEGORIES}
            verse_mean[system] = Cell(None, 0)
            continue
        aggregates = aggregate_categories(questions, system_grades, mapping)
        verse_cells[system] = {
            c: Cell(aggregates[c].mean_score_percent, aggregates[c].n) for c in CATEGORIES
        }
        with_data = [cell.value for cell in verse_cells[system].values() if cell.value is not None]
        verse_mean[system] = Cell(
            value=sum(with_data) / len(with_data) if with_data else None,
            n=sum(cell.n for cell in verse_cells[system].values()),
        )

    return AggregateTable(
        systems=systems,
        ruler=ruler_cells,
        verse_categories=verse_cells,
        verse_mean=verse_mean,
        mapping=mapping,
    )


def append_baseline_columns(table: AggregateTable, rows: Iterable[Mapping[str, str]],
                            where: str = "baseline CSV") -> None:
    """Attach externally computed metric columns, read from the CSV `where` names, to the table.

    Expected row shape: {"system_id": ..., "<metric>": value, ...}.  Values are
    imported verbatim as extra columns; nothing is ever computed in-tool.
    """
    for row in rows:
        system = row.get("system_id")
        if system is None:
            raise CorpusFormatError(f"{where}: needs a system_id column")
        for column, value in row.items():
            if column == "system_id" or value in (None, ""):
                continue
            try:
                number = float(value)
                if not math.isfinite(number):  # no JSON artifact can hold nan or inf
                    raise ValueError
            except (TypeError, ValueError):  # TypeError: a row with more cells than the header
                raise CorpusFormatError(f"{where}: column {column!r}, system {system!r}: "
                                        f"{value!r} is not a finite number") from None
            table.extra_columns.setdefault(column, {})[system] = number


def _fmt(value: float | None, digits: int = 2) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def table_to_csv(table: AggregateTable) -> str:
    """One row per system; each metric column is followed by its _n column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["system_id"]
    for criterion in RULER_COLUMNS:
        header += [criterion.display_name, f"{criterion.display_name}_n"]
    for category in CATEGORIES:
        header += [category, f"{category}_n"]
    header += ["VERSE Mean", "VERSE Mean_n"]
    header += sorted(table.extra_columns)
    writer.writerow(header)
    for system in table.systems:
        row: list[str] = [system]
        for criterion in RULER_COLUMNS:
            cell = table.ruler[system][criterion]
            row += [_fmt(cell.value), str(cell.n)]
        for category in CATEGORIES:
            cell = table.verse_categories[system][category]
            row += [_fmt(cell.value), str(cell.n)]
        mean = table.verse_mean[system]
        row += [_fmt(mean.value), str(mean.n)]
        for column in sorted(table.extra_columns):
            value = table.extra_columns[column].get(system)
            row.append(_fmt(value, 4))
        writer.writerow(row)
    return buf.getvalue()


def table_to_dict(table: AggregateTable) -> dict:
    return {
        "mapping": table.mapping,
        "systems": list(table.systems),
        "ruler": {
            system: {
                criterion.value: {"value": cell.value, "n": cell.n}
                for criterion, cell in table.ruler[system].items()
            }
            for system in table.systems
        },
        "verse_categories": {
            system: {
                category: {"value": cell.value, "n": cell.n}
                for category, cell in table.verse_categories[system].items()
            }
            for system in table.systems
        },
        "verse_mean": {
            system: {"value": table.verse_mean[system].value, "n": table.verse_mean[system].n}
            for system in table.systems
        },
        "extra_columns": {k: dict(v) for k, v in table.extra_columns.items()},
        "notes": dict(table.notes),
    }


def agreement_to_csv(reports: Mapping[str, AgreementReport]) -> str:
    """Channel rows with the tau, rho, MSE, alpha column ordering."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["channel", "tau", "rho", "mse", "alpha", "n_items", "n_raters"])
    for channel, report in reports.items():
        writer.writerow(
            [
                channel,
                _undef(report.tau),
                _undef(report.rho),
                _undef(report.mse),
                _undef(report.alpha),
                report.n_items,
                report.n_raters,
            ]
        )
    return buf.getvalue()


def _undef(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def confusion_to_csv(report: ClassificationReport) -> str:
    """Gold rows x predicted columns with marginal totals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    labels = list(report.label_order)
    writer.writerow(["gold\\pred"] + [str(l) for l in labels] + ["total"])
    for gold in labels:
        row = [report.confusion[gold][pred] for pred in labels]
        writer.writerow([str(gold)] + [str(v) for v in row] + [str(sum(row))])
    col_totals = [sum(report.confusion[gold][pred] for gold in labels) for pred in labels]
    writer.writerow(["total"] + [str(v) for v in col_totals] + [str(report.n_items)])
    return buf.getvalue()


# -- radar chart --

_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#eeca3b", "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)

_SVG_SIZE = 640
_LEGEND_WIDTH = 240


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def radar_svg(
    axes: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    axis_min: float = 0.0,
) -> bytes:
    """Render one polygon per series over the given axes as standalone SVG.

    Values are percents in [axis_min, 100]; anything below axis_min is clamped
    with a warning (mirroring plots whose radial axis starts above zero).
    Identical input yields byte-identical output: coordinates use fixed
    two-decimal precision and there are no timestamps.
    """
    if len(axes) < 3:
        raise ChartError(f"radar needs at least 3 axes, got {len(axes)}")
    if not 0.0 <= axis_min < 100.0:
        raise ValueError("axis_min must be in [0, 100)")

    clamped_series: list[tuple[str, list[float]]] = []
    for name, values in series:
        if len(values) != len(axes):
            raise ChartError(f"series {name!r} has {len(values)} values for {len(axes)} axes")
        clamped: list[float] = []
        for value in values:
            if value > 100.0:
                raise OutOfRange(int(value), int(axis_min), 100)
            if value < axis_min:
                warnings.warn(
                    f"series {name!r}: value {value:.2f} below axis minimum "
                    f"{axis_min:.2f}, clamped",
                    stacklevel=2,
                )
                value = axis_min
            clamped.append(value)
        clamped_series.append((name, clamped))

    size = _SVG_SIZE
    width = size + _LEGEND_WIDTH
    cx = cy = size / 2.0
    radius = size / 2.0 - 70.0
    span = 100.0 - axis_min

    def point(axis_index: int, value: float) -> tuple[float, float]:
        angle = -math.pi / 2.0 + 2.0 * math.pi * axis_index / len(axes)
        r = radius * (value - axis_min) / span
        return cx + r * math.cos(angle), cy + r * math.sin(angle)

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{size}" '
        f'viewBox="0 0 {width} {size}">',
        f'<rect width="{width}" height="{size}" fill="white"/>',
    ]

    # grid rings and spokes
    for ring in range(1, 5):
        level = axis_min + span * ring / 4.0
        ring_points = " ".join(
            "{:.2f},{:.2f}".format(*point(i, level)) for i in range(len(axes))
        )
        parts.append(
            f'<polygon points="{ring_points}" fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{cx + 4:.2f}" y="{cy - radius * ring / 4.0 - 3:.2f}" '
            f'font-size="10" fill="#888888">{level:.0f}</text>'
        )
    for i, axis in enumerate(axes):
        lx, ly = point(i, 100.0)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{lx:.2f}" y2="{ly:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
        anchor = "middle"
        if lx > cx + 1:
            anchor = "start"
        elif lx < cx - 1:
            anchor = "end"
        offset = -6 if ly <= cy else 12
        parts.append(
            f'<text x="{lx:.2f}" y="{ly + offset:.2f}" font-size="11" '
            f'text-anchor="{anchor}" fill="#333333">{_escape(axis)}</text>'
        )

    for idx, (name, values) in enumerate(clamped_series):
        color = _PALETTE[idx % len(_PALETTE)]
        shape = " ".join(
            "{:.2f},{:.2f}".format(*point(i, value)) for i, value in enumerate(values)
        )
        parts.append(
            f'<polygon points="{shape}" fill="{color}" fill-opacity="0.15" '
            f'stroke="{color}" stroke-width="2"/>'
        )

    # legend
    for idx, (name, _) in enumerate(clamped_series):
        color = _PALETTE[idx % len(_PALETTE)]
        y = 30 + 22 * idx
        parts.append(
            f'<rect x="{size + 10}" y="{y - 10}" width="14" height="14" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{size + 30}" y="{y + 2}" font-size="12" fill="#333333">'
            f"{_escape(name)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")
