from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulerverse.corpus import RULER_SCALE, VERSE_SCALE, ScoreScale, to_percentage
from rulerverse.errors import ChartError, EmptyRun, OutOfRange
from rulerverse.report import (
    aggregate_table,
    agreement_to_csv,
    append_baseline_columns,
    confusion_to_csv,
    radar_svg,
    table_to_csv,
    table_to_dict,
)
from rulerverse.metrics import AgreementReport, per_label_prf
from rulerverse.ruler import CRITERIA, RubricScorecard
from rulerverse.verse import CATEGORIES, VerseGrade, VerseQuestion


# -- percentage mapping --

def test_to_percentage_endpoints():
    assert to_percentage(5, RULER_SCALE) == 100.0
    assert to_percentage(1, RULER_SCALE) == 0.0
    assert to_percentage(2, VERSE_SCALE) == 50.0
    assert to_percentage(3, VERSE_SCALE) == 100.0


def test_to_percentage_ratio_mapping():
    assert to_percentage(5, RULER_SCALE, "ratio") == 100.0
    assert to_percentage(1, RULER_SCALE, "ratio") == pytest.approx(20.0)
    assert to_percentage(3, VERSE_SCALE, "ratio") == 100.0


def test_to_percentage_out_of_scale():
    with pytest.raises(OutOfRange):
        to_percentage(6, RULER_SCALE)
    with pytest.raises(OutOfRange):
        to_percentage(0, VERSE_SCALE)


def test_to_percentage_bijective_even_spacing():
    points = [to_percentage(s, RULER_SCALE) for s in range(1, 6)]
    assert points == [0.0, 25.0, 50.0, 75.0, 100.0]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=30))
def test_mean_then_map_equals_map_then_mean(scores):
    mapped = [to_percentage(s, RULER_SCALE) for s in scores]
    map_then_mean = sum(mapped) / len(mapped)
    mean_then_map = 100.0 * (sum(scores) / len(scores) - 1) / 4
    assert map_then_mean == pytest.approx(mean_then_map, abs=1e-9)


def test_scale_validation():
    with pytest.raises(ValueError):
        ScoreScale(3, 3)


# -- aggregate table --

def _card(system, story, index, score):
    return RubricScorecard(
        system_id=system, story_id=story, index=index,
        scores={c: score for c in CRITERIA},
    )


def _questions_one_per_category():
    return [
        VerseQuestion(f"q{i}", "st", 0, f"t{i}", category=c)
        for i, c in enumerate(CATEGORIES)
    ]


def test_aggregate_table_endpoints():
    cards = [_card("best", "st", i, 5) for i in range(3)]
    cards += [_card("worst", "st", i, 1) for i in range(3)]
    questions = _questions_one_per_category()
    grades = [VerseGrade(q.question_id, "best", 3) for q in questions]
    grades += [VerseGrade(q.question_id, "worst", 1) for q in questions]
    table = aggregate_table(cards, grades, questions)
    for criterion in CRITERIA:
        assert table.ruler["best"][criterion].value == pytest.approx(100.0)
        assert table.ruler["worst"][criterion].value == pytest.approx(0.0)
        assert table.ruler["best"][criterion].n == 3
    assert table.verse_mean["best"].value == pytest.approx(100.0)
    assert table.verse_mean["worst"].value == pytest.approx(0.0)


def test_aggregate_table_mean_is_mean_of_category_cells():
    questions = _questions_one_per_category()
    # two questions in the first category so the question-level mean would differ
    questions.append(VerseQuestion("extra", "st", 0, "t", category=CATEGORIES[0]))
    grades = [VerseGrade(q.question_id, "sys", 3) for q in questions[:-1]]
    grades.append(VerseGrade("extra", "sys", 1))
    table = aggregate_table([], grades, questions)
    cells = table.verse_categories["sys"]
    assert cells[CATEGORIES[0]].value == pytest.approx(50.0)
    expected_mean = (50.0 + 8 * 100.0) / 9
    assert table.verse_mean["sys"].value == pytest.approx(expected_mean)


def test_aggregate_table_empty_rejected():
    with pytest.raises(EmptyRun):
        aggregate_table([], [], [])


def test_aggregate_cell_counts_sum_to_evaluations():
    cards = [_card("sys", "st", i, 3) for i in range(7)]
    questions = _questions_one_per_category()
    # grade only six of the nine questions so counts are non-trivial
    grades = [VerseGrade(q.question_id, "sys", 2) for q in questions[:6]]
    table = aggregate_table(cards, grades, questions)
    ruler_total = sum(table.ruler["sys"][c].n for c in CRITERIA)
    assert ruler_total == 4 * len(cards)
    verse_total = sum(cell.n for cell in table.verse_categories["sys"].values())
    assert verse_total == len(grades)  # top-1 labels partition the questions


def test_aggregate_table_csv_and_dict(tmp_path):
    cards = [_card("sys", "st", 0, 4)]
    table = aggregate_table(cards, [], [])
    csv_text = table_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("system_id,Honorifics,Honorifics_n,Syntax and Grammar")
    assert lines[1].startswith("sys,75.00,1,75.00,1")
    data = table_to_dict(table)
    assert data["ruler"]["sys"]["honorifics"] == {"value": 75.0, "n": 1}


def test_baseline_columns_appended():
    table = aggregate_table([_card("sys", "st", 0, 3)], [], [])
    append_baseline_columns(table, [{"system_id": "sys", "COMET": "0.82"}])
    assert table.extra_columns["COMET"]["sys"] == pytest.approx(0.82)
    assert "COMET" in table_to_csv(table).splitlines()[0]


# -- agreement / confusion exports --

def test_agreement_csv_column_order():
    report = AgreementReport(tau=0.7, rho=0.74, mse=0.86, alpha=None, n_items=5, n_raters=3)
    text = agreement_to_csv({"honorifics": report})
    lines = text.strip().splitlines()
    assert lines[0] == "channel,tau,rho,mse,alpha,n_items,n_raters"
    assert lines[1] == "honorifics,0.7000,0.7400,0.8600,undefined,5,3"


def test_confusion_csv_marginals():
    rep = per_label_prf([1, 1, 2], [1, 2, 2], [1, 2])
    text = confusion_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "gold\\pred,1,2,total"
    assert lines[1] == "1,1,1,2"
    assert lines[2] == "2,0,1,1"
    assert lines[3] == "total,1,2,3"


# -- radar --

AXES9 = list(CATEGORIES)


def test_radar_deterministic_bytes():
    series = [("sysA", [90.0] * 9), ("sysB", [70.0] * 9)]
    a = radar_svg(AXES9, series, axis_min=40.0)
    b = radar_svg(AXES9, series, axis_min=40.0)
    assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()
    assert a.startswith(b"<svg")


def test_radar_constant_series_is_regular_polygon():
    svg = radar_svg(AXES9, [("sys", [100.0] * 9)]).decode("utf-8")
    polygons = [ln for ln in svg.splitlines() if "fill-opacity" in ln]
    assert len(polygons) == 1
    points = polygons[0].split('points="')[1].split('"')[0].split()
    assert len(points) == 9
    # all vertices sit on the outer ring: equidistant from center
    import math

    cx = cy = 320.0
    radii = []
    for point in points:
        x, y = map(float, point.split(","))
        radii.append(math.hypot(x - cx, y - cy))
    assert max(radii) - min(radii) < 0.05


def test_radar_clamps_below_axis_min_with_warning():
    with pytest.warns(UserWarning, match="clamped"):
        svg = radar_svg(["a", "b", "c"], [("s", [30.0, 50.0, 60.0])], axis_min=40.0)
    assert svg  # clamped but rendered


def test_radar_errors():
    with pytest.raises(ChartError):
        radar_svg(["a", "b"], [("s", [1.0, 2.0])])
    with pytest.raises(OutOfRange):
        radar_svg(["a", "b", "c"], [("s", [10.0, 20.0, 120.0])])
    with pytest.raises(ChartError):
        radar_svg(["a", "b", "c"], [("s", [10.0, 20.0])])


def test_radar_legend_contains_series_names():
    svg = radar_svg(AXES9, [("alpha & beta", [50.0] * 9)]).decode("utf-8")
    assert "alpha &amp; beta" in svg
