from __future__ import annotations

import pytest

from conftest import cache_entries, make_judge
from rulerverse.errors import (
    NoQuestionsParsed,
    OutOfRange,
    UnclassifiedQuestion,
    UnknownItem,
    UnmappableCategory,
)
from rulerverse.ruler import PromptOptions
from rulerverse.verse import (
    CATEGORIES,
    VerseGrade,
    VerseQuestion,
    aggregate_categories,
    classify_question,
    generate_questions,
    grade_question,
    parse_question_list,
)


@pytest.fixture
def pair(fixture_corpus):
    return fixture_corpus.pair("st-arbor", 3)


def _numbered(texts):
    return "\n".join(f"{i + 1}. {t}" for i, t in enumerate(texts))


# -- generation --

def test_generate_ten_questions(tmp_path, pair):
    script = {"rules": [], "default": _numbered([f"question {i}" for i in range(10)])}
    judge = make_judge(tmp_path, script=script)
    questions = generate_questions(pair, "summary", 10, judge)
    assert len(questions) == 10
    assert len({q.question_id for q in questions}) == 10
    assert all(q.story_id == "st-arbor" and q.index == 3 for q in questions)


def test_generate_prose_response_fails(tmp_path, pair):
    script = {"rules": [], "default": "These are good questions to consider overall."}
    judge = make_judge(tmp_path, script=script)
    with pytest.raises(NoQuestionsParsed):
        generate_questions(pair, "s", 10, judge)


def test_generate_drops_empty_items(tmp_path, pair):
    script = {"rules": [], "default": "1. keep one\n2. keep two\n3.\n4. keep three"}
    judge = make_judge(tmp_path, script=script)
    questions = generate_questions(pair, "s", 10, judge)
    assert [q.text for q in questions] == ["keep one", "keep two", "keep three"]


def test_generate_caps_overshoot(tmp_path, pair, caplog):
    script = {"rules": [], "default": _numbered([f"q{i}" for i in range(30)])}
    judge = make_judge(tmp_path, script=script)
    questions = generate_questions(pair, "s", 10, judge)
    assert len(questions) == 15  # n_target + 5


def test_generate_deterministic_ids(tmp_path, pair):
    script = {"rules": [], "default": _numbered(["alpha", "beta"])}
    judge = make_judge(tmp_path, script=script)
    first = generate_questions(pair, "s", 10, judge)
    second = generate_questions(pair, "s", 10, judge)
    assert [(q.question_id, q.text) for q in first] == [
        (q.question_id, q.text) for q in second
    ]


def test_parse_question_list_variants():
    assert parse_question_list("1) one\n 2. two") == ["one", "two"]
    with pytest.raises(NoQuestionsParsed):
        parse_question_list("no list here")


# -- classification --

def test_classify_exact_label(tmp_path):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Narrative Pacing and Rhythm"})
    q = VerseQuestion("q1", "s", 0, "Is the pacing kept?")
    assert classify_question(q, judge) == "Narrative Pacing and Rhythm"


def test_classify_normalizes_case_and_quotes(tmp_path):
    judge = make_judge(
        tmp_path, script={"rules": [], "default": '"narrative pacing and rhythm".'}
    )
    q = VerseQuestion("q1", "s", 0, "Is the pacing kept?")
    assert classify_question(q, judge) == "Narrative Pacing and Rhythm"


def test_classify_reprompt_recovers(tmp_path):
    script = {
        "rules": [
            {"contains": "Correction", "response": "Narrative Pacing and Rhythm"},
        ],
        "default": "pacing",
    }
    judge = make_judge(tmp_path, script=script)
    q = VerseQuestion("q1", "s", 0, "Is the pacing kept?")
    assert classify_question(q, judge) == "Narrative Pacing and Rhythm"
    # exactly two backend calls: original + reprompt
    assert judge.stats["backend_calls"] == 2


def test_classify_fails_after_one_reprompt(tmp_path):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Plot"})
    q = VerseQuestion("q1", "s", 0, "Is the plot kept?")
    with pytest.raises(UnmappableCategory):
        classify_question(q, judge)
    assert judge.stats["backend_calls"] == 2


# -- grading --

def test_grade_full_satisfaction(tmp_path, pair):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Score: 3"})
    q = VerseQuestion("q1", pair.story_id, pair.index, "Is the imagery kept?")
    grade = grade_question(q, pair, "candidate", PromptOptions(), judge, system_id="sys")
    assert grade.score == 3
    assert grade.system_id == "sys"


def test_grade_out_of_range(tmp_path, pair):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Score: 0"})
    q = VerseQuestion("q1", pair.story_id, pair.index, "Is the imagery kept?")
    with pytest.raises(OutOfRange):
        grade_question(q, pair, "candidate", PromptOptions(), judge)


def test_grade_deterministic(tmp_path, pair):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Score: 2"})
    q = VerseQuestion("q1", pair.story_id, pair.index, "Is the imagery kept?")
    a = grade_question(q, pair, "candidate", PromptOptions(), judge)
    b = grade_question(q, pair, "candidate", PromptOptions(), judge)
    assert a == b


def test_grade_reference_free_prompt(tmp_path, pair):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Score: 2"})
    q = VerseQuestion("q1", pair.story_id, pair.index, "Is the imagery kept?")
    grade_question(q, pair, "cand", PromptOptions(include_reference=False), judge)
    grade_question(q, pair, "cand", PromptOptions(), judge)
    entries = list(cache_entries(tmp_path / "cache"))
    assert len(entries) == 2  # with vs without reference are distinct prompts


def test_grade_summary_toggleable(tmp_path, pair):
    from rulerverse.verse import build_grading_prompt

    q = VerseQuestion("q1", pair.story_id, pair.index, "Is the imagery kept?")
    with_summary = build_grading_prompt(q, pair, "cand", PromptOptions(), summary="the plot")
    without = build_grading_prompt(q, pair, "cand", PromptOptions(), summary="")
    assert "Story summary" in with_summary.user_text
    assert "Story summary" not in without.user_text


# -- aggregation --

def _classified(category, n, prefix="q"):
    return [
        VerseQuestion(f"{prefix}{category[:4]}{i}", "s", 0, f"text {i}", category=category)
        for i in range(n)
    ]


def test_aggregate_degenerate_single_category():
    questions = _classified("Imagery and Descriptive Quality", 10)
    grades = [VerseGrade(q.question_id, "sys", 3) for q in questions]
    result = aggregate_categories(questions, grades)
    cell = result["Imagery and Descriptive Quality"]
    assert cell.question_share == pytest.approx(100.0)
    assert cell.mean_score_percent == pytest.approx(100.0)
    assert cell.n == 10
    for category in CATEGORIES:
        if category != "Imagery and Descriptive Quality":
            assert result[category].question_share == 0.0
            assert result[category].mean_score_percent is None
            assert result[category].n == 0


def test_aggregate_minmax_midpoint():
    questions = _classified("Narrative Pacing and Rhythm", 2)
    grades = [
        VerseGrade(questions[0].question_id, "sys", 3),
        VerseGrade(questions[1].question_id, "sys", 1),
    ]
    result = aggregate_categories(questions, grades)
    assert result["Narrative Pacing and Rhythm"].mean_score_percent == pytest.approx(50.0)


def test_aggregate_shares_hand_checked():
    questions = (
        _classified(CATEGORIES[0], 5, "a")
        + _classified(CATEGORIES[1], 3, "b")
        + _classified(CATEGORIES[2], 1, "c")
        + _classified(CATEGORIES[3], 1, "d")
    )
    result = aggregate_categories(questions, [])
    shares = [result[c].question_share for c in CATEGORIES[:4]]
    assert shares == [pytest.approx(50.0), pytest.approx(30.0),
                      pytest.approx(10.0), pytest.approx(10.0)]


def test_aggregate_share_conservation():
    questions = (
        _classified(CATEGORIES[0], 3, "a")
        + _classified(CATEGORIES[4], 2, "b")
        + _classified(CATEGORIES[8], 2, "c")
    )
    result = aggregate_categories(questions, [])
    assert sum(result[c].question_share for c in CATEGORIES) == pytest.approx(100.0, abs=0.01)


def test_aggregate_rejects_unclassified():
    questions = [VerseQuestion("q1", "s", 0, "t", category=None)]
    with pytest.raises(UnclassifiedQuestion):
        aggregate_categories(questions, [])


def test_aggregate_rejects_unknown_grade():
    questions = _classified(CATEGORIES[0], 1)
    with pytest.raises(UnknownItem):
        aggregate_categories(questions, [VerseGrade("ghost", "sys", 2)])


def test_category_set_is_the_fixed_nine():
    assert len(CATEGORIES) == 9
    assert CATEGORIES[0] == "Historical and Cultural Context"
    assert CATEGORIES[-1] == "Overall Consistency and Cohesion"
