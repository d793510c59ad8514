"""Story-specific verification questions: generation, classification, grading.

Questions are generated once per paragraph and reused for every candidate
system, so all systems are graded against identical criteria.  Classification
is strict top-1 into the nine fixed categories; an answer outside the set gets
exactly one reprompt listing the valid labels before the item fails.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Sequence

from .corpus import VERSE_SCALE, ParagraphPair, _identifier, _item_key, _require, _score, to_percentage
from .errors import (
    CorpusFormatError,
    EmptyCandidate,
    NoQuestionsParsed,
    UnclassifiedQuestion,
    UnknownItem,
    UnmappableCategory,
)
from .judge import Judge, JudgeRequest
from .ruler import SYSTEM_TEXT, PromptOptions, judged_sections, parse_score

log = logging.getLogger(__name__)

CATEGORIES: tuple[str, ...] = (
    "Historical and Cultural Context",
    "Imagery and Descriptive Quality",
    "Character Voice, Tone, and Individuality",
    "Interpersonal Communication and Hierarchy",
    "Linguistic and Idiomatic Naturalness",
    "Nuanced Interpretation including Subtle Implications",
    "Narrative Pacing and Rhythm",
    "Affective and Stylistic Resonance",
    "Overall Consistency and Cohesion",
)

DEFAULT_N_QUESTIONS = 10
OVERSHOOT_ALLOWANCE = 5


@dataclass
class VerseQuestion:
    question_id: str
    story_id: str
    index: int
    text: str
    category: str | None = None


@dataclass
class VerseGrade:
    question_id: str
    system_id: str
    score: int


# -- generation --

def build_generation_prompt(pair: ParagraphPair, summary: str, n_target: int) -> JudgeRequest:
    return JudgeRequest.render(
        SYSTEM_TEXT,
        [
            (
                "Task",
                f"Read the passage below and write about {n_target} verification "
                "questions that a high-quality translation of this passage must "
                "satisfy. Focus on the literary aspects of the passage: voice, "
                "imagery, rhythm, cultural texture, and the subtleties a "
                "translation could lose. Return the questions as a numbered "
                "list, one question per line.",
            ),
            ("Story summary", summary.strip() or "(none provided)"),
            ("Source passage", pair.source_text),
        ]
    )


_NUMBERED_ITEM = re.compile(r"^\s*\d+\s*[.)]\s*(.*)$")


def parse_question_list(response_text: str) -> list[str]:
    """Texts of the numbered list items, markers stripped, empty items dropped."""
    items = []
    for line in response_text.splitlines():
        m = _NUMBERED_ITEM.match(line)
        if m is None:
            continue
        text = m.group(1).strip()
        if text:
            items.append(text)
    if not items:
        raise NoQuestionsParsed(f"no numbered list found in: {response_text[:80]!r}")
    return items


def generate_questions(
    pair: ParagraphPair, summary: str, n_target: int, judge: Judge
) -> list[VerseQuestion]:
    """Generate verification questions for one paragraph.

    Judges routinely overshoot the requested count, so anything up to
    n_target + 5 is kept; beyond that the list is truncated and logged.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if not summary.strip():
        log.info("no summary for story %s; generating without context", pair.story_id)
    response = judge.complete(build_generation_prompt(pair, summary, n_target))
    texts = parse_question_list(response.text)
    cap = n_target + OVERSHOOT_ALLOWANCE
    if len(texts) > cap:
        log.warning(
            "(%s, %d): %d questions generated, keeping first %d",
            pair.story_id, pair.index, len(texts), cap,
        )
        texts = texts[:cap]
    return [
        VerseQuestion(
            question_id=f"{pair.story_id}:{pair.index}:q{i + 1:02d}",
            story_id=pair.story_id,
            index=pair.index,
            text=text,
        )
        for i, text in enumerate(texts)
    ]


# -- classification --

def build_classification_prompt(question: VerseQuestion, reprompt_answer: str | None = None) -> JudgeRequest:
    sections = [
        (
            "Task",
            "Assign the verification question below to exactly one of the "
            "listed categories. Respond with the category name only.",
        ),
        ("Categories", "\n".join(f"- {c}" for c in CATEGORIES)),
        ("Question", question.text),
    ]
    if reprompt_answer is not None:
        sections.append(
            (
                "Correction",
                f"Your previous answer {reprompt_answer!r} is not one of the "
                "valid categories. Respond with exactly one category name from "
                "the list above, verbatim.",
            )
        )
    return JudgeRequest.render(SYSTEM_TEXT, sections)


_CANONICAL = {c.casefold(): c for c in CATEGORIES}


def _normalize_label(text: str) -> str | None:
    cleaned = text.strip().strip("\"'. \t")
    return _CANONICAL.get(cleaned.casefold())


def classify_question(question: VerseQuestion, judge: Judge) -> str:
    """Top-1 label from the fixed category set, with one corrective reprompt."""
    if not question.text.strip():
        raise EmptyCandidate(f"question {question.question_id} has no text")
    first = judge.complete(build_classification_prompt(question)).text
    label = _normalize_label(first)
    if label is not None:
        return label
    second = judge.complete(build_classification_prompt(question, reprompt_answer=first.strip())).text
    label = _normalize_label(second)
    if label is not None:
        return label
    raise UnmappableCategory(
        f"question {question.question_id}: {first.strip()!r} then {second.strip()!r}"
    )


# -- grading --

def build_grading_prompt(
    question: VerseQuestion,
    pair: ParagraphPair,
    candidate_text: str,
    options: PromptOptions,
    summary: str = "",
) -> JudgeRequest:
    sections = [
        (
            "Task",
            "Judge whether the candidate translation satisfies the verification "
            "question below. Score 1 if the criterion is not satisfied at all, "
            "2 if it is partially satisfied, and 3 if it is fully satisfied.",
        ),
        ("Question", question.text),
    ]
    if summary.strip():
        sections.append(("Story summary", summary.strip()))
    sections += judged_sections(pair, candidate_text, options, "1, 2, or 3")
    return JudgeRequest.render(SYSTEM_TEXT, sections)


def grade_question(
    question: VerseQuestion,
    pair: ParagraphPair,
    candidate_text: str,
    options: PromptOptions,
    judge: Judge,
    system_id: str = "",
    summary: str = "",
) -> VerseGrade:
    """Grade one candidate against one question on the 1..3 scale."""
    request = build_grading_prompt(question, pair, candidate_text, options, summary)
    score = parse_score(judge.complete(request).text, VERSE_SCALE.min, VERSE_SCALE.max)
    return VerseGrade(question.question_id, system_id, score)


# -- aggregation --

@dataclass(frozen=True)
class CategoryAggregate:
    question_share: float  # percent of questions in this category
    mean_score_percent: float | None  # None when the category has no grades
    n: int  # grades contributing to the mean


def aggregate_categories(
    questions: Sequence[VerseQuestion], grades: Sequence[VerseGrade], mapping: str = "minmax"
) -> dict[str, CategoryAggregate]:
    """Per-category question shares and mean grade percentages.

    Shares are computed over the question list and sum to 100 whenever any
    question exists; mean scores are computed over the grades of each
    category's questions via the score-to-percentage mapping.
    """
    category_of: dict[str, str] = {}
    q_counts = {c: 0 for c in CATEGORIES}
    for q in questions:
        if q.category is None:
            raise UnclassifiedQuestion(f"question {q.question_id} has no category")
        if q.category not in CATEGORIES:
            raise UnmappableCategory(f"question {q.question_id}: {q.category!r}")
        category_of[q.question_id] = q.category
        q_counts[q.category] += 1
    n_questions = len(questions)

    score_percents: dict[str, list[float]] = {c: [] for c in CATEGORIES}
    for grade in grades:
        category = category_of.get(grade.question_id)
        if category is None:
            raise UnknownItem(f"grade references unknown question {grade.question_id!r}")
        score_percents[category].append(to_percentage(grade.score, VERSE_SCALE, mapping))

    out: dict[str, CategoryAggregate] = {}
    for category in CATEGORIES:
        share = 100.0 * q_counts[category] / n_questions if n_questions else 0.0
        percents = score_percents[category]
        out[category] = CategoryAggregate(
            question_share=share,
            mean_score_percent=sum(percents) / len(percents) if percents else None,
            n=len(percents),
        )
    return out


# -- record (de)serialization --

def question_to_record(q: VerseQuestion) -> dict:
    return dict(q.__dict__)  # the fields in order, without dataclasses.asdict's deep copy


def question_from_record(record: dict, where: str = "question") -> VerseQuestion:
    question_id, text = _require(record, "question_id", where), _require(record, "text", where)
    if not (isinstance(question_id, str) and isinstance(text, str)):
        raise CorpusFormatError(f"{where}: question_id and text must be strings")
    category = record.get("category")
    if category is not None and not isinstance(category, str):
        raise CorpusFormatError(f"{where}: category must be null or a string")
    return VerseQuestion(question_id, *_item_key(record, where), text, category)


def grade_to_record(grade: VerseGrade, options_fp: str, model_id: str) -> dict:
    return {
        "question_id": grade.question_id,
        "system_id": grade.system_id,
        "score": grade.score,
        "options": options_fp,
        "model_id": model_id,
    }


def grade_from_record(record: dict, where: str = "grade") -> VerseGrade:
    return VerseGrade(
        question_id=_identifier(record, "question_id", where),
        system_id=_identifier(record, "system_id", where),
        score=_score(_require(record, "score", where), VERSE_SCALE, where),
    )
