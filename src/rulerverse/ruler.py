"""Rubric-based Likert scoring of candidate translations on four criteria.

Each paragraph costs one judge call per criterion.  Prompts are assembled from
fixed, individually toggleable sections so that flipping one option changes
exactly one block of the prompt, and the judge is always instructed to finish
with a "Score: N" line, which keeps parsing deterministic.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (CandidateSet, Corpus, ParagraphPair, _identifier, _item_key, _require,
                     _score, read_json, read_jsonl)
from .errors import (
    CorpusFormatError,
    EmptyCandidate,
    EvalError,
    InsufficientShots,
    OutOfRange,
    Unparsable,
)
from .judge import Judge, JudgeRequest
from .scales import RULER_SCALE

K_SHOT_CHOICES = (0, 5, 10, 15, 20)


class Criterion(Enum):
    HONORIFICS = "honorifics"
    LEXICAL_CHOICE = "lexical"
    SYNTAX_GRAMMAR = "syntax"
    CONTENT_ACCURACY = "content"

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    Criterion.HONORIFICS: "Honorifics",
    Criterion.LEXICAL_CHOICE: "Lexical Choice",
    Criterion.SYNTAX_GRAMMAR: "Syntax and Grammar",
    Criterion.CONTENT_ACCURACY: "Content Accuracy",
}

CRITERIA = tuple(Criterion)


@dataclass(frozen=True)
class CriterionRubric:
    preamble: str
    levels: dict[int, str]

    def __post_init__(self):
        if set(self.levels) != {1, 2, 3, 4, 5}:
            raise CorpusFormatError(
                f"rubric needs descriptors for levels 1..5, got {sorted(self.levels)}"
            )


@dataclass(frozen=True)
class RubricSet:
    criteria: dict[Criterion, CriterionRubric]

    def __post_init__(self):
        missing = [c.value for c in CRITERIA if c not in self.criteria]
        if missing:
            raise CorpusFormatError(f"rubric missing criteria: {missing}")


def load_rubric(path: Path | str) -> RubricSet:
    """Read a rubric data file: {"criteria": {channel: {preamble, levels}}}."""
    return _rubric_from_dict(read_json(path), str(path))


def bundled_rubric() -> RubricSet:
    """The complete English example rubric shipped with the package."""
    text = resources.files("rulerverse").joinpath("data/rubric_en.json").read_text("utf-8")
    return _rubric_from_dict(json.loads(text), "bundled rubric")


def _rubric_from_dict(data: dict, where: str) -> RubricSet:
    raw = data.get("criteria")
    if not isinstance(raw, dict):
        raise CorpusFormatError(f"{where}: rubric file needs a 'criteria' object")
    criteria: dict[Criterion, CriterionRubric] = {}
    for criterion in CRITERIA:
        entry = raw.get(criterion.value)
        if entry is None:
            continue
        levels = entry.get("levels", {}) if isinstance(entry, dict) else None
        if not isinstance(levels, dict):
            raise CorpusFormatError(f"{where}: {criterion.value} needs a 'levels' object")
        try:
            levels = {int(k): str(v) for k, v in levels.items()}
        except ValueError:
            raise CorpusFormatError(f"{where}: {criterion.value} levels must be integers") from None
        criteria[criterion] = CriterionRubric(
            preamble=str(entry.get("preamble", "")), levels=levels
        )
    return RubricSet(criteria=criteria)


@dataclass(frozen=True)
class PromptOptions:
    """Toggles for the judge prompt; defaults are the plain zero-shot setup."""

    use_cot: bool = False
    k_shot: int = 0
    include_reference: bool = True
    include_rubric: bool = True
    reference_index: int = 0

    def __post_init__(self):
        if self.k_shot not in K_SHOT_CHOICES:
            raise ValueError(f"k_shot must be one of {K_SHOT_CHOICES}, got {self.k_shot}")
        if self.reference_index < 0:
            raise ValueError("reference_index must be >= 0")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ScoredExample:
    """One worked few-shot example for a single criterion."""

    story_id: str
    criterion: Criterion
    source_text: str
    candidate_text: str
    score: int
    reference_text: str = ""


def load_example_bank(path: Path | str) -> list[ScoredExample]:
    bank: list[ScoredExample] = []
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        try:
            criterion = Criterion(record["criterion"])
        except (KeyError, ValueError):
            raise CorpusFormatError(f"{where}: bad or missing criterion") from None
        score = _score(record.get("score"), RULER_SCALE, where)
        bank.append(
            ScoredExample(
                story_id=_identifier(record, "story_id", where),
                criterion=criterion,
                source_text=str(_require(record, "source_text", where)),
                candidate_text=str(_require(record, "candidate_text", where)),
                score=score,
                reference_text=str(record.get("reference_text", "")),
            )
        )
    return bank


SYSTEM_TEXT = "You are an expert evaluator of literary translation quality."


def _format_shot(example: ScoredExample) -> str:
    parts = [f"Source: {example.source_text}"]
    if example.reference_text:
        parts.append(f"Reference: {example.reference_text}")
    parts.append(f"Candidate: {example.candidate_text}")
    parts.append(f"Score: {example.score}")
    return "\n".join(parts)


def select_shots(
    shots: Sequence[ScoredExample], criterion: Criterion, story_id: str, k: int
) -> list[ScoredExample]:
    """First k bank entries for the criterion, never from the story under evaluation."""
    usable = [s for s in shots if s.criterion is criterion and s.story_id != story_id]
    if len(usable) < k:
        raise InsufficientShots(
            f"{criterion.value}: bank holds {len(usable)} usable examples, need {k}"
        )
    return usable[:k]


def build_ruler_prompt(
    criterion: Criterion,
    pair: ParagraphPair,
    candidate_text: str,
    rubric: RubricSet,
    summary: str,
    options: PromptOptions,
    shots: Sequence[ScoredExample] = (),
) -> JudgeRequest:
    """Prompt blocks in fixed order; each toggle adds or removes exactly one."""
    sections: list[tuple[str, str]] = [
        (
            "Task",
            "Evaluate the candidate translation of the passage below on one "
            f"criterion: {criterion.display_name}. Rate it on a scale of 1 "
            "(worst) to 5 (best).",
        )
    ]
    if options.include_rubric:
        cr = rubric.criteria[criterion]
        lines = [cr.preamble] if cr.preamble else []
        lines += [f"{level}: {cr.levels[level]}" for level in range(1, 6)]
        sections.append(("Rubric", "\n".join(lines)))
    sections.append(("Story summary", summary.strip() or "(none provided)"))
    if options.k_shot > 0:
        chosen = select_shots(shots, criterion, pair.story_id, options.k_shot)
        blocks = [
            f"Example {i + 1}:\n{_format_shot(s)}" for i, s in enumerate(chosen)
        ]
        sections.append(("Worked examples", "\n\n".join(blocks)))
    sections += judged_sections(pair, candidate_text, options, "an integer from 1 to 5")
    return JudgeRequest.render(SYSTEM_TEXT, sections)


def judged_sections(
    pair: ParagraphPair, candidate_text: str, options: PromptOptions, scale_text: str
) -> list[tuple[str, str]]:
    """The tail of every scoring prompt: the texts under judgement and the
    instruction to end with a "Score: N" line, N being `scale_text`."""
    if not candidate_text.strip():
        raise EmptyCandidate(f"empty candidate for ({pair.story_id!r}, {pair.index})")
    sections = [("Source passage", pair.source_text)]
    if options.include_reference:
        sections.append(("Reference translation", pair.reference(options.reference_index)))
    sections.append(("Candidate translation", candidate_text))
    if options.use_cot:
        instruction = ("Explain your reasoning briefly, then end your response with a final "
                       f'line of the form "Score: N" where N is {scale_text}.')
    else:
        instruction = (f'Respond with a single line of the form "Score: N" where N is '
                       f"{scale_text}. Do not add any other text.")
    return sections + [("Output format", instruction)]


_SCORE_LINE = re.compile(r"^\s*Score:\s*([+-]?\d+)\s*$", re.MULTILINE)


def parse_score(response_text: str, lo: int, hi: int) -> int:
    """Pull the final "Score: N" line out of a judge response."""
    matches = _SCORE_LINE.findall(response_text)
    if not matches:
        raise Unparsable(f"no score line in response: {response_text[:80]!r}")
    value = int(matches[-1])
    if not lo <= value <= hi:
        raise OutOfRange(value, lo, hi)
    return value


def parse_likert_score(response_text: str) -> int:
    """Extract the 1..5 score; the last conforming line wins.

    The instructed format puts the score on the final line for both the
    score-only and the reason-then-score prompt, so both parse alike.
    """
    return parse_score(response_text, RULER_SCALE.min, RULER_SCALE.max)


@dataclass
class RubricScorecard:
    system_id: str
    story_id: str
    index: int
    scores: dict[Criterion, int]


@dataclass(frozen=True)
class ItemFailure:
    system_id: str
    story_id: str
    index: int
    stage: str
    error: str
    message: str

    @classmethod
    def of(
        cls, exc: Exception, stage: str, story_id: str, index: int,
        system_id: str = "", question_id: str = "",
    ) -> "ItemFailure":
        """The record of an item that failed with `exc`."""
        message = f"{question_id}: {exc}" if question_id else str(exc)
        return cls(system_id, story_id, index, stage, type(exc).__name__, message)


def split_failures(outcomes: Sequence) -> tuple[list, list[ItemFailure]]:
    """A stage's outcomes as (successes, failures), each in input order."""
    failures = [o for o in outcomes if isinstance(o, ItemFailure)]
    return [o for o in outcomes if not isinstance(o, ItemFailure)], failures


def score_item(
    corpus: Corpus,
    candidates: CandidateSet,
    pair: ParagraphPair,
    rubric: RubricSet,
    options: PromptOptions,
    judge: Judge,
    shots: Sequence[ScoredExample] = (),
) -> RubricScorecard | ItemFailure:
    """One paragraph's scores on all four criteria, or the failure of its first
    failing criterion."""
    candidate_text = candidates.translations[(pair.story_id, pair.index)]
    summary = corpus.story(pair.story_id).summary
    scores: dict[Criterion, int] = {}
    for criterion in CRITERIA:
        try:
            request = build_ruler_prompt(
                criterion, pair, candidate_text, rubric, summary, options, shots
            )
            scores[criterion] = parse_likert_score(judge.complete(request).text)
        except EvalError as exc:
            return ItemFailure.of(
                exc, f"ruler:{criterion.value}", pair.story_id, pair.index, candidates.system_id
            )
    return RubricScorecard(candidates.system_id, pair.story_id, pair.index, scores)


@dataclass
class HonorificsAudit:
    """Judge compliance with the no-dialogue default on tagged paragraphs."""

    checked: int
    compliant: int
    untagged: int
    violations: list[dict]


def audit_honorifics(scorecards: Iterable[RubricScorecard], corpus: Corpus) -> HonorificsAudit:
    """Flag non-dialogue paragraphs whose honorifics score is not 5."""
    checked = compliant = untagged = 0
    violations: list[dict] = []
    for card in scorecards:
        pair = corpus.pair(card.story_id, card.index)
        if pair.has_dialogue is None:
            untagged += 1
            continue
        if pair.has_dialogue:
            continue
        checked += 1
        score = card.scores[Criterion.HONORIFICS]
        if score == 5:
            compliant += 1
        else:
            violations.append(
                {
                    "system_id": card.system_id,
                    "story_id": card.story_id,
                    "index": card.index,
                    "score": score,
                }
            )
    return HonorificsAudit(
        checked=checked, compliant=compliant, untagged=untagged, violations=violations
    )


# -- scorecard records (one per (system_id, story_id, index)) --

def scorecard_to_record(card: RubricScorecard, options_fp: str, model_id: str) -> dict:
    return {
        "system_id": card.system_id,
        "story_id": card.story_id,
        "index": card.index,
        "scores": {c.value: card.scores[c] for c in CRITERIA},
        "options": options_fp,
        "model_id": model_id,
    }


def scorecard_from_record(record: dict, where: str = "scorecard") -> RubricScorecard:
    story_id, index = _item_key(record, where)
    scores = _require(record, "scores", where)
    names = sorted(c.value for c in CRITERIA)
    if not isinstance(scores, dict) or sorted(scores) != names:
        raise CorpusFormatError(f"{where}: scores must map each of {names} to a score")
    return RubricScorecard(
        system_id=_identifier(record, "system_id", where),
        story_id=story_id,
        index=index,
        scores={Criterion(k): _score(v, RULER_SCALE, where, f"scores.{k}")
                for k, v in scores.items()},
    )
