"""Candidate generation with few-shot plus story-summary prompting.

The `translate` stage's judge sends no temperature, so the backend samples at
its own default rather than at the evaluation default of 0.0, and example
pairs never come from the story being translated.  Sentence
granularity exists only to diversify outputs; paragraph mode is the normal
path.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass

from .corpus import Corpus, ParagraphPair
from .errors import InsufficientBank
from .judge import Judge, JudgeRequest

GRANULARITIES = ("paragraph", "sentence")

SYSTEM_TEXT = "You are a skilled literary translator."


@dataclass(frozen=True)
class TranslationPromptSpec:
    n_shots: int = 5
    include_summary: bool = True
    granularity: str = "paragraph"
    bank_story_ids: tuple[str, ...] = ()
    # the example pool should offer both dialogue and narrative paragraphs;
    # disable for corpora without has_dialogue metadata
    require_dialogue_mix: bool = True

    def __post_init__(self):
        if self.n_shots < 0:
            raise ValueError("n_shots must be >= 0")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def select_shot_pairs(
    corpus: Corpus, spec: TranslationPromptSpec, exclude_story: str
) -> list[ParagraphPair]:
    """Deterministic example pairs: corpus order over the bank stories, with a
    dialogue and a narrative paragraph swapped in when the mix is required."""
    pool = [
        p
        for sid in spec.bank_story_ids
        if sid != exclude_story
        for p in corpus.story(sid).paragraphs
    ]
    if len(pool) < spec.n_shots:
        raise InsufficientBank(
            f"bank offers {len(pool)} paragraphs outside story {exclude_story!r}, "
            f"need {spec.n_shots}"
        )
    chosen = pool[: spec.n_shots]
    if spec.require_dialogue_mix and spec.n_shots >= 2:
        for wanted in (True, False):
            if any(p.has_dialogue is wanted for p in chosen):
                continue
            replacement = next((p for p in pool if p.has_dialogue is wanted), None)
            if replacement is None:
                raise InsufficientBank(
                    f"bank has no paragraph tagged has_dialogue={wanted}"
                )
            chosen[-1 if wanted is False else 0] = replacement
    return chosen


def build_translation_prompt(
    source_text: str,
    shots: list[ParagraphPair],
    summary: str,
    include_summary: bool,
) -> JudgeRequest:
    sections: list[tuple[str, str]] = [
        (
            "Task",
            "Translate the source passage into the target language of the "
            "examples, preserving literary style, tone, and register. Output "
            "only the translation.",
        )
    ]
    if include_summary and summary.strip():
        sections.append(("Story summary", summary.strip()))
    if shots:
        blocks = [
            f"Example {i + 1}:\nSource: {p.source_text}\nTranslation: {p.references[0]}"
            for i, p in enumerate(shots)
        ]
        sections.append(("Examples", "\n\n".join(blocks)))
    sections.append(("Source passage", source_text))
    return JudgeRequest.render(SYSTEM_TEXT, sections)


_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """Naive split on terminal punctuation; good enough for diversity runs."""
    parts = [s.strip() for s in _SENTENCE_END.split(text)]
    return [s for s in parts if s]


def translate_pair(
    corpus: Corpus, pair: ParagraphPair, spec: TranslationPromptSpec, judge: Judge
) -> str:
    """One paragraph's candidate text: the paragraph translated whole, or its
    sentences translated one by one and joined.  Raises EvalError on failure."""
    summary = corpus.story(pair.story_id).summary
    shots = select_shot_pairs(corpus, spec, exclude_story=pair.story_id) if spec.n_shots > 0 else []
    sources = (split_sentences(pair.source_text) if spec.granularity == "sentence"
               else [pair.source_text])
    return " ".join(
        judge.complete(build_translation_prompt(s, shots, summary, spec.include_summary)).text.strip()
        for s in sources
    )
