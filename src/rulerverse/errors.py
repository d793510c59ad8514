"""Exception types shared across the evaluation pipeline.

Every error the pipeline can raise deliberately derives from EvalError so the
CLI can turn any failure into a machine-readable payload and a nonzero exit.
"""
from __future__ import annotations


class EvalError(Exception):
    """Base class for all deliberate pipeline errors."""


# -- corpus --

class CorpusFormatError(EvalError):
    """Malformed record in a corpus, candidate, rubric, or annotation file."""


class DuplicateItem(EvalError):
    """Two records claim the same (story_id, index) or item key."""


class NonContiguousIndex(EvalError):
    """Paragraph indices of a story do not run 0..n-1."""


class EmptyText(EvalError):
    """A source, reference, or candidate text is empty."""


class UnknownItem(EvalError):
    """A record references a (story_id, index) or id not in the corpus."""


class DanglingAnnotation(EvalError):
    """An annotation references an item that does not exist."""


class SamplingError(EvalError):
    """Sampling preconditions violated (too few paragraphs or questions)."""


# -- judge --

class TransportExhausted(EvalError):
    """Live backend failed on every retry, or in a way no retry can mend."""


class BackendResponseError(EvalError):
    """Live backend answered with an error status or a malformed body."""

    def __init__(self, status: int, detail: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.retry_after = retry_after  # seconds, from a Retry-After header
        # rate limits and server errors may pass; other answers will not change
        self.transient = status == 429 or status >= 500


class EmptyCompletion(EvalError):
    """Backend returned an empty completion."""


class MockScriptMiss(EvalError):
    """Mock backend has no matching entry and no fallback rule."""


# -- response parsing --

class Unparsable(EvalError):
    """Judge response contains no score token in the instructed format."""


class OutOfRange(EvalError):
    """Score token parsed but outside the allowed range."""

    def __init__(self, value: int, lo: int, hi: int):
        super().__init__(f"score {value} outside allowed range {lo}..{hi}")
        self.value = value


# -- prompt assembly --

class InsufficientShots(EvalError):
    """Example bank has fewer usable worked examples than k_shot requires."""


class EmptyCandidate(EvalError):
    """Candidate translation text is empty."""


class MissingReference(EvalError):
    """reference_index points past the available reference translations."""


class InsufficientBank(EvalError):
    """Translation example bank cannot satisfy the prompt spec."""


# -- verse --

class NoQuestionsParsed(EvalError):
    """Question-generation response contained no parsable numbered list."""


class UnmappableCategory(EvalError):
    """Classification response matched no category even after reprompt."""


class UnclassifiedQuestion(EvalError):
    """A grade references a question that has no category."""


# -- metrics --

class LengthMismatch(EvalError):
    """Paired vectors differ in length or item ids."""


class TooFewItems(EvalError):
    """Metric needs more items than were provided."""


class MissingValue(EvalError):
    """Paired metric input contains a missing score."""


class EmptyInput(EvalError):
    """Metric input is empty."""


class InsufficientOverlap(EvalError):
    """No item carries two or more ratings."""


class LabelError(EvalError):
    """A label falls outside the declared label set."""


class NoCommonItems(EvalError):
    """A rater pair shares no rated items."""


# -- report / cli --

class EmptyRun(EvalError):
    """No completed scores or grades to report on."""


class MixedFingerprint(EvalError):
    """Input artifacts carry different config fingerprints."""


class ChartError(EvalError):
    """Radar chart input invalid (fewer than 3 axes)."""
